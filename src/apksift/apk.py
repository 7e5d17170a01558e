"""Application-package ingestion: locate and pull embedded DEX blobs.

Only `classes.dex` / `classesN.dex` entries are read; manifests, resources
and native libraries are never touched. A dex entry must be stored or
deflated, the two methods Android's own zip reader (libziparchive) reads; any
other method is rejected before a byte of the entry is read, since zipfile
inflates an lzma or bzip2 entry's first read without bound. A dex entry is
read past its first HEADER_SIZE bytes only if they pass ``dex.check_header``
(magic, version, endian tag, header size), so an entry that cannot be a dex
(a zip bomb of zeros, with or without a dex magic in front) is never
inflated: its header bytes stand in for it, and ``dex.parse_dex`` rejects
them with the same error as the whole entry.
Enumeration goes through the zip central directory (zipfile refuses archives
without one), so local-header-only archives are rejected up front.
"""

from __future__ import annotations

import re
import zipfile
import zlib
from dataclasses import dataclass

from .dex import HEADER_SIZE, check_header
from .errors import ApksiftError, NoDexFound, NotAZipArchive

_DEX_ENTRY = re.compile(r"^classes([2-9][0-9]*)?\.dex$")

# what zipfile raises on an archive it cannot read: a bad or truncated central
# directory, a "version needed to extract" past zipfile's own, an entry name
# flagged UTF-8 that is not, a bad deflate stream, the encryption flag (which
# Android ignores), or data that ends before its declared size; and what
# _read_dex raises on a compression method other than stored or deflated
_CORRUPT_ZIP = (
    zipfile.BadZipFile,
    NotImplementedError,
    UnicodeDecodeError,
    zlib.error,
    RuntimeError,
    EOFError,
)

_DEX_METHODS = (zipfile.ZIP_STORED, zipfile.ZIP_DEFLATED)


def _read_dex(zf: zipfile.ZipFile, name: str) -> bytes:
    method = zf.getinfo(name).compress_type
    if method not in _DEX_METHODS:
        what = zipfile.compressor_names.get(method, f"method {method}")
        raise NotImplementedError(f"{name}: {what} compression; a dex entry is stored or deflated")
    with zf.open(name) as fh:
        head = fh.read(HEADER_SIZE)
    try:
        check_header(head)
    except ApksiftError:
        return head  # parse_dex raises the same error from these bytes
    return zf.read(name)


@dataclass(frozen=True)
class ApkPackage:
    """An opened application package: its DEX payloads, in entry-name order."""

    dex_blobs: tuple[bytes, ...]


def open_apk(source) -> ApkPackage:
    """Open an apk (path or binary file object) and extract every DEX blob.

    Blobs are ordered by entry-name lexicographic order. An entry whose
    first HEADER_SIZE bytes fail ``dex.check_header`` comes back as those
    bytes alone, and nothing past them is inflated. Raises NotAZipArchive
    for an archive zipfile cannot read or a dex entry neither stored nor
    deflated, NoDexFound when no entry matches; OS errors propagate as
    OSError.
    """
    label = getattr(source, "name", "<stream>") if hasattr(source, "read") else str(source)
    try:
        with zipfile.ZipFile(source) as zf:
            names = sorted(n for n in zf.namelist() if _DEX_ENTRY.match(n))
            blobs = tuple(_read_dex(zf, n) for n in names)
    except _CORRUPT_ZIP as exc:
        raise NotAZipArchive(f"{label}: {str(exc) or type(exc).__name__}") from exc
    if not blobs:
        raise NoDexFound(label)
    return ApkPackage(dex_blobs=blobs)
