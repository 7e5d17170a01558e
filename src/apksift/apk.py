"""Application-package ingestion: locate and pull embedded DEX blobs.

Only `classes.dex` / `classesN.dex` entries are read; manifests, resources
and native libraries are never touched. Enumeration goes through the zip
central directory (zipfile refuses archives without one), so local-header-only
archives are rejected up front.
"""

from __future__ import annotations

import lzma
import re
import zipfile
import zlib
from dataclasses import dataclass

from .errors import IoFailure, NoDexFound, NotAZipArchive

_DEX_ENTRY = re.compile(r"^classes([2-9][0-9]*)?\.dex$")

# what zipfile raises on an entry it cannot inflate: a bad deflate or lzma
# stream, an unknown compression method, the encryption flag (which Android
# ignores), or data that ends before its declared size
_CORRUPT_STREAM = (
    zipfile.BadZipFile, zlib.error, lzma.LZMAError, NotImplementedError, RuntimeError, EOFError
)


@dataclass(frozen=True)
class ApkPackage:
    """An opened application package: its DEX payloads, in entry-name order."""

    dex_blobs: tuple[bytes, ...]


def open_apk(source) -> ApkPackage:
    """Open an apk (path or binary file object) and extract every DEX blob.

    Blobs are ordered by entry-name lexicographic order. Raises
    NotAZipArchive for non-zip input, NoDexFound when no entry matches,
    IoFailure on OS errors.
    """
    if hasattr(source, "read"):
        return _open_apk_fileobj(source, getattr(source, "name", "<stream>"))
    try:
        with open(source, "rb") as fh:
            return _open_apk_fileobj(fh, str(source))
    except OSError as exc:
        raise IoFailure(str(exc)) from exc


def _open_apk_fileobj(fh, label: str) -> ApkPackage:
    try:
        zf = zipfile.ZipFile(fh)
    except zipfile.BadZipFile as exc:
        raise NotAZipArchive(f"{label}: {exc}") from exc
    except OSError as exc:
        raise IoFailure(str(exc)) from exc
    with zf:
        names = sorted(n for n in zf.namelist() if _DEX_ENTRY.match(n))
        if not names:
            raise NoDexFound(label)
        try:
            blobs = tuple(zf.read(n) for n in names)
        except _CORRUPT_STREAM as exc:
            raise NotAZipArchive(f"{label}: {str(exc) or type(exc).__name__}") from exc
        except OSError as exc:
            raise IoFailure(str(exc)) from exc
    return ApkPackage(dex_blobs=blobs)
