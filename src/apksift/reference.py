"""System-API reference vocabularies at package, class and method granularity.

A reference list pins the feature space: its sorted unique entries define
both the vector dimension and the index of every key. Canonical key syntax:

    package   java/io                          (all segments lowercase)
    class     java/io/FileInputStream          (final segment capitalized)
    method    java/io/FileInputStream;->read   (descriptor excluded)

The capitalization rule is what lets the loader reject, say, a class key in
a package-granularity file. Method keys drop the parameter descriptor so
overloads collapse onto one feature.

File format: UTF-8 text, one key per line, ``#`` comments and blanks
ignored, with header comments ``# granularity: package|class|method`` and
optionally ``# api-level: <int>``.
"""

from __future__ import annotations

import enum
import hashlib
import logging
import re
from dataclasses import dataclass, field
from typing import Iterable

from .errors import GranularityMismatch, InvalidProjection, IoFailure, MalformedKey
from .invokes import MethodRef

logger = logging.getLogger(__name__)


class Granularity(enum.Enum):
    Package = "package"
    Class = "class"
    Method = "method"

    @property
    def depth(self) -> int:
        return {"package": 0, "class": 1, "method": 2}[self.value]

    @classmethod
    def from_token(cls, token: str) -> "Granularity":
        try:
            return cls(token.strip().lower())
        except ValueError:
            raise ValueError(f"unknown granularity {token!r}") from None


_SEG = r"[a-z0-9_$-]+"
_CLASS = rf"(?:{_SEG}/)+[A-Z][A-Za-z0-9_$]*"
_PACKAGE_RE = re.compile(rf"^{_SEG}(?:/{_SEG})*$")
_CLASS_RE = re.compile(rf"^{_CLASS}$")
_METHOD_RE = re.compile(rf"^{_CLASS};->(?:<?[A-Za-z0-9_$]+>?)(?:\(.*)?$")

_KEY_RE = {
    Granularity.Package: _PACKAGE_RE,
    Granularity.Class: _CLASS_RE,
    Granularity.Method: _METHOD_RE,
}

# conventional filenames for a directory of reference lists
REFERENCE_FILENAMES = {
    Granularity.Package: "packages.txt",
    Granularity.Class: "classes.txt",
    Granularity.Method: "methods.txt",
}


@dataclass(frozen=True)
class ApiReferenceList:
    """Ordered System-API vocabulary at one granularity."""

    granularity: Granularity
    api_level: int | None
    entries: tuple[str, ...]
    index_of: dict[str, int] = field(compare=False, repr=False)

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def fingerprint(self) -> str:
        h = hashlib.sha256()
        h.update(self.granularity.value.encode())
        for entry in self.entries:
            h.update(b"\n")
            h.update(entry.encode())
        return h.hexdigest()[:16]


def _build(
    granularity: Granularity,
    numbered_keys: Iterable[tuple[int, str]],
    api_level: int | None,
) -> ApiReferenceList:
    """Validate, deduplicate and sort (line number, key) pairs."""
    pattern = _KEY_RE[granularity]
    seen = set()
    for line_no, key in numbered_keys:
        if not pattern.match(key):
            raise MalformedKey(line_no, f"{key!r} is not a {granularity.value} key")
        seen.add(key)
    entries = tuple(sorted(seen))
    return ApiReferenceList(
        granularity=granularity,
        api_level=api_level,
        entries=entries,
        index_of={k: i for i, k in enumerate(entries)},
    )


def make_reference(
    granularity: Granularity,
    keys: Iterable[str],
    api_level: int | None = None,
) -> ApiReferenceList:
    """Build a reference list from keys: validate, deduplicate, sort."""
    return _build(granularity, enumerate(keys, start=1), api_level)


def load_reference(path, expected: Granularity | None = None) -> ApiReferenceList:
    """Load a reference-list file at the granularity its header declares.

    With ``expected`` set, a header that declares another granularity is a
    GranularityMismatch; with ``expected=None`` the header is trusted.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise IoFailure(str(exc)) from exc
    except UnicodeDecodeError as exc:
        raise GranularityMismatch(f"{path}: {exc}") from exc

    declared: Granularity | None = None
    api_level: int | None = None
    keys: list[tuple[int, str]] = []
    for line_no, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if body.lower().startswith("granularity:"):
                try:
                    header = Granularity.from_token(body.split(":", 1)[1])
                except ValueError as exc:
                    raise GranularityMismatch(f"{path}: {exc}") from exc
                if declared not in (None, header):
                    raise GranularityMismatch(
                        f"{path}: line {line_no} declares {header.value}, "
                        f"but an earlier header declares {declared.value}"
                    )
                declared = header
            elif body.lower().startswith("api-level:"):
                try:
                    api_level = int(body.split(":", 1)[1].strip())
                except ValueError:
                    pass
            continue
        keys.append((line_no, line))

    if declared is None:
        raise GranularityMismatch(f"{path}: no '# granularity:' header")
    if expected is not None and declared is not expected:
        raise GranularityMismatch(f"{path}: declares {declared.value}, expected {expected.value}")
    ref = _build(declared, keys, api_level)
    if len(keys) > len(ref):
        logger.warning("%s: dropped %d duplicate entries", path, len(keys) - len(ref))
    return ref


def save_reference(ref: ApiReferenceList, path) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(f"# granularity: {ref.granularity.value}\n")
            if ref.api_level is not None:
                fh.write(f"# api-level: {ref.api_level}\n")
            for entry in ref.entries:
                fh.write(entry + "\n")
    except OSError as exc:
        raise IoFailure(str(exc)) from exc


def key_of(target: MethodRef, g: Granularity) -> str | None:
    """Canonical feature key of an invocation target, or None if keyless."""
    if not target.class_path:
        return None
    if g is Granularity.Package:
        return target.package
    if g is Granularity.Class:
        return target.class_path
    return f"{target.class_path};->{target.name}"


def _coarsen(key: str, src: Granularity, dst: Granularity) -> str:
    if src is Granularity.Method:
        key = key.split(";->", 1)[0]  # now a class key
        if dst is Granularity.Class:
            return key
    # class -> package
    return key.rsplit("/", 1)[0]


def project(ref: ApiReferenceList, to: Granularity) -> ApiReferenceList:
    """Project a vocabulary onto a strictly coarser granularity."""
    if to.depth >= ref.granularity.depth:
        raise InvalidProjection(
            f"{ref.granularity.value} -> {to.value} is not a coarsening"
        )
    keys = {_coarsen(k, ref.granularity, to) for k in ref.entries}
    return make_reference(to, sorted(keys), api_level=ref.api_level)
