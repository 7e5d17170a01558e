"""Invocation-site domain types and the invoke-list text fixture format.

The text format is the interchange representation for test fixtures, the
obfuscation simulator and the synthetic corpus: one call site per line,

    <kind> <caller-class-descriptor> <target-signature>

with ``kind`` one of the five invoke mnemonics (optionally suffixed
``/range``), the caller as an ``L<path>;`` descriptor (``L;`` for an unknown
caller) and the target in smali convention
``L<class>;-><name>(<params>)<ret>``. Files are UTF-8 (a leading BOM is
skipped), lines are numbered as ``str.splitlines`` splits them, and after
stripping, ``#`` comments and blank lines are ignored.

The line grammar has one owner, ``split_invoke_line``; a bad line is a
MalformedLine naming the first bad line of the file (for a file that is not
UTF-8, the line of its first bad byte). Two readers sit on it:

* ``count_invoke_list`` is the feature path (``features.extract_from_sample``
  and ``caller_split``): it counts a file's stripped lines with one Counter
  and validates each distinct line once, in first-occurrence order, so the
  first bad distinct line is the file's first bad line. It builds no
  InvokeSite or MethodRef, and looks a bad line's number up only then.
* ``loads_invoke_list`` and ``load_invoke_list_text`` build one InvokeSite
  per line, for the stub profiles (``obfuscation.load_stub_profile`` and
  ``eval-obfuscation --stub``) and for the tests, whose oracle they are.

How a type descriptor names a class has one owner: ``class_path_of``.
"""

from __future__ import annotations

import enum
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import MalformedLine


class InvokeKind(enum.Enum):
    Virtual = "invoke-virtual"
    Super = "invoke-super"
    Direct = "invoke-direct"
    Static = "invoke-static"
    Interface = "invoke-interface"
    VirtualRange = "invoke-virtual/range"
    SuperRange = "invoke-super/range"
    DirectRange = "invoke-direct/range"
    StaticRange = "invoke-static/range"
    InterfaceRange = "invoke-interface/range"


_KIND_BY_TOKEN = {k.value: k for k in InvokeKind}

# Dalvik opcode byte for each kind and back; 35c run then 3rc run.
KIND_BY_OPCODE = {
    0x6E: InvokeKind.Virtual,
    0x6F: InvokeKind.Super,
    0x70: InvokeKind.Direct,
    0x71: InvokeKind.Static,
    0x72: InvokeKind.Interface,
    0x74: InvokeKind.VirtualRange,
    0x75: InvokeKind.SuperRange,
    0x76: InvokeKind.DirectRange,
    0x77: InvokeKind.StaticRange,
    0x78: InvokeKind.InterfaceRange,
}
OPCODE_BY_KIND = {k: op for op, k in KIND_BY_OPCODE.items()}


def class_path_of(descriptor: str) -> str | None:
    """Class path of a type descriptor: array markers and the ``L...;``
    framing stripped; None for a primitive or primitive-array type."""
    d = descriptor.lstrip("[")
    if d.startswith("L") and d.endswith(";"):
        return d[1:-1]
    return None


@dataclass(frozen=True, slots=True)
class MethodRef:
    """A resolved call target; ``class_path`` has no ``L``, ``;`` or array markers."""

    class_path: str
    name: str
    descriptor: str

    def signature(self) -> str:
        return f"L{self.class_path};->{self.name}{self.descriptor}"


@dataclass(frozen=True, slots=True)
class InvokeSite:
    """One invoke-type instruction: who calls what, and how."""

    kind: InvokeKind
    caller_class: str  # class-path form, may be empty for fixtures
    target: MethodRef


def split_invoke_line(line: str) -> tuple[InvokeKind, str, str, str, str]:
    """(kind, caller path, class path, name, descriptor) of one stripped line:
    the one owner of the line grammar. Raises ValueError naming the fault."""
    parts = line.split(" ")
    if len(parts) != 3:
        raise ValueError("expected '<kind> <caller> <target>' with single spaces")
    token, caller, sig = parts
    kind = _KIND_BY_TOKEN.get(token)
    if kind is None:
        raise ValueError(f"unknown invoke kind {token!r}")
    if not (caller.startswith("L") and caller.endswith(";")):
        raise ValueError(f"caller must be an L<path>; descriptor: {caller!r}")
    if not sig.startswith("L"):
        raise ValueError(f"target must start with 'L': {sig!r}")
    sep = sig.find(";->")
    if sep < 0:
        raise ValueError(f"target lacks ';->': {sig!r}")
    paren = sig.find("(", sep + 3)
    if paren <= sep + 3 or sig.find(")", sep + 3) < 0:
        raise ValueError(f"target lacks a descriptor: {sig!r}")
    if sep == 1:
        raise ValueError(f"empty class or method name: {sig!r}")
    return kind, caller[1:-1], sig[1:sep], sig[sep + 3 : paren], sig[paren:]


def parse_invoke_line(line: str) -> InvokeSite:
    kind, caller, class_path, name, descriptor = split_invoke_line(line)
    return InvokeSite(kind, caller, MethodRef(class_path, name, descriptor))


def format_invoke_site(site: InvokeSite) -> str:
    return f"{site.kind.value} L{site.caller_class}; {site.target.signature()}"


def loads_invoke_list(text: str) -> list[InvokeSite]:
    sites = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            sites.append(parse_invoke_line(line))
        except ValueError as exc:
            raise MalformedLine(line_no, str(exc)) from exc
    return sites


def dumps_invoke_list(sites: Iterable[InvokeSite]) -> str:
    return "".join(format_invoke_site(s) + "\n" for s in sites)


def _read_invoke_text(path) -> str:
    """A list file's text; a file that is not UTF-8 raises MalformedLine naming
    the line of its first bad byte, numbered as str.splitlines numbers lines."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:  # exc.object and exc.start skip the BOM
        prefix = exc.object[: exc.start].decode("utf-8")
        raise MalformedLine(len((prefix + "x").splitlines()), f"not UTF-8: {exc}") from None


def load_invoke_list_text(path) -> list[InvokeSite]:
    """Load a fixture file; raises MalformedLine naming the first bad line."""
    return loads_invoke_list(_read_invoke_text(path))


def count_invoke_list(path) -> Iterator[tuple[str, str, str, int]]:
    """(caller path, class path, name, occurrences) of each distinct line of an
    invoke-list file, in first-occurrence order, with no InvokeSite built.

    Each distinct line is validated once. The first bad distinct line is the
    file's first bad line, so MalformedLine names the line and message that
    load_invoke_list_text names; its number is looked up only then.
    """
    raw = _read_invoke_text(path).splitlines()
    for line, n in Counter(map(str.strip, raw)).items():
        if not line or line[0] == "#":
            continue
        try:
            _, caller, class_path, name, _ = split_invoke_line(line)
        except ValueError as exc:
            line_no = next(i for i, r in enumerate(raw, start=1) if r.strip() == line)
            raise MalformedLine(line_no, str(exc)) from exc
        yield caller, class_path, name, n


def dump_invoke_list_text(sites: Iterable[InvokeSite], path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(dumps_invoke_list(sites))
