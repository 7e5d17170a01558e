"""Invocation-site domain types and the invoke-list text fixture format.

The text format is the interchange representation for test fixtures, the
obfuscation simulator and the synthetic corpus: one call site per line,

    <kind> <caller-class-descriptor> <target-signature>

with ``kind`` one of the five invoke mnemonics (optionally suffixed
``/range``), the caller as an ``L<path>;`` descriptor (``L;`` for an unknown
caller) and the target in smali convention
``L<class>;-><name>(<params>)<ret>``. ``#`` comments and blank lines are
ignored.

How a type descriptor names a class has one owner: ``class_path_of``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable

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


def parse_target_signature(sig: str) -> MethodRef:
    """Parse ``L<class>;-><name>(<params>)<ret>`` into a MethodRef."""
    if not sig.startswith("L"):
        raise ValueError(f"target must start with 'L': {sig!r}")
    sep = sig.find(";->")
    if sep < 0:
        raise ValueError(f"target lacks ';->': {sig!r}")
    class_path = sig[1:sep]
    rest = sig[sep + 3 :]
    paren = rest.find("(")
    if paren <= 0 or ")" not in rest:
        raise ValueError(f"target lacks a descriptor: {sig!r}")
    name = rest[:paren]
    descriptor = rest[paren:]
    if not class_path or not name:
        raise ValueError(f"empty class or method name: {sig!r}")
    return MethodRef(class_path, name, descriptor)


def _parse_caller(field: str) -> str:
    if not (field.startswith("L") and field.endswith(";")):
        raise ValueError(f"caller must be an L<path>; descriptor: {field!r}")
    return field[1:-1]


def parse_invoke_line(line: str) -> InvokeSite:
    parts = line.split(" ")
    if len(parts) != 3:
        raise ValueError("expected '<kind> <caller> <target>' with single spaces")
    kind = _KIND_BY_TOKEN.get(parts[0])
    if kind is None:
        raise ValueError(f"unknown invoke kind {parts[0]!r}")
    return InvokeSite(kind, _parse_caller(parts[1]), parse_target_signature(parts[2]))


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


def load_invoke_list_text(path) -> list[InvokeSite]:
    """Load a fixture file; raises MalformedLine naming the first bad line,
    which for a file that is not UTF-8 is the line of its first bad byte."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:  # exc.object and exc.start skip the BOM
        line_no = exc.object.count(b"\n", 0, exc.start) + 1
        raise MalformedLine(line_no, f"not UTF-8: {exc}") from None
    return loads_invoke_list(text)


def dump_invoke_list_text(sites: Iterable[InvokeSite], path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(dumps_invoke_list(sites))
