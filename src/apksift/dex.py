"""Binary DEX parsing: just enough of the container to enumerate call sites.

The parser materializes the id pools (strings, types, protos, methods,
classes), locates every method body through the class_data items, and walks
each instruction stream with the fixed opcode-size table, emitting one
record per invoke-type instruction. Nothing is executed or verified beyond
structural sanity; debug info, annotations and try/catch tables are skipped.

Parsing is lenient by default (malware is frequently slightly malformed);
``strict=True`` additionally verifies the header Adler-32 checksum and
eagerly decodes the whole string pool.
"""

from __future__ import annotations

import struct
import zlib
from collections import Counter
from dataclasses import dataclass, field

from .dalvik import (
    FILL_ARRAY_IDENT,
    OPCODE_BYTES,
    PACKED_SWITCH_IDENT,
    SPARSE_SWITCH_IDENT,
    payload_units,
)
from .errors import (
    BadMagic,
    ChecksumMismatch,
    InvalidSequence,
    Overlong,
    StructuralError,
    TruncatedEncoding,
    UnsupportedVersion,
)
from .invokes import KIND_BY_OPCODE, InvokeSite, MethodRef

HEADER_SIZE = 112
ENDIAN_TAG = 0x12345678
SUPPORTED_VERSIONS = (35, 36, 37, 38, 39)

_HEADER_TAIL = struct.Struct("<20I")  # 20 u32 fields from offset 32


def read_uleb128(data: bytes, offset: int) -> tuple[int, int]:
    """Decode one ULEB128 value; returns (value, new_offset).

    Raises TruncatedEncoding past end-of-buffer, Overlong beyond 5 bytes.
    """
    result = 0
    shift = 0
    pos = offset
    end = len(data)
    while True:
        if pos >= end:
            raise TruncatedEncoding(f"uleb128 at {offset} runs past end")
        if pos - offset == 5:
            raise Overlong(f"uleb128 at {offset} exceeds 5 bytes")
        byte = data[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if byte < 0x80:
            return result, pos
        shift += 7


def decode_mutf8(data: bytes, start: int = 0) -> str:
    """Decode the NUL-terminated modified-UTF-8 run that begins at ``start``.

    The two-byte form 0xC0 0x80 decodes to U+0000; there are no four-byte
    sequences (supplementary characters arrive as surrogate pairs, which are
    combined when well-formed).
    """
    # ASCII fast path: MUTF-8 strings contain no NUL byte except the
    # terminator, so the first 0x00 delimits the run.
    try:
        end = data.index(0, start)
    except ValueError:
        raise InvalidSequence("missing NUL terminator") from None
    chunk = data[start:end]
    if chunk.isascii():
        return chunk.decode("ascii")
    units: list[int] = []
    i = 0
    n = len(chunk)
    while i < n:
        b0 = chunk[i]
        if b0 < 0x80:
            units.append(b0)
            i += 1
        elif b0 & 0xE0 == 0xC0:
            if i + 1 >= n or chunk[i + 1] & 0xC0 != 0x80:
                raise InvalidSequence(f"bad 2-byte sequence at {i}")
            units.append(((b0 & 0x1F) << 6) | (chunk[i + 1] & 0x3F))
            i += 2
        elif b0 & 0xF0 == 0xE0:
            if i + 2 >= n or chunk[i + 1] & 0xC0 != 0x80 or chunk[i + 2] & 0xC0 != 0x80:
                raise InvalidSequence(f"bad 3-byte sequence at {i}")
            units.append(
                ((b0 & 0x0F) << 12) | ((chunk[i + 1] & 0x3F) << 6) | (chunk[i + 2] & 0x3F)
            )
            i += 3
        else:
            raise InvalidSequence(f"invalid lead byte 0x{b0:02x} at {i}")
    # Combine well-formed surrogate pairs; tolerate lone surrogates.
    out: list[str] = []
    j = 0
    m = len(units)
    while j < m:
        u = units[j]
        if 0xD800 <= u <= 0xDBFF and j + 1 < m and 0xDC00 <= units[j + 1] <= 0xDFFF:
            out.append(chr(0x10000 + ((u - 0xD800) << 10) + (units[j + 1] - 0xDC00)))
            j += 2
        else:
            out.append(chr(u))
            j += 1
    return "".join(out)


class _StringPool:
    """Lazy, cached view of the DEX string pool (decode on first access)."""

    __slots__ = ("_blob", "_offsets", "_cache")

    def __init__(self, blob: bytes, offsets: tuple[int, ...]):
        self._blob = blob
        self._offsets = offsets
        self._cache: list[str | None] = [None] * len(offsets)

    def __getitem__(self, index: int) -> str:
        cached = self._cache[index]
        if cached is not None:
            return cached
        off = self._offsets[index]
        blob = self._blob
        if off >= len(blob):
            raise StructuralError(f"string_data_off {off} out of bounds")
        _, pos = read_uleb128(blob, off)  # utf16 length, unused for decoding
        value = decode_mutf8(blob, pos)
        self._cache[index] = value
        return value

    def __iter__(self):
        for i in range(len(self._offsets)):
            yield self[i]


@dataclass(frozen=True)
class ClassItem:
    """One defined class: its type index and the code offsets of its methods."""

    class_type_index: int
    code_offsets: tuple[int, ...]


@dataclass
class DexFile:
    """Parsed DEX container (immutable after parse; shareable)."""

    string_pool: _StringPool
    type_names: tuple[str, ...]
    proto_table: tuple[tuple[int, int], ...]  # (return_type_idx, parameters_off)
    method_table: tuple[tuple[int, int, int], ...]  # (class_type_idx, name_str_idx, proto_idx)
    class_items: tuple[ClassItem, ...]
    blob: bytes = field(repr=False)


def parse_dex(blob: bytes, strict: bool = False) -> DexFile:
    """Parse a DEX blob into its id pools and per-class code offsets.

    Raises BadMagic / UnsupportedVersion / StructuralError; with
    ``strict=True`` also ChecksumMismatch and InvalidSequence for any
    undecodable pool string.
    """
    if len(blob) < 8 or blob[0:4] != b"dex\n" or blob[7] != 0:
        raise BadMagic(f"magic {blob[0:8]!r}")
    try:
        version = int(blob[4:7].decode("ascii"))
    except (UnicodeDecodeError, ValueError):
        raise BadMagic(f"magic {blob[0:8]!r}") from None
    if version not in SUPPORTED_VERSIONS:
        raise UnsupportedVersion(f"dex version {version:03d}")
    if len(blob) < HEADER_SIZE:
        raise StructuralError(f"blob shorter than header ({len(blob)} < {HEADER_SIZE})")

    (
        file_size,
        header_size,
        endian_tag,
        _link_size,
        _link_off,
        _map_off,
        string_ids_size,
        string_ids_off,
        type_ids_size,
        type_ids_off,
        proto_ids_size,
        proto_ids_off,
        _field_ids_size,
        _field_ids_off,
        method_ids_size,
        method_ids_off,
        class_defs_size,
        class_defs_off,
        _data_size,
        _data_off,
    ) = _HEADER_TAIL.unpack_from(blob, 32)

    if endian_tag != ENDIAN_TAG:
        raise StructuralError(f"endian_tag 0x{endian_tag:08x} (big-endian unsupported)")
    if header_size != HEADER_SIZE:
        raise StructuralError(f"header_size {header_size}")
    if file_size > len(blob):
        raise StructuralError(f"file_size {file_size} exceeds blob ({len(blob)})")

    if strict:
        declared = struct.unpack_from("<I", blob, 8)[0]
        actual = zlib.adler32(blob[12:]) & 0xFFFFFFFF
        if declared != actual:
            raise ChecksumMismatch(f"header 0x{declared:08x} != computed 0x{actual:08x}")

    def table(off: int, count: int, item_size: int, what: str) -> None:
        if count and (off < HEADER_SIZE or off + count * item_size > len(blob)):
            raise StructuralError(f"{what} table out of bounds (off={off}, count={count})")

    table(string_ids_off, string_ids_size, 4, "string_ids")
    table(type_ids_off, type_ids_size, 4, "type_ids")
    table(proto_ids_off, proto_ids_size, 12, "proto_ids")
    table(method_ids_off, method_ids_size, 8, "method_ids")
    table(class_defs_off, class_defs_size, 32, "class_defs")

    string_offsets = struct.unpack_from(f"<{string_ids_size}I", blob, string_ids_off)
    for off in string_offsets:
        if off >= len(blob):
            raise StructuralError(f"string_data_off {off} out of bounds")
    strings = _StringPool(blob, string_offsets)

    type_string_idx = struct.unpack_from(f"<{type_ids_size}I", blob, type_ids_off)
    for idx in type_string_idx:
        if idx >= string_ids_size:
            raise StructuralError(f"type_id string index {idx} out of range")
    type_names = tuple(strings[i] for i in type_string_idx)

    proto_table = []
    for _shorty, ret_idx, params_off in struct.iter_unpack(
        "<III", blob[proto_ids_off : proto_ids_off + proto_ids_size * 12]
    ):
        if ret_idx >= type_ids_size:
            raise StructuralError(f"proto return type {ret_idx} out of range")
        proto_table.append((ret_idx, params_off))

    method_table = []
    for class_idx, proto_idx, name_idx in struct.iter_unpack(
        "<HHI", blob[method_ids_off : method_ids_off + method_ids_size * 8]
    ):
        if class_idx >= type_ids_size or proto_idx >= proto_ids_size or name_idx >= string_ids_size:
            raise StructuralError(
                f"method_id ({class_idx},{proto_idx},{name_idx}) out of range"
            )
        method_table.append((class_idx, name_idx, proto_idx))

    class_items = []
    for record in struct.iter_unpack(
        "<8I", blob[class_defs_off : class_defs_off + class_defs_size * 32]
    ):
        class_idx, class_data_off = record[0], record[6]
        if class_idx >= type_ids_size:
            raise StructuralError(f"class_def type index {class_idx} out of range")
        if class_data_off == 0:
            class_items.append(ClassItem(class_idx, ()))
            continue
        if class_data_off >= len(blob):
            raise StructuralError(f"class_data_off {class_data_off} out of bounds")
        code_offs = _read_class_data(blob, class_data_off, method_ids_size)
        class_items.append(ClassItem(class_idx, code_offs))

    dex = DexFile(
        string_pool=strings,
        type_names=type_names,
        proto_table=tuple(proto_table),
        method_table=tuple(method_table),
        class_items=tuple(class_items),
        blob=blob,
    )
    if strict:
        for s in strings:  # force-decode everything
            del s
    return dex


def _read_class_data(blob: bytes, off: int, method_ids_size: int) -> tuple[int, ...]:
    """Walk one class_data_item; return the non-zero code offsets of its methods."""
    try:
        static_fields, off = read_uleb128(blob, off)
        instance_fields, off = read_uleb128(blob, off)
        direct_methods, off = read_uleb128(blob, off)
        virtual_methods, off = read_uleb128(blob, off)
        for _ in range(static_fields + instance_fields):
            _, off = read_uleb128(blob, off)  # field_idx_diff
            _, off = read_uleb128(blob, off)  # access_flags
        code_offs = []
        blob_len = len(blob)
        for count in (direct_methods, virtual_methods):
            method_idx = 0
            for _ in range(count):
                # single-byte values dominate; inline that case
                b = blob[off]
                if b < 0x80:
                    diff, off = b, off + 1
                else:
                    diff, off = read_uleb128(blob, off)
                method_idx += diff
                if method_idx >= method_ids_size:
                    raise StructuralError(f"encoded_method index {method_idx} out of range")
                b = blob[off]  # access_flags
                if b < 0x80:
                    off += 1
                else:
                    _, off = read_uleb128(blob, off)
                b = blob[off]
                if b < 0x80:
                    code_off, off = b, off + 1
                else:
                    code_off, off = read_uleb128(blob, off)
                if code_off:
                    if code_off + 16 > blob_len:
                        raise StructuralError(f"code_off {code_off} out of bounds")
                    code_offs.append(code_off)
    except IndexError:
        raise StructuralError(f"class_data runs past end of blob near {off}") from None
    except (TruncatedEncoding, Overlong) as exc:
        raise StructuralError(f"class_data at {off}: {exc}") from exc
    return tuple(code_offs)


def _walk_into(data: bytes, code_off: int, append) -> None:
    """Walk one code item's instruction stream.

    Calls ``append`` with the packed hit ``(method_idx << 8) | opcode`` for
    every invoke instruction (35c and 3rc formats; the method index is the
    second code unit in both). Raises StructuralError if the decoded
    instruction sizes do not tile insns_size exactly.
    """
    insns_units = struct.unpack_from("<I", data, code_off + 12)[0]
    pos = code_off + 16
    end = pos + insns_units * 2
    if end > len(data):
        raise StructuralError(f"code item at {code_off} runs past end of blob")
    sizes = OPCODE_BYTES
    while pos < end:
        op = data[pos]
        if op > 0x78:
            pos += sizes[op]
        elif op >= 0x6E:
            # invoke family; 0x73 is the unused gap opcode
            if op != 0x73:
                if pos + 4 > end:
                    raise StructuralError(f"truncated invoke at {pos}")
                append(((data[pos + 2] | (data[pos + 3] << 8)) << 8) | op)
                pos += 6
            else:
                pos += 2
        elif op:
            pos += sizes[op]
        else:
            ident = data[pos + 1] if pos + 1 < end else 0
            if ident == 0:
                pos += 2
            elif ident in (PACKED_SWITCH_IDENT, SPARSE_SWITCH_IDENT, FILL_ARRAY_IDENT):
                units = payload_units(data, pos, end)
                if units < 0:
                    raise StructuralError(f"truncated payload at {pos}")
                pos += units * 2
            else:
                pos += 2  # nop with stray high byte
    if pos != end:
        raise StructuralError(
            f"instruction stream at {code_off} overruns insns_size by {(pos - end) // 2} units"
        )


def _normalize_class_descriptor(descriptor: str) -> str | None:
    """Strip array markers and L...; framing; None for primitive receivers."""
    d = descriptor.lstrip("[")
    if d.startswith("L") and d.endswith(";"):
        return d[1:-1]
    return None


def _method_descriptor(dex: DexFile, proto_idx: int) -> str:
    ret_idx, params_off = dex.proto_table[proto_idx]
    params = ""
    if params_off:
        if params_off + 4 > len(dex.blob):
            raise StructuralError(f"parameters_off {params_off} out of bounds")
        count = struct.unpack_from("<I", dex.blob, params_off)[0]
        if params_off + 4 + count * 2 > len(dex.blob):
            raise StructuralError(f"type_list at {params_off} out of bounds")
        idxs = struct.unpack_from(f"<{count}H", dex.blob, params_off + 4)
        for i in idxs:
            if i >= len(dex.type_names):
                raise StructuralError(f"type_list index {i} out of range")
        params = "".join(dex.type_names[i] for i in idxs)
    return f"({params}){dex.type_names[ret_idx]}"


def _resolve_method(dex: DexFile, method_idx: int, cache: dict) -> MethodRef | None:
    """Resolve a method_ids index to a MethodRef; None for primitive receivers."""
    try:
        return cache[method_idx]
    except KeyError:
        pass
    if method_idx >= len(dex.method_table):
        raise StructuralError(f"invoke method index {method_idx} out of range")
    class_idx, name_idx, proto_idx = dex.method_table[method_idx]
    class_path = _normalize_class_descriptor(dex.type_names[class_idx])
    if class_path is None:
        ref = None
    else:
        ref = MethodRef.from_class_path(
            class_path, dex.string_pool[name_idx], _method_descriptor(dex, proto_idx)
        )
    cache[method_idx] = ref
    return ref


def _caller_of(dex: DexFile, class_type_index: int) -> str:
    path = _normalize_class_descriptor(dex.type_names[class_type_index])
    return path if path is not None else ""


def extract_invokes(dex: DexFile) -> list[InvokeSite]:
    """Every invoke-type instruction in the file, resolved, in walk order.

    Primitive-array receivers are dropped; reference-array receivers are
    normalized to their element class.
    """
    sites: list[InvokeSite] = []
    cache: dict[int, MethodRef | None] = {}
    for item in dex.class_items:
        caller = _caller_of(dex, item.class_type_index)
        for code_off in item.code_offsets:
            hits: list[int] = []
            _walk_into(dex.blob, code_off, hits.append)
            for packed in hits:
                ref = _resolve_method(dex, packed >> 8, cache)
                if ref is not None:
                    sites.append(InvokeSite(KIND_BY_OPCODE[packed & 0xFF], caller, ref))
    return sites


def count_invoke_targets(dex: DexFile) -> Counter:
    """Occurrence count per resolved MethodRef across the whole file.

    Equivalent to Counter(site.target for site in extract_invokes(dex)) but
    avoids materializing per-site objects; this is the throughput path.
    """
    hits: list[int] = []
    append = hits.append
    blob = dex.blob
    for item in dex.class_items:
        for code_off in item.code_offsets:
            _walk_into(blob, code_off, append)
    cache: dict[int, MethodRef | None] = {}
    counts: Counter = Counter()
    for packed, n in Counter(hits).items():
        ref = _resolve_method(dex, packed >> 8, cache)
        if ref is not None:
            counts[ref] += n
    return counts
