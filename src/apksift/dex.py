"""Binary DEX parsing: just enough of the container to enumerate call sites.

The parser checks the id tables in place (numpy views of the blob; only
type names are decoded up front, and ``extract_invokes`` reads its protos
from the blob) and decodes each pool string at most once per dex, into a
pool keyed by data offset: type names up front, any other string (a method
name) when it is asked for. String data items do not overlap, so the pool
raises StructuralError once its strings hold more characters than the blob
has bytes. ``check_header`` holds the checks that need only the 112-byte
header, so ``apk`` can reject an entry before inflating the rest of it. The
parser locates every method body through the class_data items and walks
each instruction stream with the fixed opcode-size table. Each invoke-type
instruction gives one packed hit, ``method_idx << 8 | opcode``: commands
count the hits per method index and resolve nothing (``count_invoke_targets``;
``features`` names each index), while ``extract_invokes``, the test oracle of
acceptance criterion 2 and of the obfuscation count form, resolves each hit
into an InvokeSite with its descriptor. Nothing is executed or verified
beyond structural sanity; debug info, annotations and try/catch tables are
skipped.

``count_invoke_targets`` walks a dex with ``BATCH_MIN_ITEMS`` code items or
more in lock-step: each numpy step decodes the next instruction of every
live item at once, and the scalar walker ``_walk_into`` finishes the last
few long items from where the lock-step walk left them. A dex with fewer
items, and every dex in ``extract_invokes``, takes only the scalar walker.
On any fault the lock-step walk gives up and the dex is walked again by
the scalar code alone, so a malformed dex raises the same first error, in
walk order, whichever path saw it.

A dex with ``CLASS_BATCH_MIN`` class_defs or more decodes the class_data
items of all its classes in numpy passes (``_class_data_batched``): every
field of an item is a ULEB128, so the k-th byte below 0x80 ends its k-th
value, and one ``flatnonzero`` over the items' bytes finds them all. Each
pass reads at most ``WINDOW_CAP`` bytes, 5 per value. Method indices are
rebuilt by a ``cumsum`` that restarts at each direct and virtual list. On
any fault (or a class whose item alone needs more than ``WINDOW_CAP``
bytes) the batched decode gives up and the scalar loop decodes the dex
again, one class at a time, so a malformed dex raises the same first error,
in class order, whichever path saw it. A smaller dex takes only the scalar
loop.

Parsing is lenient by default (malware is frequently slightly malformed);
``strict=True`` additionally verifies the header Adler-32 checksum and that
every string of the pool decodes.
"""

from __future__ import annotations

import struct
import zlib
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .dalvik import OPCODE_BYTES, payload_units
from .errors import (
    BadMagic,
    ChecksumMismatch,
    InvalidSequence,
    Overlong,
    StructuralError,
    TruncatedEncoding,
    UnsupportedVersion,
)
from .invokes import KIND_BY_OPCODE, InvokeSite, MethodRef, class_path_of

HEADER_SIZE = 112
MAGIC_SIZE = 8
ENDIAN_TAG = 0x12345678
SUPPORTED_VERSIONS = (35, 36, 37, 38, 39)

_HEADER_TAIL = struct.Struct("<20I")  # 20 u32 fields from offset 32

# A dex with at least this many code items is walked in lock-step numpy
# steps; once fewer than this many items are still live, the scalar walker
# finishes them one by one. Per dex, lock-step breaks even with the scalar
# walk at about 200-250 code items.
BATCH_MIN_ITEMS = 256

# A dex with at least this many class_defs decodes its class_data items in
# batched numpy passes (``_class_data_batched``) of at most WINDOW_CAP bytes
# each. Per dex, the batched decode costs about 0.2 ms more than the scalar
# loop's 3 us a class of 3 methods: they break even at about 85 such classes.
# A pass holds about 8 bytes of temporaries per window byte; at 2^16 the
# parse of an 8 MiB dex peaks below what counting its invokes then holds.
CLASS_BATCH_MIN = 128
WINDOW_CAP = 1 << 16

_METHOD_ID = np.dtype([("class_idx", "<u2"), ("proto_idx", "<u2"), ("name_idx", "<u4")])

_STEP_BYTES = np.frombuffer(OPCODE_BYTES, np.uint8).astype(np.int64)
_IS_INVOKE = np.zeros(256, bool)
_IS_INVOKE[list(KIND_BY_OPCODE)] = True


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

    MUTF-8 is standard UTF-8 with two exceptions: U+0000 is written as the
    two-byte form C0 80, and a supplementary character is a surrogate pair
    of three-byte forms (there are no four-byte forms). Well-formed pairs
    are joined; lone surrogates are kept. Any other overlong form raises
    InvalidSequence. See "MUTF-8 (Modified UTF-8) Encoding" in
    https://source.android.com/docs/core/runtime/dex-format#mutf-8
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
    top = max(chunk)
    if top >= 0xF0:
        raise InvalidSequence(f"byte 0x{top:02x}: MUTF-8 has no 4-byte forms")
    try:
        text = chunk.replace(b"\xc0\x80", b"\x00").decode("utf-8", "surrogatepass")
    except UnicodeDecodeError as exc:
        raise InvalidSequence(f"byte 0x{exc.object[exc.start]:02x}: {exc.reason}") from None
    return text.encode("utf-16-le", "surrogatepass").decode("utf-16-le", "surrogatepass")


def _string(blob: bytes, off: int) -> str:
    """Decode the string_data_item at ``off`` (a bounds-checked pool offset)."""
    pos = off + 1 if blob[off] < 0x80 else read_uleb128(blob, off)[1]  # skip the utf16 length
    return decode_mutf8(blob, pos)


class _StringPool(dict):
    """Strings of one blob decoded so far, by data offset. String data items
    do not overlap in a valid dex, so distinct offsets decode to at most
    len(blob) characters in all; ids aimed inside one long string raise
    StructuralError past that budget instead of decoding suffix after suffix."""

    def __init__(self, blob: bytes):
        super().__init__()
        self.blob = blob
        self.left = len(blob)  # characters the pool may still decode

    def __missing__(self, off: int) -> str:
        text = self[off] = self.decode(off)
        return text

    def decode(self, off: int) -> str:
        """The string at ``off``, counted against the budget but not kept."""
        text = _string(self.blob, off)
        self.left -= len(text)
        if self.left < 0:
            raise StructuralError(f"string data at {off} overlaps other strings")
        return text


@dataclass(frozen=True)
class ClassItem:
    """One defined class: its type index and the code offsets of its methods."""

    class_type_index: int
    code_offsets: tuple[int, ...]


@dataclass
class DexFile:
    """Parsed DEX container; after parse only the string pool grows, as names are asked for."""

    string_offsets: np.ndarray = field(compare=False)  # u32 string_data_off per string id
    type_names: tuple[str, ...]
    method_ids: np.ndarray = field(compare=False)  # _METHOD_ID rows (class, proto, name idx)
    class_items: tuple[ClassItem, ...]
    blob: bytes = field(repr=False)
    pool: _StringPool = field(repr=False, compare=False)

    def caller_of(self, item: ClassItem) -> str:  # "" if its type names no class, as [I
        return class_path_of(self.type_names[item.class_type_index]) or ""

    def string(self, idx: int) -> str:  # string id idx, decoded once per data offset
        return self.pool[self.string_offsets.item(idx)]


def check_header(head: bytes) -> None:
    """Run the checks of ``parse_dex`` that need only the first HEADER_SIZE
    bytes, in its order and with its messages: the magic (BadMagic), the
    version (UnsupportedVersion), then as StructuralError the length, the
    endian tag and ``header_size``."""
    # the magic is "dex\n", three digits, NUL; digits outside
    # SUPPORTED_VERSIONS are UnsupportedVersion, not BadMagic
    magic = head[0:MAGIC_SIZE]
    if not (magic[:4] == b"dex\n" and magic[4:7].isdigit() and magic[7:] == b"\0"):
        raise BadMagic(f"magic {magic!r}")
    version = int(head[4:7])
    if version not in SUPPORTED_VERSIONS:
        raise UnsupportedVersion(f"dex version {version:03d}")
    if len(head) < HEADER_SIZE:
        raise StructuralError(f"blob shorter than header ({len(head)} < {HEADER_SIZE})")
    header_size, endian_tag = struct.unpack_from("<2I", head, 36)
    if endian_tag != ENDIAN_TAG:
        raise StructuralError(f"endian_tag 0x{endian_tag:08x} (big-endian unsupported)")
    if header_size != HEADER_SIZE:
        raise StructuralError(f"header_size {header_size}")


def parse_dex(blob: bytes, strict: bool = False) -> DexFile:
    """Parse a DEX blob into its id pools and per-class code offsets.

    Raises BadMagic / UnsupportedVersion / StructuralError; with
    ``strict=True`` also ChecksumMismatch, InvalidSequence for any
    undecodable pool string and StructuralError for overlapping ones.
    """
    check_header(blob)
    (
        file_size,
        _header_size,
        _endian_tag,
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
    if file_size > len(blob):
        raise StructuralError(f"file_size {file_size} exceeds blob ({len(blob)})")

    if strict:
        declared = struct.unpack_from("<I", blob, 8)[0]
        actual = zlib.adler32(blob[12:]) & 0xFFFFFFFF
        if declared != actual:
            raise ChecksumMismatch(f"header 0x{declared:08x} != computed 0x{actual:08x}")

    def table(off: int, count: int, item_size: int, what: str) -> memoryview:
        if count and (off < HEADER_SIZE or off + count * item_size > len(blob)):
            raise StructuralError(f"{what} table out of bounds (off={off}, count={count})")
        return memoryview(blob)[off : off + count * item_size]  # a view: no copy

    string_offsets = np.frombuffer(table(string_ids_off, string_ids_size, 4, "string_ids"), "<u4")
    type_string_idx = np.frombuffer(table(type_ids_off, type_ids_size, 4, "type_ids"), "<u4")
    # proto_id rows are (shorty_idx, return_type_idx, parameters_off)
    return_types = np.frombuffer(table(proto_ids_off, proto_ids_size, 12, "proto_ids"), "<u4")[1::3]
    method_ids = np.frombuffer(table(method_ids_off, method_ids_size, 8, "method_ids"), _METHOD_ID)
    class_defs = table(class_defs_off, class_defs_size, 32, "class_defs")

    # each error below names the first bad entry: argmax finds the first True
    bad = string_offsets >= len(blob)
    if bad.any():
        raise StructuralError(f"string_data_off {string_offsets[bad.argmax()]} out of bounds")

    bad = type_string_idx >= string_ids_size
    if bad.any():
        raise StructuralError(f"type_id string index {type_string_idx[bad.argmax()]} out of range")
    pool = _StringPool(blob)
    type_names = tuple(map(pool.__getitem__, string_offsets[type_string_idx].tolist()))

    bad = return_types >= type_ids_size
    if bad.any():
        raise StructuralError(f"proto return type {return_types[bad.argmax()]} out of range")

    bad = (
        (method_ids["class_idx"] >= type_ids_size)
        | (method_ids["proto_idx"] >= proto_ids_size)
        | (method_ids["name_idx"] >= string_ids_size)
    )
    if bad.any():
        class_idx, proto_idx, name_idx = method_ids.item(bad.argmax())
        raise StructuralError(f"method_id ({class_idx},{proto_idx},{name_idx}) out of range")

    class_items = _class_items(blob, class_defs, type_ids_size, method_ids_size)

    if strict:  # every string decodes, within a budget of its own; none is kept
        check = _StringPool(blob)
        for off in dict.fromkeys(string_offsets.tolist()):
            check.decode(off)
    return DexFile(
        string_offsets=string_offsets,
        type_names=type_names,
        method_ids=method_ids,
        class_items=class_items,
        blob=blob,
        pool=pool,
    )


def _read_class_data(blob: bytes, off: int, method_ids_size: int) -> tuple[int, ...]:
    """Walk one class_data_item; return the non-zero code offsets of its methods."""
    try:
        head = blob[off : off + 4]
        if len(head) == 4 and max(head) < 0x80:  # four one-byte sizes
            static_fields, instance_fields, direct_methods, virtual_methods = head
            off += 4
        else:
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
                # code offsets of a large dex take 3-4 bytes; decode up to 4
                # inline and leave the 5-byte form and the blob's last bytes
                # to read_uleb128
                b = blob[off]
                if b < 0x80:
                    code_off, off = b, off + 1
                elif off + 4 < blob_len:
                    b1, b2, b3 = blob[off + 1 : off + 4]
                    if b1 < 0x80:
                        code_off, off = (b & 0x7F) | b1 << 7, off + 2
                    elif b2 < 0x80:
                        code_off, off = (b & 0x7F) | (b1 & 0x7F) << 7 | b2 << 14, off + 3
                    elif b3 < 0x80:
                        code_off = (b & 0x7F) | (b1 & 0x7F) << 7 | (b2 & 0x7F) << 14 | b3 << 21
                        off += 4
                    else:
                        code_off, off = read_uleb128(blob, off)
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


def _class_items(
    blob: bytes, class_defs: memoryview, type_ids_size: int, method_ids_size: int
) -> tuple[ClassItem, ...]:
    """One ClassItem per class_def, in class order.

    With CLASS_BATCH_MIN class_defs or more, ``_class_data_batched`` decodes
    their class_data items all at once; on any fault, or below that count,
    the scalar loop below decodes one class at a time and raises the first
    fault in class order.
    """
    if len(class_defs) >= 32 * CLASS_BATCH_MIN:
        defs = np.frombuffer(class_defs, "<u4")
        class_idx = defs[0::8]
        try:
            code_offs = _class_data_batched(
                blob, class_idx, defs[6::8], type_ids_size, method_ids_size
            )
            return tuple([ClassItem(i, offs) for i, offs in zip(class_idx.tolist(), code_offs)])
        except StructuralError:
            pass
    class_items = []
    seen = set()
    for record in struct.iter_unpack("<8I", class_defs):
        class_idx, class_data_off = record[0], record[6]
        if class_idx >= type_ids_size:
            raise StructuralError(f"class_def type index {class_idx} out of range")
        if class_data_off == 0:
            class_items.append(ClassItem(class_idx, ()))
            continue
        if class_data_off >= len(blob):
            raise StructuralError(f"class_data_off {class_data_off} out of bounds")
        if class_data_off in seen:
            raise StructuralError(f"class_data_off {class_data_off} shared by two class_defs")
        seen.add(class_data_off)
        code_offs = _read_class_data(blob, class_data_off, method_ids_size)
        class_items.append(ClassItem(class_idx, code_offs))
    return tuple(class_items)


def _class_data_batched(
    blob: bytes, class_idx: np.ndarray, class_data_off: np.ndarray, type_ids_size: int,
    method_ids_size: int,
) -> list[tuple[int, ...]]:
    """The code offsets of every class's methods, as ``_class_items`` puts
    them in its ClassItems, from numpy passes over all classes.

    A fault raises a StructuralError that does not say where: the caller
    decodes the dex again with the scalar code, which raises the first
    fault in class order.
    """
    has_data = np.flatnonzero(class_data_off)
    shared = not np.diff(np.sort(class_data_off[has_data])).all()  # sorted; np.unique would hash
    if shared or (class_idx >= type_ids_size).any() or (class_data_off >= len(blob)).any():
        raise StructuralError("class_def out of range or sharing a class_data item")
    code_offs: list[tuple[int, ...]] = [()] * len(class_idx)
    if not len(has_data):
        return code_offs
    data = np.frombuffer(blob, np.uint8)
    heads = list(_uleb_runs(data, class_data_off[has_data].astype(np.int64), 4))
    sizes = np.concatenate([values for _, _, values, _ in heads]).reshape(-1, 4)
    body = np.concatenate([ends for _, _, _, ends in heads])
    fields = sizes[:, 0] + sizes[:, 1]
    direct, virtual = sizes[:, 2], sizes[:, 3]
    # a field is (field_idx_diff, access_flags), a method
    # (method_idx_diff, access_flags, code_off)
    counts = 2 * fields + 3 * (direct + virtual)
    flat: list[int] = []  # non-zero code offsets, in class order
    kept: list[int] = []  # how many of them each class holds
    for lo, hi, values, _ in _uleb_runs(data, body, counts):
        methods = direct[lo:hi] + virtual[lo:hi]
        lists = np.stack([direct[lo:hi], virtual[lo:hi]], axis=1).ravel()
        first = np.cumsum(counts[lo:hi]) - counts[lo:hi] + 2 * fields[lo:hi]  # first method's value
        n = int(methods.sum())
        at = np.repeat(first - 3 * (np.cumsum(methods) - methods), methods) + 3 * np.arange(n)
        # method_idx_diff accumulates within each direct or virtual list
        method_idx = np.cumsum(values[at])
        restart = np.concatenate(([0], method_idx))[np.cumsum(lists) - lists]
        method_idx -= np.repeat(restart, lists)
        if n and method_idx.max() >= method_ids_size:
            raise StructuralError("encoded_method index out of range")
        code_off = values[at + 2]
        nonzero = code_off != 0
        if (code_off[nonzero] > len(blob) - 16).any():
            raise StructuralError("code_off out of bounds")
        flat += code_off[nonzero].tolist()
        owner = np.repeat(np.arange(hi - lo), methods)
        kept += np.bincount(owner[nonzero], minlength=hi - lo).tolist()
    pos = 0
    for i, k in zip(has_data.tolist(), kept):
        code_offs[i] = tuple(flat[pos : pos + k])
        pos += k
    return code_offs


def _uleb_runs(data: np.ndarray, starts: np.ndarray, counts):
    """Decode ``counts[i]`` ULEB128 values from each ``data`` offset
    ``starts[i]`` (``counts`` may be one int for every run).

    Each run gets a window of 5 bytes a value, cut at the end of ``data``,
    and the runs are decoded in chunks of at most ``WINDOW_CAP`` window
    bytes: the k-th byte below 0x80 in a run's window ends its k-th value.
    Yields ``(lo, hi, values, ends)`` per chunk: the values of runs
    ``[lo, hi)`` in run order, and the offset just past each of those runs.
    A value longer than 5 bytes or cut by the end of ``data``, or a run
    whose window alone exceeds the cap, raises StructuralError.
    """
    counts = np.broadcast_to(np.asarray(counts, np.int64), starts.shape)
    room = len(data) - starts
    if (counts > room).any():  # every value takes a byte at least
        raise StructuralError("ULEB128 run past end of blob")
    width = np.minimum(5 * counts, room)
    if (width > WINDOW_CAP).any():
        raise StructuralError("ULEB128 run over the window cap")
    cum = np.cumsum(width)
    lo = 0
    while lo < len(starts):
        hi = int(np.searchsorted(cum, cum[lo] - width[lo] + WINDOW_CAP, "right"))
        yield lo, hi, *_decode_runs(data, starts[lo:hi], counts[lo:hi], width[lo:hi])
        lo = hi


def _decode_runs(data, starts, counts, width):
    """One chunk of ``_uleb_runs``: ``(values, ends)``."""
    span_lo, span_hi = int(starts.min()), int((starts + width).max())
    if span_hi - span_lo <= width.sum():  # items laid out in a row: read their span in place
        byte, base = data[span_lo:span_hi], starts - span_lo
    else:
        base = np.cumsum(width) - width  # where each run's window begins in the gather
        # the gather's blob offsets: +1 a byte, and a jump where each window begins
        at = np.ones(int(width.sum()), np.int64)
        used = width > 0
        at[base[used]] = starts[used] - np.concatenate(([1], (starts + width)[used][:-1])) + 1
        byte = data[np.cumsum(at, out=at)]
        del at
    term = np.flatnonzero(byte < 0x80)  # the last byte of every value
    first = np.searchsorted(term, base)
    if (np.searchsorted(term, base + width) - first < counts).any():
        raise StructuralError("ULEB128 value overlong or cut by the end of the blob")
    offset = np.cumsum(counts) - counts  # each run's first value
    last = term[np.repeat(first - offset, counts) + np.arange(int(counts.sum()))]
    longer = np.empty_like(last)  # bytes before each value's last byte
    longer[1:] = last[1:] - last[:-1] - 1
    some = counts > 0
    longer[offset[some]] = last[offset[some]] - base[some]
    if (longer >= 5).any():
        raise StructuralError("ULEB128 value overlong")
    values = byte[last].astype(np.int64)
    more = np.flatnonzero(longer)
    for k in range(1, 5):  # earlier bytes, high to low, of the values that have them
        values[more] = values[more] << 7 | (byte[last[more] - k] & 0x7F)
        more = more[longer[more] > k]
    ends = starts.copy()
    ends[some] += last[(offset + counts - 1)[some]] - base[some] + 1
    return values, ends


def _walk_into(
    data: bytes, code_off: int, append, pos: int | None = None, end: int = 0
) -> None:
    """Walk one code item's instruction stream.

    Calls ``append`` with the packed hit ``(method_idx << 8) | opcode`` for
    every invoke instruction (35c and 3rc formats; the method index is the
    second code unit in both). Raises StructuralError if the decoded
    instruction sizes do not tile insns_size exactly. Without ``pos`` the
    walk starts at the item's first instruction; the lock-step walk
    (``_walk_batched``) passes the byte range ``[pos, end)`` it left unwalked
    when it hands a long item over.
    """
    if pos is None:
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
            units = payload_units(data, pos, end)
            if units < 0:
                raise StructuralError(f"truncated payload at {pos}")
            pos += units * 2
    if pos != end:
        raise StructuralError(
            f"instruction stream at {code_off} overruns insns_size by {(pos - end) // 2} units"
        )


def _walk_batched(blob: bytes, code_offs: list[int]) -> np.ndarray:
    """Walk every code item in lock-step; return the packed hits.

    Each numpy step decodes the next instruction of every live item, so a
    dex takes about as many steps as its longest method has instructions,
    not one Python loop per item. Hits come grouped by step, not in walk
    order. Once fewer than ``BATCH_MIN_ITEMS`` items are live, ``_walk_into``
    finishes each one from its current position. A fault raises a
    StructuralError that does not say where: the caller catches it and
    walks the dex again with the scalar code alone, which raises the first
    fault in walk order.
    """
    data = np.frombuffer(blob, np.uint8)
    header = np.array(code_offs, np.int64) + 12  # insns_size, a u32
    units = sum(data[header + k].astype(np.int64) << (8 * k) for k in range(4))
    pos = header + 4
    end = pos + 2 * units
    if end.max(initial=0) > len(blob):
        raise StructuralError("code item runs past end of blob")
    item = np.flatnonzero(pos < end)
    pos, end = pos[item], end[item]
    hit_parts = []
    while len(item) >= BATCH_MIN_ITEMS:
        op = data.take(pos)
        step = _STEP_BYTES.take(op)
        invoke = _IS_INVOKE.take(op)
        if invoke.any():
            # an invoke cut by the end of its item overruns below; "clip"
            # keeps its operand read inside the blob until then
            at = pos[invoke]
            hit_parts.append(
                (data.take(at + 3, mode="clip").astype(np.int64) << 16)
                | (data.take(at + 2, mode="clip").astype(np.int64) << 8)
                | op[invoke]
            )
        # opcode 0 (a nop or a payload pseudo-instruction) is rare; size each
        # one alone, as the scalar walk does
        for i in np.flatnonzero(op == 0).tolist():
            size = payload_units(blob, int(pos[i]), int(end[i]))
            if size < 0:
                raise StructuralError("truncated payload")
            step[i] = size * 2
        pos += step
        left = end - pos
        done = left <= 0
        if done.any():
            if left.min() < 0:
                raise StructuralError("instruction stream overruns insns_size")
            live = ~done
            pos, end, item = pos[live], end[live], item[live]
    tail: list[int] = []
    for i, start, stop in zip(item.tolist(), pos.tolist(), end.tolist()):
        _walk_into(blob, code_offs[i], tail.append, start, stop)
    hit_parts.append(np.array(tail, np.int64))
    return np.concatenate(hit_parts)


def _method_descriptor(dex: DexFile, method_idx: int) -> str:
    proto_ids_off = struct.unpack_from("<I", dex.blob, 76)[0]  # checked by parse_dex
    proto_row = proto_ids_off + 12 * dex.method_ids.item(method_idx)[1]
    _shorty_idx, ret_idx, params_off = struct.unpack_from("<3I", dex.blob, proto_row)
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


def _resolve_method(dex: DexFile, method_idx: int) -> MethodRef | None:
    """Resolve a method_ids index to a MethodRef with its descriptor; None for
    primitive receivers."""
    if method_idx >= len(dex.method_ids):
        raise StructuralError(f"invoke method index {method_idx} out of range")
    class_idx, _, name_idx = dex.method_ids.item(method_idx)
    class_path = class_path_of(dex.type_names[class_idx])
    if class_path is None:
        return None
    return MethodRef(class_path, dex.string(name_idx), _method_descriptor(dex, method_idx))


def extract_invokes(dex: DexFile) -> list[InvokeSite]:
    """Every invoke-type instruction in the file, resolved, in walk order.

    Primitive-array receivers are dropped; reference-array receivers are
    normalized to their element class. Always the scalar walk: this is not
    the throughput path.
    """
    sites: list[InvokeSite] = []
    for item in dex.class_items:
        caller = dex.caller_of(item)
        for code_off in item.code_offsets:
            hits: list[int] = []
            _walk_into(dex.blob, code_off, hits.append)
            for packed in hits:
                ref = _resolve_method(dex, packed >> 8)
                if ref is not None:
                    sites.append(InvokeSite(KIND_BY_OPCODE[packed & 0xFF], caller, ref))
    return sites


def count_invoke_targets(dex: DexFile) -> Counter:
    """Invoke sites per method index across the file, resolving nothing: the
    throughput path. Named as ``features`` names them, the indices give
    extract_invokes(dex) counted by target without descriptors, plus the
    primitive receivers it drops. An index past method_ids raises
    StructuralError, the first in walk order."""
    blob = dex.blob
    code_offs = [off for item in dex.class_items for off in item.code_offsets]
    if len(code_offs) >= BATCH_MIN_ITEMS:
        try:
            # method indices are u16: one bincount, no sort
            sites = np.bincount(_walk_batched(blob, code_offs) >> 8)
            if len(sites) <= len(dex.method_ids):
                targets = np.flatnonzero(sites)
                return Counter(dict(zip(targets.tolist(), sites[targets].tolist())))
        except StructuralError:
            pass
        # a walk fault or an index out of range: the scalar walk below
        # raises the first error in walk order
    hits: list[int] = []
    append = hits.append
    for code_off in code_offs:
        _walk_into(blob, code_off, append)
    counts = Counter(packed >> 8 for packed in hits)  # in first-occurrence order
    for method_idx in counts:
        if method_idx >= len(dex.method_ids):
            raise StructuralError(f"invoke method index {method_idx} out of range")
    return counts
