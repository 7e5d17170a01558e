"""DEX parsing: varints, string decoding, container structure, invoke
extraction with its generator-backed oracle."""

import re
import struct
import time
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import apksift.dex as dex_module
from apksift.dalvik import OPCODE_UNITS
from apksift.dex import (
    BATCH_MIN_ITEMS,
    _class_data_batched,
    _class_items,
    _read_class_data,
    _walk_batched,
    _walk_into,
    count_invoke_targets,
    decode_mutf8,
    extract_invokes,
    parse_dex,
    read_uleb128,
)
from apksift.errors import (
    ApksiftError,
    BadMagic,
    ChecksumMismatch,
    InvalidSequence,
    Overlong,
    StructuralError,
    TruncatedEncoding,
    UnsupportedVersion,
)
from apksift.invokes import KIND_BY_OPCODE, InvokeKind, class_path_of
from apksift.reference import Granularity, key_of
from apksift.synth import (
    DexBuilder,
    MethodDef,
    _encode_mutf8,
    _uleb,
    ins_fill_array_payload,
    ins_invoke,
    ins_nop,
    ins_packed_switch_payload,
    ins_return_void,
    ins_sparse_switch_payload,
    random_dex,
)

from conftest import (
    NON_ASCII_CLASS,
    TYPE_LIST_FAULTS,
    build_single_method_dex,
    non_ascii_dex,
    shared_class_data_dex,
    with_bad_type_list,
    with_overlong_type_name,
)


# -- ULEB128 -----------------------------------------------------------------


def test_uleb_zero():
    assert read_uleb128(b"\x00", 0) == (0, 1)


def test_uleb_single_byte_max():
    assert read_uleb128(b"\x7f", 0) == (127, 1)


def test_uleb_two_bytes():
    # 0xb4 -> low seven bits 0x34 (52); 0x11 << 7 = 2176; 52 + 2176 = 2228
    assert read_uleb128(b"\xb4\x11", 0) == (2228, 2)


def test_uleb_offset_respected():
    assert read_uleb128(b"\xff\xb4\x11", 1) == (2228, 3)


def test_uleb_five_byte_value():
    assert read_uleb128(b"\xff\xff\xff\xff\x0f", 0) == (0xFFFFFFFF, 5)


def test_uleb_truncated():
    with pytest.raises(TruncatedEncoding):
        read_uleb128(b"\x80", 0)


def test_uleb_overlong():
    with pytest.raises(Overlong):
        read_uleb128(b"\x80\x80\x80\x80\x80\x01", 0)


@given(st.integers(min_value=0, max_value=2**35 - 1))
def test_uleb_round_trip(value):
    encoded = bytearray()
    v = value
    while True:
        b = v & 0x7F
        v >>= 7
        encoded.append(b | 0x80 if v else b)
        if not v:
            break
    got, end = read_uleb128(bytes(encoded), 0)
    assert (got, end) == (value, len(encoded))


def _code_offsets_reference(blob, off):
    """A class_data_item with only direct methods, decoded by read_uleb128 alone."""
    sizes = []
    for _ in range(4):
        value, off = read_uleb128(blob, off)
        sizes.append(value)
    code_offs = []
    for _ in range(sizes[2]):
        _, off = read_uleb128(blob, off)  # method_idx_diff
        _, off = read_uleb128(blob, off)  # access_flags
        code_off, off = read_uleb128(blob, off)
        if code_off:
            if code_off + 16 > len(blob):
                raise StructuralError(f"code_off {code_off} out of bounds")
            code_offs.append(code_off)
    return tuple(code_offs)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.one_of(st.integers(0, 2**7), st.integers(0, 2**16), st.integers(0, 2**32 - 1)),
        min_size=1,
        max_size=6,
    ),
    st.integers(0, 40),
)
def test_class_data_code_offsets_of_every_width(code_offs, cut):
    # _read_class_data decodes 1-4 byte code offsets inline; a class_data cut
    # by the end of the blob is a StructuralError whichever byte is missing
    body = _uleb(0) + _uleb(0) + _uleb(len(code_offs)) + _uleb(0)
    for code_off in code_offs:
        body += _uleb(1) + _uleb(0x10001) + _uleb(code_off)
    start = 2**16
    blob = bytes(start) + body[: max(0, len(body) - cut)]
    try:
        expected = _code_offsets_reference(blob, start)
    except (TruncatedEncoding, StructuralError) as exc:
        expected = exc
    if isinstance(expected, tuple):
        assert _read_class_data(blob, start, 2**16) == expected
    else:
        with pytest.raises(StructuralError) as err:
            _read_class_data(blob, start, 2**16)
        if isinstance(expected, StructuralError):  # names the decoded offset
            assert str(err.value) == str(expected)


def _uleb_wide(value, width):
    """``value`` as a ULEB128 padded with 0x80 groups to ``width`` bytes, or
    at its shortest if that is longer; width 6 makes an overlong value."""
    groups = [value & 0x7F]
    while value >> 7 or len(groups) < width:
        value >>= 7
        groups.append(value & 0x7F)
    return bytes(g | 0x80 for g in groups[:-1]) + bytes(groups[-1:])


# The class_data decoders' test dexes: _CLASS_DATA_AT zero bytes for code
# items to sit in, then class_data items; _TYPES type ids and _METHODS method
# ids, so that a method list's indices can run past the end.
_TYPES, _METHODS, _CLASS_DATA_AT = 8, 64, 1 << 12
_CLASS_DATA_FAULTS = [
    "overlong", "method-index", "code_off", "cut", "class_def-type-index", "class_data_off",
    "shared",
]


@st.composite
def _class_data_item(draw, fault):
    """One class_data_item, its values 1-5 bytes wide; ``fault`` may make one
    value overlong, a method index or a code offset out of range."""
    fields = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    top = _METHODS + 3 if fault == "method-index" else _METHODS
    code_off = st.one_of(st.just(0), st.integers(1, _CLASS_DATA_AT - 16))
    if fault == "code_off":
        code_off = st.one_of(code_off, st.integers(_CLASS_DATA_AT, 2**35 - 1))
    # each list's indices ascend from 0 again, toward the end of method_ids
    lists = [
        sorted(draw(st.lists(st.tuples(st.integers(_METHODS // 2, top - 1), code_off),
                             max_size=5, unique_by=lambda m: m[0])))
        for _ in range(2)
    ]
    values = [*fields, len(lists[0]), len(lists[1])]
    values += draw(st.lists(st.integers(0, 2**20), min_size=2 * sum(fields),
                            max_size=2 * sum(fields)))  # field_idx_diff, access_flags
    for methods in lists:
        prev = 0
        for idx, off in methods:
            values += [idx - prev, draw(st.integers(0, 0x10001)), off]
            prev = idx
    widths = st.sampled_from([1, 1, 1, 2, 3, 4, 5] + [6] * (fault == "overlong"))
    return b"".join(_uleb_wide(v, draw(widths)) for v in values)


@st.composite
def _class_defs(draw):
    """(blob, class_idx, class_data_off) of 1-40 class_defs, each with a
    class_data item of its own or none, and at most one fault; the "shared"
    fault points one class_def at another's item."""
    fault = draw(st.sampled_from([None, *_CLASS_DATA_FAULTS]))
    n = draw(st.integers(2 if fault == "shared" else 1, 40))
    class_idx = draw(st.lists(st.integers(0, _TYPES - 1), min_size=n, max_size=n))
    owners = draw(st.lists(st.integers(0, n - 1), max_size=8, unique=True))
    last = draw(st.integers(0, n - 1))  # owns the last item in the blob, the faulty one
    class_data_off, blob = [0] * n, bytes(_CLASS_DATA_AT)
    for k in [k for k in owners if k != last] + [last]:
        class_data_off[k] = len(blob)
        blob += draw(_class_data_item(fault if k == last else None))
    if fault == "cut":
        blob = blob[: len(blob) - draw(st.integers(1, len(blob) - class_data_off[last]))]
    if fault is None and draw(st.integers(0, 9)) == 0:
        class_data_off = [0] * n  # no class has methods
    at = draw(st.integers(0, n - 1))
    if fault == "class_def-type-index":
        class_idx[at] = _TYPES
    elif fault == "class_data_off":
        class_data_off[at] = len(blob) + draw(st.integers(0, 3))
    elif fault == "shared":
        other = draw(st.integers(0, n - 1).filter(lambda k: k != last))
        class_data_off[other] = class_data_off[last]
    return blob, np.array(class_idx, "<u4"), np.array(class_data_off, "<u4")


def _by_class(case):
    """_class_items' code offsets per class of ``case``'s class_defs."""
    blob, class_idx, class_data_off = case
    defs = np.zeros((len(class_idx), 8), "<u4")
    defs[:, 0], defs[:, 6] = class_idx, class_data_off
    items = _class_items(blob, memoryview(defs.tobytes()), _TYPES, _METHODS)
    assert [item.class_type_index for item in items] == class_idx.tolist()
    return [item.code_offsets for item in items]


@settings(max_examples=300, deadline=None)
@given(_class_defs(), st.sampled_from([256, 1024, dex_module.WINDOW_CAP]))
def test_class_data_decoders_agree_over_many_classes(case, cap):
    # the batched decoder gives the scalar loop's code offsets for every
    # class, or falls back to it and raises its first error word for word
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dex_module, "CLASS_BATCH_MIN", 10**9)
        expected = _outcome(_by_class, case)  # the scalar loop
        mp.setattr(dex_module, "CLASS_BATCH_MIN", 1)
        assert _outcome(_by_class, case) == expected
        # the batched decoder on its own, since the fallback would hide a
        # spurious fault in it; a cap of 256 bytes still holds every run
        mp.setattr(dex_module, "WINDOW_CAP", cap)
        if isinstance(expected, list):
            assert _class_data_batched(*case, _TYPES, _METHODS) == expected
        else:
            with pytest.raises(StructuralError):
                _class_data_batched(*case, _TYPES, _METHODS)


# -- MUTF-8 --------------------------------------------------------------------


def test_mutf8_ascii_passthrough():
    assert decode_mutf8(b"java/io\x00") == "java/io"


def test_mutf8_embedded_nul_char():
    assert decode_mutf8(b"\xc0\x80\x00") == "\x00"


def test_mutf8_invalid_lead_byte():
    with pytest.raises(InvalidSequence):
        decode_mutf8(b"\xff\x00")


def test_mutf8_two_byte():
    assert decode_mutf8("é".encode("utf-8") + b"\x00") == "é"


def test_mutf8_three_byte():
    assert decode_mutf8("世".encode("utf-8") + b"\x00") == "世"


def test_mutf8_surrogate_pair_combines():
    # U+1F600 as a CESU-8 surrogate pair (ED A0 BD ED B8 80)
    assert decode_mutf8(b"\xed\xa0\xbd\xed\xb8\x80\x00") == "\U0001f600"


def test_mutf8_missing_terminator():
    with pytest.raises(InvalidSequence):
        decode_mutf8(b"abc")


def test_mutf8_truncated_sequence():
    with pytest.raises(InvalidSequence):
        decode_mutf8(b"\xc3\x00")


def _join_surrogate_pairs(s):
    return re.sub(
        "[\ud800-\udbff][\udc00-\udfff]",
        lambda m: chr(0x10000 + ((ord(m[0][0]) - 0xD800) << 10) + ord(m[0][1]) - 0xDC00),
        s,
    )


@settings(max_examples=300, deadline=None)
@given(
    st.text(
        st.characters()
        | st.characters(categories=["Cs"])  # lone surrogates
        | st.sampled_from("\x00\ud83d\ude00")  # NUL and the halves of U+1F600
    )
)
def test_mutf8_encode_decode_round_trip(s):
    # MUTF-8 cannot tell a supplementary character from its surrogate pair
    assert decode_mutf8(_encode_mutf8(s) + b"\x00") == _join_surrogate_pairs(s)


@pytest.mark.parametrize(
    "data",
    ["c1 81", "c0 bf", "e0 80 80", "e0 9f bf", "f0 9f 98 80"],
    ids=["overlong-2-byte-U+0041", "overlong-2-byte-U+003F", "overlong-3-byte-U+0000",
         "overlong-3-byte-U+07FF", "4-byte-form"],
)
def test_mutf8_forbidden_forms(data):
    with pytest.raises(InvalidSequence):
        decode_mutf8(bytes.fromhex(data) + b"\x00")


# -- opcode size table ----------------------------------------------------------

SPOT_SIZES = {
    0x00: 1,  # nop
    0x18: 5,  # const-wide
    0x1B: 3,  # const-string/jumbo
    0x26: 3,  # fill-array-data
    0x2A: 3,  # goto/32
    0x3E: 1,  # unused gap
    0x6E: 3,  # invoke-virtual
    0x73: 1,  # unused gap inside the invoke family
    0x78: 3,  # invoke-interface/range
    0x8F: 1,  # int-to-short
    0x90: 2,  # add-int
    0xCF: 1,  # rem-double/2addr
    0xD8: 2,  # add-int/lit8
    0xE2: 2,  # ushr-int/lit8
    0xE3: 1,  # unused gap
    0xFA: 4,  # invoke-polymorphic
    0xFC: 3,  # invoke-custom
    0xFF: 2,  # const-method-type
}


def test_opcode_table_length_and_bounds():
    assert len(OPCODE_UNITS) == 256
    assert all(1 <= u <= 5 for u in OPCODE_UNITS)


@pytest.mark.parametrize("op,units", sorted(SPOT_SIZES.items()))
def test_opcode_table_spot_values(op, units):
    assert OPCODE_UNITS[op] == units


# -- container parsing ----------------------------------------------------------


def test_minimal_dex_zero_classes():
    blob = DexBuilder().build()
    dex = parse_dex(blob, strict=True)
    assert dex.class_items == ()
    assert extract_invokes(dex) == []


def test_version_from_magic():
    for version in (35, 39):
        blob = DexBuilder(version=version).build()
        assert blob[4:8] == b"%03d\0" % version
        assert parse_dex(blob, strict=True).class_items == ()


def test_bad_magic():
    blob = bytearray(DexBuilder().build())
    blob[0:4] = b"foo!"
    with pytest.raises(BadMagic):
        parse_dex(bytes(blob))


@pytest.mark.parametrize("version", [b"+35", b" 35", b"35 ", b"\t35", b"3_5"])
def test_bad_magic_version_not_three_digits(version):
    blob = bytearray(random_dex(1)[0])
    blob[4:7] = version
    with pytest.raises(BadMagic):
        parse_dex(bytes(blob))


def test_bad_magic_without_nul():
    blob = bytearray(DexBuilder().build())
    blob[7] = 1
    with pytest.raises(BadMagic):
        parse_dex(bytes(blob))


def test_bad_magic_short_blob():
    with pytest.raises(BadMagic):
        parse_dex(b"foo!bar\x00more")


def test_too_short():
    with pytest.raises(StructuralError):
        parse_dex(b"dex\n035\x00" + b"\x00" * 20)


def test_unsupported_version():
    with pytest.raises(UnsupportedVersion):
        parse_dex(DexBuilder(version=34).build())
    with pytest.raises(UnsupportedVersion):
        parse_dex(DexBuilder(version=40).build())


def test_checksum_strict_vs_lenient(crypto_dex):
    blob, _ = crypto_dex
    corrupted = bytearray(blob)
    corrupted[-1] ^= 0xFF  # inside string data
    parse_dex(bytes(corrupted))  # lenient: not checked
    with pytest.raises(ChecksumMismatch):
        parse_dex(bytes(corrupted), strict=True)
    parse_dex(blob, strict=True)


def test_endianness_rejected():
    blob = bytearray(DexBuilder().build())
    struct.pack_into("<I", blob, 40, 0x78563412)
    with pytest.raises(StructuralError):
        parse_dex(bytes(blob))


def _u32(blob, off):
    return struct.unpack_from("<I", blob, off)[0]


def _table_case(what, size_at):
    """Point a table's header offset at the end of the blob."""
    return lambda b: (
        "<I", size_at + 4, len(b),
        f"{what} table out of bounds (off={len(b)}, count={_u32(b, size_at)})",
    )


# Each case names one field of the blob, at the offset its header (or a
# record the header locates) declares: (struct format, offset, new value,
# the exact message parse_dex raises).
_STRUCTURAL_CASES = {
    "string_ids-table": _table_case("string_ids", 56),
    "type_ids-table": _table_case("type_ids", 64),
    "proto_ids-table": _table_case("proto_ids", 72),
    "method_ids-table": _table_case("method_ids", 88),
    "class_defs-table": _table_case("class_defs", 96),
    "string_data_off": lambda b: (
        "<I", _u32(b, 60), len(b), f"string_data_off {len(b)} out of bounds"
    ),
    "type_id-string-index": lambda b: (
        "<I", _u32(b, 68), _u32(b, 56), f"type_id string index {_u32(b, 56)} out of range"
    ),
    "proto-return-type": lambda b: (
        "<I", _u32(b, 76) + 4, _u32(b, 64), f"proto return type {_u32(b, 64)} out of range"
    ),
    "method_id": lambda b: (
        "<I", _u32(b, 92) + 4, _u32(b, 56),
        "method_id ({},{},{}) out of range".format(
            *struct.unpack_from("<HH", b, _u32(b, 92)), _u32(b, 56)
        ),
    ),
    "class_def-type-index": lambda b: (
        "<I", _u32(b, 100), _u32(b, 64), f"class_def type index {_u32(b, 64)} out of range"
    ),
    "class_data_off": lambda b: (
        "<I", _u32(b, 100) + 24, len(b), f"class_data_off {len(b)} out of bounds"
    ),
    # no fields, four one-byte sizes, then the first method_idx_diff
    "encoded_method-index": lambda b: (
        "<B", _u32(b, _u32(b, 100) + 24) + 4, 0x7F, "encoded_method index 127 out of range"
    ),
    "file_size": lambda b: (
        "<I", 32, len(b) + 1, f"file_size {len(b) + 1} exceeds blob ({len(b)})"
    ),
    "header_size": lambda b: ("<I", 36, 116, "header_size 116"),
}


@pytest.mark.parametrize("case", sorted(_STRUCTURAL_CASES))
def test_structural_error_messages(locker_dex, case):
    blob, _ = locker_dex
    fmt, off, value, message = _STRUCTURAL_CASES[case](blob)
    patched = bytearray(blob)
    struct.pack_into(fmt, patched, off, value)
    with pytest.raises(StructuralError) as info:
        parse_dex(bytes(patched))
    assert str(info.value) == message


@pytest.mark.parametrize("case", sorted(_STRUCTURAL_CASES))
def test_structural_error_messages_through_the_batched_decode(locker_dex, case, monkeypatch):
    monkeypatch.setattr(dex_module, "CLASS_BATCH_MIN", 1)
    test_structural_error_messages(locker_dex, case)


def test_batched_decode_passes_stay_within_the_window_cap(monkeypatch):
    builder = DexBuilder()
    for c in range(40):
        methods = [MethodDef(f"m{k}", "()V", [ins_return_void()]) for k in range(c % 6)]
        builder.add_class(f"com/app/C{c}", methods)
    blob = builder.build()
    scalar = parse_dex(blob).class_items
    windows = []

    def spy(data, starts, counts, width):
        windows.append(int(width.sum()))
        return decode_runs(data, starts, counts, width)

    decode_runs = dex_module._decode_runs
    monkeypatch.setattr(dex_module, "_decode_runs", spy)
    monkeypatch.setattr(dex_module, "CLASS_BATCH_MIN", 1)
    monkeypatch.setattr(dex_module, "WINDOW_CAP", 100)  # a run's window is at most 75 bytes here
    assert parse_dex(blob).class_items == scalar
    assert len(windows) > 2 and max(windows) <= 100


@pytest.mark.parametrize("seed", range(5))
def test_valid_dex_never_falls_back_to_the_scalar_decode(seed, monkeypatch):
    blob, _ = random_dex(seed)
    scalar = parse_dex(blob).class_items

    def forbidden(*args):
        raise AssertionError("the batched class_data decode fell back")

    monkeypatch.setattr(dex_module, "CLASS_BATCH_MIN", 1)
    monkeypatch.setattr(dex_module, "_read_class_data", forbidden)
    assert parse_dex(blob).class_items == scalar


def test_shared_class_data_item_raises_through_both_decoders(monkeypatch):
    blob, item = shared_class_data_dex(300, 5)
    for batch_min in (dex_module.CLASS_BATCH_MIN, 10**9):  # batched, then scalar alone
        monkeypatch.setattr(dex_module, "CLASS_BATCH_MIN", batch_min)
        with pytest.raises(StructuralError) as info:
            parse_dex(blob)
        assert str(info.value) == f"class_data_off {item} shared by two class_defs"


# -- invoke extraction -----------------------------------------------------------


def _undescribed(sites):
    """Counts per (class path, name) of ``sites``: targets with their
    descriptors stripped."""
    return Counter((s.target.class_path, s.target.name) for s in sites)


def _named(dex, counts):
    """count_invoke_targets' counts per method index summed per (class path,
    name) of each index, as _undescribed gives them; primitive receivers,
    which extract_invokes drops, dropped too."""
    named = Counter()
    for method_idx, n in counts.items():
        class_idx, _, name_idx = dex.method_ids.item(method_idx)
        class_path = class_path_of(dex.type_names[class_idx])
        if class_path is not None:
            named[class_path, dex.string(name_idx)] += n
    return named


def test_locker_snippet_invokes(locker_dex):
    blob, expected = locker_dex
    sites = extract_invokes(parse_dex(blob, strict=True))
    assert sites == expected
    lock = sites[0]
    assert lock.kind is InvokeKind.Virtual
    assert key_of(lock.target.class_path, "", Granularity.Package) == "android/app/admin"
    assert lock.target.class_path == "android/app/admin/DevicePolicyManager"
    assert lock.target.name == "lockNow"
    assert lock.target.descriptor == "()V"
    assert sites[1].target.name == "resetPassword"
    assert sites[1].target.descriptor == "(Ljava/lang/String;I)Z"


def test_crypto_snippet_invokes(crypto_dex):
    blob, _ = crypto_dex
    sites = extract_invokes(parse_dex(blob, strict=True))
    got = [(s.target.class_path, s.target.name) for s in sites]
    assert got == [
        ("java/io/FileInputStream", "read"),
        ("javax/crypto/CipherOutputStream", "flush"),
        ("javax/crypto/CipherOutputStream", "close"),
        ("java/io/FileInputStream", "close"),
    ]
    assert all(s.caller_class == "com/fixture/Crypt" for s in sites)


def test_nop_and_return_only():
    blob, _ = build_single_method_dex([ins_nop(), ins_nop(), ins_return_void()])
    assert extract_invokes(parse_dex(blob)) == []


def test_payloads_are_skipped_not_counted():
    body = [
        ins_packed_switch_payload(4),
        ins_invoke(InvokeKind.Static, "java/lang/System", "exit", "(I)V"),
        ins_sparse_switch_payload(3),
        ins_fill_array_payload(2, 5),
        ins_invoke(InvokeKind.Virtual, "java/io/File", "delete", "()Z"),
        ins_fill_array_payload(1, 3),  # odd byte count: exercises the +1 rounding
        ins_return_void(),
    ]
    blob, expected = build_single_method_dex(body)
    sites = extract_invokes(parse_dex(blob, strict=True))
    assert [s.target.name for s in sites] == ["exit", "delete"]
    assert sites == expected


def test_polymorphic_and_custom_sized_but_not_counted():
    # 0xfa/0xfb are 4 units, 0xfc/0xfd are 3; none are call sites here
    body = [
        (0x10FA, 0, 0, 0),
        (0x10FB, 0, 0, 0),
        (0x10FC, 0, 0),
        (0x10FD, 0, 0),
        ins_invoke(InvokeKind.Virtual, "java/io/File", "delete", "()Z"),
        ins_return_void(),
    ]
    builder = DexBuilder(version=39)
    builder.add_class("com/fixture/New", [MethodDef("run", "()V", body)])
    sites = extract_invokes(parse_dex(builder.build(), strict=True))
    assert [s.target.name for s in sites] == ["delete"]


def test_primitive_array_receiver_dropped_reference_array_normalized():
    body = [
        ins_invoke(InvokeKind.Virtual, "[B", "clone", "()Ljava/lang/Object;"),
        ins_invoke(InvokeKind.Virtual, "[Ljava/lang/String;", "clone", "()Ljava/lang/Object;"),
        ins_return_void(),
    ]
    blob, expected = build_single_method_dex(body)
    sites = extract_invokes(parse_dex(blob, strict=True))
    assert len(sites) == 1
    assert sites[0].target.class_path == "java/lang/String"
    assert key_of(sites[0].target.class_path, "", Granularity.Package) == "java/lang"
    assert sites == expected


def test_method_index_out_of_range():
    blob, _ = build_single_method_dex(
        [ins_invoke(InvokeKind.Virtual, "java/io/File", "delete", "()Z"), ins_return_void()]
    )
    dex = parse_dex(blob)
    code_off = dex.class_items[0].code_offsets[0]
    patched = bytearray(blob)
    struct.pack_into("<H", patched, code_off + 16 + 2, 60000)  # invoke's index unit
    with pytest.raises(StructuralError):
        extract_invokes(parse_dex(bytes(patched)))


def test_stream_overrun_detected():
    # cut a 2-unit instruction in half by shrinking insns_size
    from apksift.synth import ins_const16

    blob, _ = build_single_method_dex([ins_const16(0, 77), ins_return_void()])
    dex = parse_dex(blob)
    code_off = dex.class_items[0].code_offsets[0]
    patched = bytearray(blob)
    struct.pack_into("<I", patched, code_off + 12, 1)
    with pytest.raises(StructuralError):
        extract_invokes(parse_dex(bytes(patched)))


def test_non_ascii_names_parse_and_resolve():
    blob, expected = non_ascii_dex()
    dex = parse_dex(blob, strict=True)
    sites = extract_invokes(dex)
    assert sites == expected
    assert {s.caller_class for s in sites} == {NON_ASCII_CLASS}
    assert [s.target.name for s in sites] == ["\u65b9\u6cd5\U0001f600", "lock\U0001f512", "lockNow"]
    assert _named(dex, count_invoke_targets(dex)) == _undescribed(expected)


def test_overlong_type_name_raises():
    blob, _ = non_ascii_dex()
    with pytest.raises(InvalidSequence):
        parse_dex(with_overlong_type_name(blob))


def test_extraction_is_pure(crypto_dex):
    blob, _ = crypto_dex
    first = extract_invokes(parse_dex(blob))
    second = extract_invokes(parse_dex(blob))
    assert first == second


@pytest.mark.parametrize("kind", TYPE_LIST_FAULTS)
def test_type_list_fault_raises_in_extract_only(locker_dex, kind):
    # counting never reads a descriptor, so it counts the damaged dex as is
    blob, expected = locker_dex
    patched, message = with_bad_type_list(blob, kind)
    dex = parse_dex(patched)
    with pytest.raises(StructuralError) as info:
        extract_invokes(dex)
    assert str(info.value) == message
    assert _named(dex, count_invoke_targets(dex)) == _undescribed(expected)


def test_count_matches_extract(crypto_dex):
    blob, _ = crypto_dex
    dex = parse_dex(blob)
    assert _named(dex, count_invoke_targets(dex)) == _undescribed(extract_invokes(dex))


# -- generator-backed oracle -----------------------------------------------------


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_oracle_random_fixture(seed):
    blob, expected = random_dex(seed)
    dex = parse_dex(blob, strict=True)
    assert Counter(extract_invokes(dex)) == Counter(expected)
    assert _named(dex, count_invoke_targets(dex)) == _undescribed(expected)


def test_oracle_suite_hundred_files():
    t0 = time.perf_counter()
    matched = 0
    for seed in range(100):
        blob, expected = random_dex(seed)
        got = extract_invokes(parse_dex(blob, strict=True))
        assert Counter(got) == Counter(expected), f"fixture seed {seed}"
        matched += 1
    elapsed = time.perf_counter() - t0
    assert matched == 100
    assert elapsed < 30.0, f"oracle suite took {elapsed:.1f}s"


# -- lock-step walk against the scalar walk ----------------------------------------
#
# A dex with BATCH_MIN_ITEMS code items or more is walked in numpy lock-step;
# the scalar walk (_walk_into over every item, then a range check of each
# method index in walk order) is the oracle.
# Every item is a method of its own, so the method table has at least
# BATCH_MIN_ITEMS entries and raw invoke indices below that are always in range.

_INVOKE_OPS = [op for op in range(0x6E, 0x79) if op != 0x73]
_UNIT = st.integers(0, 0xFFFF)


def _payload(ident, a, b, fill):
    """Well-formed payload units for ident 1/2/3 with header fields a, b.

    The body repeats ``fill``; an invoke opcode there shows a walk that
    steps into the payload instead of over it.
    """
    if ident == 1:  # packed-switch: a targets
        return (0x0100, a, 0, 0) + (fill,) * (2 * a)
    if ident == 2:  # sparse-switch: a keys and a targets
        return (0x0200, a) + (fill,) * (4 * a)
    return (0x0300, a + 1, b, 0) + (fill,) * (((a + 1) * b + 1) // 2)  # fill-array-data


@st.composite
def _instruction(draw):
    # invokes, the 0x73 gap among them and payloads (opcode 0) are 12 of 256
    # opcodes; draw them often
    op = draw(st.one_of(st.integers(0, 0xFF), st.sampled_from([0, 0x73, *_INVOKE_OPS])))
    high = draw(st.integers(0, 0xFF))
    if op in _INVOKE_OPS:
        return (op | high << 8, draw(st.integers(0, BATCH_MIN_ITEMS - 1)), draw(_UNIT))
    if op == 0:
        # a payload ident (1-3) three times in five; any other high byte
        # makes a one-unit nop
        ident = draw(st.sampled_from([1, 2, 3, high, high]))
        if ident in (1, 2, 3):
            a, b = draw(st.integers(0, 4)), draw(st.integers(0, 5))
            return _payload(ident, a, b, draw(st.one_of(_UNIT, st.sampled_from(_INVOKE_OPS))))
        return (ident << 8,)
    return (op | high << 8, *(draw(_UNIT) for _ in range(OPCODE_UNITS[op] - 1)))


# Each fault is spliced into one item's stream; all of them make the walk or
# the range check fail (a cut stream may also happen to end on an instruction).
_FAULTS = {
    "truncated-invoke": (0x1000 | 0x6E,),  # as the item's last unit
    "truncated-payload": (0x0300, 1),  # fill-array header cut short
    "payload-overrun": (0x0100, 0xFFFF),  # packed-switch claiming 131,074 units
    "method-out-of-range": (0x1000 | 0x71, 60000, 0),  # index 60000 + position
    "cut": (),  # drop the stream's last unit
}


def _dex_of_streams(streams):
    builder = DexBuilder()
    for start in range(0, len(streams), 8):
        methods = [
            MethodDef(f"m{start + k}", "()V", [tuple(s)] if s else [])
            for k, s in enumerate(streams[start : start + 8])
        ]
        builder.add_class(f"com/fuzz/C{start // 8}", methods)
    return builder.build()


def _scalar_hits(dex):
    hits = []
    for item in dex.class_items:
        for off in item.code_offsets:
            _walk_into(dex.blob, off, hits.append)
    return hits


def _scalar_counts(dex):
    counts = Counter(packed >> 8 for packed in _scalar_hits(dex))
    for method_idx in counts:  # in walk order
        if method_idx >= len(dex.method_ids):
            raise StructuralError(f"invoke method index {method_idx} out of range")
    return counts


def _outcome(fn, dex):
    try:
        return fn(dex)
    except ApksiftError as exc:
        return type(exc), str(exc)


def _assert_walks_agree(blob):
    dex = parse_dex(blob)
    assert _outcome(count_invoke_targets, dex) == _outcome(_scalar_counts, dex)
    # the lock-step walk on its own, since a spurious fault in it would be
    # hidden by count_invoke_targets' scalar re-walk
    code_offs = [off for item in dex.class_items for off in item.code_offsets]
    try:
        expected = Counter(_scalar_hits(dex))
    except StructuralError:
        with pytest.raises(StructuralError):
            _walk_batched(dex.blob, code_offs)
    else:
        assert Counter(_walk_batched(dex.blob, code_offs).tolist()) == expected


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.lists(_instruction(), max_size=12), min_size=1, max_size=8),
    st.integers(BATCH_MIN_ITEMS, 3 * BATCH_MIN_ITEMS),
    st.lists(
        st.tuples(
            st.integers(0, 3 * BATCH_MIN_ITEMS),  # item
            st.sampled_from(sorted(_FAULTS)),
            st.integers(0, 12),  # unit position
        ),
        max_size=2,
    ),
)
def test_lockstep_walk_matches_scalar(shapes, n_items, faults):
    streams = [[u for ins in shapes[k % len(shapes)] for u in ins] for k in range(n_items)]
    for item, kind, at in faults:
        stream = streams[item % n_items]
        if kind == "cut":
            del stream[-1:]
        elif kind.startswith("truncated"):
            stream.extend(_FAULTS[kind])
        else:
            units = list(_FAULTS[kind])
            if kind == "method-out-of-range":
                units[1] += at  # two such faults name different indices
            stream[min(at, len(stream)) : min(at, len(stream))] = units
    _assert_walks_agree(_dex_of_streams(streams))


def test_one_invoke_opcode_set(monkeypatch):
    # one one-instruction item per opcode byte, operands zero: invokes name
    # method 0 and opcode 0 is a nop with ident 0
    streams = [[op] + [0] * (OPCODE_UNITS[op] - 1) for op in range(256)]
    assert len(streams) >= BATCH_MIN_ITEMS
    dex = parse_dex(_dex_of_streams(streams))
    lockstep_hits = []

    def spy(blob, code_offs):
        hits = _walk_batched(blob, code_offs)
        lockstep_hits.extend(hits.tolist())
        return hits

    monkeypatch.setattr(dex_module, "_walk_batched", spy)
    counts = count_invoke_targets(dex)
    assert sorted(packed & 0xFF for packed in lockstep_hits) == sorted(KIND_BY_OPCODE)
    assert sorted(packed >> 8 for packed in lockstep_hits) == [0] * len(KIND_BY_OPCODE)
    assert sum(counts.values()) == len(KIND_BY_OPCODE)
    assert sorted(packed & 0xFF for packed in _scalar_hits(dex)) == sorted(KIND_BY_OPCODE)
    assert set(np.flatnonzero(dex_module._IS_INVOKE).tolist()) == set(KIND_BY_OPCODE)


def _invoke_units(method_idx):
    return [0x1000 | 0x6E, method_idx, 0]


def test_lockstep_long_method_among_short_ones():
    # one 20,000-instruction method keeps a single item live long after the
    # lock-step walk has handed it to the scalar tail
    long = [u for k in range(20_000) for u in (_invoke_units(k % 97) if k % 5 == 0 else [0x0001])]
    short = [[0x0001] * (k % 7) + _invoke_units(k) + [0x000E] for k in range(3 * BATCH_MIN_ITEMS)]
    blob = _dex_of_streams([long] + short)
    _assert_walks_agree(blob)
    counts = count_invoke_targets(parse_dex(blob))
    assert sum(counts.values()) == 4_000 + 3 * BATCH_MIN_ITEMS


def test_dex_below_batch_size_never_takes_the_lockstep_walk(monkeypatch):
    streams = [_invoke_units(k) + [0x000E] for k in range(BATCH_MIN_ITEMS - 1)]
    dex = parse_dex(_dex_of_streams(streams))
    expected = _scalar_counts(dex)

    def forbidden(*args):
        raise AssertionError("lock-step walk used below BATCH_MIN_ITEMS")

    monkeypatch.setattr(dex_module, "_walk_batched", forbidden)
    assert count_invoke_targets(dex) == expected
    assert sum(expected.values()) == BATCH_MIN_ITEMS - 1


@pytest.mark.parametrize("kind", sorted(_FAULTS))
def test_fault_in_a_short_item_meets_the_lockstep_walk(kind):
    # the faulty item ends while every other item is still live, so the
    # lock-step walk, not the scalar tail, is the one that meets the fault
    streams = [[0x0001] * 30 for _ in range(2 * BATCH_MIN_ITEMS)]
    streams[5] = [0x0001] * 3 + list(_FAULTS[kind]) + [0x000E] * (kind == "method-out-of-range")
    if kind == "cut":
        streams[5] = [0x0001, 0x0013]  # const/16 without its literal
    blob = _dex_of_streams(streams)
    _assert_walks_agree(blob)
    with pytest.raises(StructuralError):
        count_invoke_targets(parse_dex(blob))


def test_first_fault_in_walk_order_wins():
    # item 3 overruns only at its 40th instruction; item 200 has a truncated
    # invoke at its first. The lock-step walk meets item 200's fault first,
    # but the error must name item 3, as the scalar walk does.
    streams = [[0x0001] * 50 for _ in range(2 * BATCH_MIN_ITEMS)]
    streams[3] = [0x0001] * 40 + [0x0013]  # const/16 cut after its first unit
    streams[200] = [0x1000 | 0x6E]
    blob = _dex_of_streams(streams)
    dex = parse_dex(blob)
    code_off = dex.class_items[0].code_offsets[3]
    with pytest.raises(StructuralError) as err:
        count_invoke_targets(dex)
    assert str(err.value) == f"instruction stream at {code_off} overruns insns_size by 1 units"
    _assert_walks_agree(blob)


def test_first_bad_target_in_walk_order_wins():
    # index order would name 50000 first; walk order meets 60000 first
    streams = [[0x000E] for _ in range(2 * BATCH_MIN_ITEMS)]
    streams[10] = _invoke_units(60000) + [0x000E]
    streams[20] = _invoke_units(50000) + [0x000E]
    dex = parse_dex(_dex_of_streams(streams))
    with pytest.raises(StructuralError, match="^invoke method index 60000 out of range$"):
        count_invoke_targets(dex)
