"""DEX parsing: varints, string decoding, container structure, invoke
extraction with its generator-backed oracle."""

import struct
import time
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apksift.dalvik import OPCODE_UNITS
from apksift.dex import (
    count_invoke_targets,
    decode_mutf8,
    extract_invokes,
    parse_dex,
    read_uleb128,
)
from apksift.errors import (
    BadMagic,
    ChecksumMismatch,
    InvalidSequence,
    Overlong,
    StructuralError,
    TruncatedEncoding,
    UnsupportedVersion,
)
from apksift.invokes import InvokeKind
from apksift.synth import (
    DexBuilder,
    MethodDef,
    ins_fill_array_payload,
    ins_invoke,
    ins_nop,
    ins_packed_switch_payload,
    ins_return_void,
    ins_sparse_switch_payload,
    random_dex,
)

from conftest import build_single_method_dex


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
    assert dex.version == 35
    assert dex.class_items == ()
    assert extract_invokes(dex) == []


def test_version_from_magic():
    blob = DexBuilder(version=35).build()
    assert parse_dex(blob).version == 35
    blob39 = DexBuilder(version=39).build()
    assert parse_dex(blob39).version == 39


def test_bad_magic():
    blob = bytearray(DexBuilder().build())
    blob[0:4] = b"foo!"
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


# -- invoke extraction -----------------------------------------------------------


def test_locker_snippet_invokes(locker_dex):
    blob, expected = locker_dex
    sites = extract_invokes(parse_dex(blob, strict=True))
    assert sites == expected
    lock = sites[0]
    assert lock.kind is InvokeKind.Virtual
    assert lock.target.package == "android/app/admin"
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
    assert sites[0].target.package == "java/lang"
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


def test_extraction_is_pure(crypto_dex):
    blob, _ = crypto_dex
    first = extract_invokes(parse_dex(blob))
    second = extract_invokes(parse_dex(blob))
    assert first == second


def test_count_matches_extract(crypto_dex):
    blob, _ = crypto_dex
    dex = parse_dex(blob)
    assert count_invoke_targets(dex) == Counter(s.target for s in extract_invokes(dex))


# -- generator-backed oracle -----------------------------------------------------


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_oracle_random_fixture(seed):
    blob, expected = random_dex(seed)
    dex = parse_dex(blob, strict=True)
    assert Counter(extract_invokes(dex)) == Counter(expected)
    assert count_invoke_targets(dex) == Counter(s.target for s in expected)


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
