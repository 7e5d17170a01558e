"""Shared fixtures: the two published bytecode snippets as dex fixtures,
tiny reference lists, and hypothesis strategies for domain objects."""

from __future__ import annotations

import csv
import io
import struct
import tracemalloc
import zipfile

import pytest
from hypothesis import strategies as st

from apksift.dex import parse_dex
from apksift.invokes import InvokeKind, InvokeSite, MethodRef
from apksift.reference import Granularity, make_reference
from apksift.synth import (
    DexBuilder,
    MethodDef,
    ins_const4,
    ins_if_ne,
    ins_invoke,
    ins_invoke_site,
    ins_move_object,
    ins_move_result,
    ins_move_result_object,
    ins_return_void,
    write_apk,
)

# -- the locker snippet: screen lock + password reset through device admin --


def locker_body():
    return [
        ins_invoke(InvokeKind.Virtual, "android/app/admin/DevicePolicyManager", "lockNow", "()V"),
        ins_move_object(1, 0),
        ins_move_object(2, 1),
        ins_move_result_object(1),
        ins_move_object(2, 7),
        ins_const4(3, 0),
        ins_invoke(
            InvokeKind.Virtual,
            "android/app/admin/DevicePolicyManager",
            "resetPassword",
            "(Ljava/lang/String;I)Z",
        ),
        ins_return_void(),
    ]


# -- the crypto snippet: stream read + cipher flush/close ----------------------


def crypto_body():
    return [
        ins_invoke(InvokeKind.Virtual, "java/io/FileInputStream", "read", "([B)I"),
        ins_move_result(0),
        ins_const4(5, -1),
        ins_if_ne(0, 5, 4),
        ins_invoke(InvokeKind.Virtual, "javax/crypto/CipherOutputStream", "flush", "()V"),
        ins_invoke(InvokeKind.Virtual, "javax/crypto/CipherOutputStream", "close", "()V"),
        ins_invoke(InvokeKind.Virtual, "java/io/FileInputStream", "close", "()V"),
        ins_return_void(),
    ]


def build_single_method_dex(body, class_path="com/fixture/App", method="run"):
    builder = DexBuilder()
    builder.add_class(class_path, [MethodDef(method, "()V", body)])
    return builder.build(), list(builder.expected_invokes)


# -- non-ASCII names: two-byte, three-byte and supplementary-plane characters
# and an embedded U+0000, so every MUTF-8 form reaches the parser --------------

NON_ASCII_CLASS = "com/fixture/\u00dcn\u00efc\u00f8d\u00e9"  # "Ünïcødé"


def non_ascii_dex():
    body = [
        ins_invoke(InvokeKind.Static, NON_ASCII_CLASS, "\u65b9\u6cd5\U0001f600", "()V"),
        ins_invoke(InvokeKind.Virtual, "org/\u00f1/\u4e16\u754c\x00", "lock\U0001f512", "()V"),
        ins_invoke(InvokeKind.Virtual, "android/app/admin/DevicePolicyManager", "lockNow", "()V"),
        ins_return_void(),
    ]
    builder = DexBuilder()
    builder.add_class(
        NON_ASCII_CLASS,
        [
            MethodDef("\u65b9\u6cd5\U0001f600", "()V", body),
            MethodDef("\u00e9\x00", "()V", [ins_return_void()]),
        ],
    )
    return builder.build(), list(builder.expected_invokes)


def with_overlong_type_name(blob: bytes) -> bytes:
    """``blob`` with the "Ü" (C3 9C) of NON_ASCII_CLASS's type name replaced by
    C1 81, an overlong two-byte "A" of the same length."""
    start = blob.index(f"L{NON_ASCII_CLASS};".encode() + b"\x00")
    at = blob.index("\u00dc".encode(), start)
    return blob[:at] + b"\xc1\x81" + blob[at + 2 :]


def with_overlong_method_name(blob: bytes) -> bytes:
    """``blob`` with the "ck" of the invoked method name "lock\U0001f512"
    replaced by C1 A3, an overlong "c", so that only that name stops decoding."""
    at = blob.index(b"lock\xed")  # \xed leads the MUTF-8 surrogate pair of U+1F512
    return blob[: at + 2] + b"\xc1\xa3" + blob[at + 4 :]


TYPE_LIST_FAULTS = ["parameters_off", "type_list-size", "type_list-index"]


def with_bad_type_list(blob: bytes, kind: str) -> tuple[bytes, str]:
    """``blob`` (a locker snippet dex, whose one proto with parameters is
    resetPassword's) with that proto's parameters damaged in the named way,
    and the message extract_invokes raises for it."""
    protos_size, protos_off = struct.unpack_from("<2I", blob, 72)
    protos = struct.iter_unpack("<3I", blob[protos_off : protos_off + 12 * protos_size])
    proto, params_off = next((i, p) for i, (_, _, p) in enumerate(protos) if p)
    n_types = len(parse_dex(blob).type_names)
    fmt, off, value, message = {  # as in test_dex's _STRUCTURAL_CASES
        "parameters_off": (
            "<I", struct.unpack_from("<I", blob, 76)[0] + 12 * proto + 8, len(blob) - 2,
            f"parameters_off {len(blob) - 2} out of bounds",
        ),
        "type_list-size": ("<I", params_off, len(blob), f"type_list at {params_off} out of bounds"),
        "type_list-index": ("<H", params_off + 4, n_types, f"type_list index {n_types} out of range"),
    }[kind]
    patched = bytearray(blob)
    struct.pack_into(fmt, patched, off, value)
    return bytes(patched), message


@pytest.fixture
def locker_dex():
    return build_single_method_dex(locker_body(), class_path="com/fixture/Locker")


@pytest.fixture
def crypto_dex():
    return build_single_method_dex(crypto_body(), class_path="com/fixture/Crypt")


# -- apks whose calls come from user, platform and array-typed classes ---------

# a class def of this class is re-pointed at the array type [I, whose caller is ""
ARRAY_CLASS = "com/app/IntArray"


def mixed_caller_dex(classes) -> bytes:
    """A dex of one class per (caller class path, invoke sites) pair, each with
    one method ``run([I)V`` that makes those calls; the class def of
    ARRAY_CLASS gets the type [I."""
    builder = DexBuilder()
    for caller, sites in classes:
        body = [ins_invoke_site(s) for s in sites] + [ins_return_void()]
        builder.add_class(caller, [MethodDef("run", "([I)V", body)])
    blob = bytearray(builder.build())
    dex = parse_dex(bytes(blob))
    types = [dex.type_names[c.class_type_index] for c in dex.class_items]
    if f"L{ARRAY_CLASS};" in types:
        at = struct.unpack_from("<I", blob, 100)[0] + 32 * types.index(f"L{ARRAY_CLASS};")
        struct.pack_into("<I", blob, at, dex.type_names.index("[I"))
    return bytes(blob)


def write_mixed_caller_apks(directory, samples):
    """One apk per sample, its calls dealt in turn to a user class, a
    platform class and ARRAY_CLASS (odd samples keep the platform class in a
    second dex), plus a manifest.csv; returns the manifest's path."""
    directory.mkdir()
    manifest = directory / "manifest.csv"
    with open(manifest, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["path", "label", "first_seen", "family"])
        for index, s in enumerate(samples):
            sid = s.sample_id
            callers = (f"com/app/{sid}/Main", f"androidx/core/{sid}/Compat", ARRAY_CLASS)
            user, platform, array = [(c, s.invokes[k::3]) for k, c in enumerate(callers)]
            dexes = [[user, platform, array]] if index % 2 == 0 else [[user, array], [platform]]
            write_apk(directory / f"{sid}.apk", [mixed_caller_dex(d) for d in dexes])
            writer.writerow([f"{sid}.apk", s.label.value, s.first_seen.isoformat(), "x"])
    return manifest


# -- reference subsets matching the worked feature-extraction example ---------


@pytest.fixture
def package_subset():
    return make_reference(Granularity.Package, ["java/io", "javax/crypto", "java/lang"])


@pytest.fixture
def class_subset():
    return make_reference(
        Granularity.Class, ["java/io/FileInputStream", "javax/crypto/CipherOutputStream"]
    )


@pytest.fixture
def method_subset():
    return make_reference(
        Granularity.Method,
        [
            "java/io/FileInputStream;->read",
            "java/io/FileInputStream;->close",
            "javax/crypto/CipherOutputStream;->flush",
            "javax/crypto/CipherOutputStream;->close",
        ],
    )


# -- hypothesis strategies -----------------------------------------------------

_SEGMENT = st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789_", min_size=1, max_size=8).filter(
    lambda s: not s[0].isdigit()
)
_CLASS_NAME = st.builds(
    lambda head, tail: head.upper() + tail,
    st.sampled_from("abcdefghijklmnopqrstuvwxyz"),
    st.text(alphabet="abcdefghijklmnopqrstuvwxyzABCDEF0123456789_$", max_size=10),
)


@st.composite
def class_paths(draw):
    segments = draw(st.lists(_SEGMENT, min_size=1, max_size=3))
    return "/".join(segments + [draw(_CLASS_NAME)])


_DESCRIPTORS = st.sampled_from(
    ["()V", "([B)I", "(Ljava/lang/String;)V", "(II)I", "()Ljava/lang/String;", "(J)Z"]
)
_METHOD_NAME = st.sampled_from(
    ["run", "read", "close", "flush", "doFinal", "exec", "a", "b0", "<init>", "toString"]
)


@st.composite
def method_refs(draw):
    return MethodRef(
        draw(class_paths()), draw(_METHOD_NAME), draw(_DESCRIPTORS)
    )


@st.composite
def invoke_sites(draw):
    caller = draw(st.one_of(st.just(""), class_paths()))
    return InvokeSite(draw(st.sampled_from(list(InvokeKind))), caller, draw(method_refs()))


def invoke_lists(max_size=40):
    return st.lists(invoke_sites(), max_size=max_size)


# -- hand-written model files ------------------------------------------------


def chain_model_doc(depth: int, side: str, fingerprint: str = "chainfp") -> dict:
    """A one-feature, one-tree model whose splits nest ``depth`` deep on one side.

    Samples with count 0 go left at every split and samples with count 1
    go right; the leaf at the chain's end is the only one predicting
    ransomware.
    """
    split, end, off = ["s", 0, 0.5], ["l", 0.0, 0.0, 1.0], ["l", 1.0, 0.0, 0.0]
    if side == "left":
        nodes = [split] * depth + [end] + [off] * depth
    else:
        nodes = [split, off] * depth + [end]
    return {
        "format": "apksift-random-forest",
        "format_version": 1,
        "class_order": ["trusted", "malware", "ransomware"],
        "reference_fingerprint": fingerprint,
        "feature_dim": 1,
        "hyperparams": {"n_trees": 1, "max_depth": None, "min_samples_leaf": 1,
                        "features_per_split": None, "seed": 0},
        "trees": [nodes],
    }


# -- memory ------------------------------------------------------------------


def tracemalloc_peak(fn):
    """``fn()`` and the peak number of bytes that Python held while it ran."""
    tracemalloc.start()
    try:
        return fn(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def assert_peak_within_8x(peak: int, size: int, what: str) -> None:
    """Fail unless ``peak`` bytes are at most 8x the ``size`` of the input;
    print the share of that bound used, so -rP logs show the headroom."""
    bound = 8 * size
    print(f"peak {peak:,} bytes for a {size:,}-byte {what}: {peak / bound:.1%} of the 8x bound")
    assert peak <= bound, f"{peak:,} bytes for a {size:,}-byte {what}"


def shared_class_data_dex(n_classes: int, n_methods: int) -> tuple[bytes, int]:
    """A dex whose n_classes class_defs all name one class_data item of
    n_methods methods, and that item's offset. No valid dex shares an item."""
    builder = DexBuilder()
    methods = [MethodDef(f"m{k}", "()V", [ins_return_void()]) for k in range(n_methods)]
    builder.add_class("com/app/C0", methods)
    for c in range(1, n_classes):
        builder.add_class(f"com/app/C{c}", [])
    blob = bytearray(builder.build())
    slots = range(struct.unpack_from("<I", blob, 100)[0] + 24, len(blob), 32)[:n_classes]
    [item] = [off for off in (struct.unpack_from("<I", blob, at)[0] for at in slots) if off]
    for at in slots:
        struct.pack_into("<I", blob, at, item)
    return bytes(blob), item


# -- apks that zipfile cannot read ---------------------------------------------

CORRUPT_ZIPS = [
    "deflate-xor", "lzma-xor", "method-99", "encrypted-flag", "stored-short",
    "version-needed", "utf8-name",
]


def corrupt_apk_bytes(kind: str) -> bytes:
    """A one-entry apk whose ``classes.dex`` entry (an empty dex, repeated) is
    damaged in the named way.

    The first five kinds damage the entry's stream and keep the central
    directory well-formed, so the archive opens and only reading the entry
    fails. ``encrypted-flag`` sets general-purpose bit 0, which Android's
    installer ignores; ``stored-short`` declares sizes past the end of the
    archive. The last two damage the central directory, so opening the
    archive fails: ``version-needed`` declares "version needed to extract"
    15.1, and ``utf8-name`` sets the UTF-8 name flag (bit 11) on a name
    with a 0xFF byte.
    """
    method = {"lzma-xor": zipfile.ZIP_LZMA, "stored-short": zipfile.ZIP_STORED}
    buf = io.BytesIO()
    with zipfile.ZipFile(buf, "w", compression=method.get(kind, zipfile.ZIP_DEFLATED)) as zf:
        zf.writestr("classes.dex", DexBuilder().build() * 20)
    raw = bytearray(buf.getvalue())
    cd = raw.rindex(b"PK\x01\x02")
    start = 30 + int.from_bytes(raw[26:28], "little") + int.from_bytes(raw[28:30], "little")
    if kind.endswith("-xor"):  # keep lzma's 9-byte properties header intact
        for i in range(start + 9, start + int.from_bytes(raw[18:22], "little")):
            raw[i] ^= 0x5A
    elif kind == "method-99":
        raw[8:10] = raw[cd + 10 : cd + 12] = (99).to_bytes(2, "little")
    elif kind == "encrypted-flag":
        raw[6] |= 1
        raw[cd + 8] |= 1
    elif kind == "stored-short":
        big = (1 << 20).to_bytes(4, "little")
        raw[18:22] = raw[22:26] = raw[cd + 20 : cd + 24] = raw[cd + 24 : cd + 28] = big
    elif kind == "version-needed":
        raw[cd + 6 : cd + 8] = (151).to_bytes(2, "little")
    elif kind == "utf8-name":
        raw[cd + 9] |= 0x08
        raw[cd + 46] = 0xFF
    return bytes(raw)


def zeros_apk_bytes(size: int, bad_crc: bool = False, head: bytes = b"") -> bytes:
    """An apk whose deflated ``classes.dex`` inflates to ``head`` and then
    ``size`` zero bytes, a zip bomb when ``size`` is large. ``bad_crc`` zeroes
    the entry's CRC-32, a fault that zipfile sees only once it reaches the end
    of the entry."""
    buf = io.BytesIO()
    with zipfile.ZipFile(buf, "w", compression=zipfile.ZIP_DEFLATED) as zf:
        zf.writestr("classes.dex", head + bytes(size))
    raw = bytearray(buf.getvalue())
    if bad_crc:
        cd = raw.rindex(b"PK\x01\x02")
        raw[14:18] = raw[cd + 16 : cd + 20] = bytes(4)
    return bytes(raw)
