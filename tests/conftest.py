"""Shared fixtures: the two published bytecode snippets as dex fixtures,
tiny reference lists, and hypothesis strategies for domain objects."""

from __future__ import annotations

import io
import zipfile

import pytest
from hypothesis import strategies as st

from apksift.invokes import InvokeKind, InvokeSite, MethodRef
from apksift.reference import Granularity, make_reference
from apksift.synth import (
    DexBuilder,
    MethodDef,
    ins_const4,
    ins_if_ne,
    ins_invoke,
    ins_move_object,
    ins_move_result,
    ins_move_result_object,
    ins_return_void,
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


@pytest.fixture
def locker_dex():
    return build_single_method_dex(locker_body(), class_path="com/fixture/Locker")


@pytest.fixture
def crypto_dex():
    return build_single_method_dex(crypto_body(), class_path="com/fixture/Crypt")


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
    return MethodRef.from_class_path(
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


# -- apks whose classes.dex entry cannot be inflated ---------------------------

CORRUPT_STREAMS = ["deflate-xor", "lzma-xor", "method-99", "encrypted-flag", "stored-short"]


def corrupt_apk_bytes(kind: str) -> bytes:
    """A one-entry apk whose ``classes.dex`` entry (an empty dex, repeated) is
    damaged in the named way.

    The central directory stays well-formed, so the archive opens and only
    reading the entry fails. ``encrypted-flag`` sets general-purpose bit 0,
    which Android's installer ignores; ``stored-short`` declares sizes past
    the end of the archive.
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
    return bytes(raw)
