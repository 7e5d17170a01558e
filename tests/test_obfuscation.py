"""Obfuscation transforms: feature identities, constant-map collapse,
input immutability, stub fixtures, and the count form the protocol applies
checked against ``transform``."""

import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apksift.dex import extract_invokes, parse_dex
from apksift.features import (
    caller_split,
    extract_features,
    extract_from_sample,
    obfuscated_vector,
    platform_features,
)
from apksift.invokes import InvokeKind, InvokeSite, MethodRef
from apksift.obfuscation import (
    ObfuscationKind,
    ObfuscationTransform,
    default_transform,
    is_user_implemented,
    load_stub_profile,
    transform,
)
from apksift.reference import Granularity, key_of, make_reference, target_of_key
from apksift.synth import EXPERIMENT_VOCAB, reference_from_vocab, write_apk

from conftest import ARRAY_CLASS, class_paths, invoke_lists, method_refs, mixed_caller_dex


def sample_invokes(caller="com/app/Main"):
    mk = MethodRef
    return [
        InvokeSite(InvokeKind.Virtual, caller, mk("java/io/FileInputStream", "read", "([B)I")),
        InvokeSite(InvokeKind.Virtual, caller, mk("javax/crypto/Cipher", "doFinal", "([B)[B")),
        InvokeSite(InvokeKind.Static, caller, mk("com/app/Util", "helper", "()V")),
    ]


def test_user_implemented_predicate():
    assert is_user_implemented("com/app/Main")
    assert is_user_implemented("")
    assert not is_user_implemented("android/app/Activity")
    assert not is_user_implemented("androidx/core/app/NotificationCompat")
    assert not is_user_implemented("java/io/File")
    assert not is_user_implemented("dalvik/system/DexClassLoader")


def test_stub_profiles_load_and_are_user_called():
    for kind in (ObfuscationKind.ResourceEncryption, ObfuscationKind.ClassEncryption):
        stub = load_stub_profile(kind)
        assert stub, kind
        assert all(is_user_implemented(s.caller_class) for s in stub)
        # stub targets are System API (that is the whole point)
        assert all(not is_user_implemented(s.target.class_path) for s in stub)
    assert load_stub_profile(ObfuscationKind.StringEncryption) == ()


def test_string_encryption_appends_only_user_calls():
    t = default_transform(ObfuscationKind.StringEncryption, seed=1)
    original = sample_invokes()
    out = transform(original, t)
    assert out[: len(original)] == original
    appended = out[len(original) :]
    assert 1 <= len(appended) <= 5
    assert all(is_user_implemented(s.target.class_path) for s in appended)


def test_string_encryption_deterministic_per_content():
    t = default_transform(ObfuscationKind.StringEncryption, seed=1)
    a = transform(sample_invokes(), t)
    b = transform(sample_invokes(), t)
    assert a == b
    other = transform(sample_invokes()[:2], t)
    assert other != a


@settings(max_examples=50, deadline=None)
@given(invoke_lists(max_size=30))
def test_string_encryption_is_feature_identity(sites):
    t = default_transform(ObfuscationKind.StringEncryption, seed=3)
    out = transform(sites, t)
    for g in (Granularity.Package, Granularity.Class, Granularity.Method):
        keys = sorted({key_of(s.target.class_path, s.target.name, g) for s in sites} - {None, ""})
        if not keys:
            keys = ["com/placeholder/X"] if g is not Granularity.Package else ["com/placeholder"]
            if g is Granularity.Method:
                keys = ["com/placeholder/X;->run"]
        ref = make_reference(g, keys)
        assert extract_features(out, ref) == extract_features(sites, ref)


def test_resource_encryption_adds_exactly_the_stub():
    t = default_transform(ObfuscationKind.ResourceEncryption, seed=2)
    ref = reference_from_vocab(EXPERIMENT_VOCAB, Granularity.Method)
    original = sample_invokes()
    base = extract_features(original, ref)
    out = extract_features(transform(original, t), ref)
    stub_only = extract_features(t.stub_profile, ref)
    assert out.counts == tuple(a + b for a, b in zip(base.counts, stub_only.counts))


def test_resource_encryption_on_empty_sample_equals_stub_vector():
    t = default_transform(ObfuscationKind.ResourceEncryption, seed=2)
    ref = reference_from_vocab(EXPERIMENT_VOCAB, Granularity.Class)
    out = extract_features(transform([], t), ref)
    assert out == extract_features(t.stub_profile, ref)


def test_class_encryption_is_constant_map():
    t = default_transform(ObfuscationKind.ClassEncryption, seed=4)
    a = transform(sample_invokes("com/app/A"), t)
    b = transform(
        sample_invokes("com/other/B") + sample_invokes("com/other/C"), t
    )
    ref = reference_from_vocab(EXPERIMENT_VOCAB, Granularity.Method)
    assert extract_features(a, ref) == extract_features(b, ref)
    # the System-API-visible multiset collapses to the stub
    key = lambda s: key_of(s.target.class_path, s.target.name, Granularity.Method)
    assert Counter(map(key, a)) == Counter(map(key, t.stub_profile))


def test_class_encryption_keeps_platform_callers():
    t = default_transform(ObfuscationKind.ClassEncryption, seed=4)
    mk = MethodRef
    platform_call = InvokeSite(
        InvokeKind.Virtual, "android/app/Activity", mk("java/io/File", "delete", "()Z")
    )
    out = transform([platform_call] + sample_invokes(), t)
    assert platform_call in out


def test_transforms_do_not_mutate_input():
    for kind in ObfuscationKind:
        t = default_transform(kind, seed=5)
        original = sample_invokes()
        snapshot = list(original)
        transform(original, t)
        assert original == snapshot


def test_custom_stub_profile():
    mk = MethodRef
    stub = (
        InvokeSite(InvokeKind.Static, "com/obf/X", mk("javax/crypto/Mac", "doFinal", "([B)[B")),
    )
    t = ObfuscationTransform(ObfuscationKind.ClassEncryption, stub, seed=0)
    out = transform(sample_invokes(), t)
    assert out == list(stub)


# -- the count form against the transform oracle ---------------------------------

REFS = [reference_from_vocab(EXPERIMENT_VOCAB, g) for g in Granularity]
TRANSFORMS = [default_transform(kind, seed=9) for kind in ObfuscationKind]
# call targets the references count, besides random ones
_KNOWN_TARGETS = [MethodRef(*target_of_key(k), "()V") for k in sorted(EXPERIMENT_VOCAB)]
_KNOWN_TARGETS += [s.target for t in TRANSFORMS for s in t.stub_profile]
_TARGETS = st.one_of(st.sampled_from(_KNOWN_TARGETS), method_refs())
_CALLERS = st.one_of(
    st.sampled_from(["", "com/app/Main", "androidx/core/Compat", "android/app/Service"]),
    class_paths(),
)
_SITES = st.builds(InvokeSite, st.sampled_from(list(InvokeKind)), _CALLERS, _TARGETS)


def assert_count_form_matches_oracle(every, platform, sites):
    """obfuscated_vector of a sample's two vectors equals the vector of its
    transformed invoke list, for every kind and reference granularity."""
    for ref in REFS:
        for t in TRANSFORMS:
            got = obfuscated_vector(every[ref.granularity], platform[ref.granularity], t, ref)
            assert got == extract_features(transform(sites, t), ref), (t.kind, ref.granularity)


@settings(max_examples=60, deadline=None)
@given(st.lists(_SITES, max_size=40))
def test_count_form_matches_transform_on_invoke_lists(sites):
    every = {ref.granularity: extract_features(sites, ref) for ref in REFS}
    platform = {ref.granularity: platform_features(sites, ref) for ref in REFS}
    assert_count_form_matches_oracle(every, platform, sites)


@pytest.fixture(scope="module")
def apk_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("count-form")


def assert_apk_count_form_matches_oracle(apk_dir, classes):
    """caller_split of a one-dex apk of ``classes`` gives
    extract_from_sample's vector and a platform vector that, through
    obfuscated_vector, match transform on extract_invokes' sites."""
    blob = mixed_caller_dex(classes)
    apk = apk_dir / "sample.apk"
    write_apk(apk, [blob])
    every, platform = {}, {}
    for ref in REFS:
        every[ref.granularity], platform[ref.granularity] = caller_split(apk, ref)
        assert every[ref.granularity] == extract_from_sample(apk, ref)
    assert_count_form_matches_oracle(every, platform, extract_invokes(parse_dex(blob)))


# a class's sites keep only their kind and target: the dex names the caller
_DEX_CLASSES = st.lists(
    st.tuples(
        st.one_of(
            st.sampled_from([ARRAY_CLASS, "androidx/core/Compat", "android/app/Service"]),
            class_paths(),
        ),
        st.lists(_SITES, max_size=12),
    ),
    max_size=8,
    unique_by=lambda c: c[0],
)


@settings(max_examples=60, deadline=None)
@given(_DEX_CLASSES)
def test_count_form_matches_transform_on_mixed_caller_dex(apk_dir, classes):
    assert_apk_count_form_matches_oracle(apk_dir, classes)


def test_count_form_matches_transform_on_lock_step_walks(apk_dir):
    # 300 user and 300 platform classes: the whole dex and its platform view
    # both have enough code items for count_invoke_targets' lock-step walk
    rng = random.Random(5)
    callers = [ARRAY_CLASS] + [f"{p}/C{i}" for p in ("com/app", "android/gen") for i in range(300)]
    classes = [
        (caller, [InvokeSite(rng.choice(list(InvokeKind)), "", rng.choice(_KNOWN_TARGETS))
                  for _ in range(rng.randrange(4))])
        for caller in callers
    ]
    assert_apk_count_form_matches_oracle(apk_dir, classes)


def test_count_form_leaves_out_the_decryptor_calls():
    # com/obf/StringVault is not System API, so the count form never sees the
    # decryptor calls that string and resource encryption add: a reference
    # with a key for it is the one place where it and transform differ
    ref = make_reference(Granularity.Class, ["com/obf/StringVault", "java/io/File"])
    site = InvokeSite(
        InvokeKind.Virtual, "com/app/Main", MethodRef("java/io/File", "delete", "()Z")
    )
    every, platform = extract_features([site], ref), platform_features([site], ref)
    got = {
        t.kind: (
            extract_features(transform([site], t), ref).counts,
            obfuscated_vector(every, platform, t, ref).counts,
        )
        for t in TRANSFORMS
    }
    assert got == {
        ObfuscationKind.StringEncryption: ((4, 1), (0, 1)),
        ObfuscationKind.ResourceEncryption: ((4, 1), (0, 1)),
        ObfuscationKind.ClassEncryption: ((0, 0), (0, 0)),
    }
