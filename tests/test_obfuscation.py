"""Obfuscation transforms: feature identities, constant-map collapse,
input immutability, stub fixtures."""

from collections import Counter

from hypothesis import given, settings

from apksift.features import extract_features
from apksift.invokes import InvokeKind, InvokeSite, MethodRef
from apksift.obfuscation import (
    ObfuscationKind,
    ObfuscationTransform,
    default_transform,
    is_user_implemented,
    load_stub_profile,
    transform,
)
from apksift.reference import Granularity, key_of, make_reference
from apksift.synth import EXPERIMENT_VOCAB, reference_from_vocab

from conftest import invoke_lists


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
        keys = sorted({key_of(s.target, g) for s in sites} - {None, ""})
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
    key = lambda s: key_of(s.target, Granularity.Method)
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
