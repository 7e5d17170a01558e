"""Feature extraction: the published worked example, algebraic properties,
and fast-path equivalence."""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apksift.features import (
    COUNT_CEILING,
    FeatureVector,
    _vector_from_counter,
    extract_features,
    extract_from_sample,
    features_from_dex_blobs,
    write_features_csv,
)
from apksift.dex import extract_invokes, parse_dex
from apksift.invokes import MethodRef
from apksift.reference import Granularity, key_of, make_reference, project
from apksift.synth import random_dex, write_apk

from conftest import build_single_method_dex, invoke_lists


@pytest.fixture
def crypto_sites(crypto_dex):
    blob, _ = crypto_dex
    return extract_invokes(parse_dex(blob))


def by_key(fv, ref):
    return dict(zip(ref.entries, fv.counts))


def test_worked_example_packages(crypto_sites, package_subset):
    fv = extract_features(crypto_sites, package_subset)
    assert by_key(fv, package_subset) == {"java/io": 2, "javax/crypto": 2, "java/lang": 0}


def test_worked_example_classes(crypto_sites, class_subset):
    fv = extract_features(crypto_sites, class_subset)
    assert fv.counts == (2, 2)


def test_worked_example_methods(crypto_sites, method_subset):
    fv = extract_features(crypto_sites, method_subset)
    assert fv.counts == (1, 1, 1, 1)


def test_empty_invoke_list_zero_vector(package_subset):
    fv = extract_features([], package_subset)
    assert fv.counts == (0, 0, 0)


def test_nonreference_targets_ignored(package_subset):
    sites = load_invoke_list_text_from_str(
        "invoke-virtual La/B; Lcom/own/Thing;->run()V\n"
        "invoke-virtual La/B; Ljava/io/File;->delete()Z\n"
    )
    fv = extract_features(sites, package_subset)
    assert by_key(fv, package_subset)["java/io"] == 1
    assert fv.total() == 1


def load_invoke_list_text_from_str(text):
    from apksift.invokes import loads_invoke_list

    return loads_invoke_list(text)


def test_extract_from_apk_single_dex(tmp_path, crypto_dex, package_subset):
    blob, _ = crypto_dex
    apk = tmp_path / "one.apk"
    write_apk(apk, [blob])
    fv = extract_from_sample(apk, package_subset)
    assert by_key(fv, package_subset) == {"java/io": 2, "javax/crypto": 2, "java/lang": 0}


def test_extract_from_apk_multidex_additive(tmp_path, crypto_dex, package_subset):
    blob, _ = crypto_dex
    apk = tmp_path / "two.apk"
    write_apk(apk, [blob, blob])
    fv = extract_from_sample(apk, package_subset)
    assert by_key(fv, package_subset) == {"java/io": 4, "javax/crypto": 4, "java/lang": 0}


def test_extract_from_apk_zero_invokes(tmp_path, package_subset):
    from apksift.synth import ins_nop, ins_return_void

    blob, _ = build_single_method_dex([ins_nop(), ins_return_void()])
    apk = tmp_path / "quiet.apk"
    write_apk(apk, [blob])
    assert extract_from_sample(apk, package_subset).counts == (0, 0, 0)


def test_extract_from_sample_sniffs(tmp_path, crypto_dex, crypto_sites, package_subset):
    from apksift.invokes import dump_invoke_list_text

    blob, _ = crypto_dex
    apk = tmp_path / "s.apk"
    write_apk(apk, [blob])
    txt = tmp_path / "s.txt"
    dump_invoke_list_text(crypto_sites, txt)
    assert extract_from_sample(apk, package_subset) == extract_from_sample(txt, package_subset)


@given(invoke_lists(), invoke_lists())
def test_additivity(a, b):
    keys = sorted({key_of(s.target, Granularity.Package) for s in a + b} - {None, ""})
    if not keys:
        keys = ["java/io"]
    ref = make_reference(Granularity.Package, keys)
    fa = extract_features(a, ref)
    fb = extract_features(b, ref)
    fab = extract_features(list(a) + list(b), ref)
    assert fab.counts == tuple(x + y for x, y in zip(fa.counts, fb.counts))


@given(invoke_lists(), st.randoms(use_true_random=False))
def test_permutation_invariance(sites, rnd):
    keys = sorted({key_of(s.target, Granularity.Class) for s in sites} - {None, ""})
    if not keys:
        keys = ["java/io/File"]
    ref = make_reference(Granularity.Class, keys)
    shuffled = list(sites)
    rnd.shuffle(shuffled)
    assert extract_features(sites, ref) == extract_features(shuffled, ref)


@settings(max_examples=40, deadline=None)
@given(invoke_lists(max_size=60))
def test_granularity_consistency(sites):
    method_keys = sorted({key_of(s.target, Granularity.Method) for s in sites} - {None})
    if not method_keys:
        return
    methods = make_reference(Granularity.Method, method_keys)
    classes = project(methods, Granularity.Class)
    packages = project(methods, Granularity.Package)
    fm = extract_features(sites, methods)
    fc = extract_features(sites, classes)
    fp = extract_features(sites, packages)
    # method counts grouped by class equal the class counts, and likewise
    # class counts grouped by package equal the package counts
    per_class = Counter()
    for key, n in zip(methods.entries, fm.counts):
        per_class[key.split(";->")[0]] += n
    assert dict(per_class) == dict(zip(classes.entries, fc.counts))
    per_package = Counter()
    for key, n in zip(classes.entries, fc.counts):
        per_package[key.rsplit("/", 1)[0]] += n
    assert dict(per_package) == dict(zip(packages.entries, fp.counts))


def test_count_saturation(package_subset):
    read = MethodRef.from_class_path("java/io/FileInputStream", "read", "([B)I")
    close = MethodRef.from_class_path("java/io/FileInputStream", "close", "()V")
    flush = MethodRef.from_class_path("javax/crypto/CipherOutputStream", "flush", "()V")
    counter = Counter({read: COUNT_CEILING, close: 500, flush: 3})
    fv = _vector_from_counter(counter, package_subset)
    assert by_key(fv, package_subset)["java/io"] == COUNT_CEILING
    assert by_key(fv, package_subset)["javax/crypto"] == 3


def test_negative_counts_rejected():
    with pytest.raises(ValueError):
        FeatureVector((-1, 0), "abc")


def test_fast_path_equals_reference_composition(package_subset, method_subset):
    for seed in range(25):
        blob, _ = random_dex(seed)
        sites = extract_invokes(parse_dex(blob))
        for ref in (package_subset, method_subset):
            fast = features_from_dex_blobs([blob], ref)
            assert fast == extract_features(sites, ref)


def test_write_features_csv(tmp_path, crypto_sites, package_subset):
    fv = extract_features(crypto_sites, package_subset)
    out = tmp_path / "features.csv"
    write_features_csv([("s1", "ransomware", fv)], package_subset, out)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "sample_id,label,java/io,java/lang,javax/crypto"
    assert lines[1] == "s1,ransomware,2,0,2"


def test_write_features_csv_fingerprint_guard(tmp_path, crypto_sites, package_subset, class_subset):
    fv = extract_features(crypto_sites, class_subset)
    with pytest.raises(ValueError):
        write_features_csv([("s1", "trusted", fv)], package_subset, tmp_path / "x.csv")
