"""Acceptance gate: one test per criterion, each printing a PASS line with
its measured numbers (run with ``pytest tests/test_acceptance.py -v -s``).

Desk-scale substitutes stand in for the original 39k-app corpus: synthetic
corpora with class-distinct API profiles, a generator-backed DEX oracle,
and paired obfuscation runs. Every tolerance is pinned here.
"""

import math
import random
import time
from collections import Counter
from datetime import date

import numpy as np
import pytest

from apksift.dex import extract_invokes, parse_dex
from apksift.errors import NoUsefulSplit
from apksift.evaluation import (
    TemporalSplitSpec,
    dataset_from_invoke_samples,
    obfuscation_eval,
    random_split_eval,
    roc_from_scores,
    temporal_eval,
)
from apksift.features import extract_features, features_from_dex_blobs
from apksift.forest import (
    Hyperparams,
    Label,
    LabeledDataset,
    LabeledSample,
    best_split,
    dumps_model,
    entropy,
    information_gain,
    load_model,
    predict_proba,
    save_model,
    train_forest,
)
from apksift.features import FeatureVector
from apksift.obfuscation import ObfuscationKind, default_transform, transform
from apksift.reference import Granularity, make_reference
from apksift.synth import (
    DEFAULT_TEMPORAL_BINS,
    EXPERIMENT_VOCAB,
    benchmark_dex,
    generate_corpus,
    generate_temporal_corpus,
    random_dex,
    reference_from_vocab,
    temporal_vocab,
)

from conftest import build_single_method_dex, crypto_body

SEED = 2024


def ok(criterion: int, detail: str) -> None:
    print(f"\nACCEPTANCE criterion {criterion}: PASS ({detail})")


# -- criterion 1: golden feature vectors from the published crypto snippet ------


def test_criterion_1_worked_example_golden():
    blob, _ = build_single_method_dex(crypto_body(), class_path="com/fixture/Crypt")

    packages = make_reference(Granularity.Package, ["java/io", "javax/crypto", "java/lang"])
    fv = features_from_dex_blobs([blob], packages)
    counts = dict(zip(packages.entries, fv.counts))
    assert counts == {"java/io": 2, "javax/crypto": 2, "java/lang": 0}
    # presented in the reference-subset order used by the worked example
    assert [counts["javax/crypto"], counts["java/io"], counts["java/lang"]] == [2, 2, 0]

    classes = make_reference(
        Granularity.Class, ["java/io/FileInputStream", "javax/crypto/CipherOutputStream"]
    )
    assert features_from_dex_blobs([blob], classes).counts == (2, 2)

    methods = make_reference(
        Granularity.Method,
        [
            "java/io/FileInputStream;->read",
            "java/io/FileInputStream;->close",
            "javax/crypto/CipherOutputStream;->flush",
            "javax/crypto/CipherOutputStream;->close",
        ],
    )
    assert features_from_dex_blobs([blob], methods).counts == (1, 1, 1, 1)
    ok(1, "packages [2,2,0], classes [2,2], methods [1,1,1,1], exact")


# -- criterion 2: generator-backed DEX oracle ------------------------------------


def test_criterion_2_dex_oracle_suite():
    t0 = time.perf_counter()
    n_files = 100
    for seed in range(n_files):
        blob, expected = random_dex(seed)
        got = extract_invokes(parse_dex(blob, strict=True))
        assert Counter(got) == Counter(expected), f"fixture seed {seed}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"oracle suite took {elapsed:.1f}s (budget 30s)"
    ok(2, f"{n_files}/{n_files} randomized DEX fixtures matched in {elapsed:.1f}s")


# -- criterion 3: training determinism and persistence ----------------------------


def test_criterion_3_forest_determinism(tmp_path):
    samples = generate_corpus(n_per_class=60, seed=SEED)
    ref = reference_from_vocab(EXPERIMENT_VOCAB, Granularity.Package)
    data = dataset_from_invoke_samples(samples, ref)
    hp = Hyperparams(n_trees=30, seed=123)

    path_a, path_b = tmp_path / "a.json", tmp_path / "b.json"
    save_model(train_forest(data, hp), path_a)
    save_model(train_forest(data, hp), path_b)
    assert path_a.read_bytes() == path_b.read_bytes()

    model = train_forest(data, hp)
    assert dumps_model(model) == path_a.read_text()
    loaded = load_model(path_a)
    rng = np.random.default_rng(9)
    checked = 0
    for _ in range(1000):
        fv = FeatureVector(tuple(rng.integers(0, 30, size=len(ref.entries)).tolist()), ref.fingerprint)
        assert predict_proba(loaded, fv) == predict_proba(model, fv)
        checked += 1
    ok(3, f"byte-identical model files; {checked} round-trip predictions identical")


# -- criterion 4: information-gain identities and the exhaustive split oracle -----


def test_criterion_4_information_gain_checks():
    assert abs(entropy((5, 5, 5)) - math.log2(3)) < 1e-12

    fp = "accept4"
    perfect = LabeledDataset(
        [
            LabeledSample("a", FeatureVector((0, 3), fp), Label.Ransomware),
            LabeledSample("b", FeatureVector((0, 5), fp), Label.Ransomware),
            LabeledSample("c", FeatureVector((6, 4), fp), Label.Trusted),
            LabeledSample("d", FeatureVector((7, 3), fp), Label.Trusted),
        ]
    )
    h = entropy(perfect.class_counts())
    assert h > 0
    assert abs(information_gain(perfect, 0, 3.0) - h) < 1e-12

    labels = (Label.Trusted, Label.GenericMalware, Label.Ransomware)
    rng = random.Random(41)
    agreements = 0
    for _ in range(400):
        n = rng.randint(2, 8)
        d = rng.randint(1, 3)
        rows = [
            (tuple(rng.randint(0, 5) for _ in range(d)), rng.choice(labels)) for _ in range(n)
        ]
        data = LabeledDataset(
            LabeledSample(f"s{i}", FeatureVector(c, fp), l) for i, (c, l) in enumerate(rows)
        )
        candidates = []
        for f in range(d):
            values = sorted({r[0][f] for r in rows})
            for lo, hi in zip(values, values[1:]):
                thr = (lo + hi) / 2
                candidates.append((f, thr, information_gain(data, f, thr)))
        positive = [c for c in candidates if c[2] > 0]
        if not positive:
            with pytest.raises(NoUsefulSplit):
                best_split(data, range(d))
        else:
            max_gain = max(c[2] for c in positive)
            expect = min((f, thr) for f, thr, g in candidates if g == max_gain)
            assert best_split(data, range(d)) == (*expect, max_gain)
        agreements += 1
    ok(4, f"entropy/gain identities at 1e-12; best_split == enumeration on {agreements} datasets")


# -- criterion 5: repeated-split experiment at desk scale --------------------------


def test_criterion_5_random_split_analog():
    t0 = time.perf_counter()
    samples = generate_corpus(n_per_class=300, seed=SEED)
    key = "ransomware_vs_benign:tpr_at_0.01_fpr"
    results = {}
    for g in (Granularity.Package, Granularity.Class, Granularity.Method):
        ref = reference_from_vocab(EXPERIMENT_VOCAB, g)
        data = dataset_from_invoke_samples(samples, ref)
        report = random_split_eval(
            data, fraction=0.5, repeats=5, seed=SEED, grid=(10, 30), cv_folds=10
        )
        results[g.value] = report.mean[key]
        assert report.mean[key] >= 0.95, f"{g.value}: mean TPR@1%FPR {report.mean[key]:.4f}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0, f"experiment took {elapsed:.1f}s (budget 120s)"
    detail = ", ".join(f"{k} TPR@1%FPR={v:.4f}" for k, v in results.items())
    ok(5, f"{detail}; runtime {elapsed:.1f}s")


# -- criterion 6: temporal drift analog ----------------------------------------------


def test_criterion_6_temporal_analog():
    corpus = generate_temporal_corpus(
        seed=SEED, n_trusted=200, n_malware=120, n_train_ransomware=150
    )
    spec = TemporalSplitSpec(
        d_tr=date(2016, 12, 31),
        bins=tuple((b.label, b.start, b.end) for b in DEFAULT_TEMPORAL_BINS),
    )
    rates = {}
    for g in (Granularity.Method, Granularity.Package):
        ref = reference_from_vocab(temporal_vocab(), g)
        data = dataset_from_invoke_samples(corpus, ref)
        report = temporal_eval(data, spec, target_fpr=0.01, seed=SEED, n_trees=50)
        assert report.overall_detection_rate is not None
        rates[g.value] = report.overall_detection_rate
    gap = rates["method"] - rates["package"]
    assert gap >= 0.10, f"method {rates['method']:.3f} vs package {rates['package']:.3f}"
    ok(
        6,
        f"method detection {rates['method']:.3f} vs package {rates['package']:.3f} "
        f"(gap {gap * 100:.0f} points, package-invisible drift)",
    )


# -- criterion 7: obfuscation analog ---------------------------------------------------


def test_criterion_7_obfuscation_analog():
    samples = generate_corpus(n_per_class=100, seed=SEED)
    ransomware = [s for s in samples if s.label is Label.Ransomware]

    # string encryption never moves any feature vector, at any granularity
    t_string = default_transform(ObfuscationKind.StringEncryption, seed=SEED)
    for g in (Granularity.Package, Granularity.Class, Granularity.Method):
        ref = reference_from_vocab(EXPERIMENT_VOCAB, g)
        for s in ransomware:
            assert extract_features(transform(s.invokes, t_string), ref) == extract_features(
                s.invokes, ref
            )

    # class encryption: one injected training sample flips detection, paired seed
    ref = reference_from_vocab(EXPERIMENT_VOCAB, Granularity.Method)
    t_class = default_transform(ObfuscationKind.ClassEncryption, seed=SEED)
    base = obfuscation_eval(samples, ref, t_class, plus_one=False, seed=SEED, n_trees=50)
    plus = obfuscation_eval(samples, ref, t_class, plus_one=True, seed=SEED, n_trees=50)
    assert plus.detection_rate >= 0.95, f"plus-one rate {plus.detection_rate:.3f}"
    assert base.detection_rate < plus.detection_rate
    ok(
        7,
        f"string-encryption vectors identical ({len(ransomware)} samples x 3 granularities); "
        f"class-encryption {base.detection_rate:.2f} -> {plus.detection_rate:.2f} with +1",
    )


# -- criterion 8: throughput on a large blob ---------------------------------------------


def test_criterion_8_throughput():
    blob = benchmark_dex(seed=7)
    assert len(blob) >= 5 * 1024 * 1024
    ref = reference_from_vocab(EXPERIMENT_VOCAB, Granularity.Method)
    timings = []
    for _ in range(3):
        t0 = time.perf_counter()
        features_from_dex_blobs([blob], ref)
        timings.append(time.perf_counter() - t0)
    best = min(timings)
    assert best < 0.2, f"parse+count took {best:.3f}s (budget 0.2s)"
    ok(
        8,
        f"{len(blob) / 1024 / 1024:.2f} MiB dex parsed and counted in {best:.3f}s "
        f"(runs: {', '.join(f'{t:.3f}s' for t in timings)})",
    )


# -- criterion 9: ROC validity ------------------------------------------------------------


def test_criterion_9_roc_validity():
    rng = random.Random(17)
    checked = 0
    for _ in range(300):
        n = rng.randint(2, 10)
        rows = [(rng.randint(0, 4) / 4, rng.random() < 0.5) for _ in range(n)]
        if not any(p for _, p in rows) or all(p for _, p in rows):
            continue
        scores = [s for s, _ in rows]
        positive = [p for _, p in rows]
        curve = roc_from_scores(scores, positive)
        curve.validate()  # monotone fpr/tpr within [0, 1], ends at (1, 1)

        n_pos = sum(positive)
        n_neg = n - n_pos
        expected = [(max(scores) + 1.0, 0.0, 0.0)]
        for t in sorted(set(scores), reverse=True):
            tp = sum(1 for s, p in rows if p and s >= t)
            fp = sum(1 for s, p in rows if not p and s >= t)
            expected.append((t, fp / n_neg, tp / n_pos))
        assert [(p.threshold, p.fpr, p.tpr) for p in curve.points] == expected
        checked += 1
    assert checked >= 250
    ok(9, f"{checked} curves monotone in [0,1] and equal to the threshold-sweep enumeration")
