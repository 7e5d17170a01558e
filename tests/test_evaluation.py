"""Evaluation protocols: ROC correctness, operating points, split hygiene,
and the three experiment drivers."""

from datetime import date

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apksift.errors import ConfigError, EmptyBin, MissingClass, TooFewSamples, UsageError
from apksift.evaluation import (
    RocCurve,
    RocPoint,
    TemporalSplitSpec,
    dataset_from_invoke_samples,
    emit_report,
    load_manifest,
    obfuscation_eval,
    operating_point,
    random_split_eval,
    roc_from_scores,
    roc_one_vs_benign,
    stratified_split_indices,
    temporal_eval,
)
from apksift.features import FeatureVector, platform_features
from apksift.forest import (
    CLASS_INDEX,
    Hyperparams,
    Label,
    LabeledDataset,
    LabeledSample,
    RandomForestModel,
    Tree,
    label_of,
    predict_proba,
    stratified_folds,
    train_forest,
)
from apksift.obfuscation import ObfuscationKind, default_transform
from apksift.reference import Granularity
from apksift.synth import generate_corpus, generate_temporal_corpus, reference_from_vocab

T, M, R = Label.Trusted, Label.GenericMalware, Label.Ransomware
FP = "testfp"


def fv(*counts):
    return FeatureVector(tuple(counts), FP)


def ds(rows):
    return LabeledDataset(
        LabeledSample(f"s{i}", fv(*counts), label, seen)
        for i, (counts, label, seen) in enumerate(
            (r if len(r) == 3 else (*r, None)) for r in rows
        )
    )


# -- ROC ------------------------------------------------------------------------


def test_roc_perfect_separation():
    curve = roc_from_scores([1.0, 1.0, 0.0, 0.0], [True, True, False, False])
    assert any(p.fpr == 0.0 and p.tpr == 1.0 for p in curve.points)
    assert curve.tpr_at_fpr(0.0) == 1.0
    assert curve.points[-1] == RocPoint(0.0, 1.0, 1.0)


def test_roc_identical_scores_diagonal():
    curve = roc_from_scores([0.5, 0.5, 0.5, 0.5], [True, False, True, False])
    assert [(p.fpr, p.tpr) for p in curve.points] == [(0.0, 0.0), (1.0, 1.0)]
    for p in curve.points:
        assert p.fpr == p.tpr


def test_roc_requires_both_populations():
    with pytest.raises(MissingClass):
        roc_from_scores([0.4, 0.9], [True, True])


def brute_force_points(scores, positive):
    n_pos = sum(positive)
    n_neg = len(positive) - n_pos
    thresholds = sorted(set(scores), reverse=True)
    pts = [(max(scores) + 1.0, 0.0, 0.0)]
    for t in thresholds:
        tp = sum(1 for s, p in zip(scores, positive) if p and s >= t)
        fp = sum(1 for s, p in zip(scores, positive) if not p and s >= t)
        pts.append((t, fp / n_neg, tp / n_pos))
    return pts


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(min_value=0, max_value=4), st.booleans()),
        min_size=2,
        max_size=10,
    ).filter(lambda rows: any(p for _, p in rows) and any(not p for _, p in rows)),
    st.sampled_from([0.0, 0.01, 0.2, 1 / 3, 0.5, 0.99, 1.0]),
)
def test_roc_matches_brute_force_enumeration(rows, budget):
    scores = [s / 4 for s, _ in rows]
    positive = [p for _, p in rows]
    curve = roc_from_scores(scores, positive)
    assert [(p.threshold, p.fpr, p.tpr) for p in curve.points] == brute_force_points(
        scores, positive
    )
    curve.validate()  # monotone, rates in [0, 1]
    # so the last point within an FPR budget has the max TPR and min threshold
    fit = [p for p in curve.points if p.fpr <= budget]
    assert curve.tpr_at_fpr(budget) == max(p.tpr for p in fit)
    assert operating_point(curve, budget) == min(p.threshold for p in fit)


def test_roc_auc_trapezoid():
    curve = roc_from_scores([0.9, 0.8, 0.4, 0.2], [True, True, False, False])
    assert curve.auc() == 1.0
    diag = roc_from_scores([0.5, 0.5], [True, False])
    assert diag.auc() == 0.5


# -- operating point ---------------------------------------------------------------


def curve_of(*rows):
    return RocCurve(tuple(RocPoint(*r) for r in rows))


def test_operating_point_exact_fpr_match():
    curve = curve_of((3.0, 0.0, 0.2), (2.0, 0.01, 0.8), (1.0, 0.5, 1.0))
    assert operating_point(curve, 0.01) == 2.0


def test_operating_point_all_above_budget():
    curve = curve_of((0.9, 0.3, 0.5), (0.1, 1.0, 1.0))
    assert operating_point(curve, 0.01) == 0.9


def test_operating_point_perfect_curve_minimal_threshold():
    curve = curve_of(
        (2.0, 0.0, 0.0), (0.9, 0.0, 0.6), (0.8, 0.0, 1.0), (0.2, 0.5, 1.0), (0.1, 1.0, 1.0)
    )
    assert operating_point(curve, 0.01) == 0.8


def test_operating_point_sits_at_the_budget_boundary():
    curve = curve_of((2.0, 0.0, 0.7), (1.5, 0.005, 0.7), (1.0, 0.5, 1.0))
    assert operating_point(curve, 0.01) == 1.5


# -- stratified splitting -------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.sampled_from([T, M, R]), min_size=4, max_size=60).filter(
        lambda ls: all(ls.count(c) >= 2 for c in (T, M, R) if c in ls)
    ),
    st.integers(min_value=0, max_value=2**31),
)
def test_stratified_proportions_within_one(labels, seed):
    rng = np.random.default_rng(seed)
    train_idx, test_idx = stratified_split_indices(labels, 0.5, rng)
    assert sorted(train_idx + test_idx) == list(range(len(labels)))
    for c in (T, M, R):
        n = labels.count(c)
        if not n:
            continue
        got = sum(1 for i in train_idx if labels[i] is c)
        assert abs(got - n * 0.5) <= 0.5 + 1e-9


def test_split_arithmetic_hundred_samples():
    labels = [T] * 34 + [M] * 33 + [R] * 33
    rng = np.random.default_rng(5)
    train_idx, test_idx = stratified_split_indices(labels, 0.5, rng)
    assert abs(len(train_idx) - 50) <= 2  # one rounding per class
    assert len(train_idx) + len(test_idx) == 100
    assert not (set(train_idx) & set(test_idx))


# One label list of each shape: all three classes, a missing class, singleton classes.
PINNED_LABELS = {
    "mixed": [T, R, M, T, T, M, R, R, T, M, T, R, M, T],
    "missing": [R, T, T, R, T, R, T, T, R, T, R],
    "singletons": [T, T, M, T, T, R, T, T],
}


@pytest.mark.parametrize(
    "name, fraction, seed, train_idx, test_idx",
    [
        ("mixed", 0.5, 3, [4, 5, 6, 9, 10, 11, 13], [0, 1, 2, 3, 7, 8, 12]),
        ("mixed", 0.3, 11, [3, 8, 11, 12], [0, 1, 2, 4, 5, 6, 7, 9, 10, 13]),
        ("missing", 0.5, 3, [0, 4, 7, 8, 9], [1, 2, 3, 5, 6, 10]),
        ("missing", 0.3, 11, [2, 5, 6, 8], [0, 1, 3, 4, 7, 9, 10]),
        ("singletons", 0.5, 3, [3, 6, 7], [0, 1, 2, 4, 5]),
        ("singletons", 0.3, 11, [1, 4], [0, 2, 3, 5, 6, 7]),
    ],
)
def test_stratified_split_draw_pinned(name, fraction, seed, train_idx, test_idx):
    rng = np.random.default_rng(seed)
    assert stratified_split_indices(PINNED_LABELS[name], fraction, rng) == (train_idx, test_idx)


@pytest.mark.parametrize(
    "name, n_folds, seed, rows",
    [
        ("mixed", 3, 5, [[2, 3, 5, 6, 8, 11], [7, 10, 12, 13], [0, 1, 4, 9]]),
        ("mixed", 4, 101, [[3, 6, 8, 12], [0, 4, 5, 11], [2, 7, 13], [1, 9, 10]]),
        ("missing", 3, 5, [[2, 6, 8, 10], [0, 5, 7, 9], [1, 3, 4]]),
        ("missing", 4, 101, [[2, 5, 6, 10], [1, 4, 8], [0, 9], [3, 7]]),
        ("missing", 8, 7, [[0, 9], [4, 10], [1, 3], [7, 8], [2, 5], [6], [], []]),
        ("singletons", 3, 5, [[1, 2, 4, 5], [6, 7], [0, 3]]),
        ("singletons", 4, 101, [[1, 2, 4, 5], [0, 3], [7], [6]]),
    ],
)
def test_stratified_fold_draw_pinned(name, n_folds, seed, rows):
    y = np.array([CLASS_INDEX[label] for label in PINNED_LABELS[name]], dtype=np.int8)
    fold_of = stratified_folds(y, n_folds, np.random.default_rng(seed))
    assert [np.flatnonzero(fold_of == k).tolist() for k in range(n_folds)] == rows


# -- random split protocol --------------------------------------------------------------


def separable_dataset(n_per_class=12):
    rows = []
    for i in range(n_per_class):
        rows.append(((12 + i % 3, 0, i % 2), T))
        rows.append(((i % 2, 11 + i % 3, 0), M))
        rows.append(((0, i % 2, 13 + i % 3), R))
    return ds(rows)


def test_random_split_separable_perfect_tpr():
    data = separable_dataset(12)
    report = random_split_eval(data, repeats=1, seed=4, grid=[7], cv_folds=10)
    assert report.mean["ransomware_vs_benign:tpr_at_0.01_fpr"] == 1.0
    assert report.std == {}


def test_random_split_determinism():
    data = separable_dataset(10)
    a = random_split_eval(data, repeats=2, seed=9, grid=[5])
    b = random_split_eval(data, repeats=2, seed=9, grid=[5])
    assert a == b  # runtime excluded from comparison


def test_random_split_std_present_for_repeats():
    data = separable_dataset(10)
    report = random_split_eval(data, repeats=2, seed=1, grid=[5])
    assert set(report.std) == set(report.mean)
    assert len(report.repeats) == 2
    assert report.params["repeats"] == 2


def test_random_split_too_few_samples():
    data = ds([((1,), T), ((2,), T), ((3,), R), ((4,), M)])
    with pytest.raises(TooFewSamples):
        random_split_eval(data, repeats=1)


def test_random_split_curves_valid():
    data = separable_dataset(8)
    report = random_split_eval(data, repeats=2, seed=0, grid=[5])
    for rr in report.repeats:
        for curve in rr.curves.values():
            curve.validate()


# -- roc_one_vs_benign excludes the third class ---------------------------------------


def test_roc_population_excludes_third_class():
    # malware scores would pollute the ransomware-vs-benign sweep if included
    model = RandomForestModel(
        trees=(Tree.from_nodes([("l", 0.0, 0.0, 1.0)], 1),),
        hyperparams=Hyperparams(n_trees=1),
        feature_dim=1,
        reference_fingerprint=FP,
    )
    data = ds([((0,), R), ((1,), T), ((2,), M)])
    curve = roc_one_vs_benign(model, data, R)
    # population is 1 positive + 1 trusted; a single distinct score
    assert curve.points[-1] == RocPoint(1.0, 1.0, 1.0)
    assert len(curve.points) == 2


def test_roc_one_vs_benign_missing_class():
    model = RandomForestModel(
        trees=(Tree.from_nodes([("l", 1.0, 0.0, 0.0)], 1),),
        hyperparams=Hyperparams(n_trees=1),
        feature_dim=1,
        reference_fingerprint=FP,
    )
    data = ds([((0,), T), ((1,), T)])
    with pytest.raises(MissingClass):
        roc_one_vs_benign(model, data, R)


# -- temporal protocol -------------------------------------------------------------------


def test_temporal_spec_rejects_bin_before_cutoff():
    with pytest.raises(ConfigError):
        TemporalSplitSpec(
            d_tr=date(2016, 12, 31),
            bins=(("early", date(2016, 5, 1), date(2016, 6, 1)),),
        )
    with pytest.raises(ConfigError):
        TemporalSplitSpec(
            d_tr=date(2016, 12, 31),
            bins=(("reversed", date(2017, 3, 1), date(2017, 2, 1)),),
        )


def test_temporal_requires_dated_ransomware():
    data = ds([((1,), R), ((0,), T), ((0,), M)])  # no first_seen
    spec = TemporalSplitSpec(date(2016, 12, 31), (("b", date(2017, 1, 1), date(2017, 2, 1)),))
    with pytest.raises(ConfigError):
        temporal_eval(data, spec)


def test_temporal_empty_bin_reported_not_fatal():
    corpus = generate_temporal_corpus(seed=1, n_trusted=40, n_malware=24, n_train_ransomware=30)
    ref = reference_from_vocab(
        __import__("apksift.synth", fromlist=["temporal_vocab"]).temporal_vocab(),
        Granularity.Method,
    )
    data = dataset_from_invoke_samples(
        [s for s in corpus if s.first_seen <= date(2017, 9, 30)], ref
    )
    spec = TemporalSplitSpec(
        date(2016, 12, 31),
        (
            ("has-data", date(2017, 1, 1), date(2017, 9, 30)),
            ("empty", date(2018, 1, 1), date(2018, 2, 1)),
        ),
    )
    report = temporal_eval(data, spec, n_trees=15, seed=2)
    by_label = {b.label: b for b in report.bins}
    assert by_label["empty"].empty and by_label["empty"].detection_rate is None
    assert not by_label["has-data"].empty
    assert by_label["has-data"].n_samples > 0


def test_temporal_trains_exactly_once(monkeypatch):
    import apksift.evaluation as ev

    corpus = generate_temporal_corpus(seed=8, n_trusted=40, n_malware=24, n_train_ransomware=30)
    from apksift.synth import temporal_vocab

    ref = reference_from_vocab(temporal_vocab(), Granularity.Method)
    data = dataset_from_invoke_samples(corpus, ref)
    spec = TemporalSplitSpec(
        date(2016, 12, 31),
        (
            ("a", date(2017, 1, 1), date(2017, 9, 30)),
            ("b", date(2017, 10, 1), date(2017, 10, 31)),
            ("c", date(2017, 11, 1), date(2017, 11, 30)),
        ),
    )
    calls = []
    real = ev.train_forest
    monkeypatch.setattr(ev, "train_forest", lambda *a, **k: calls.append(1) or real(*a, **k))
    temporal_eval(data, spec, n_trees=10, seed=1)
    assert len(calls) == 1


def test_temporal_trains_once_and_detects_drifted_bins():
    from apksift.synth import temporal_vocab

    corpus = generate_temporal_corpus(seed=3, n_trusted=60, n_malware=30, n_train_ransomware=50)
    ref = reference_from_vocab(temporal_vocab(), Granularity.Method)
    data = dataset_from_invoke_samples(corpus, ref)
    spec = TemporalSplitSpec(
        date(2016, 12, 31),
        (
            ("2017-jan-sep", date(2017, 1, 1), date(2017, 9, 30)),
            ("2017-oct", date(2017, 10, 1), date(2017, 10, 31)),
            ("2017-nov", date(2017, 11, 1), date(2017, 11, 30)),
        ),
    )
    report = temporal_eval(data, spec, n_trees=25, seed=5)
    assert report.overall_detection_rate is not None
    assert report.overall_detection_rate > 0.5
    assert all(not b.empty for b in report.bins)


# -- obfuscation protocol ----------------------------------------------------------------


def invoke_corpus(seed=0, n=25):
    return generate_corpus(n_per_class=n, seed=seed)


def test_obfuscation_identity_equals_in_training_recall():
    from apksift.synth import EXPERIMENT_VOCAB

    samples = invoke_corpus(seed=2)
    ref = reference_from_vocab(EXPERIMENT_VOCAB, Granularity.Package)
    platform = {s.sample_id: platform_features(s.invokes, ref) for s in samples}
    report = obfuscation_eval(
        dataset_from_invoke_samples(samples, ref), platform, ref,
        default_transform(ObfuscationKind.StringEncryption), plus_one=False, seed=6, n_trees=15,
    )
    # recompute in-training ransomware recall with the same training seed
    from apksift.forest import derive_seed

    train = dataset_from_invoke_samples(samples, ref)
    model = train_forest(train, Hyperparams(n_trees=15, seed=derive_seed(6, 29)))
    ransom = [s for s in train if s.label is R]
    recall = sum(label_of(predict_proba(model, s.features)) is R for s in ransom) / len(ransom)
    assert report.detection_rate == recall


def test_obfuscation_no_ransomware_raises_empty_bin():
    from apksift.synth import EXPERIMENT_VOCAB

    samples = [s for s in invoke_corpus(seed=1) if s.label is not R]
    ref = reference_from_vocab(EXPERIMENT_VOCAB, Granularity.Package)
    platform = {s.sample_id: platform_features(s.invokes, ref) for s in samples}
    with pytest.raises(EmptyBin):
        obfuscation_eval(
            dataset_from_invoke_samples(samples, ref), platform, ref,
            default_transform(ObfuscationKind.StringEncryption), plus_one=False,
        )


# -- report serialization ------------------------------------------------------------------


def test_csv_report_rows(tmp_path):
    data = separable_dataset(8)
    report = random_split_eval(data, repeats=1, seed=3, grid=[5])
    path = tmp_path / "report.csv"
    emit_report(report, "csv", path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "repeat,curve,threshold,fpr,tpr"
    n_points = sum(len(c.points) for rr in report.repeats for c in rr.curves.values())
    assert len(lines) == 1 + n_points


def test_unknown_format_token(tmp_path):
    data = separable_dataset(8)
    report = random_split_eval(data, repeats=1, seed=3, grid=[5])
    with pytest.raises(UsageError):
        emit_report(report, "parquet", tmp_path / "x")


# -- manifest --------------------------------------------------------------------------


@pytest.mark.parametrize(
    "text",
    [
        'path,label\n"a\nb.txt",trusted\nc.txt,bogus\n',
        "path,label\na.txt,trusted\n\nc.txt,bogus\n",
    ],
    ids=["after-multiline-path", "after-blank-line"],
)
def test_manifest_error_names_the_file_line(tmp_path, text):
    manifest = tmp_path / "m.csv"
    manifest.write_text(text)
    with pytest.raises(ConfigError) as info:
        load_manifest(manifest)
    assert str(info.value) == f"{manifest}:4: unknown label 'bogus'"
