"""Random forest: entropy/gain identities, induction determinism,
persistence, and the exhaustive split-search oracle."""

import math
from datetime import date

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apksift.errors import (
    CorruptModel,
    EmptySet,
    FingerprintMismatch,
    InvalidHyperparams,
    NoUsefulSplit,
    SingleClassData,
    TooFewSamples,
    VersionMismatch,
)
from apksift.features import FeatureVector
from apksift.forest import (
    CLASS_ORDER,
    Hyperparams,
    Label,
    LabeledDataset,
    LabeledSample,
    RandomForestModel,
    Tree,
    best_grid_value,
    best_split,
    cv_accuracy_table,
    dumps_model,
    entropy,
    information_gain,
    load_model,
    loads_model,
    predict,
    predict_proba,
    rank_features,
    save_model,
    train_forest,
    tree_rng,
)

from conftest import chain_model_doc

FP = "testfp"


def ds(rows, fingerprint=FP):
    """rows: list of (counts tuple, label)"""
    return LabeledDataset(
        LabeledSample(f"s{i}", FeatureVector(tuple(counts), fingerprint), label)
        for i, (counts, label) in enumerate(rows)
    )


def fv(*counts, fingerprint=FP):
    return FeatureVector(tuple(counts), fingerprint)


T, M, R = Label.Trusted, Label.GenericMalware, Label.Ransomware


# -- entropy -------------------------------------------------------------------


def test_entropy_pure_set():
    assert entropy((10, 0, 0)) == 0.0


def test_entropy_uniform_three_class():
    assert abs(entropy((5, 5, 5)) - math.log2(3)) < 1e-12


def test_entropy_half_quarter_quarter():
    # -(0.5*log2(0.5) + 2 * 0.25*log2(0.25)) = 0.5 + 2*0.5 = 1.5
    assert abs(entropy((8, 4, 4)) - 1.5) < 1e-12


def test_entropy_empty_set():
    with pytest.raises(EmptySet):
        entropy((0, 0, 0))


def test_entropy_negative_counts():
    with pytest.raises(ValueError):
        entropy((1, -1, 0))


# -- information gain -------------------------------------------------------------


def test_gain_constant_feature_zero():
    data = ds([((3, 1), T), ((3, 2), M), ((3, 9), R)])
    assert information_gain(data, 0, 3.0) == 0.0
    assert information_gain(data, 0, 0.5) == 0.0


def test_gain_perfect_separation_equals_entropy():
    data = ds([((0, 5), R), ((0, 6), R), ((7, 1), T), ((9, 2), T)])
    h = entropy(data.class_counts())
    assert abs(information_gain(data, 0, 3.5) - h) < 1e-12


def test_gain_worked_four_sample():
    # labels (R,R,M,M), feature (0,0,5,5), threshold 2: H(T)=1, H(T|a)=0
    data = ds([((0,), R), ((0,), R), ((5,), M), ((5,), M)])
    assert abs(information_gain(data, 0, 2.0) - 1.0) < 1e-15


# -- best_split --------------------------------------------------------------------


def test_best_split_picks_separating_feature():
    data = ds([((0, 4), R), ((0, 4), R), ((5, 4), T), ((5, 4), T)])
    feature, threshold, gain = best_split(data, [0, 1])
    assert feature == 0
    assert threshold == 2.5
    assert abs(gain - 1.0) < 1e-15


def test_best_split_tie_prefers_lower_index():
    data = ds([((0, 0), R), ((0, 0), R), ((5, 5), T), ((5, 5), T)])
    feature, threshold, _ = best_split(data, [1, 0])
    assert feature == 0
    assert threshold == 2.5


def test_best_split_tie_prefers_lower_threshold():
    # two thresholds on one feature with equal (maximal) gain
    data = ds([((0,), R), ((2,), T), ((4,), T)])
    feature, threshold, gain = best_split(data, [0])
    assert feature == 0
    assert threshold == 1.0  # midpoint 1.0 and 3.0 tie at gain; lower wins
    check = information_gain(data, 0, 3.0)
    assert gain == information_gain(data, 0, 1.0)
    assert gain >= check


def test_best_split_no_useful_split():
    data = ds([((1, 1), R), ((1, 1), T)])
    with pytest.raises(NoUsefulSplit):
        best_split(data, [0, 1])


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.lists(st.integers(min_value=0, max_value=5), min_size=3, max_size=3),
            st.sampled_from([T, M, R]),
        ),
        min_size=2,
        max_size=8,
    )
)
def test_best_split_matches_exhaustive_enumeration(rows):
    data = ds([(tuple(counts), label) for counts, label in rows])
    d = 3
    # independent oracle: enumerate every feature and midpoint threshold
    candidates = []
    for f in range(d):
        values = sorted({r[0][f] for r in rows})
        for lo, hi in zip(values, values[1:]):
            thr = (lo + hi) / 2
            candidates.append((f, thr, information_gain(data, f, thr)))
    best = None
    for f, thr, gain in candidates:
        if gain > 0 and (best is None or gain > best[2]):
            best = (f, thr, gain)
    if best is None:
        with pytest.raises(NoUsefulSplit):
            best_split(data, range(d))
    else:
        got = best_split(data, range(d))
        # re-apply the tie rule over the oracle's candidate list
        max_gain = best[2]
        tied = [(f, thr) for f, thr, g in candidates if g == max_gain]
        expect_f, expect_thr = min(tied)
        assert got == (expect_f, expect_thr, max_gain)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.lists(st.integers(min_value=0, max_value=6), min_size=2, max_size=2),
            st.sampled_from([T, M, R]),
        ),
        min_size=1,
        max_size=10,
    ),
    st.integers(min_value=0, max_value=6),
)
def test_gain_bounds(rows, thr):
    data = ds([(tuple(counts), label) for counts, label in rows])
    h = entropy(data.class_counts())
    assert h <= math.log2(3) + 1e-12
    for f in range(2):
        gain = information_gain(data, f, float(thr))
        assert -1e-12 <= gain <= h + 1e-12


# -- training -----------------------------------------------------------------------


def separable_rows(n=30):
    rows = []
    for i in range(n):
        rows.append(((10 + i % 3, 0, i % 2), T))
        rows.append(((0, 10 + i % 3, i % 2), M))
        rows.append(((i % 2, i % 2, 10 + i % 3), R))
    return rows


def test_train_requires_two_classes():
    data = ds([((1,), T), ((2,), T)])
    with pytest.raises(SingleClassData):
        train_forest(data, Hyperparams(n_trees=3))


def test_invalid_hyperparams():
    data = ds([((1,), T), ((2,), R)])
    for hp in (
        Hyperparams(n_trees=0),
        Hyperparams(max_depth=-1),
        Hyperparams(min_samples_leaf=0),
        Hyperparams(features_per_split=0),
        Hyperparams(seed=-1),
    ):
        with pytest.raises(InvalidHyperparams):
            train_forest(data, hp)


def test_depth_zero_single_leaf_prior():
    data = ds(separable_rows(4))
    hp = Hyperparams(n_trees=1, max_depth=0, seed=9)
    model = train_forest(data, hp)
    assert len(model.trees) == 1
    tree = model.trees[0]
    assert len(tree.nodes) == 1 and tree.nodes[0][0] == "l"
    # the leaf carries the bootstrap resample's label distribution
    boot = tree_rng(9, 0).integers(0, len(data), size=len(data))
    labels = [data.samples[i].label for i in boot.tolist()]
    expected = tuple(labels.count(c) / len(labels) for c in CLASS_ORDER)
    assert tree.nodes[0][1:] == expected


def test_training_accuracy_on_separable_toy():
    data = ds(separable_rows(10))
    model = train_forest(data, Hyperparams(n_trees=15, seed=3))
    hits = sum(1 for s in data if predict(model, s.features) is s.label)
    assert hits == len(data)


def test_determinism_same_seed_same_bytes():
    data = ds(separable_rows(8))
    hp = Hyperparams(n_trees=7, seed=42)
    a = dumps_model(train_forest(data, hp))
    b = dumps_model(train_forest(data, hp))
    assert a == b


def test_different_seed_changes_model():
    data = ds(separable_rows(8))
    a = dumps_model(train_forest(data, Hyperparams(n_trees=7, seed=1)))
    b = dumps_model(train_forest(data, Hyperparams(n_trees=7, seed=2)))
    assert a != b


def test_adding_trees_preserves_prefix():
    data = ds(separable_rows(8))
    small = train_forest(data, Hyperparams(n_trees=3, seed=5))
    large = train_forest(data, Hyperparams(n_trees=6, seed=5))
    assert large.trees[:3] == small.trees


def test_monotone_leaf_property():
    data = ds(separable_rows(6))
    X, y = data.to_arrays()
    hp = Hyperparams(n_trees=4, seed=11)
    model = train_forest(data, hp)
    for t, tree in enumerate(model.trees):
        boot = tree_rng(hp.seed, t).integers(0, len(data), size=len(data))
        reached: dict[int, list[int]] = {}
        for i in boot.tolist():
            at = 0
            while tree.nodes[at][0] == "s":
                _, feature, threshold = tree.nodes[at]
                at = at + 1 if X[i][feature] <= threshold else tree.right[at]
            reached.setdefault(at, []).append(int(y[i]))
        leaves = [at for at, node in enumerate(tree.nodes) if node[0] == "l"]
        for at in leaves:
            labels = reached[at]
            n = len(labels)
            expected = tuple(labels.count(c) / n for c in range(3))
            assert tree.nodes[at][1:] == expected


# -- prediction ----------------------------------------------------------------------


def manual_model(*leaves, dim=2):
    return RandomForestModel(
        trees=tuple(Tree.from_nodes([("l", *d)], dim) for d in leaves),
        hyperparams=Hyperparams(n_trees=len(leaves)),
        feature_dim=dim,
        reference_fingerprint=FP,
    )


def test_single_leaf_model_constant():
    model = manual_model((0.2, 0.3, 0.5))
    assert predict_proba(model, fv(0, 0)) == (0.2, 0.3, 0.5)
    assert predict_proba(model, fv(9, 9)) == (0.2, 0.3, 0.5)


def test_two_tree_averaging():
    model = manual_model((1.0, 0.0, 0.0), (0.0, 0.0, 1.0))
    assert predict_proba(model, fv(1, 1)) == (0.5, 0.0, 0.5)


def test_predict_argmax_and_ties():
    assert predict(manual_model((0.5, 0.2, 0.3)), fv(0, 0)) is T
    assert predict(manual_model((0.5, 0.5, 0.0)), fv(0, 0)) is T
    assert predict(manual_model((0.0, 0.5, 0.5)), fv(0, 0)) is M
    assert predict(manual_model((0.1, 0.2, 0.7)), fv(0, 0)) is R


def test_proba_sums_to_one():
    data = ds(separable_rows(10))
    model = train_forest(data, Hyperparams(n_trees=9, seed=2))
    rng = np.random.default_rng(0)
    for _ in range(200):
        x = fv(*rng.integers(0, 20, size=3).tolist())
        assert abs(sum(predict_proba(model, x)) - 1.0) < 1e-9


def test_fingerprint_mismatch_on_predict():
    model = manual_model((1.0, 0.0, 0.0))
    with pytest.raises(FingerprintMismatch):
        predict_proba(model, fv(1, 1, fingerprint="other"))
    with pytest.raises(FingerprintMismatch):
        predict_proba(model, FeatureVector((1, 2, 3), FP))  # wrong dimension


# -- model selection --------------------------------------------------------------


def test_select_singleton_grid():
    data = ds(separable_rows(5))
    assert best_grid_value(cv_accuracy_table(data, [1], seed=0)) == 1


def test_select_duplicate_grid_collapses():
    data = ds(separable_rows(5))
    assert best_grid_value(cv_accuracy_table(data, [10, 10], seed=0)) == 10


def test_select_prefers_smaller_on_tie_and_matches_cv_table():
    data = ds(separable_rows(6))
    grid = [1, 100]
    table = cv_accuracy_table(data, grid, seed=1)
    chosen = best_grid_value(cv_accuracy_table(data, grid, seed=1))
    if table[100] > table[1]:
        assert chosen == 100
    else:
        assert chosen == 1


def test_select_too_few_samples():
    small = ds([((i,), T if i % 2 else R) for i in range(9)])
    with pytest.raises(TooFewSamples):
        cv_accuracy_table(small, [5])


# -- feature ranking -----------------------------------------------------------------


def test_rank_constant_feature_last_perfect_first():
    rows = [((0, 7, 3), R)] * 4 + [((9, 7, 4), T)] * 4
    data = ds(rows)
    ranking = rank_features([data])
    assert ranking[0][0] == 0
    assert abs(ranking[0][1] - entropy(data.class_counts())) < 1e-12
    assert ranking[-1][0] == 1  # constant feature, zero gain
    assert ranking[-1][1] == 0.0


def test_rank_mean_over_identical_datasets_is_identity():
    data = ds(separable_rows(5))
    single = rank_features([data])
    five = rank_features([data] * 5)
    assert five == single


def test_rank_fingerprint_mismatch():
    a = ds(separable_rows(3))
    b = ds(separable_rows(3), fingerprint="other")
    with pytest.raises(FingerprintMismatch):
        rank_features([a, b])


# -- persistence -----------------------------------------------------------------------


def test_save_load_round_trip_predictions(tmp_path):
    data = ds(separable_rows(8))
    model = train_forest(data, Hyperparams(n_trees=11, seed=7))
    path = tmp_path / "model.json"
    save_model(model, path)
    loaded = load_model(path)
    assert loaded == model
    rng = np.random.default_rng(1)
    for _ in range(1000):
        x = fv(*rng.integers(0, 25, size=3).tolist())
        assert predict_proba(loaded, x) == predict_proba(model, x)


def test_truncated_model_file(tmp_path):
    data = ds(separable_rows(4))
    model = train_forest(data, Hyperparams(n_trees=3, seed=0))
    text = dumps_model(model)
    path = tmp_path / "model.json"
    path.write_text(text[: len(text) // 2])
    with pytest.raises(CorruptModel):
        load_model(path)


def test_future_version_rejected(tmp_path):
    import json

    data = ds(separable_rows(4))
    doc = json.loads(dumps_model(train_forest(data, Hyperparams(n_trees=2, seed=0))))
    doc["format_version"] = 99
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(VersionMismatch):
        load_model(path)


def test_unrecognized_document():
    with pytest.raises(CorruptModel):
        loads_model('{"something": "else"}')


def test_bad_leaf_distribution_rejected():
    import json

    data = ds(separable_rows(4))
    doc = json.loads(dumps_model(train_forest(data, Hyperparams(n_trees=1, max_depth=0, seed=0))))
    for leaf in (
        ["l", 0.9, 0.3, 0.3],  # sums to 1.5
        ["l", "a", 0.5, 0.5],
        ["l", math.nan, 0.5, 0.5],
    ):
        doc["trees"][0][0] = leaf
        with pytest.raises(CorruptModel):
            loads_model(json.dumps(doc))


def test_out_of_range_split_feature_rejected():
    """An out-of-range split feature, or a NaN threshold, is rejected."""
    import json

    data = ds(separable_rows(6))
    doc = json.loads(dumps_model(train_forest(data, Hyperparams(n_trees=1, seed=1))))
    flat = doc["trees"][0]
    for node in flat:
        if node[0] == "s":
            break
    else:
        pytest.skip("tree degenerated to a leaf")
    good = list(node)
    for field, value in ((1, 999), (2, math.nan)):
        node[:] = good
        node[field] = value
        with pytest.raises(CorruptModel):
            loads_model(json.dumps(doc))


def test_malformed_trees_and_hyperparams_rejected():
    import json

    data = ds(separable_rows(4))
    good = dumps_model(train_forest(data, Hyperparams(n_trees=1, seed=0)))
    for key, value in (("trees", 5), ("trees", [5]), ("trees", [[]]), ("hyperparams", "x")):
        doc = json.loads(good)
        doc[key] = value
        with pytest.raises(CorruptModel):
            loads_model(json.dumps(doc))
    for name, value in (("n_trees", "1"), ("seed", 0.5), ("max_depth", "3")):
        doc = json.loads(good)
        doc["hyperparams"][name] = value
        with pytest.raises(CorruptModel):
            loads_model(json.dumps(doc))


@pytest.mark.parametrize("side", ["left", "right"])
def test_deep_chain_loads_and_predicts(side):
    import json

    model = loads_model(json.dumps(chain_model_doc(5000, side, FP)))
    assert len(model.trees[0].nodes) == 10001
    x = fv(0) if side == "left" else fv(1)
    assert predict_proba(model, x) == (0.0, 0.0, 1.0)
    assert loads_model(dumps_model(model)) == model


# -- dataset wrapper --------------------------------------------------------------------


def test_dataset_rejects_mixed_fingerprints():
    with pytest.raises(FingerprintMismatch):
        LabeledDataset(
            [
                LabeledSample("a", fv(1), T),
                LabeledSample("b", FeatureVector((1,), "other"), R),
            ]
        )


def test_dataset_rejects_duplicate_ids():
    with pytest.raises(ValueError):
        LabeledDataset([LabeledSample("a", fv(1), T), LabeledSample("a", fv(2), R)])


def test_dataset_dates_survive():
    sample = LabeledSample("a", fv(1), R, date(2017, 3, 5))
    dataset = LabeledDataset([sample, LabeledSample("b", fv(0), T)])
    assert dataset.samples[0].first_seen == date(2017, 3, 5)
