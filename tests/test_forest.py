"""Random forest: entropy/gain identities, induction determinism,
persistence, and the exhaustive split-search oracle."""

import hashlib
import math
from dataclasses import replace
from datetime import date

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from apksift import forest
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
    derive_seed,
    dumps_model,
    entropy,
    information_gain,
    label_of,
    load_model,
    loads_model,
    predict_proba,
    rank_features,
    save_model,
    stratified_folds,
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


def rows_of(max_value):
    """2-40 labelled rows of 1-4 counts in 0..max_value."""
    return st.integers(min_value=1, max_value=4).flatmap(
        lambda d: st.lists(
            st.tuples(
                st.lists(st.integers(min_value=0, max_value=max_value), min_size=d, max_size=d),
                st.sampled_from([T, M, R]),
            ),
            min_size=2,
            max_size=40,
        )
    )


def midpoint_gains(data, rows, f):
    """(threshold, information gain) at every midpoint of feature f."""
    values = sorted({r[0][f] for r in rows})
    thresholds = [(lo + hi) / 2 for lo, hi in zip(values, values[1:])]
    return [(thr, information_gain(data, f, thr)) for thr in thresholds]


# values up to 1000 spread the histogram; values 0..1 make most boundaries tie
@settings(max_examples=200, deadline=None)
@given(st.sampled_from([1, 1000]).flatmap(rows_of))
def test_best_split_matches_exhaustive_enumeration(rows):
    data = ds([(tuple(counts), label) for counts, label in rows])
    d = len(rows[0][0])
    # independent oracle: enumerate every feature and midpoint threshold
    candidates = [
        (f, thr, gain) for f in range(d) for thr, gain in midpoint_gains(data, rows, f)
    ]
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
    for hp in (Hyperparams(n_trees=0), Hyperparams(seed=-1)):
        with pytest.raises(InvalidHyperparams):
            train_forest(data, hp)


def unsplittable_rows(n_per_class):
    """Every row has the same counts, so no threshold separates any two rows."""
    return [((3, 3, 3), label) for label in CLASS_ORDER for _ in range(n_per_class)]


def test_depth_zero_single_leaf_prior():
    data = ds(unsplittable_rows(4))
    hp = Hyperparams(n_trees=1, seed=9)
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
    hits = sum(1 for s in data if label_of(predict_proba(model, s.features)) is s.label)
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


def test_grown_trees_equal_their_validated_node_lists():
    data = ds(separable_rows(8))
    model = train_forest(data, Hyperparams(n_trees=6, seed=4))
    for tree in model.trees:
        assert Tree.from_nodes(list(tree.nodes), model.feature_dim) == tree


def value_range_dataset(seed, high):
    """900 rows of 33 counts below high; the label follows the sum of the
    first three counts, with one row in ten relabelled at random."""
    rng = np.random.default_rng(seed)
    X = rng.integers(0, high, size=(900, 33))
    y = (X[:, 0] + X[:, 1] + X[:, 2]) * 3 // (3 * high)
    y = np.where(rng.random(900) < 0.1, rng.integers(0, 3, size=900), y)
    return LabeledDataset(
        LabeledSample(f"s{i}", FeatureVector(tuple(row), "pin"), CLASS_ORDER[c])
        for i, (row, c) in enumerate(zip(X.tolist(), y.tolist()))
    )


# digests of the model files grown under the level-order draw rule; a change
# to the split search or the growth order must keep them byte for byte
@pytest.mark.parametrize(
    "seed, high, digest",
    [
        (0, 20, "759babf0943c90040c62291b033352c2fbba618b05bed6f86173841ea504c9c6"),
        (1, 200, "f1055baa94bac90a3b1292a7fa7cf2e1e1370ff078f21cc891c5164548f8508a"),
        (2, 5000, "2c55829f8dbdb504a7d069fc260f91477bee1e55ec9b99d9c5aec88518f4d661"),
    ],
    ids=["below-20", "below-200", "below-5000"],
)
def test_forest_bytes_pinned_across_value_ranges(seed, high, digest):
    model = train_forest(value_range_dataset(seed, high), Hyperparams(n_trees=10, seed=seed))
    assert hashlib.sha256(dumps_model(model).encode()).hexdigest() == digest


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


def reference_forest(data, hp):
    """The forest grown one tree at a time, breadth-first from its own stream,
    by a brute-force midpoint search over information_gain: the level-order
    definition that train_forest's batched growth must match. At each depth a
    tree draws rng.random((k, d)) for its k impure nodes, left to right, and a
    node's candidates are the m features with the smallest keys in its row."""
    d = len(data.samples[0].features.counts)
    m = math.isqrt(d - 1) + 1
    trees = []
    for t in range(hp.n_trees):
        rng = tree_rng(hp.seed, t)
        boot = rng.integers(0, len(data), size=len(data))
        root = {"samples": [data.samples[i] for i in boot.tolist()]}
        level = [root]
        while level:
            impure = [node for node in level if len({s.label for s in node["samples"]}) > 1]
            children = []
            for node, keys in zip(impure, rng.random((len(impure), d))):
                samples = node["samples"]
                subset = ds([(s.features.counts, s.label) for s in samples])
                best = None
                for f in sorted(np.argsort(keys, kind="stable")[:m].tolist()):
                    values = sorted({s.features.counts[f] for s in samples})
                    for lo, hi in zip(values, values[1:]):
                        gain = information_gain(subset, f, (lo + hi) / 2)
                        if gain > (best[0] if best else 0.0):
                            best = (gain, f, (lo + hi) / 2)
                if best is not None:
                    _, f, threshold = best
                    node["split"] = (f, threshold)
                    goes_left = [s.features.counts[f] <= threshold for s in samples]
                    node["left"] = {"samples": [s for s, g in zip(samples, goes_left) if g]}
                    node["right"] = {"samples": [s for s, g in zip(samples, goes_left) if not g]}
                    children += [node["left"], node["right"]]
            level = children

        def preorder(node):
            if "split" in node:
                return [("s", *node["split"])] + preorder(node["left"]) + preorder(node["right"])
            counts = [sum(s.label is c for s in node["samples"]) for c in CLASS_ORDER]
            return [("l", *(c / len(node["samples"]) for c in counts))]

        trees.append(Tree.from_nodes(preorder(root), d))
    return RandomForestModel(tuple(trees), hp, d, data.reference_fingerprint)


# values up to 1000 spread the histogram; values 0..1 make most boundaries tie
@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from([1, 1000]).flatmap(rows_of),
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=0, max_value=3),
)
def test_forest_equals_the_sequential_reference(rows, n_trees, seed):
    assume(len({label for _, label in rows}) >= 2)
    data = ds([(tuple(counts), label) for counts, label in rows])
    hp = Hyperparams(n_trees=n_trees, seed=seed)
    assert dumps_model(train_forest(data, hp)) == dumps_model(reference_forest(data, hp))


def test_row_cap_of_one_scores_each_node_alone(monkeypatch):
    rng = np.random.default_rng(7)
    X = rng.integers(0, 4, size=(80, 6))
    y = np.where(rng.random(80) < 0.2, rng.integers(0, 3, size=80), (X[:, 0] + X[:, 1]) % 3)
    data = ds([(tuple(row), CLASS_ORDER[c]) for row, c in zip(X.tolist(), y.tolist())])
    hp = Hyperparams(n_trees=6, seed=2)
    batched = dumps_model(train_forest(data, hp))
    monkeypatch.setattr(forest, "ROW_CAP", 1)
    alone = dumps_model(train_forest(data, hp))
    assert alone == batched == dumps_model(reference_forest(data, hp))


def test_first_two_levels_draw_pinned_candidates():
    # literal lists, so a stream or sort change between numpy versions shows as a readable diff
    rng = np.random.default_rng(3)
    X = rng.integers(0, 6, size=(40, 16))
    y = (X[:, 0] + X[:, 5] + X[:, 9]) % 3
    data = ds([(tuple(row), CLASS_ORDER[c]) for row, c in zip(X.tolist(), y.tolist())])
    tree = train_forest(data, Hyperparams(n_trees=1, seed=4)).trees[0]
    stream = tree_rng(4, 0)
    stream.integers(0, 40, size=40)  # the bootstrap
    m = 4  # ceil(sqrt(16))
    levels = [
        [sorted(np.argsort(keys, kind="stable")[:m].tolist()) for keys in stream.random((k, 16))]
        for k in (1, 2)  # the root, then both of its children, which are impure
    ]
    assert levels == [[[3, 8, 9, 14]], [[3, 6, 9, 15], [3, 5, 12, 14]]]
    root, left, right = tree.nodes[0], tree.nodes[1], tree.nodes[tree.right[0]]
    assert root[0] == left[0] == right[0] == "s"
    assert root[1] in levels[0][0] and left[1] in levels[1][0] and right[1] in levels[1][1]


def tree_depth(tree):
    deepest, stack = 0, [(0, 0)]
    while stack:
        i, depth = stack.pop()
        deepest = max(deepest, depth)
        if tree.nodes[i][0] == "s":
            stack += [(i + 1, depth + 1), (tree.right[i], depth + 1)]
    return deepest


def test_growing_a_tree_hundreds_of_levels_deep():
    # 400 values of one feature, 20 rows each, with alternating labels: the best
    # split always peels one value off an end, so a tree grows as a chain
    rows = [((v,), (T, R)[v % 2]) for v in range(400) for _ in range(20)]
    model = train_forest(ds(rows), Hyperparams(n_trees=1, seed=0))
    [tree] = model.trees
    assert tree_depth(tree) >= 300
    assert Tree.from_nodes(list(tree.nodes), 1) == tree
    assert loads_model(dumps_model(model)) == model
    assert all(label_of(predict_proba(model, fv(v))) is (T, R)[v % 2] for v in range(400))


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
    for leaf, label in [((0.5, 0.2, 0.3), T), ((0.5, 0.5, 0.0), T), ((0.0, 0.5, 0.5), M),
                        ((0.1, 0.2, 0.7), R)]:
        assert label_of(predict_proba(manual_model(leaf), fv(0, 0))) is label


@pytest.mark.parametrize(
    "probs, label",
    [
        ((1 / 3, 1 / 3, 1 / 3), Label.Trusted),
        ((0.2, 0.4, 0.4), Label.GenericMalware),
        ((0.4, 0.2, 0.4), Label.Trusted),
    ],
)
def test_label_of_ties_break_by_class_order(probs, label):
    assert label_of(probs) is label


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


def per_tree_sum(model, x):
    """The mean leaf distribution by the definition: walk each tree, add its
    leaf to a running sum in tree order, divide by the number of trees."""
    s0 = s1 = s2 = 0.0
    for tree in model.trees:
        i, node = 0, tree.nodes[0]
        while node[0] == "s":
            i = i + 1 if x[node[1]] <= node[2] else tree.right[i]
            node = tree.nodes[i]
        s0 += node[1]
        s1 += node[2]
        s2 += node[3]
    k = len(model.trees)
    return (s0 / k, s1 / k, s2 / k)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.tuples(st.lists(st.integers(0, 6), min_size=3, max_size=3),
                       st.sampled_from(CLASS_ORDER)), min_size=4, max_size=30),
    st.integers(1, 8),
    st.integers(0, 2**32 - 1),
    st.lists(st.lists(st.integers(0, 7), min_size=3, max_size=3), min_size=1, max_size=12),
    st.data(),
)
def test_evaluator_matches_the_per_tree_sum(rows, n_trees, seed, queries, draw):
    assume(len({label for _, label in rows}) >= 2)
    model = train_forest(ds(rows), Hyperparams(n_trees, seed))
    vectors = [fv(*x) for x in queries]
    for x in vectors:
        probs = predict_proba(model, x)
        assert probs == per_tree_sum(model, x.counts)  # bit for bit
        assert label_of(probs) is CLASS_ORDER[probs.index(max(probs))]
    sizes = draw.draw(st.lists(st.integers(1, n_trees), min_size=1, max_size=4))
    means = forest._prefix_means(model.trees, queries, sizes)
    for j, v in enumerate(sizes):
        prefix = replace(model, trees=model.trees[:v], hyperparams=Hyperparams(v, seed))
        assert [tuple(row) for row in means[:, j].tolist()] == [
            predict_proba(prefix, x) for x in vectors
        ]


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


def cv_reference(data, grid, seed, n_folds):
    """Each grid value's per-fold accuracies by the definition: on every fold
    whose training split holds two classes, a separate train_forest of v
    trees seeded derive_seed(seed, k), scored with label_of on the fold."""
    _, y = data.to_arrays()
    fold_of = stratified_folds(y, n_folds, np.random.default_rng((seed, 101))).tolist()
    accs = {v: [] for v in grid}
    for k in range(n_folds):
        test = [s for s, f in zip(data, fold_of) if f == k]
        train = [s for s, f in zip(data, fold_of) if f != k]
        if not test or len({s.label for s in train}) < 2:
            continue
        for v in accs:
            model = train_forest(LabeledDataset(train), Hyperparams(v, derive_seed(seed, k)))
            hits = sum(label_of(predict_proba(model, s.features)) is s.label for s in test)
            accs[v].append(hits / len(test))
    return accs


def check_cv_oracle(data, grid, seed, n_folds):
    accs = cv_reference(data, grid, seed, n_folds)
    if not accs[grid[0]]:
        with pytest.raises(TooFewSamples):
            cv_accuracy_table(data, grid, seed=seed, n_folds=n_folds)
        return accs
    assert cv_accuracy_table(data, grid, seed=seed, n_folds=n_folds) == {
        v: sum(a) / len(a) for v, a in accs.items()
    }
    return accs


# grids may repeat a value and often hold 1; few rows per class often leave a
# fold whose training split holds one class, or none
@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([1, 1000]).flatmap(rows_of),
    st.lists(st.sampled_from([1, 1, 2, 3, 5, 8]), min_size=1, max_size=4),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=2, max_value=4),
)
def test_cv_table_matches_a_fit_per_grid_value(rows, grid, seed, n_folds):
    assume(len(rows) >= n_folds)
    data = ds([(tuple(counts), label) for counts, label in rows])
    check_cv_oracle(data, grid, seed, n_folds)


def test_cv_oracle_skips_a_single_class_training_fold():
    # the one trusted row is dealt to fold 0, whose training split is all ransomware
    data = ds([((i, i % 2), R) for i in range(5)] + [((9, 1), T)])
    accs = check_cv_oracle(data, [3, 1, 3], seed=2, n_folds=5)
    assert [len(a) for a in accs.values()] == [4, 4]


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from([1, 1000]).flatmap(rows_of),
    st.lists(st.integers(min_value=1, max_value=8), min_size=1, max_size=4),
    st.integers(min_value=0, max_value=3),
)
def test_cv_accuracy_of_a_value_does_not_depend_on_the_grid(rows, grid, seed):
    assume(len(rows) >= 3 and len({label for _, label in rows}) >= 2)
    data = ds([(tuple(counts), label) for counts, label in rows])
    try:
        table = cv_accuracy_table(data, grid, seed=seed, n_folds=3)
    except TooFewSamples:
        return
    for v in grid:
        assert cv_accuracy_table(data, [v], seed=seed, n_folds=3)[v] == table[v]


def test_select_too_few_samples():
    small = ds([((i,), T if i % 2 else R) for i in range(9)])
    with pytest.raises(TooFewSamples):
        cv_accuracy_table(small, [5])
    # one row per class: all are dealt to fold 0, which leaves it no training rows
    with pytest.raises(TooFewSamples):
        cv_accuracy_table(ds([((0,), T), ((1,), M), ((2,), R)]), [5], n_folds=3)


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


@settings(max_examples=100, deadline=None)
@given(st.lists(st.sampled_from([1, 1000]).flatmap(rows_of), min_size=1, max_size=3))
def test_rank_matches_brute_force(datasets_rows):
    d = min(len(rows[0][0]) for rows in datasets_rows)
    datasets_rows = [[(counts[:d], label) for counts, label in rows] for rows in datasets_rows]
    datasets = [ds(rows) for rows in datasets_rows]
    sums = [0.0] * d
    for data, rows in zip(datasets, datasets_rows):
        for f in range(d):
            sums[f] += max([0.0] + [gain for _, gain in midpoint_gains(data, rows, f)])
    expected = sorted(((f, sums[f] / len(datasets)) for f in range(d)), key=lambda r: (-r[1], r[0]))
    assert rank_features(datasets) == expected


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

    data = ds(unsplittable_rows(4))
    doc = json.loads(dumps_model(train_forest(data, Hyperparams(n_trees=1, seed=0))))
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
