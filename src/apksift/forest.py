"""Multi-class random forest with information-gain splits.

Hand-rolled on purpose: split selection, the entropy/information-gain
machinery and the feature ranking all share one scalar gain definition, so
tree induction, Eq-style feature ranking and the test oracles of acceptance
criterion 4 (``entropy``, ``information_gain`` and ``best_split``, which no
command calls) agree bit-for-bit. Training is fully deterministic given
(data, hyperparams, seed): tree t draws its bootstrap resample and all of its
per-level feature keys from a stream seeded by (seed, t), so adding trees
never perturbs earlier ones, and CV fold k scores every grid value on a
prefix of one forest of max(grid) trees, seeded (seed, k).

Growth follows Breiman's random forest and is not configurable: every tree
is grown unpruned until each leaf is pure or no candidate split has positive
gain, and each node draws ceil(sqrt(d)) candidate features without
replacement. Only the number of trees and the seed are hyperparameters.

Thresholds are midpoints between consecutive distinct feature values; ties
in gain break toward the lowest feature index, then the lowest threshold.

The split search is exact. Each fit replaces every feature value by its rank,
its index among the sorted distinct values of all columns laid end to end,
once. A batch of nodes then makes one flat take of its (row, candidate)
ranks, one np.bincount over (node, candidate, rank, class) keys and one
cumsum, which give the left class counts at every value present in each node
for all of its candidates at once. A vector gain screens those boundaries,
and every boundary within 1e-9 of its node's maximum is re-scored by the
scalar gain in (feature, threshold) order, so the split and gain chosen are
bit-identical to scoring each boundary by the scalar gain. A threshold maps
back through those distinct values.

The trees of a forest grow level by level, together: a level holds the nodes
of every tree at one depth, and all of its impure nodes (those whose samples
are not all of one class) are scored in batches of at most ROW_CAP rows.
Candidates are drawn per level. After its bootstrap, tree t makes one
rng.random((k, d)) draw at each depth, where k is the number of its impure
nodes there, taken left to right; row i keys the i-th of them, whose
candidates are the ceil(sqrt(d)) features with the smallest keys (ties to
the lower index), ascending. A node's split depends only on its own rows and
candidates, and each tree draws from its own stream in its own level order,
so neither the batching nor the other trees move a draw.

A tree is the model file's own pre-order node list, assembled once every
level is grown: a split is ("s", feature, threshold), sending a sample left
iff counts[feature] <= threshold, and a leaf is ("l", p0, p1, p2), the class
distribution of the training samples that reached it. Every pass over a tree
is a loop over that list, so tree depth is bounded by memory, not by the
interpreter's recursion limit.

Scoring has one evaluator, _prefix_means: a row's score over the first v
trees is the mean of the leaves it reaches, for each v that CV asks and for
v = all trees in predict_probas; label_of takes the first maximum.
"""

from __future__ import annotations

import enum
import json
import math
from collections import Counter
from dataclasses import asdict, dataclass, fields
from datetime import date
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    CorruptModel,
    EmptySet,
    FingerprintMismatch,
    InvalidHyperparams,
    NoUsefulSplit,
    SingleClassData,
    TooFewSamples,
    VersionMismatch,
)
from .features import FeatureVector


class Label(enum.Enum):
    Trusted = "trusted"
    GenericMalware = "malware"
    Ransomware = "ransomware"


CLASS_ORDER = (Label.Trusted, Label.GenericMalware, Label.Ransomware)
CLASS_INDEX = {label: i for i, label in enumerate(CLASS_ORDER)}
N_CLASSES = 3

MODEL_FORMAT = "apksift-random-forest"
MODEL_FORMAT_VERSION = 1


@dataclass(frozen=True)
class LabeledSample:
    sample_id: str
    features: FeatureVector
    label: Label
    first_seen: date | None = None


class LabeledDataset:
    """Samples sharing one reference fingerprint, with unique ids."""

    def __init__(self, samples: Iterable[LabeledSample]):
        self.samples: tuple[LabeledSample, ...] = tuple(samples)
        if not self.samples:
            raise ValueError("dataset must contain at least one sample")
        fingerprints = {s.features.reference_fingerprint for s in self.samples}
        if len(fingerprints) != 1:
            raise FingerprintMismatch(f"dataset mixes reference lists: {sorted(fingerprints)}")
        self.reference_fingerprint = self.samples[0].features.reference_fingerprint
        ids = [s.sample_id for s in self.samples]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate sample ids in dataset")
        self._arrays: tuple[np.ndarray, np.ndarray] | None = None

    def __len__(self) -> int:
        return len(self.samples)

    def __iter__(self):
        return iter(self.samples)

    def ids(self) -> set[str]:
        return {s.sample_id for s in self.samples}

    def to_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        if self._arrays is None:
            X = np.array([s.features.counts for s in self.samples], dtype=np.int64)
            y = np.array([CLASS_INDEX[s.label] for s in self.samples], dtype=np.int8)
            self._arrays = (X, y)
        return self._arrays

    def class_counts(self) -> tuple[int, int, int]:
        counts = [0, 0, 0]
        for s in self.samples:
            counts[CLASS_INDEX[s.label]] += 1
        return tuple(counts)

    def subset(self, indices: Sequence[int]) -> "LabeledDataset":
        return LabeledDataset(self.samples[i] for i in indices)


# The fixed growth rule (module docstring) as every model file records it.
FIXED_HYPERPARAMS = {"max_depth": None, "min_samples_leaf": 1, "features_per_split": None}


@dataclass(frozen=True)
class Hyperparams:
    n_trees: int = 50
    seed: int = 0

    def validate(self) -> None:
        if self.n_trees < 1:
            raise InvalidHyperparams(f"n_trees {self.n_trees} < 1")
        if self.seed < 0:
            raise InvalidHyperparams(f"seed {self.seed} < 0")


@dataclass(frozen=True)
class Tree:
    """Pre-order nodes; node i's left child is i + 1, its right child right[i]."""

    nodes: tuple[tuple, ...]
    right: tuple[int, ...]  # 0 for a leaf

    @classmethod
    def from_nodes(cls, raw, feature_dim: int) -> "Tree":
        """Validate a pre-order node list and link each split to its right child."""
        if not isinstance(raw, (list, tuple)):
            raise CorruptModel(f"a tree is a {type(raw).__name__}, not a node list")
        nodes = [_node(item, i, feature_dim) for i, item in enumerate(raw)]
        right = [0] * len(nodes)
        pending: list[int] = []  # splits whose right child is still ahead
        for i, node in enumerate(nodes):
            if node[0] == "s":
                pending.append(i)
            elif i + 1 < len(nodes):
                if not pending:
                    raise CorruptModel(f"{len(nodes) - i - 1} trailing nodes in tree array")
                right[pending.pop()] = i + 1
        if pending or not nodes:
            raise CorruptModel("tree array exhausted mid-node")
        return cls(tuple(nodes), tuple(right))


def _is_number(value) -> bool:
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int too large for a float
        return False


def _node(raw, i: int, feature_dim: int) -> tuple:
    if not isinstance(raw, (list, tuple)) or not raw:
        raise CorruptModel(f"bad node at {i}")
    if raw[0] == "s":
        if len(raw) != 3:
            raise CorruptModel(f"bad split node at {i}")
        feature, threshold = raw[1], raw[2]
        if type(feature) is not int or not 0 <= feature < feature_dim:
            raise CorruptModel(f"split feature {feature!r} out of range")
        if not _is_number(threshold):
            raise CorruptModel(f"split threshold {threshold!r}")
        return ("s", feature, float(threshold))
    if raw[0] == "l":
        if len(raw) != 1 + N_CLASSES:
            raise CorruptModel(f"bad leaf node at {i}")
        dist = raw[1:]
        if not all(_is_number(p) and p >= 0 for p in dist) or abs(sum(dist) - 1.0) > 1e-9:
            raise CorruptModel(f"leaf distribution {dist} invalid")
        return ("l", *map(float, dist))
    raise CorruptModel(f"unknown node tag {raw[0]!r}")


@dataclass(frozen=True)
class RandomForestModel:
    trees: tuple[Tree, ...]
    hyperparams: Hyperparams
    feature_dim: int
    reference_fingerprint: str


# -- entropy / information gain ---------------------------------------------


def _entropy_of(counts: tuple[int, int, int]) -> float:
    n = counts[0] + counts[1] + counts[2]
    h = 0.0
    for c in counts:
        if c:
            p = c / n
            h -= p * math.log2(p)
    return h


def entropy(class_counts: Sequence[int]) -> float:
    """Shannon entropy in bits of a 3-class count tuple."""
    counts = tuple(int(c) for c in class_counts)
    if len(counts) != N_CLASSES:
        raise ValueError(f"expected {N_CLASSES} class counts, got {len(counts)}")
    if any(c < 0 for c in counts):
        raise ValueError("class counts must be non-negative")
    if sum(counts) == 0:
        raise EmptySet("entropy of an empty sample set")
    return _entropy_of(counts)


def _split_gain(
    total: tuple[int, int, int], left: tuple[int, int, int], h_total: float
) -> float:
    nl = left[0] + left[1] + left[2]
    n = total[0] + total[1] + total[2]
    nr = n - nl
    if nl == 0 or nr == 0:
        return 0.0
    right = (total[0] - left[0], total[1] - left[1], total[2] - left[2])
    return h_total - (nl * _entropy_of(left) + nr * _entropy_of(right)) / n


def information_gain(data: LabeledDataset, feature_index: int, threshold: float) -> float:
    """Entropy reduction from partitioning on counts[feature_index] <= threshold."""
    X, y = data.to_arrays()
    total = data.class_counts()
    mask = X[:, feature_index] <= threshold
    left = tuple(int(np.count_nonzero(y[mask] == c)) for c in range(N_CLASSES))
    return _split_gain(total, left, _entropy_of(total))


def _rank_columns(X: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Each entry's rank, its index into values: the sorted distinct values
    of every column, laid end to end in column order."""
    ranks = np.empty(X.shape, dtype=np.int32)
    values = []
    start = 0
    for f in range(X.shape[1]):
        distinct, inverse = np.unique(X[:, f], return_inverse=True)
        ranks[:, f] = inverse.reshape(-1) + start
        values.append(distinct)
        start += len(distinct)
    return ranks, np.concatenate(values).tolist()


def _xlog2x(c: np.ndarray) -> np.ndarray:
    return c * np.log2(np.maximum(c, 1))


# Most rows in one batch of nodes (unless one node has more); bounds the
# temporaries at a forest's first level, where every node holds a whole
# bootstrap resample.
ROW_CAP = 4096


def _batches(sizes: list[int]):
    """(start, stop) runs of consecutive nodes, of these sizes, that hold at
    most ROW_CAP rows each, or one node that alone holds more."""
    start = rows = 0
    for i, size in enumerate(sizes):
        if i > start and rows + size > ROW_CAP:
            yield start, i
            start, rows = i, 0
        rows += size
    if sizes:
        yield start, len(sizes)


def _best_splits(R, y, values, rows: np.ndarray, sizes: np.ndarray, counts, candidates):
    """Each node's best split by the batched histogram search of the module
    docstring, as arrays over the nodes: (gain, feature, rank, threshold,
    left class counts), with gain 0 where no split has positive gain. Node k
    holds the next sizes[k] rows of R that rows indexes, with class counts
    counts[k], and scores the ascending features of row k of the (K, m)
    array candidates. A sample goes left iff its rank is <= rank (value <=
    threshold)."""
    K, m = candidates.shape
    feature, rank = np.zeros(K, dtype=np.intp), np.zeros(K, dtype=np.intp)
    threshold, left_counts = np.zeros(K), np.zeros((K, N_CLASSES), dtype=np.int64)
    starts = np.cumsum(sizes) - sizes
    flat = np.repeat(candidates, sizes, axis=0)
    flat += (rows * R.shape[1])[:, None]
    keys = R.take(flat)  # each (row, candidate) rank
    del flat
    lo = np.minimum.reduceat(keys, starts)
    width = np.maximum.reduceat(keys, starts) - lo + 1
    end = np.cumsum(width)  # block k * m + j owns histogram rows [end - width, end)
    offset = (end.reshape(K, m) - width - lo).astype(np.int32)
    keys += np.repeat(offset, sizes, axis=0)
    keys *= N_CLASSES
    keys += y[rows][:, None]
    hist = np.bincount(keys.ravel(), minlength=int(end[-1]) * N_CLASSES).reshape(-1, N_CLASSES)
    del keys
    present = np.flatnonzero(hist.any(axis=1))
    hist = hist[present]  # the rows of values present in their node
    block = np.searchsorted(end, present, side="right")
    at = np.flatnonzero(block[1:] == block[:-1])  # present values with a successor
    if at.size == 0:
        return np.zeros(K), feature, rank, threshold, left_counts
    pos, b = present[at], block[at]
    k = b // m
    totals = np.repeat(counts, m, axis=0)
    # each block's rows sum to its node's class counts, so subtract the blocks before it
    left = hist.cumsum(axis=0)[at] - (totals.cumsum(axis=0) - totals)[b]
    del hist
    total = totals[b]
    nl, n = left.sum(axis=1), total.sum(axis=1)
    node_counts = counts.tolist()
    h = [_entropy_of(c) for c in node_counts]
    gain = np.array(h)[k] - (
        _xlog2x(nl) - _xlog2x(left).sum(axis=1)
        + _xlog2x(n - nl) - _xlog2x(total - left).sum(axis=1)
    ) / n
    new = np.diff(k, prepend=-1) != 0  # boundaries are grouped by node
    ceiling = np.maximum.reduceat(gain, np.flatnonzero(new)) - 1e-9
    screened = np.flatnonzero(gain >= ceiling[np.cumsum(new) - 1])
    best = [0] * K  # the boundary of each node's best split
    best_gain = [0.0] * K
    for i, kk, lt in zip(screened.tolist(), k[screened].tolist(), left[screened].tolist()):
        g = _split_gain(node_counts[kk], lt, h[kk])
        if g > best_gain[kk]:
            best[kk], best_gain[kk] = i, g
    best_gain = np.array(best_gain)
    found = np.flatnonzero(best_gain)
    i = np.array(best)[found]
    j = b[i] - found * m
    shift = offset[found, j]
    feature[found] = candidates[found, j]
    rank[found] = pos[i] - shift
    upper = present[at[i] + 1] - shift
    # Python ints, as in the scalar definition: an int64 sum could wrap
    threshold[found] = [
        (values[r] + values[u]) / 2 for r, u in zip(rank[found].tolist(), upper.tolist())
    ]
    left_counts[found] = left[i]
    return best_gain, feature, rank, threshold, left_counts


def best_split(
    data: LabeledDataset, candidate_feature_indices: Sequence[int]
) -> tuple[int, float, float]:
    """Maximize information gain over candidates x midpoint thresholds.

    Returns (feature_index, threshold, gain); ties break toward the lowest
    feature index, then the lowest threshold. Raises NoUsefulSplit when no
    candidate has positive gain.
    """
    X, y = data.to_arrays()
    R, values = _rank_columns(X)
    candidates = sorted(set(int(i) for i in candidate_feature_indices))
    gain = np.zeros(1)
    if candidates:
        gain, feature, _, threshold, _ = _best_splits(
            R, y, values, np.arange(len(y)), np.array([len(y)]),
            np.array([data.class_counts()]), np.array([candidates], dtype=np.intp),
        )
    if not gain[0]:
        raise NoUsefulSplit("no candidate feature/threshold has positive gain")
    return int(feature[0]), float(threshold[0]), float(gain[0])


# -- training ----------------------------------------------------------------


def _grow_forest(R: np.ndarray, y: np.ndarray, values, rngs, m: int) -> list[Tree]:
    """One tree per stream, grown level by level on rank-compressed features.

    Tree t's rows are its bootstrap resample, the first draw of rngs[t], held
    in boot[t * n : (t + 1) * n]; a node is a span of boot with its class
    counts, and splitting it partitions the span in place, left rows first.
    A level holds every tree's nodes at one depth, tree by tree and left to
    right within a tree. Each tree draws the candidates of its impure nodes
    there, and one _best_splits per batch scores the level's impure nodes;
    the children of its splits, left then right, make the next level. Each
    tree's pre-order node list is assembled from the levels at the end.
    """
    n, d = R.shape
    boot = np.empty(len(rngs) * n, dtype=np.intp)
    for t, rng in enumerate(rngs):
        boot[t * n : (t + 1) * n] = rng.integers(0, n, size=n)
    labels = y[boot].reshape(len(rngs), n)
    counts = np.stack([np.count_nonzero(labels == c, axis=1) for c in range(N_CLASSES)], axis=1)
    owner = np.arange(len(rngs))  # each node's tree
    lo = owner * n
    hi = lo + n
    levels = []  # each level's class counts, and the index, feature and threshold of its splits
    while owner.size:
        impure = np.flatnonzero(counts.max(axis=1) < hi - lo)
        K = impure.size
        gain, feature, rank = np.zeros(K), np.zeros(K, dtype=np.intp), np.zeros(K, dtype=np.intp)
        threshold, left = np.zeros(K), np.zeros((K, N_CLASSES), dtype=np.int64)
        if K:
            per_tree = np.bincount(owner[impure], minlength=len(rngs))
            keys = np.concatenate(
                [rngs[t].random((per_tree[t], d)) for t in np.flatnonzero(per_tree)]
            )
            candidates = np.sort(np.argsort(keys, axis=1, kind="stable")[:, :m], axis=1)
        for start, stop in _batches((hi - lo)[impure].tolist()):
            nodes = impure[start:stop]
            sizes = hi[nodes] - lo[nodes]
            ends = np.cumsum(sizes)  # the batch's spans, concatenated
            span = np.arange(ends[-1]) + np.repeat(lo[nodes] - (ends - sizes), sizes)
            rows = boot[span]
            batch = slice(start, stop)
            gain[batch], feature[batch], rank[batch], threshold[batch], left[batch] = _best_splits(
                R, y, values, rows, sizes, counts[nodes], candidates[batch]
            )
            splits = np.flatnonzero(gain[batch])
            if splits.size:  # stable partition of each split node's span, left rows first
                mine = np.repeat(gain[batch] > 0, sizes)
                moved, split_sizes = rows[mine], sizes[splits]
                cell = np.repeat(feature[start + splits], split_sizes)
                cell += moved * d
                goes_right = R.take(cell) > np.repeat(rank[start + splits], split_sizes)
                key = np.repeat(np.arange(0, 2 * splits.size, 2), split_sizes)
                key += goes_right
                boot[span[mine]] = moved[np.argsort(key, kind="stable")]
        found = np.flatnonzero(gain)
        split, left = impure[found], left[found]
        levels.append((counts, split, feature[found], threshold[found]))
        mid = lo[split] + left.sum(axis=1)
        owner = np.repeat(owner[split], 2)
        lo = np.stack([lo[split], mid], axis=1).ravel()
        hi = np.stack([mid, hi[split]], axis=1).ravel()
        counts = np.stack([left, counts[split] - left], axis=1).reshape(-1, N_CLASSES)
    return _assemble(levels)


def _assemble(levels) -> list[Tree]:
    """Each tree's pre-order node list, from _grow_forest's levels: the j-th
    split of a level has the next level's nodes 2j and 2j + 1 as children.
    Subtree sizes come up from the deepest level, then pre-order places come
    down from the roots: a split at place p has its left child at p + 1 and
    its right child after the left subtree. Places run across all trees."""
    sizes = [np.ones(len(levels[-1][0]), dtype=np.intp)]  # the deepest level holds leaves only
    for counts, split, _, _ in reversed(levels[:-1]):
        sizes.append(np.ones(len(counts), dtype=np.intp))
        sizes[-1][split] += sizes[-2][0::2] + sizes[-2][1::2]
    sizes.reverse()
    ends = np.cumsum(sizes[0])
    starts = ends - sizes[0]
    right = np.zeros(ends[-1], dtype=np.intp)
    feature, threshold = np.zeros(ends[-1], dtype=np.intp), np.zeros(ends[-1])
    dist = np.zeros((ends[-1], N_CLASSES))
    place = starts
    for (counts, split, split_feature, split_threshold), below in zip(levels, sizes[1:] + [None]):
        dist[place] = counts / counts.sum(axis=1, keepdims=True)
        if split.size:
            parent = place[split]
            feature[parent], threshold[parent] = split_feature, split_threshold
            right[parent] = parent + 1 + below[0::2]
            place = np.stack([parent + 1, right[parent]], axis=1).ravel()
    right = np.where(right > 0, right - np.repeat(starts, sizes[0]), 0).tolist()  # within each tree
    columns = zip(right, feature.tolist(), threshold.tolist(), *dist.T.tolist())
    nodes = [("s", f, thr) if r else ("l", p0, p1, p2) for r, f, thr, p0, p1, p2 in columns]
    return [
        Tree(tuple(nodes[a:b]), tuple(right[a:b])) for a, b in zip(starts.tolist(), ends.tolist())
    ]


def tree_rng(seed: int, tree_index: int) -> np.random.Generator:
    """The per-tree deterministic stream; bootstrap draw comes first."""
    return np.random.default_rng((seed, tree_index))


def train_forest(data: LabeledDataset, hp: Hyperparams) -> RandomForestModel:
    """Grow hp.n_trees trees on bootstrap resamples of the dataset."""
    hp.validate()
    counts = data.class_counts()
    if sum(1 for c in counts if c > 0) < 2:
        raise SingleClassData(f"class counts {counts}")
    X, y = data.to_arrays()
    n, d = X.shape
    if d < 1:
        raise InvalidHyperparams("feature dimension is zero")
    m = math.isqrt(d - 1) + 1  # ceil(sqrt(d)), never above d
    R, values = _rank_columns(X)
    rngs = [tree_rng(hp.seed, t) for t in range(hp.n_trees)]
    return RandomForestModel(
        trees=tuple(_grow_forest(R, y, values, rngs, m)),
        hyperparams=hp,
        feature_dim=d,
        reference_fingerprint=data.reference_fingerprint,
    )


# -- prediction ---------------------------------------------------------------


def _walk(tree: Tree, x: Sequence[int]) -> tuple:
    """The leaf node ("l", p0, p1, p2) that x reaches."""
    nodes, right = tree.nodes, tree.right
    i, node = 0, nodes[0]
    while node[0] == "s":
        i = i + 1 if x[node[1]] <= node[2] else right[i]
        node = nodes[i]
    return node


def _check_vector(model: RandomForestModel, fv: FeatureVector) -> None:
    if fv.reference_fingerprint != model.reference_fingerprint:
        raise FingerprintMismatch(
            f"vector {fv.reference_fingerprint} vs model {model.reference_fingerprint}"
        )
    if len(fv.counts) != model.feature_dim:
        raise FingerprintMismatch(f"vector dim {len(fv.counts)} vs model dim {model.feature_dim}")


def _prefix_means(trees: Sequence[Tree], rows: list, sizes: Sequence[int]) -> np.ndarray:
    """[i, j]: row i's mean leaf class distribution over the first sizes[j]
    trees, by a cumsum over trees that adds its leaves in tree order."""
    flat: list[float] = []  # row-major (row, tree, class), one flat np.array
    for x in rows:
        for tree in trees:
            flat += _walk(tree, x)[1:]
    leaves = np.array(flat).reshape(len(rows), len(trees), N_CLASSES)  # also for no rows
    return leaves.cumsum(axis=1)[:, [v - 1 for v in sizes]] / np.array(sizes)[:, None]


def predict_probas(model: RandomForestModel, vectors: Sequence[FeatureVector]) -> np.ndarray:
    """Each vector's mean leaf class distribution over all trees, one row each."""
    for fv in vectors:
        _check_vector(model, fv)
    return _prefix_means(model.trees, [fv.counts for fv in vectors], [len(model.trees)])[:, 0]


def predict_proba(model: RandomForestModel, fv: FeatureVector) -> tuple[float, float, float]:
    """predict_probas of the one vector fv."""
    return tuple(predict_probas(model, [fv])[0].tolist())


def label_of(probs: Sequence[float]) -> Label:
    """Argmax of a class-probability triple; ties break by class order."""
    return CLASS_ORDER[int(np.argmax(probs))]


# -- model selection and ranking ----------------------------------------------


def derive_seed(*parts: int) -> int:
    state = np.random.SeedSequence(list(parts)).generate_state(2)
    return int(state[0]) << 32 | int(state[1])


def shuffled_by_class(y: np.ndarray, rng: np.random.Generator) -> list[np.ndarray]:
    """Each class's row indices in a random order, in class order; the one
    per-class draw behind CV folds and stratified splits. An empty class
    draws nothing from rng."""
    return [rng.permutation(np.flatnonzero(y == c)) for c in range(N_CLASSES)]


def stratified_folds(y: np.ndarray, n_folds: int, rng: np.random.Generator) -> np.ndarray:
    """Each row's fold number: every class's shuffled_by_class order is dealt
    round-robin from fold 0, so per-class proportions are within +-1."""
    fold_of = np.empty(len(y), dtype=np.intp)
    for idxs in shuffled_by_class(y, rng):
        fold_of[idxs] = np.arange(len(idxs)) % n_folds
    return fold_of


def best_grid_value(table: dict[int, float]) -> int:
    """The grid value with the highest CV accuracy; ties go to the smaller value."""
    return max(sorted(table), key=table.__getitem__)


def cv_accuracy_table(
    data: LabeledDataset,
    grid: Sequence[int],
    seed: int = 0,
    n_folds: int = 10,
) -> dict[int, float]:
    """Mean stratified-CV accuracy per grid value.

    Fold k's training partition grows one forest of max(grid) trees, seeded
    derive_seed(seed, k), and one _prefix_means call scores its held-out rows
    for every grid value, each labelled as label_of does. Folds whose training
    partition degenerates to a single class are skipped from the average.
    """
    if n_folds < 2:
        raise InvalidHyperparams(f"cv folds {n_folds} < 2")
    if len(data) < n_folds:
        raise TooFewSamples(f"{len(data)} samples < {n_folds} folds")
    if not grid:
        raise InvalidHyperparams("empty n_trees grid")
    values = sorted(set(int(v) for v in grid))
    if values[0] < 1:
        raise InvalidHyperparams(f"n_trees {values[0]} < 1")
    X, y = data.to_arrays()
    fold_of = stratified_folds(y, n_folds, np.random.default_rng((seed, 101)))
    accs: list[list[float]] = []  # per usable fold, the accuracy of each grid value
    for k in range(n_folds):
        in_fold = fold_of == k
        if not in_fold.any() or len(np.unique(y[~in_fold])) < 2:
            continue
        train = data.subset(np.flatnonzero(~in_fold).tolist())
        trees = train_forest(train, Hyperparams(values[-1], derive_seed(seed, k))).trees
        probs = _prefix_means(trees, X[in_fold].tolist(), values)
        hits = (probs.argmax(axis=2) == y[in_fold][:, None]).sum(axis=0)
        accs.append([h / len(probs) for h in hits.tolist()])
    if not accs:
        raise TooFewSamples("no usable CV fold")
    return {v: sum(a) / len(a) for v, a in zip(values, zip(*accs))}


def rank_features(datasets: Sequence[LabeledDataset]) -> list[tuple[int, float]]:
    """Rank features by mean best-threshold information gain across datasets."""
    if not datasets:
        raise ValueError("need at least one dataset")
    fingerprints = {ds.reference_fingerprint for ds in datasets}
    if len(fingerprints) != 1:
        raise FingerprintMismatch(f"datasets mix reference lists: {sorted(fingerprints)}")
    d = len(datasets[0].samples[0].features.counts)
    sums = [0.0] * d
    for ds in datasets:
        X, y = ds.to_arrays()
        R, values = _rank_columns(X)
        n, total = len(y), ds.class_counts()
        for start, stop in _batches([n] * d):
            k = stop - start
            gain = _best_splits(R, y, values, np.tile(np.arange(n), k), np.full(k, n),
                                np.tile(total, (k, 1)), np.arange(start, stop, dtype=np.intp)[:, None])[0]
            for f, g in enumerate(gain.tolist(), start):
                sums[f] += g
    k = len(datasets)
    means = [(f, sums[f] / k) for f in range(d)]
    means.sort(key=lambda item: (-item[1], item[0]))
    return means


def split_counts_by_feature(model: RandomForestModel) -> dict[int, int]:
    """How often each feature index appears as an internal split in the model."""
    return dict(Counter(node[1] for tree in model.trees for node in tree.nodes if node[0] == "s"))


# -- persistence ---------------------------------------------------------------


def dumps_model(model: RandomForestModel) -> str:
    doc = {
        "format": MODEL_FORMAT,
        "format_version": MODEL_FORMAT_VERSION,
        "class_order": [label.value for label in CLASS_ORDER],
        "reference_fingerprint": model.reference_fingerprint,
        "feature_dim": model.feature_dim,
        "hyperparams": {**FIXED_HYPERPARAMS, **asdict(model.hyperparams)},
        "trees": [tree.nodes for tree in model.trees],
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def save_model(model: RandomForestModel, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(dumps_model(model))


def loads_model(text: str) -> RandomForestModel:
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:  # ValueError: JSONDecodeError, int digit limit
        raise CorruptModel(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("format") != MODEL_FORMAT:
        raise CorruptModel("unrecognized model document")
    if doc.get("format_version") != MODEL_FORMAT_VERSION:
        raise VersionMismatch(
            f"format version {doc.get('format_version')!r}, supported {MODEL_FORMAT_VERSION}"
        )
    try:
        class_order = tuple(Label(token) for token in doc["class_order"])
        fingerprint = doc["reference_fingerprint"]
        feature_dim = doc["feature_dim"]
        hp_doc = doc["hyperparams"]
        hp = Hyperparams(**{f.name: hp_doc[f.name] for f in fields(Hyperparams)})
        fixed = {name: hp_doc[name] for name in FIXED_HYPERPARAMS}
        raw_trees = doc["trees"]
    except (KeyError, TypeError, ValueError) as exc:
        raise CorruptModel(f"missing or malformed field: {exc}") from exc
    if class_order != CLASS_ORDER:
        raise CorruptModel(f"unexpected class order {doc['class_order']}")
    if type(feature_dim) is not int or feature_dim < 1:
        raise CorruptModel(f"feature_dim {feature_dim!r}")
    if not isinstance(fingerprint, str) or not fingerprint:
        raise CorruptModel("missing reference fingerprint")
    for f in fields(Hyperparams):
        value = getattr(hp, f.name)
        if type(value) is not int:
            raise CorruptModel(f"hyperparam {f.name} {value!r}")
    for name, value in fixed.items():
        expected = FIXED_HYPERPARAMS[name]
        if type(value) is not type(expected) or value != expected:
            raise CorruptModel(f"hyperparam {name} {value!r}, fixed at {expected!r}")
    try:
        hp.validate()
    except InvalidHyperparams as exc:
        raise CorruptModel(f"hyperparams: {exc}") from exc
    if not isinstance(raw_trees, list) or len(raw_trees) != hp.n_trees:
        raise CorruptModel(f"trees is not a list of n_trees={hp.n_trees} trees")
    return RandomForestModel(
        trees=tuple(Tree.from_nodes(raw, feature_dim) for raw in raw_trees),
        hyperparams=hp,
        feature_dim=feature_dim,
        reference_fingerprint=fingerprint,
    )


def load_model(path) -> RandomForestModel:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise CorruptModel(f"not UTF-8 ({exc.reason})") from None
    return loads_model(text)
