"""Multi-class random forest with information-gain splits.

Hand-rolled on purpose: split selection, the entropy/information-gain
machinery and the feature ranking all share one scalar gain definition, so
tree induction, Eq-style feature ranking and the brute-force test oracles
agree bit-for-bit. Training is fully deterministic given (data, hyperparams,
seed): tree t draws its bootstrap resample and all of its per-node feature
subsets from a stream seeded by (seed, t), so adding trees never perturbs
earlier ones.

Growth follows Breiman's random forest and is not configurable: every tree
is grown unpruned until each leaf is pure or no candidate split has positive
gain, and each node draws ceil(sqrt(d)) candidate features without
replacement. Only the number of trees and the seed are hyperparameters.

Thresholds are midpoints between consecutive distinct feature values; ties
in gain break toward the lowest feature index, then the lowest threshold.

A tree is the model file's own pre-order node list: a split is ("s",
feature, threshold), sending a sample left iff counts[feature] <= threshold,
and a leaf is ("l", p0, p1, p2), the class distribution of the training
samples that reached it. Every pass over a tree is a loop over that list, so
tree depth is bounded by memory, not by the interpreter's recursion limit.
"""

from __future__ import annotations

import enum
import json
import math
from collections import Counter
from dataclasses import asdict, dataclass, fields
from datetime import date
from functools import lru_cache
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
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


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


@lru_cache(maxsize=1 << 16)
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


def _best_for_feature(
    values: np.ndarray,
    labels: np.ndarray,
    total: tuple[int, int, int],
    h_total: float,
) -> tuple[float, float] | None:
    """Best (gain, threshold) for one feature; None if no positive-gain split.

    Thresholds are midpoints between consecutive distinct sorted values;
    gain ties keep the lowest threshold.
    """
    order = np.argsort(values, kind="stable")
    sv = values[order]
    boundaries = np.nonzero(sv[1:] != sv[:-1])[0]
    if boundaries.size == 0:
        return None
    sl = labels[order]
    c0 = np.cumsum(sl == 0).tolist()
    c1 = np.cumsum(sl == 1).tolist()
    c2 = np.cumsum(sl == 2).tolist()
    svl = sv.tolist()
    best_gain = 0.0
    best_thr = None
    for i in boundaries.tolist():
        gain = _split_gain(total, (c0[i], c1[i], c2[i]), h_total)
        if gain > best_gain:
            best_gain = gain
            best_thr = (svl[i] + svl[i + 1]) / 2
    if best_thr is None:
        return None
    return best_gain, best_thr


def best_split(
    data: LabeledDataset, candidate_feature_indices: Sequence[int]
) -> tuple[int, float, float]:
    """Maximize information gain over candidates x midpoint thresholds.

    Returns (feature_index, threshold, gain); ties break toward the lowest
    feature index, then the lowest threshold. Raises NoUsefulSplit when no
    candidate has positive gain.
    """
    X, y = data.to_arrays()
    candidates = sorted(set(int(i) for i in candidate_feature_indices))
    best = _search(X, y, data.class_counts(), candidates)
    if best is None:
        raise NoUsefulSplit("no candidate feature/threshold has positive gain")
    gain, feature, threshold = best
    return feature, threshold, gain


def _search(
    X: np.ndarray,
    y: np.ndarray,
    counts: tuple[int, int, int],
    candidates: Sequence[int],
) -> tuple[float, int, float] | None:
    """Best (gain, feature, threshold) over ascending candidates; None if no
    positive-gain split. A gain tie keeps the earlier (lower) feature."""
    h_total = _entropy_of(counts)
    best: tuple[float, int, float] | None = None
    for f in candidates:
        res = _best_for_feature(X[:, f], y, counts, h_total)
        if res is not None and (best is None or res[0] > best[0]):
            best = (res[0], f, res[1])
    return best


# -- training ----------------------------------------------------------------


def _label_counts(y: np.ndarray) -> tuple[int, int, int]:
    b = np.bincount(y, minlength=N_CLASSES)
    return (int(b[0]), int(b[1]), int(b[2]))


def _grow(X: np.ndarray, y: np.ndarray, rng: np.random.Generator, m: int) -> list[tuple]:
    """One tree's nodes in pre-order. The stack pops each left subtree before
    its right sibling, so nodes draw their feature subsets in pre-order."""
    nodes: list[tuple] = []
    stack = [(X, y)]
    while stack:
        X, y = stack.pop()
        counts = _label_counts(y)
        n = len(y)
        best = None
        if max(counts) < n:  # impure, hence n >= 2
            candidates = np.sort(rng.choice(X.shape[1], size=m, replace=False)).tolist()
            best = _search(X, y, counts, candidates)
        if best is None:
            nodes.append(("l", counts[0] / n, counts[1] / n, counts[2] / n))
            continue
        _, feature, threshold = best
        nodes.append(("s", feature, threshold))
        mask = X[:, feature] <= threshold
        stack.append((X[~mask], y[~mask]))
        stack.append((X[mask], y[mask]))
    return nodes


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
    trees = []
    for t in range(hp.n_trees):
        rng = tree_rng(hp.seed, t)
        boot = rng.integers(0, n, size=n)
        trees.append(Tree.from_nodes(_grow(X[boot], y[boot], rng, m), d))
    return RandomForestModel(
        trees=tuple(trees),
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
        raise FingerprintMismatch(
            f"vector dim {len(fv.counts)} vs model dim {model.feature_dim}"
        )


def predict_proba(model: RandomForestModel, fv: FeatureVector) -> tuple[float, float, float]:
    """Mean of the leaf class distributions reached across all trees."""
    _check_vector(model, fv)
    x = fv.counts
    s0 = s1 = s2 = 0.0
    for tree in model.trees:
        leaf = _walk(tree, x)
        s0 += leaf[1]
        s1 += leaf[2]
        s2 += leaf[3]
    k = len(model.trees)
    return (s0 / k, s1 / k, s2 / k)


def label_of(probs: Sequence[float]) -> Label:
    """Argmax of a class-probability triple; ties break by class order."""
    best = 0
    if probs[1] > probs[best]:
        best = 1
    if probs[2] > probs[best]:
        best = 2
    return CLASS_ORDER[best]


def predict(model: RandomForestModel, fv: FeatureVector) -> Label:
    """Argmax of predict_proba; ties break by class order."""
    return label_of(predict_proba(model, fv))


# -- model selection and ranking ----------------------------------------------


def derive_seed(*parts: int) -> int:
    state = np.random.SeedSequence(list(parts)).generate_state(2)
    return int(state[0]) << 32 | int(state[1])


def stratified_folds(
    y: np.ndarray, n_folds: int, rng: np.random.Generator
) -> list[np.ndarray]:
    """Per-class shuffled round-robin assignment; proportions within +-1."""
    folds: list[list[int]] = [[] for _ in range(n_folds)]
    for c in range(N_CLASSES):
        idxs = np.flatnonzero(y == c)
        idxs = rng.permutation(idxs)
        for j, i in enumerate(idxs.tolist()):
            folds[j % n_folds].append(i)
    return [np.array(sorted(f), dtype=np.int64) for f in folds]


def best_grid_value(table: dict[int, float]) -> int:
    """The grid value with the highest CV accuracy; ties go to the smaller value."""
    best_value, best_acc = None, -1.0
    for v in sorted(table):
        if table[v] > best_acc:
            best_value, best_acc = v, table[v]
    return best_value


def cv_accuracy_table(
    data: LabeledDataset,
    grid: Sequence[int],
    seed: int = 0,
    n_folds: int = 10,
) -> dict[int, float]:
    """Mean stratified-CV accuracy per grid value.

    Folds whose training partition degenerates to a single class are skipped
    from the average.
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
    _, y = data.to_arrays()
    folds = stratified_folds(y, n_folds, np.random.default_rng((seed, 101)))
    all_idx = np.arange(len(data))
    table: dict[int, float] = {}
    for v in values:
        accs = []
        for k, fold in enumerate(folds):
            if fold.size == 0:
                continue
            train_mask = np.ones(len(data), dtype=bool)
            train_mask[fold] = False
            train = data.subset(all_idx[train_mask].tolist())
            if sum(1 for c in train.class_counts() if c > 0) < 2:
                continue
            model = train_forest(train, Hyperparams(n_trees=v, seed=derive_seed(seed, v, k)))
            test = data.subset(fold.tolist())
            hits = sum(1 for s in test if predict(model, s.features) is s.label)
            accs.append(hits / len(test))
        if not accs:
            raise TooFewSamples("no usable CV fold")
        table[v] = sum(accs) / len(accs)
    return table


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
        total = ds.class_counts()
        h_total = _entropy_of(total)
        for f in range(d):
            res = _best_for_feature(X[:, f], y, total, h_total)
            if res is not None:
                sums[f] += res[0]
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
    except (json.JSONDecodeError, RecursionError) as exc:
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
    if not isinstance(feature_dim, int) or feature_dim < 1:
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
