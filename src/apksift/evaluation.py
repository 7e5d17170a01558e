"""Experiment protocols: repeated random splits with ROC analysis, temporal
evaluation at a fixed false-positive operating point, and obfuscation
robustness.

Protocol invariants enforced here rather than assumed: train/test id sets
are disjoint in every protocol, stratified splits preserve per-class
proportions within one sample, and each ROC curve is monotone with rates in
[0, 1]. Stratified splits here and the CV folds that choose n_trees share
one per-class draw, forest.shuffled_by_class. Averaged ROC curves across
repeats use vertical averaging (mean TPR on a fixed FPR grid); per-repeat
curves are always reported alongside, and the choice is recorded in the
report notes.
"""

from __future__ import annotations

import csv
import json
import logging
import time
from dataclasses import dataclass, field, fields, is_dataclass
from datetime import date
from functools import partial
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import __version__
from .errors import (
    ApksiftError,
    ConfigError,
    EmptyBin,
    MissingClass,
    TooFewSamples,
    UsageError,
)
from .features import caller_split, extract_features, extract_from_sample, obfuscated_vector
from .forest import (
    CLASS_INDEX,
    Hyperparams,
    Label,
    LabeledDataset,
    LabeledSample,
    RandomForestModel,
    best_grid_value,
    cv_accuracy_table,
    derive_seed,
    predict_probas,
    shuffled_by_class,
    train_forest,
)
from .invokes import InvokeSite
from .obfuscation import ObfuscationTransform
from .reference import ApiReferenceList

logger = logging.getLogger(__name__)

RANSOMWARE_CURVE = "ransomware_vs_benign"
MALWARE_CURVE = "malware_vs_benign"

# share of the temporal training partition held out to fit the threshold
HOLDOUT_FRACTION = 0.2


# ---------------------------------------------------------------------------
# samples carried at the invoke-list level (synthetic corpora)


@dataclass(frozen=True)
class InvokeSample:
    """A labeled sample still in invoke-list form."""

    sample_id: str
    label: Label
    first_seen: date | None
    invokes: tuple[InvokeSite, ...]


def dataset_from_invoke_samples(
    samples: Iterable[InvokeSample], ref: ApiReferenceList
) -> LabeledDataset:
    return LabeledDataset(
        LabeledSample(s.sample_id, extract_features(s.invokes, ref), s.label, s.first_seen)
        for s in samples
    )


# ---------------------------------------------------------------------------
# ROC machinery


@dataclass(frozen=True)
class RocPoint:
    threshold: float
    fpr: float
    tpr: float


@dataclass(frozen=True)
class RocCurve:
    """Threshold sweep, sorted by descending threshold; fpr/tpr non-decreasing."""

    points: tuple[RocPoint, ...]

    def validate(self) -> None:
        if not self.points:
            raise ValueError("empty ROC curve")
        prev_t, prev_f, prev_d = float("inf"), -1.0, -1.0
        for p in self.points:
            if not (0.0 <= p.fpr <= 1.0 and 0.0 <= p.tpr <= 1.0):
                raise ValueError(f"rate out of range at threshold {p.threshold}")
            if p.threshold >= prev_t or p.fpr < prev_f or p.tpr < prev_d:
                raise ValueError(f"non-monotone curve at threshold {p.threshold}")
            prev_t, prev_f, prev_d = p.threshold, p.fpr, p.tpr
        last = self.points[-1]
        if last.fpr != 1.0 or last.tpr != 1.0:
            raise ValueError("curve does not end at (1, 1)")

    def within_fpr(self, target_fpr: float) -> RocPoint | None:
        """The last point with fpr <= target (None if none qualify): the
        highest TPR and the lowest threshold within that budget."""
        return next((p for p in reversed(self.points) if p.fpr <= target_fpr), None)

    def tpr_at_fpr(self, target_fpr: float) -> float:
        """Max TPR among points with fpr <= target (0.0 if none qualify)."""
        point = self.within_fpr(target_fpr)
        return 0.0 if point is None else point.tpr

    def auc(self) -> float:
        xs = [0.0] + [p.fpr for p in self.points]
        ys = [0.0] + [p.tpr for p in self.points]
        area = 0.0
        for i in range(1, len(xs)):
            area += (xs[i] - xs[i - 1]) * (ys[i] + ys[i - 1]) / 2.0
        return area


def roc_from_scores(scores: Sequence[float], positive: Sequence[bool]) -> RocCurve:
    """Sweep every distinct score as a threshold (classify as positive when
    score >= threshold), prefixed by a sentinel above the maximum score so
    the curve starts at (0, 0). Each threshold's rates are the cumulative
    TP and FP counts at the last row of its tie group, in descending score
    order."""
    pos = np.asarray(positive, dtype=bool)
    n_pos = int(np.count_nonzero(pos))
    n_neg = len(pos) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise MissingClass(f"need both positives and negatives ({n_pos} pos, {n_neg} neg)")
    s = np.asarray(scores, dtype=np.float64)
    order = np.argsort(-s, kind="stable")
    s, tp = s[order], np.cumsum(pos[order])
    last = np.flatnonzero(np.append(s[1:] != s[:-1], True))
    fp = last + 1 - tp[last]
    sentinel = RocPoint(float(s[0] + 1.0), 0.0, 0.0)
    sweep = map(RocPoint, s[last].tolist(), (fp / n_neg).tolist(), (tp[last] / n_pos).tolist())
    curve = RocCurve((sentinel, *sweep))
    curve.validate()
    return curve


def roc_one_vs_benign(
    model: RandomForestModel, test: LabeledDataset, positive_class: Label
) -> RocCurve:
    """ROC over {positive_class} union {Trusted}; the third class is excluded."""
    if positive_class not in (Label.Ransomware, Label.GenericMalware):
        raise ValueError(f"positive class must be a malicious class, got {positive_class}")
    rows = [s for s in test if s.label is positive_class or s.label is Label.Trusted]
    scores = predict_probas(model, [s.features for s in rows])[:, CLASS_INDEX[positive_class]]
    return roc_from_scores(scores, [s.label is positive_class for s in rows])


def operating_point(curve: RocCurve, target_fpr: float = 0.01) -> float:
    """Deployment threshold at a false-positive budget.

    The smallest threshold whose fpr still fits the budget (detection is
    non-increasing in the threshold, so this maximizes TPR); if no point
    meets the budget, fall back to the highest threshold on the curve.
    """
    return (curve.within_fpr(target_fpr) or curve.points[0]).threshold


# ---------------------------------------------------------------------------
# stratified splitting


def stratified_split_indices(
    labels: Sequence[Label], fraction: float, rng: np.random.Generator
) -> tuple[list[int], list[int]]:
    """Per-class split preserving proportions within one sample: the first
    round(n * fraction) rows of each class's shuffled_by_class order train,
    and a class of two or more keeps a row on each side."""
    y = np.array([CLASS_INDEX[label] for label in labels], dtype=np.int8)
    train: list[int] = []
    test: list[int] = []
    for idxs in shuffled_by_class(y, rng):
        n_train = round(len(idxs) * fraction)
        n_train = min(max(n_train, 1), len(idxs) - 1) if len(idxs) >= 2 else n_train
        train += idxs[:n_train].tolist()
        test += idxs[n_train:].tolist()
    return sorted(train), sorted(test)


def split_dataset(
    data: LabeledDataset, fraction: float, rng: np.random.Generator
) -> tuple[LabeledDataset, LabeledDataset]:
    if not 0.0 < fraction < 1.0:
        raise ConfigError(f"split fraction {fraction} is not strictly between 0 and 1")
    labels = [s.label for s in data]
    train_idx, test_idx = stratified_split_indices(labels, fraction, rng)
    empty = [side for side, idx in (("train", train_idx), ("test", test_idx)) if not idx]
    if empty:
        raise TooFewSamples(f"split fraction {fraction} leaves the {empty[0]} side empty")
    train, test = data.subset(train_idx), data.subset(test_idx)
    if train.ids() & test.ids():
        raise ConfigError("train/test id overlap after split")
    return train, test


def repeat_split(
    data: LabeledDataset, fraction: float, seed: int, repeat: int
) -> tuple[LabeledDataset, LabeledDataset]:
    """The stratified split of repeat ``repeat``, drawn from its own (seed, repeat) stream."""
    return split_dataset(data, fraction, np.random.default_rng((seed, repeat, 7)))


# ---------------------------------------------------------------------------
# reports

FPR_GRID = tuple(i / 100 for i in range(101))

_AVERAGING_NOTE = (
    "averaged curves use vertical averaging: mean TPR across repeats at a "
    "fixed FPR grid; per-repeat curves are reported verbatim"
)


@dataclass(frozen=True)
class RepeatResult:
    repeat: int
    n_trees: int
    metrics: dict[str, float]
    curves: dict[str, RocCurve]


@dataclass(frozen=True)
class _Report:
    """The fields every protocol's report shares."""

    protocol: str
    tool_version: str
    seed: int
    reference_fingerprint: str
    params: dict
    notes: tuple[str, ...]
    runtime_seconds: float = field(compare=False)


@dataclass(frozen=True)
class RandomSplitReport(_Report):
    repeats: tuple[RepeatResult, ...]
    mean: dict[str, float]
    std: dict[str, float]  # empty when repeats == 1
    averaged_curves: dict[str, tuple[tuple[float, float], ...]]


@dataclass(frozen=True)
class BinResult:
    label: str
    start: date
    end: date
    n_samples: int
    n_detected: int
    detection_rate: float | None  # None for an empty bin
    empty: bool


@dataclass(frozen=True)
class TemporalReport(_Report):
    threshold: float
    n_trees: int
    bins: tuple[BinResult, ...]
    overall_detection_rate: float | None


@dataclass(frozen=True)
class ObfuscationReport(_Report):
    transform_kind: str
    plus_one: bool
    injected_id: str | None
    n_transformed: int
    n_detected: int
    detection_rate: float


def _check_target_fpr(target_fpr: float) -> None:
    if not 0.0 <= target_fpr <= 1.0:  # also rejects NaN
        raise ConfigError(f"target FPR {target_fpr} is not in [0, 1]")


# ---------------------------------------------------------------------------
# protocol 1: repeated random splits


def random_split_eval(
    data: LabeledDataset,
    fraction: float = 0.5,
    repeats: int = 5,
    seed: int = 0,
    grid: Sequence[int] = (10, 25, 50),
    target_fpr: float = 0.01,
    cv_folds: int = 10,
) -> RandomSplitReport:
    """Stratified split, per-split n_trees selection, two ROC curves per repeat."""
    t0 = time.perf_counter()
    _check_target_fpr(target_fpr)
    if repeats < 1:
        raise ConfigError(f"repeats {repeats} < 1")
    counts = data.class_counts()
    if any(c < 2 for c in counts):
        raise TooFewSamples(f"every class needs >= 2 samples, got {counts}")
    repeat_results: list[RepeatResult] = []
    for r in range(repeats):
        train, test = repeat_split(data, fraction, seed, r)
        n_trees = best_grid_value(
            cv_accuracy_table(train, grid, seed=derive_seed(seed, r, 11), n_folds=cv_folds)
        )
        model = train_forest(train, Hyperparams(n_trees=n_trees, seed=derive_seed(seed, r, 13)))
        curves = {
            RANSOMWARE_CURVE: roc_one_vs_benign(model, test, Label.Ransomware),
            MALWARE_CURVE: roc_one_vs_benign(model, test, Label.GenericMalware),
        }
        metrics: dict[str, float] = {}
        for name, curve in curves.items():
            metrics[f"{name}:tpr_at_{target_fpr:g}_fpr"] = curve.tpr_at_fpr(target_fpr)
            metrics[f"{name}:auc"] = curve.auc()
        repeat_results.append(RepeatResult(r, n_trees, metrics, curves))

    metric_names = sorted(repeat_results[0].metrics)
    mean = {
        name: sum(rr.metrics[name] for rr in repeat_results) / len(repeat_results)
        for name in metric_names
    }
    std: dict[str, float] = {}
    if repeats > 1:
        for name in metric_names:
            values = [rr.metrics[name] for rr in repeat_results]
            std[name] = float(np.std(values, ddof=1))
    averaged = {}
    for name in (RANSOMWARE_CURVE, MALWARE_CURVE):
        averaged[name] = tuple(
            (
                f,
                sum(rr.curves[name].tpr_at_fpr(f) for rr in repeat_results)
                / len(repeat_results),
            )
            for f in FPR_GRID
        )
    return RandomSplitReport(
        protocol="random-split",
        tool_version=__version__,
        seed=seed,
        reference_fingerprint=data.reference_fingerprint,
        params={
            "fraction": fraction,
            "repeats": repeats,
            "grid": list(sorted(set(int(g) for g in grid))),
            "target_fpr": target_fpr,
            "cv_folds": cv_folds,
        },
        repeats=tuple(repeat_results),
        mean=mean,
        std=std,
        averaged_curves=averaged,
        notes=(_AVERAGING_NOTE,),
        runtime_seconds=time.perf_counter() - t0,
    )


# ---------------------------------------------------------------------------
# protocol 2: temporal evaluation


@dataclass(frozen=True)
class TemporalSplitSpec:
    """Training cutoff plus post-cutoff test bins (every bin after d_tr)."""

    d_tr: date
    bins: tuple[tuple[str, date, date], ...]

    def __post_init__(self):
        for label, start, end in self.bins:
            if start <= self.d_tr:
                raise ConfigError(f"bin {label!r} starts {start}, not after {self.d_tr}")
            if end < start:
                raise ConfigError(f"bin {label!r} ends {end} before it starts {start}")


def temporal_eval(
    data: LabeledDataset,
    spec: TemporalSplitSpec,
    target_fpr: float = 0.01,
    seed: int = 0,
    n_trees: int = 50,
) -> TemporalReport:
    """Train once on the pre-cutoff partition; report per-bin detection.

    Training keeps every trusted and generic-malware sample plus ransomware
    first seen on or before d_tr. The ransomware decision threshold is the
    operating point at target_fpr fitted on a stratified holdout carved out
    of the training partition (the model never sees the holdout); each bin
    then reports the fraction of its ransomware scored at or above it.
    """
    t0 = time.perf_counter()
    _check_target_fpr(target_fpr)
    train_samples: list[LabeledSample] = []
    for s in data:
        if s.label is not Label.Ransomware:
            train_samples.append(s)
        else:
            if s.first_seen is None:
                raise ConfigError(f"ransomware sample {s.sample_id} lacks first_seen")
            if s.first_seen <= spec.d_tr:
                train_samples.append(s)
    if not train_samples:
        raise TooFewSamples("empty training partition")
    train_ids = {s.sample_id for s in train_samples}

    bin_members: list[list[LabeledSample]] = []
    for label, start, end in spec.bins:
        members = [
            s
            for s in data
            if s.label is Label.Ransomware
            and s.first_seen is not None
            and start <= s.first_seen <= end
        ]
        overlap = {s.sample_id for s in members} & train_ids
        if overlap:
            raise ConfigError(f"bin {label!r} overlaps training ids: {sorted(overlap)[:5]}")
        bin_members.append(members)

    partition = LabeledDataset(train_samples)
    rng = np.random.default_rng((seed, 17))
    fit_part, holdout = split_dataset(partition, 1.0 - HOLDOUT_FRACTION, rng)
    model = train_forest(fit_part, Hyperparams(n_trees=n_trees, seed=derive_seed(seed, 19)))
    curve = roc_one_vs_benign(model, holdout, Label.Ransomware)
    threshold = operating_point(curve, target_fpr)

    pos_idx = CLASS_INDEX[Label.Ransomware]
    results: list[BinResult] = []
    total = detected_total = 0
    for (label, start, end), members in zip(spec.bins, bin_members):
        if not members:
            logger.warning("temporal bin %r is empty", label)
            results.append(BinResult(label, start, end, 0, 0, None, True))
            continue
        scores = predict_probas(model, [s.features for s in members])[:, pos_idx]
        detected = int(np.count_nonzero(scores >= threshold))
        results.append(
            BinResult(label, start, end, len(members), detected, detected / len(members), False)
        )
        total += len(members)
        detected_total += detected
    return TemporalReport(
        protocol="temporal",
        tool_version=__version__,
        seed=seed,
        reference_fingerprint=data.reference_fingerprint,
        params={
            "d_tr": spec.d_tr.isoformat(),
            "target_fpr": target_fpr,
            "holdout_fraction": HOLDOUT_FRACTION,
            "n_trees": n_trees,
        },
        threshold=threshold,
        n_trees=n_trees,
        bins=tuple(results),
        overall_detection_rate=(detected_total / total) if total else None,
        notes=(
            "threshold fitted on a stratified holdout of the training partition; "
            "the model is trained once on the remainder and reused across bins",
        ),
        runtime_seconds=time.perf_counter() - t0,
    )


# ---------------------------------------------------------------------------
# protocol 3: obfuscation robustness


def obfuscation_eval(
    data: LabeledDataset,
    platform: Mapping,
    ref: ApiReferenceList,
    t: ObfuscationTransform,
    plus_one: bool,
    seed: int = 0,
    n_trees: int = 50,
) -> ObfuscationReport:
    """Train on originals, classify every ransomware sample as obfuscated_vector
    transforms it by t; ``platform`` maps each id to its platform-caller vector.

    With plus_one, exactly one transformed sample (seeded choice) joins the
    training set labeled Ransomware, mirroring a single-sample injection.
    The report's transform_kind is t's kind.
    """
    t0 = time.perf_counter()
    transformed = {
        s.sample_id: obfuscated_vector(s.features, platform[s.sample_id], t, ref)
        for s in data
        if s.label is Label.Ransomware
    }
    if not transformed:
        raise EmptyBin("ransomware")

    train_rows = list(data)
    injected_id = None
    if plus_one:
        rng = np.random.default_rng((seed, 23))
        injected_id = list(transformed)[int(rng.integers(len(transformed)))]
        # load_manifest rejects a NUL byte in a path, so no loaded id is this one
        train_rows.append(
            LabeledSample(f"{injected_id}\0obf", transformed[injected_id], Label.Ransomware)
        )
    train = LabeledDataset(train_rows)
    model = train_forest(train, Hyperparams(n_trees=n_trees, seed=derive_seed(seed, 29)))
    labels = predict_probas(model, list(transformed.values())).argmax(axis=1)
    detected = int(np.count_nonzero(labels == CLASS_INDEX[Label.Ransomware]))
    return ObfuscationReport(
        protocol="obfuscation",
        tool_version=__version__,
        seed=seed,
        reference_fingerprint=ref.fingerprint,
        params={"n_trees": n_trees, "plus_one": plus_one},
        transform_kind=t.kind.value,
        plus_one=plus_one,
        injected_id=injected_id,
        n_transformed=len(transformed),
        n_detected=detected,
        detection_rate=detected / len(transformed),
        notes=(),
        runtime_seconds=time.perf_counter() - t0,
    )


# ---------------------------------------------------------------------------
# report serialization


def _encode(value):
    """JSON-ready form of a report value; a RocCurve is [[threshold, fpr, tpr], ...]."""
    if isinstance(value, RocCurve):
        return [[p.threshold, p.fpr, p.tpr] for p in value.points]
    if is_dataclass(value):
        return {f.name: _encode(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, dict):
        return {k: _encode(v) for k, v in value.items()}
    if isinstance(value, (tuple, list)):
        return [_encode(v) for v in value]
    if isinstance(value, date):
        return value.isoformat()
    return value


def _csv_rows(report) -> tuple[list[str], list[list]]:
    if isinstance(report, RandomSplitReport):
        header = ["repeat", "curve", "threshold", "fpr", "tpr"]
        rows = []
        for rr in report.repeats:
            for name in sorted(rr.curves):
                for p in rr.curves[name].points:
                    rows.append([rr.repeat, name, repr(p.threshold), repr(p.fpr), repr(p.tpr)])
        return header, rows
    if isinstance(report, TemporalReport):
        header = ["bin", "start", "end", "n_samples", "n_detected", "detection_rate"]
        rows = [
            [
                b.label,
                b.start.isoformat(),
                b.end.isoformat(),
                b.n_samples,
                b.n_detected,
                "" if b.detection_rate is None else repr(b.detection_rate),
            ]
            for b in report.bins
        ]
        return header, rows
    if isinstance(report, ObfuscationReport):
        header = ["transform", "plus_one", "n_transformed", "n_detected", "detection_rate"]
        rows = [
            [
                report.transform_kind,
                report.plus_one,
                report.n_transformed,
                report.n_detected,
                repr(report.detection_rate),
            ]
        ]
        return header, rows
    raise UsageError(f"unknown report type {type(report).__name__}")


def emit_report(report, fmt: str, path) -> None:
    """Write a report file; fmt is 'csv' or 'text' (JSON structured text)."""
    if fmt == "text":
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            json.dump(_encode(report), fh, indent=2, sort_keys=True)
            fh.write("\n")
        return
    if fmt == "csv":
        header, rows = _csv_rows(report)
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)
        return
    raise UsageError(f"unknown report format {fmt!r}")


# ---------------------------------------------------------------------------
# dataset manifests


@dataclass(frozen=True)
class ManifestRow:
    path: str
    label: Label
    first_seen: date | None


def load_labeled_dataset(
    manifest_path,
    ref: ApiReferenceList,
    strict: bool = False,
    skip_errors: bool = False,
) -> tuple[LabeledDataset, int]:
    """Extract features for every manifest row; returns (dataset, n_skipped).

    Rows may point at apks or invoke-list fixtures (told apart by file
    suffix), relative to the manifest's directory. With skip_errors,
    unanalyzable rows are logged and dropped instead of aborting.
    """
    loaded, skipped = _load_rows(
        manifest_path, partial(extract_from_sample, ref=ref, strict=strict), skip_errors
    )
    samples = (LabeledSample(row.path, fv, row.label, row.first_seen) for row, fv in loaded)
    return LabeledDataset(samples), skipped


def _load_rows(manifest_path, load, skip_errors: bool) -> tuple[list, int]:
    """([(row, load(path relative to the manifest))], n_skipped); with skip_errors,
    a row whose load raises ApksiftError or OSError is logged and dropped
    instead of aborting."""
    base = Path(manifest_path).parent
    rows = load_manifest(manifest_path)
    loaded = []
    for row in rows:
        try:
            loaded.append((row, load(base / row.path)))
        except (ApksiftError, OSError) as exc:
            if not skip_errors:
                raise
            logger.warning("skipping %s: %s", row.path, exc)
    if not loaded:
        raise TooFewSamples(f"{manifest_path}: no analyzable rows")
    return loaded, len(rows) - len(loaded)


def load_obfuscation_dataset(manifest_path, ref: ApiReferenceList) -> tuple[LabeledDataset, dict]:
    """load_labeled_dataset(skip_errors=True), and each row's platform vector, in one read."""
    loaded, _ = _load_rows(manifest_path, partial(caller_split, ref=ref), True)
    samples = (LabeledSample(r.path, every, r.label, r.first_seen) for r, (every, _) in loaded)
    return LabeledDataset(samples), {r.path: platform for r, (_, platform) in loaded}


def load_manifest(path) -> list[ManifestRow]:
    """Parse a `path,label,first_seen,family` CSV; paths stay as written and
    must be unique. Every row needs its path and label fields; the
    first_seen and family columns are optional, and family is not read."""
    rows: list[ManifestRow] = []
    seen: set[str] = set()
    try:
        with open(path, "r", encoding="utf-8-sig", newline="") as fh:
            reader = csv.DictReader(fh)
            required = {"path", "label"}
            if reader.fieldnames is None or not required.issubset(reader.fieldnames):
                raise ConfigError(f"{path}: manifest needs columns path,label[,first_seen,family]")
            for row in reader:
                lineno = reader.line_num  # blank lines and quoted newlines count
                if row["path"] is None or row["label"] is None:
                    raise ConfigError(f"{path}:{lineno}: row has no path or label field")
                sample_path = row["path"].strip()
                if "\0" in sample_path:
                    raise ConfigError(f"{path}:{lineno}: NUL byte in path")
                if sample_path in seen:
                    raise ConfigError(f"{path}:{lineno}: duplicate path {sample_path!r}")
                seen.add(sample_path)
                try:
                    label = Label(row["label"].strip().lower())
                except ValueError:
                    raise ConfigError(
                        f"{path}:{lineno}: unknown label {row['label']!r}"
                    ) from None
                raw_date = (row.get("first_seen") or "").strip()
                try:
                    first_seen = date.fromisoformat(raw_date) if raw_date else None
                except ValueError:
                    raise ConfigError(f"{path}:{lineno}: bad first_seen {raw_date!r}") from None
                rows.append(ManifestRow(sample_path, label, first_seen))
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 ({exc.reason})") from None
    except csv.Error as exc:
        raise ConfigError(f"{path}: {exc}") from None
    return rows
