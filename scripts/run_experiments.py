#!/usr/bin/env python3
"""Run the three experiment protocols end to end on synthetic corpora.

Reproduces the desk-scale evaluation at all three granularities and writes
JSON reports plus a console summary:

    python scripts/run_experiments.py --out results/ --seed 7 --per-class 300
"""

import argparse
import time
from datetime import date
from pathlib import Path

from apksift.evaluation import (
    TemporalSplitSpec,
    dataset_from_invoke_samples,
    emit_report,
    obfuscation_eval,
    random_split_eval,
    temporal_eval,
)
from apksift.obfuscation import ObfuscationKind, default_transform
from apksift.reference import Granularity
from apksift.synth import (
    DEFAULT_TEMPORAL_BINS,
    EXPERIMENT_VOCAB,
    generate_corpus,
    generate_temporal_corpus,
    reference_from_vocab,
    temporal_vocab,
)

GRANULARITIES = (Granularity.Package, Granularity.Class, Granularity.Method)


def run_random_split(out: Path, seed: int, per_class: int) -> None:
    print(f"== repeated 50/50 splits ({per_class} samples/class, 5 repeats)")
    samples = generate_corpus(n_per_class=per_class, seed=seed)
    for g in GRANULARITIES:
        ref = reference_from_vocab(EXPERIMENT_VOCAB, g)
        data = dataset_from_invoke_samples(samples, ref)
        t0 = time.perf_counter()
        report = random_split_eval(data, repeats=5, seed=seed, grid=(10, 30))
        dt = time.perf_counter() - t0
        emit_report(report, "text", out / f"random_split_{g.value}.json")
        r = report.mean["ransomware_vs_benign:tpr_at_0.01_fpr"]
        m = report.mean["malware_vs_benign:tpr_at_0.01_fpr"]
        rs = report.std["ransomware_vs_benign:tpr_at_0.01_fpr"]
        print(
            f"  {g.value:8s} ransomware TPR@1%FPR {r:.4f}±{rs:.4f}  "
            f"malware TPR@1%FPR {m:.4f}  ({dt:.1f}s)"
        )


def run_temporal(out: Path, seed: int) -> None:
    print("== temporal evaluation (training cutoff 2016-12-31, drifting 2017 bins)")
    corpus = generate_temporal_corpus(seed=seed)
    spec = TemporalSplitSpec(
        d_tr=date(2016, 12, 31),
        bins=tuple((b.label, b.start, b.end) for b in DEFAULT_TEMPORAL_BINS),
    )
    for g in GRANULARITIES:
        ref = reference_from_vocab(temporal_vocab(), g)
        data = dataset_from_invoke_samples(corpus, ref)
        report = temporal_eval(data, spec, seed=seed, n_trees=50)
        emit_report(report, "text", out / f"temporal_{g.value}.json")
        bins = "  ".join(
            f"{b.label}={b.detection_rate:.3f}" if b.detection_rate is not None else f"{b.label}=n/a"
            for b in report.bins
        )
        print(f"  {g.value:8s} {bins}  overall={report.overall_detection_rate:.3f}")


def run_obfuscation(out: Path, seed: int, per_class: int) -> None:
    print("== obfuscation robustness (detection of transformed ransomware)")
    samples = generate_corpus(n_per_class=per_class, seed=seed)
    for g in GRANULARITIES:
        ref = reference_from_vocab(EXPERIMENT_VOCAB, g)
        line = [f"  {g.value:8s}"]
        for kind in ObfuscationKind:
            t = default_transform(kind, seed=seed)
            base = obfuscation_eval(samples, ref, t, plus_one=False, seed=seed)
            emit_report(base, "text", out / f"obfuscation_{kind.value}_{g.value}.json")
            cell = f"{kind.value}={base.detection_rate:.3f}"
            if kind is ObfuscationKind.ClassEncryption:
                plus = obfuscation_eval(samples, ref, t, plus_one=True, seed=seed)
                emit_report(
                    plus, "text", out / f"obfuscation_{kind.value}_plus_one_{g.value}.json"
                )
                cell += f" (+1: {plus.detection_rate:.3f})"
            line.append(cell)
        print("  ".join(line))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="results")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--per-class", type=int, default=300)
    parser.add_argument(
        "--skip", nargs="*", default=[], choices=["random", "temporal", "obfuscation"]
    )
    args = parser.parse_args()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    t0 = time.perf_counter()
    if "random" not in args.skip:
        run_random_split(out, args.seed, args.per_class)
    if "temporal" not in args.skip:
        run_temporal(out, args.seed)
    if "obfuscation" not in args.skip:
        run_obfuscation(out, args.seed, min(args.per_class, 100))
    print(f"done in {time.perf_counter() - t0:.1f}s; reports in {out}/")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
