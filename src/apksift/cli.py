"""Command-line surface: scan, extract, train, the experiment protocols,
feature ranking and model inspection.

Exit codes separate classification outcomes from operational failures so
shell pipelines can triage: 0 trusted, 10 generic malware, 11 ransomware;
2 usage/configuration error, 3 parse failure, 4 reference-fingerprint
mismatch, by error class as the ``errors`` module docstring states.
Machine-readable results go to stdout, diagnostics to stderr.

The ``APKSIFT_REFERENCE_DIR`` environment variable supplies a default
directory of reference lists (packages.txt / classes.txt / methods.txt)
used when --reference is not given.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from datetime import date
from pathlib import Path

from . import __version__
from .errors import ApksiftError, FingerprintMismatch, SingleClassData, UsageError
from .evaluation import (
    TemporalSplitSpec,
    emit_report,
    load_labeled_dataset,
    load_obfuscation_dataset,
    obfuscation_eval,
    random_split_eval,
    repeat_split,
    temporal_eval,
)
from .features import extract_from_sample, write_features_csv
from .forest import (
    CLASS_ORDER,
    FIXED_HYPERPARAMS,
    MODEL_FORMAT_VERSION,
    Hyperparams,
    Label,
    best_grid_value,
    cv_accuracy_table,
    label_of,
    load_model,
    predict_proba,
    rank_features,
    save_model,
    split_counts_by_feature,
    train_forest,
)
from .obfuscation import ObfuscationKind, ObfuscationTransform, default_transform
from .reference import REFERENCE_FILENAMES, Granularity, load_reference
from .invokes import load_invoke_list_text

logger = logging.getLogger("apksift")

EXIT_BY_LABEL = {Label.Trusted: 0, Label.GenericMalware: 10, Label.Ransomware: 11}
EXIT_USAGE = 2
EXIT_PARSE = 3
EXIT_FINGERPRINT = 4

REFERENCE_ENV = "APKSIFT_REFERENCE_DIR"


def _resolve_reference(args):
    if args.reference:
        g = Granularity.from_token(args.granularity) if args.granularity else None
        return load_reference(args.reference, g)
    env_dir = os.environ.get(REFERENCE_ENV)
    if not env_dir:
        raise UsageError(f"--reference not given and {REFERENCE_ENV} is unset")
    g = Granularity.from_token(args.granularity or "package")
    return load_reference(Path(env_dir) / REFERENCE_FILENAMES[g], g)


def _add_common(parser, seed=True, report=False):
    parser.add_argument("--reference", help="reference-list file")
    parser.add_argument(
        "--granularity",
        choices=[g.value for g in Granularity],
        help="expected granularity (header is trusted when omitted)",
    )
    if seed:
        parser.add_argument("--seed", type=int, default=0)
    if report:
        parser.add_argument("--out", default=".", help="output directory")
        parser.add_argument("--format", choices=["csv", "text"], default="text")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="apksift",
        description="Android ransomware/malware triage from System-API occurrence counts",
    )
    parser.add_argument("--version", action="version", version=f"apksift {__version__}")
    parser.add_argument("-v", "--verbose", action="store_true", help="info-level diagnostics")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("scan", help="classify one or more apks with a trained model")
    p.add_argument("apk", nargs="+", help="apk files (or invoke-list fixtures)")
    p.add_argument("--model", required=True)
    p.add_argument("--top", type=int, default=5, help="evidence features to print")
    p.add_argument("--strict-dex", action="store_true", help="verify DEX checksums")
    _add_common(p, seed=False)

    p = sub.add_parser("extract", help="extract feature vectors to CSV")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out-csv", required=True)
    p.add_argument("--strict-dex", action="store_true")
    _add_common(p, seed=False)

    p = sub.add_parser("train", help="train a forest from a manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out-model", required=True)
    p.add_argument("--grid", type=int, nargs="+", default=[10, 25, 50])
    p.add_argument("--cv-folds", type=int, default=10)
    p.add_argument("--strict-dex", action="store_true")
    _add_common(p)

    p = sub.add_parser("eval-random", help="repeated stratified splits with ROC analysis")
    p.add_argument("--manifest", required=True)
    p.add_argument("--fraction", type=float, default=0.5)
    p.add_argument("--repeats", type=int, default=5)
    p.add_argument("--grid", type=int, nargs="+", default=[10, 25, 50])
    p.add_argument("--target-fpr", type=float, default=0.01)
    _add_common(p, report=True)

    p = sub.add_parser("eval-temporal", help="train before a cutoff, test on later bins")
    p.add_argument("--manifest", required=True)
    p.add_argument("--train-cutoff", required=True, help="YYYY-MM-DD")
    p.add_argument(
        "--bin",
        action="append",
        required=True,
        metavar="LABEL:START:END",
        help="test bin (repeatable), dates ISO, strictly after the cutoff",
    )
    p.add_argument("--target-fpr", type=float, default=0.01)
    p.add_argument("--n-trees", type=int, default=50)
    _add_common(p, report=True)

    p = sub.add_parser("eval-obfuscation", help="robustness against simulated obfuscation")
    p.add_argument("--manifest", required=True)
    p.add_argument(
        "--kind",
        choices=[k.value for k in ObfuscationKind],
        default=ObfuscationKind.ClassEncryption.value,
    )
    p.add_argument("--plus-one", action="store_true", help="also report the one-injection rate")
    p.add_argument("--stub", help="override the stub profile (invoke-list file)")
    p.add_argument("--n-trees", type=int, default=50)
    _add_common(p, report=True)

    p = sub.add_parser("rank", help="rank features by mean information gain over splits")
    p.add_argument("--manifest", required=True)
    p.add_argument("--splits", type=int, default=5)
    p.add_argument("--fraction", type=float, default=0.5)
    p.add_argument("--top", type=int, default=25)
    _add_common(p)

    p = sub.add_parser("model-info", help="describe a model file")
    p.add_argument("--model", required=True)
    return parser


def cmd_scan(args) -> int:
    if args.top < 0:
        raise UsageError(f"--top {args.top} < 0")
    ref = _resolve_reference(args)
    model = load_model(args.model)
    if model.reference_fingerprint != ref.fingerprint:
        raise FingerprintMismatch(
            f"model {model.reference_fingerprint} vs reference {ref.fingerprint}"
        )
    split_counts = split_counts_by_feature(model)
    worst = 0
    for path in args.apk:
        fv = extract_from_sample(path, ref, strict=args.strict_dex)
        probs = predict_proba(model, fv)
        label = label_of(probs)
        worst = max(worst, EXIT_BY_LABEL[label])
        print(
            f"{path}\t{label.value}\t"
            f"trusted={probs[0]:.4f}\tmalware={probs[1]:.4f}\transomware={probs[2]:.4f}"
        )
        evidence = [
            (split_counts.get(i, 0), ref.entries[i], fv.counts[i])
            for i in range(len(ref.entries))
            if fv.counts[i] > 0
        ]
        evidence.sort(key=lambda e: (-e[0], e[1]))
        for rank_weight, key, count in evidence[: args.top]:
            print(f"  feature\t{key}\tcount={count}\tmodel_splits={rank_weight}")
    return worst


def cmd_extract(args) -> int:
    ref = _resolve_reference(args)
    dataset, skipped = load_labeled_dataset(
        args.manifest, ref, strict=args.strict_dex, skip_errors=True
    )
    if skipped:
        logger.warning("%d rows skipped", skipped)
    write_features_csv(
        ((s.sample_id, s.label.value, s.features) for s in dataset), ref, args.out_csv
    )
    print(f"wrote {len(dataset)} vectors to {args.out_csv}")
    return 0


def cmd_train(args) -> int:
    ref = _resolve_reference(args)
    dataset, skipped = load_labeled_dataset(
        args.manifest, ref, strict=args.strict_dex, skip_errors=True
    )
    if skipped:
        logger.warning("%d of %d rows unanalyzable and skipped", skipped, skipped + len(dataset))
    if sum(1 for c in dataset.class_counts() if c > 0) < 2:
        raise SingleClassData(f"manifest class counts {dataset.class_counts()}")
    table = cv_accuracy_table(dataset, args.grid, seed=args.seed, n_folds=args.cv_folds)
    for v in sorted(table):
        print(f"n_trees={v}\tcv_accuracy={table[v]:.4f}")
    chosen = best_grid_value(table)
    hp = Hyperparams(n_trees=chosen, seed=args.seed)
    model = train_forest(dataset, hp)
    save_model(model, args.out_model)
    print(f"chosen n_trees={chosen}")
    print(f"model written to {args.out_model} (fingerprint {model.reference_fingerprint})")
    return 0


def _write_report(report, args, stem: str) -> None:
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    ext = "json" if args.format == "text" else "csv"
    path = out_dir / f"{stem}.{ext}"
    emit_report(report, args.format, path)
    print(f"report written to {path}")


def cmd_eval_random(args) -> int:
    ref = _resolve_reference(args)
    dataset, _ = load_labeled_dataset(args.manifest, ref, skip_errors=True)
    report = random_split_eval(
        dataset,
        fraction=args.fraction,
        repeats=args.repeats,
        seed=args.seed,
        grid=args.grid,
        target_fpr=args.target_fpr,
    )
    for name in sorted(report.mean):
        line = f"{name}\tmean={report.mean[name]:.4f}"
        if report.std:
            line += f"\tstd={report.std[name]:.4f}"
        print(line)
    _write_report(report, args, "random_split_report")
    return 0


def _parse_bins(tokens) -> list[tuple[str, str, str]]:
    out = []
    for token in tokens:
        parts = token.split(":")
        if len(parts) != 3:
            raise UsageError(f"--bin expects LABEL:START:END, got {token!r}")
        out.append((parts[0], parts[1], parts[2]))
    return out


def cmd_eval_temporal(args) -> int:
    try:
        d_tr = date.fromisoformat(args.train_cutoff)
        bins = tuple(
            (label, date.fromisoformat(start), date.fromisoformat(end))
            for label, start, end in _parse_bins(args.bin)
        )
    except ValueError as exc:
        raise UsageError(f"bad date: {exc}") from exc
    spec = TemporalSplitSpec(d_tr=d_tr, bins=bins)
    ref = _resolve_reference(args)
    dataset, _ = load_labeled_dataset(args.manifest, ref, skip_errors=True)
    report = temporal_eval(
        dataset, spec, target_fpr=args.target_fpr, seed=args.seed, n_trees=args.n_trees
    )
    for b in report.bins:
        rate = "n/a (empty)" if b.detection_rate is None else f"{b.detection_rate:.4f}"
        print(f"bin={b.label}\tn={b.n_samples}\tdetection_rate={rate}")
    _write_report(report, args, "temporal_report")
    return 0


def cmd_eval_obfuscation(args) -> int:
    kind = ObfuscationKind(args.kind)
    if args.stub and kind is ObfuscationKind.StringEncryption:
        raise UsageError(f"--stub does not apply to --kind {kind.value}: it injects no System API")
    ref = _resolve_reference(args)
    data, platform = load_obfuscation_dataset(args.manifest, ref)
    if args.stub:
        t = ObfuscationTransform(kind, tuple(load_invoke_list_text(args.stub)), args.seed)
    else:
        t = default_transform(kind, args.seed)
    arms = [False, True] if args.plus_one else [False]
    for plus_one in arms:
        report = obfuscation_eval(
            data, platform, ref, t, plus_one=plus_one, seed=args.seed, n_trees=args.n_trees
        )
        tag = "plus_one" if plus_one else "baseline"
        print(f"{kind.value}\t{tag}\tdetection_rate={report.detection_rate:.4f}")
        _write_report(report, args, f"obfuscation_{kind.value.replace('-', '_')}_{tag}")
    return 0


def cmd_rank(args) -> int:
    if args.splits < 1:
        raise UsageError(f"--splits {args.splits} < 1")
    if args.top < 0:
        raise UsageError(f"--top {args.top} < 0")
    ref = _resolve_reference(args)
    dataset, _ = load_labeled_dataset(args.manifest, ref, skip_errors=True)
    halves = [repeat_split(dataset, args.fraction, args.seed, r)[0] for r in range(args.splits)]
    ranking = rank_features(halves)
    print("rank\tfeature\tmean_information_gain")
    for pos, (idx, gain) in enumerate(ranking[: args.top], start=1):
        print(f"{pos}\t{ref.entries[idx]}\t{gain:.6f}")
    return 0


def cmd_model_info(args) -> int:
    model = load_model(args.model)
    hp = model.hyperparams
    n_nodes = sum(len(tree.nodes) for tree in model.trees)
    print(f"format_version\t{MODEL_FORMAT_VERSION}")
    print(f"tool_version\t{__version__}")
    print(f"classes\t{','.join(l.value for l in CLASS_ORDER)}")
    print(f"reference_fingerprint\t{model.reference_fingerprint}")
    print(f"feature_dim\t{model.feature_dim}")
    print(f"n_trees\t{hp.n_trees}")
    for name, value in FIXED_HYPERPARAMS.items():
        print(f"{name}\t{value}")
    print(f"seed\t{hp.seed}")
    print(f"total_nodes\t{n_nodes}")
    return 0


_COMMANDS = {
    "scan": cmd_scan,
    "extract": cmd_extract,
    "train": cmd_train,
    "eval-random": cmd_eval_random,
    "eval-temporal": cmd_eval_temporal,
    "eval-obfuscation": cmd_eval_obfuscation,
    "rank": cmd_rank,
    "model-info": cmd_model_info,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already; normalize other codes
        return int(exc.code) if exc.code else 0
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        if getattr(args, "seed", 0) < 0:
            raise UsageError(f"--seed {args.seed} < 0")
        return _COMMANDS[args.command](args)
    except FingerprintMismatch as exc:
        print(f"error: fingerprint mismatch: {exc}", file=sys.stderr)
        return EXIT_FINGERPRINT
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ApksiftError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
