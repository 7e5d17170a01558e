"""One benchmark workload in a fresh interpreter; started by run.py.

    python3 perfbench/worker.py setup --workload W --inputs DIR --src SRC --reference F [--model F]
    python3 perfbench/worker.py run   ... --seconds S --seed N --trace 0|1

``setup`` imports the CLI, loads the reference list (and the model), prints
``ready`` and exits: run.py times it from process start to that line.
``run`` does the same set-up, then runs whole rounds of the workload until
``--seconds`` have passed, checks every output against the oracle, and
prints one JSON line; ``speed.Sampler`` samples the machine's speed through
each round. With ``--trace 1`` it alternates untraced and traced rounds and
reports per-layer numbers from the traced ones.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

import speed

TPR_GATE = 0.95
TPR_KEY = "ransomware_vs_benign:tpr_at_0.01_fpr"
MAX_ERRORS_KEPT = 5


class Tally:
    """Operations attempted and failed, with the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def op(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < MAX_ERRORS_KEPT and what not in self.errors:
                self.errors.append(what)


class Workload:
    """Subclasses run one round (every input once) and check its outputs."""

    ops_per_round = 1
    min_rounds = 1
    trace_op = None  # called at the start of each operation in a traced round

    def __init__(self, inputs: Path, oracle: dict, ref, model, seed: int):
        self.inputs, self.oracle, self.ref, self.model, self.seed = inputs, oracle, ref, model, seed
        self.extra: dict = {}

    def _op_started(self) -> None:
        if self.trace_op is not None:
            self.trace_op()

    def round(self, tally: Tally) -> tuple[list[float], int, float]:
        """Return (latency of each successful operation, items, busy seconds)."""
        raise NotImplementedError


class ScanLarge(Workload):
    """The ``scan`` path per apk: open_apk -> features_from_dex_blobs -> predict_proba."""

    def __init__(self, *a):
        super().__init__(*a)
        self.apks = [(self.inputs / e["path"], e) for e in self.oracle["apks"]]
        self.ops_per_round = len(self.apks)
        self.first_probs: dict[str, tuple] = {}
        self.extra["dex_bytes_per_round"] = sum(e["dex_bytes"] for _, e in self.apks)

    def round(self, tally):
        from apksift import apk, features, forest

        latencies = []
        for path, entry in self.apks:
            self._op_started()
            t0 = perf_counter()
            try:
                package = apk.open_apk(path)
                fv = features.features_from_dex_blobs(package.dex_blobs, self.ref)
                probs = forest.predict_proba(self.model, fv)
            except Exception as exc:
                tally.op(False, f"{entry['path']}: {type(exc).__name__}: {exc}")
                continue
            latencies.append(perf_counter() - t0)
            del package
            ok = list(fv.counts) == entry["expected"]
            ok = ok and self.first_probs.setdefault(entry["path"], probs) == probs
            tally.op(ok, f"{entry['path']}: vector or probabilities differ from the oracle")
        return latencies, len(latencies), sum(latencies)


class ExtractCorpus(Workload):
    """The ``extract`` path: load_labeled_dataset(skip_errors) -> write_features_csv."""

    def __init__(self, *a):
        super().__init__(*a)
        self.manifest = self.inputs / self.oracle["manifest"]
        self.out_csv = self.inputs / "features.csv"
        self.rows = self.oracle["rows"]
        self.n_bad = sum(1 for r in self.rows if "error" in r)

    def check_reject_classes(self, tally: Tally) -> None:
        """Each malformed row must fail with the error class it was built for."""
        from apksift import features

        for row in self.rows:
            if "error" not in row:
                continue
            try:
                features.extract_from_sample(self.inputs / row["path"], self.ref)
                got = "no error"
            except Exception as exc:
                got = type(exc).__name__
            tally.op(got == row["error"], f"{row['path']} ({row['kind']}): {got}, expected {row['error']}")

    def round(self, tally):
        from apksift import evaluation, features

        self._op_started()
        t0 = perf_counter()
        try:
            dataset, skipped = evaluation.load_labeled_dataset(self.manifest, self.ref, skip_errors=True)
            features.write_features_csv(
                ((s.sample_id, s.label.value, s.features) for s in dataset), self.ref, self.out_csv
            )
        except Exception as exc:
            tally.op(False, f"extract: {type(exc).__name__}: {exc}")
            return [], 0, 0.0
        elapsed = perf_counter() - t0
        with open(self.out_csv, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            got = {r[0]: [int(x) for x in r[2:]] for r in reader}
        header_ok = header == ["sample_id", "label", *self.oracle["vocab"]]
        for row in self.rows:
            if "error" in row:
                ok = row["path"] not in got
            else:
                ok = header_ok and got.get(row["path"]) == row["expected"]
            tally.op(ok, f"{row['path']} ({row['kind']}): output row differs from the oracle")
        tally.op(skipped == self.n_bad, f"{skipped} rows skipped, {self.n_bad} malformed rows injected")
        return [elapsed], len(self.rows), elapsed


class TrainDemo(Workload):
    """The README flow: load -> CV table -> final fit -> dumps, then random_split_eval."""

    min_rounds = 2  # the determinism checks compare two rounds

    def __init__(self, *a):
        super().__init__(*a)
        self.manifest = self.inputs / self.oracle["manifest"]
        self.grid = self.oracle["grid"]
        self.first: dict = {}
        self.extra.update(train_s=[], eval_s=[])

    def round(self, tally):
        from apksift import evaluation, forest

        self._op_started()
        t0 = perf_counter()
        try:
            dataset, _ = evaluation.load_labeled_dataset(self.manifest, self.ref)
            table = forest.cv_accuracy_table(
                dataset, self.grid, seed=self.seed, n_folds=self.oracle["cv_folds"]
            )
            chosen = max(sorted(table), key=table.__getitem__)  # ties go to the smaller value
            model = forest.train_forest(dataset, forest.Hyperparams(n_trees=chosen, seed=self.seed))
            text = forest.dumps_model(model)
            t1 = perf_counter()
            report = evaluation.random_split_eval(
                dataset, grid=self.grid, repeats=self.oracle["repeats"], seed=self.seed,
                cv_folds=self.oracle["cv_folds"],
            )
            t2 = perf_counter()
        except Exception as exc:
            tally.op(False, f"train round: {type(exc).__name__}: {exc}")
            return [], 0, 0.0
        expected = self.oracle["expected"]
        vectors_ok = len(dataset) == len(expected) and all(
            list(s.features.counts) == expected.get(s.sample_id) for s in dataset
        )
        digest = hashlib.sha256(text.encode()).hexdigest()
        same_model = self.first.setdefault("model", digest) == digest
        tally.op(vectors_ok, "a fixture row's vector differs from the generator's sample")
        tally.op(same_model, "two same-seed fits gave different model bytes")
        doc = dataclasses.asdict(report)
        doc.pop("runtime_seconds")
        doc = json.dumps(doc, sort_keys=True, default=str)
        tally.op(self.first.setdefault("report", doc) == doc,
                 "random-split report differs apart from runtime_seconds")
        tpr = report.mean[TPR_KEY]
        tally.op(tpr >= TPR_GATE, f"ransomware TPR at 1% FPR {tpr:.4f} < {TPR_GATE}")
        self.extra["train_s"].append(t1 - t0)
        self.extra["eval_s"].append(t2 - t1)
        self.extra["cv_accuracy"] = table[chosen]
        self.extra["ransomware_tpr_at_1pct_fpr"] = tpr
        return [t1 - t0], len(dataset), t2 - t0


WORKLOADS = {"scan-large": ScanLarge, "extract-corpus": ExtractCorpus, "train-demo": TrainDemo}


def measure(wl: Workload, tally: Tally, seconds: float) -> dict:
    latencies, items, busy, ref_busy, rounds = [], 0, 0.0, 0.0, 0
    sampler = speed.Sampler()
    start = perf_counter()
    while rounds < wl.min_rounds or perf_counter() - start < seconds:
        sampler.start()
        lat, n, b = wl.round(tally)
        ref_busy += speed.at_ref_speed(b, sampler.stop())
        latencies += lat
        items += n
        busy += b
        rounds += 1
    return {"latencies": latencies, "items": items, "busy_s": busy, "ref_busy_s": ref_busy,
            "rounds": rounds}


# -- traced run --------------------------------------------------------------------


def _layer_wrappers(rec):
    """The public functions of each layer, each with the counters it fills."""
    import struct

    from apksift import apk, dex, evaluation, features, forest, invokes, reference

    dumps = forest.dumps_model

    def after_open(c, package, args, kwargs):
        c["apk.dex_blobs"] += len(package.dex_blobs)
        c["apk.bytes_inflated"] += sum(len(b) for b in package.dex_blobs)

    def after_parse(c, dexfile, args, kwargs):
        c["dex.parse_dex.bytes"] += len(dexfile.blob)
        c["dex.class_defs"] += len(dexfile.class_items)
        for item in dexfile.class_items:
            c["dex.code_items"] += len(item.code_offsets)
            for off in item.code_offsets:
                c["dex.code_units"] += struct.unpack_from("<I", dexfile.blob, off + 12)[0]

    def after_count(c, counts, args, kwargs):
        sites = sum(counts.values())
        c["dex.invoke_sites"] += sites
        c["dex.distinct_targets"] += len(counts)
        c["reference.sites"] += sites

    def after_project(c, fv, args, kwargs):
        c["reference.vocab_hits"] += fv.total()

    def after_extract_features(c, fv, args, kwargs):
        c["reference.vocab_hits"] += fv.total()
        c["reference.sites"] += len(args[0])

    def after_load_list(c, sites, args, kwargs):
        c["invokes.sites_parsed"] += len(sites)

    def after_load_dataset(c, result, args, kwargs):
        dataset, skipped = result
        c["evaluation.rows"] += len(dataset) + skipped

    def after_train(c, model, args, kwargs):
        for flat in json.loads(dumps(model))["trees"]:
            c["forest.trees"] += 1
            c["forest.nodes"] += len(flat)
            pending, depth = [0], 0
            for node in flat:
                d = pending.pop()
                depth = max(depth, d)
                if node[0] == "s":
                    pending += (d + 1, d + 1)
            c["forest.max_depth"] = max(c["forest.max_depth"], depth)

    spanned = [
        (apk.open_apk, "apk.open_apk", after_open),
        (dex.parse_dex, "dex.parse_dex", after_parse),
        (dex.count_invoke_targets, "dex.count_invoke_targets", after_count),
        (features.features_from_dex_blobs, "features.features_from_dex_blobs", after_project),
        (features.extract_features, "features.extract_features", after_extract_features),
        (features.extract_from_sample, "features.extract_from_sample", None),
        (features.write_features_csv, "features.write_features_csv", None),
        (invokes.load_invoke_list_text, "invokes.load_invoke_list_text", after_load_list),
        (evaluation.load_labeled_dataset, "evaluation.load_labeled_dataset", after_load_dataset),
        (evaluation.load_manifest, "evaluation.load_manifest", None),
        (evaluation.roc_one_vs_benign, "evaluation.roc_one_vs_benign", None),
        (evaluation.random_split_eval, "evaluation.random_split_eval", None),
        (forest.train_forest, "forest.train_forest", after_train),
        (forest.cv_accuracy_table, "forest.cv_accuracy_table", None),
        (forest.predict_proba, "forest.predict_proba", None),
        (forest.dumps_model, "forest.dumps_model", None),
    ]
    wrappers = {fn: rec.spanned(fn, name, hook) for fn, name, hook in spanned}
    wrappers[reference.key_of] = rec.counted(reference.key_of, "reference.key_of")
    return wrappers


SELF_TIMES = {  # metric -> span whose self time it reports
    "apk.open_apk.s": "apk.open_apk",
    "dex.parse_dex.s": "dex.parse_dex",
    "dex.count_invoke_targets.s": "dex.count_invoke_targets",
    "features.features_from_dex_blobs.self_s": "features.features_from_dex_blobs",
    "invokes.load_invoke_list_text.s": "invokes.load_invoke_list_text",
    "features.extract_features.s": "features.extract_features",
    "evaluation.load_labeled_dataset.self_s": "evaluation.load_labeled_dataset",
    "evaluation.load_manifest.s": "evaluation.load_manifest",
    "features.write_features_csv.s": "features.write_features_csv",
    "forest.train_forest.s": "forest.train_forest",
    "forest.cv_accuracy_table.self_s": "forest.cv_accuracy_table",
    "forest.predict_proba.s": "forest.predict_proba",
    "evaluation.roc_one_vs_benign.s": "evaluation.roc_one_vs_benign",
    "evaluation.random_split_eval.self_s": "evaluation.random_split_eval",
    "forest.dumps_model.s": "forest.dumps_model",
}
COUNTERS = (
    "apk.dex_blobs", "apk.bytes_inflated", "dex.parse_dex.bytes", "dex.class_defs",
    "dex.code_items", "dex.code_units", "dex.invoke_sites", "dex.distinct_targets",
    "reference.key_of.calls", "reference.vocab_hits", "invokes.sites_parsed", "evaluation.rows",
    "forest.trees", "forest.nodes",
)
SKIP_CLASSES = ("NotAZipArchive", "BadMagic", "StructuralError")


def traced(wl: Workload, tally: Tally, seconds: float, spans_out: Path | None) -> dict:
    from spans import Recorder

    rec = Recorder()
    wrappers = _layer_wrappers(rec)

    def next_op():
        rec.op += 1

    plain, traced_walls = [], []
    start = perf_counter()
    while not traced_walls or perf_counter() - start < seconds:
        t0 = perf_counter()
        wl.round(tally)
        plain.append(perf_counter() - t0)
        rec.patch("apksift", wrappers)
        wl.trace_op = next_op
        try:
            t0 = perf_counter()
            wl.round(tally)
            traced_walls.append(perf_counter() - t0)
        finally:
            wl.trace_op = None
            rec.unpatch()
    if spans_out is not None:
        rec.dump(spans_out)

    ops = len(traced_walls) * wl.ops_per_round
    self_s, calls, under = rec.self_times()
    c = rec.counters
    out = {metric: self_s.get(span, 0.0) / ops for metric, span in SELF_TIMES.items()}
    out.update({name: c[name] / ops for name in COUNTERS})
    out["reference.coverage"] = c["reference.vocab_hits"] / c["reference.sites"] if c["reference.sites"] else 0.0
    for cls in SKIP_CLASSES:
        out[f"evaluation.rows_skipped.{cls}"] = c[f"features.extract_from_sample.raised.{cls}"] / ops
    out["forest.train_forest.calls"] = calls["forest.train_forest"] / ops
    out["forest.predict_proba.calls"] = calls["forest.predict_proba"] / ops
    out["forest.cv_fits"] = under[("forest.train_forest", "forest.cv_accuracy_table")] / ops
    out["forest.max_depth"] = c["forest.max_depth"]
    out["trace.overhead_s"] = (
        statistics.median(traced_walls) - statistics.median(plain)
    ) / wl.ops_per_round
    out["trace.hook_s"] = self_s.get("trace.hook", 0.0) / ops
    return {"per_layer": out, "traced_rounds": len(traced_walls), "plain_rounds": len(plain),
            "traced_round_s": traced_walls, "plain_round_s": plain}


# -- entry point -------------------------------------------------------------------


def _peak_rss_mib() -> float:
    """VmHWM of this process image. ru_maxrss is no use here: Linux carries
    the parent's peak across fork and exec into it."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("mode", choices=("setup", "run"))
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--inputs", type=Path, required=True)
    p.add_argument("--src", required=True)
    p.add_argument("--reference", required=True)
    p.add_argument("--model")
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--spans-out", type=Path)
    args = p.parse_args(argv)

    sys.path.insert(0, args.src)
    t0 = perf_counter()
    import apksift.cli  # noqa: F401  (everything a CLI invocation imports)

    t1 = perf_counter()
    from apksift import forest, reference

    ref = reference.load_reference(args.inputs / args.reference, reference.Granularity.Method)
    t2 = perf_counter()
    model = forest.load_model(args.inputs / args.model) if args.model else None
    t3 = perf_counter()
    if args.mode == "setup":
        print("ready", flush=True)
        return 0

    import logging

    import numpy

    # the loader logs one warning per skipped row; keep it off stderr
    logging.getLogger("apksift").addHandler(logging.NullHandler())
    logging.getLogger("apksift").propagate = False

    oracle = json.loads((args.inputs / "oracle.json").read_text())
    wl = WORKLOADS[args.workload](args.inputs, oracle, ref, model, args.seed)
    tally = Tally()
    if isinstance(wl, ExtractCorpus):
        wl.check_reject_classes(tally)
    if args.trace:
        result = traced(wl, tally, args.seconds, args.spans_out)
        result["per_layer"].update({
            "cli.import_s": t1 - t0,
            "reference.load_reference.s": t2 - t1,
            "forest.load_model.s": t3 - t2 if model is not None else 0.0,
        })
    else:
        result = measure(wl, tally, args.seconds)
    result.update(
        attempted=tally.attempted,
        failed=tally.failed,
        errors=tally.errors,
        ops_per_round=wl.ops_per_round,
        extra=wl.extra,
        peak_rss_mib=_peak_rss_mib(),
        python=sys.version.split()[0],
        numpy=numpy.__version__,
    )
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
