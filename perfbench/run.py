#!/usr/bin/env python3
"""The apksift benchmark.

    python3 perfbench/run.py --workload scan-large --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1       # every workload, one table

Run it from anywhere; it benchmarks the sources in ``src/`` next to this
directory and fails (exit 2, no result) when they are missing. Workload
names, metric names and units, and the default ``--seconds`` come from
``BENCHMARK.json`` next to that directory. Inputs are
made from ``--seed`` and cached under ``.perfbench_cache/``; the time to make
them is reported as ``gen_s`` and never inside a metric. Each workload runs
in fresh processes: ``setup_s`` is the median of several fresh start-ups,
and one more process runs the workload, closed loop with one operation
outstanding, for ``--seconds``. Set-up time and throughput are scaled to
the reference machine speed of ``speed.py``. Every output is checked against the
generator's oracle; any mismatch counts in ``failed`` and the exit code is 1.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``, which holds the end-to-end metrics with
``--trace 0`` and the per-layer metrics with ``--trace 1``. The line before
it, starting ``report ``, holds the named report metrics and the
environment.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import speed  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
MIB = 1024 * 1024
P90_TAIL = 10  # samples that must lie beyond the 90th percentile to report it
SETUP_RUNS = {"full": 9, "smoke": 1}  # fresh set-up processes timed per workload
REPORT_UNITS = {
    "setup_s": "s",
    "scan_apk_p50_s": "s",
    "scan_apk_p90_s": "s",
    "scan_dex_mib_per_s": "MiB/s",
    "extract_apks_per_s": "rows/s",
    "train_s": "s",
    "eval_random_s": "s",
    "ransomware_tpr_at_1pct_fpr": "ratio",
    "cv_accuracy": "ratio",
    "peak_rss_mib": "MiB",
    "error_rate": "ratio",
}


class BenchError(Exception):
    pass


def _bytecode_warm() -> bool:
    tag = sys.implementation.cache_tag
    return (SRC / "apksift" / "__pycache__" / f"cli.{tag}.pyc").is_file()


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _worker_cmd(mode: str, workload: str, inputs_dir: Path, oracle: dict) -> list[str]:
    cmd = [sys.executable, str(HERE / "worker.py"), mode, "--workload", workload,
           "--inputs", str(inputs_dir), "--src", str(SRC), "--reference", oracle["reference"]]
    if "model" in oracle:
        cmd += ["--model", oracle["model"]]
    return cmd


def _time_setup(cmd: list[str]) -> tuple[float, float]:
    """Seconds from process start to the worker's ``ready`` line, and the
    start-up probe's seconds just before it."""
    probe_s = speed.startup_probe()
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    elapsed = perf_counter() - t0
    _, err = proc.communicate(timeout=120)
    if line.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"set-up process failed ({proc.returncode}): {err.strip()[-2000:]}")
    return elapsed, probe_s


def _quantile(values: list[float], q: float) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def run_workload(workload: str, args) -> dict:
    load_start = os.getloadavg()
    warm = _bytecode_warm()
    inputs_dir, oracle, gen_s, cached = inputs.prepare(
        workload, args.seed, args.scale, args.cache_dir, SRC
    )

    # set-up is timed before and after the run, so its samples span more
    # of the machine's slow and fast phases
    setup_cmd = _worker_cmd("setup", workload, inputs_dir, oracle)
    _time_setup(setup_cmd)  # warm-up: page cache and bytecode cache
    setup_runs = SETUP_RUNS[args.scale]
    setup_times = [_time_setup(setup_cmd) for _ in range(setup_runs // 2)]

    cmd = _worker_cmd("run", workload, inputs_dir, oracle) + [
        "--seconds", str(args.seconds), "--seed", str(args.seed), "--trace", str(args.trace)]
    if args.trace:
        traces = args.cache_dir / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd += ["--spans-out", str(traces / f"{workload}-seed{args.seed}.json")]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=60 + 3 * args.seconds)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload}: worker timed out") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload}: worker failed ({proc.returncode}): {proc.stderr.strip()[-3000:]}")
    res = json.loads(lines[-1])
    setup_times += [_time_setup(setup_cmd) for _ in range(setup_runs - len(setup_times))]

    setup_s = statistics.median(
        speed.at_ref_speed(wall, probe_s, speed.REF_STARTUP_S) for wall, probe_s in setup_times
    )
    report = {
        "setup_s": setup_s,
        "peak_rss_mib": res["peak_rss_mib"],
        "error_rate": res["failed"] / res["attempted"],
    }
    extra = res["extra"]
    if args.trace:
        metrics = res["per_layer"]
    else:
        lat = res["latencies"]  # empty only when every operation failed
        metrics = {
            "setup_s": setup_s,
            "items_per_s": res["items"] / res["ref_busy_s"] if lat else 0.0,
            "peak_rss_mib": res["peak_rss_mib"],
        }
        if workload == "extract-corpus":
            report["extract_apks_per_s"] = res["items"] / res["busy_s"] if lat else 0.0
        elif lat and workload == "scan-large":
            report["scan_apk_p50_s"] = statistics.median(lat)
            if len(lat) * 0.1 >= P90_TAIL:
                report["scan_apk_p90_s"] = _quantile(lat, 0.9)
            report["scan_dex_mib_per_s"] = (
                res["rounds"] * extra["dex_bytes_per_round"] / MIB / res["busy_s"]
            )
        elif lat:
            report["train_s"] = statistics.median(extra["train_s"])
            report["eval_random_s"] = statistics.median(extra["eval_s"])
    if workload == "train-demo" and "cv_accuracy" in extra:
        report["ransomware_tpr_at_1pct_fpr"] = extra["ransomware_tpr_at_1pct_fpr"]
        report["cv_accuracy"] = extra["cv_accuracy"]

    env = {
        "python": res["python"],
        "numpy": res["numpy"],
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": load_start,
        "loadavg_end": os.getloadavg(),
        "git_commit": _git_commit(),
        "seed": args.seed,
        "bytecode_cache_warm_at_start": warm,
        "gen_s": gen_s,
        "inputs_cached": cached,
        "scale": args.scale,
    }
    detail = {k: res[k] for k in res if k not in ("latencies", "per_layer", "extra", "errors")}
    detail["ops"] = len(res.get("latencies", ())) or None
    detail["setup_runs_s"] = [wall for wall, _ in setup_times]
    detail["startup_probe_s"] = [probe_s for _, probe_s in setup_times]
    if res.get("ref_busy_s"):
        # the mean probe time over the run's rounds
        detail["probe_s"] = speed.REF_PROBE_S * res["busy_s"] / res["ref_busy_s"]
    return {
        "workload": workload,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "errors": res["errors"],
        "metrics": metrics,
        "report": report,
        "env": env,
        "detail": detail,
    }


def _units(trace: int) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in BENCHMARK["per_layer" if trace else "end_to_end"]}


def _print_table(title: str, values: dict, units: dict) -> None:
    print(title)
    for name, value in values.items():
        print(f"  {name:44s} {value:>16.6g} {units.get(name, '')}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=[*WORKLOADS, "all"], required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=BENCHMARK["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=sorted(inputs.SCAN_APKS), default="full",
                   help="input sizes; 'smoke' is for the benchmark's own tests")
    p.add_argument("--cache-dir", type=Path, default=ROOT / ".perfbench_cache")
    args = p.parse_args(argv)

    if not (SRC / "apksift" / "__init__.py").is_file():
        print(f"error: no apksift sources at {SRC / 'apksift'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    names = WORKLOADS if args.workload == "all" else [args.workload]
    results = []
    try:
        for name in names:
            results.append(run_workload(name, args))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    for r in results:
        head = f"{r['workload']} · seed {args.seed} · {args.seconds:g} s · trace {args.trace}"
        _print_table(f"{head} · report", r["report"], REPORT_UNITS)
        _print_table(f"{head} · metrics", r["metrics"], _units(args.trace))
        for err in r["errors"]:
            print(f"  FAILED: {err}")
        print("report " + json.dumps({k: r[k] for k in ("workload", "report", "env", "detail", "errors")}))

    units = _units(args.trace)
    metrics = {}
    for r in results:
        for name, value in r["metrics"].items():
            key = f"{r['workload']}.{name}" if len(results) > 1 else name
            metrics[key] = {"value": value, "unit": units[name]}
    failed = sum(r["failed"] for r in results)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in results),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
