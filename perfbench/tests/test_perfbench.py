"""Tests of the benchmark itself, on reduced-size ("smoke") inputs.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import speed  # noqa: E402

BENCHMARK_JSON = run.BENCHMARK
# report metrics each workload prints besides setup_s, peak_rss_mib and error_rate
# (scan_apk_p90_s only with enough samples, so not on smoke inputs)
REPORT_ONLY = {
    "scan-large": {"scan_apk_p50_s", "scan_dex_mib_per_s"},
    "extract-corpus": {"extract_apks_per_s"},
    "train-demo": {"train_s", "eval_random_s", "ransomware_tpr_at_1pct_fpr", "cv_accuracy"},
}


def run_bench(cache: Path, *args: str, cwd: Path = ROOT, script: Path = BENCH / "run.py"):
    proc = subprocess.run(
        [sys.executable, str(script), "--scale", "smoke", "--seconds", "0.5",
         "--cache-dir", str(cache), *args],
        capture_output=True, text=True, timeout=600, cwd=cwd,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    report = [json.loads(line[len("report "):]) for line in lines if line.startswith("report ")]
    return proc, result, report


def _names(kind: str) -> set[str]:
    return {m["name"] for m in BENCHMARK_JSON[kind]}


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_run(tmp_path, workload):
    proc, result, report = run_bench(tmp_path, "--workload", workload, "--seed", "3")
    assert proc.returncode == 0, proc.stderr
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == _names("end_to_end")
    units = {m["name"]: m["unit"] for m in BENCHMARK_JSON["end_to_end"]}
    for name, metric in result["metrics"].items():
        assert metric["unit"] == units[name]
        assert metric["value"] > 0
    (entry,) = report
    assert entry["report"]["error_rate"] == 0
    assert set(entry["report"]) == {"setup_s", "peak_rss_mib", "error_rate"} | REPORT_ONLY[workload]
    assert set(entry["report"]) <= set(run.REPORT_UNITS)


def test_traced_run_of_every_workload(tmp_path):
    proc, result, report = run_bench(tmp_path, "--workload", "all", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    assert result["correct"]
    per_layer = _names("per_layer")
    for workload in run.WORKLOADS:
        got = {k.split(".", 1)[1] for k in result["metrics"] if k.startswith(workload + ".")}
        assert got == per_layer
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert m["scan-large.dex.invoke_sites"] > 0 and m["scan-large.forest.trees"] == 0
    assert m["extract-corpus.evaluation.rows_skipped.BadMagic"] == 2  # bad magic + bomb
    assert m["train-demo.forest.cv_fits"] > 0 and m["train-demo.dex.code_units"] == 0
    assert (tmp_path / "traces" / "train-demo-seed1.json").is_file()


def test_wrong_oracle_entry_fails(tmp_path):
    proc, result, _ = run_bench(tmp_path, "--workload", "extract-corpus")
    assert proc.returncode == 0 and result["failed"] == 0, proc.stderr
    (oracle_path,) = tmp_path.glob("extract-corpus/*/oracle.json")
    oracle = json.loads(oracle_path.read_text())
    good = next(row for row in oracle["rows"] if "expected" in row)
    good["expected"][0] += 1
    oracle_path.write_text(json.dumps(oracle))

    proc, result, report = run_bench(tmp_path, "--workload", "extract-corpus")
    assert proc.returncode != 0
    assert not result["correct"] and result["failed"] > 0
    assert report[0]["report"]["error_rate"] > 0


def test_every_operation_failing_still_reports(tmp_path):
    proc, result, _ = run_bench(tmp_path, "--workload", "scan-large")
    assert proc.returncode == 0 and result["failed"] == 0, proc.stderr
    for apk in tmp_path.glob("scan-large/*/*.apk"):
        apk.write_bytes(b"not a zip")

    proc, result, report = run_bench(tmp_path, "--workload", "scan-large")
    assert proc.returncode == 1
    assert not result["correct"] and result["failed"] == result["attempted"] > 0
    assert set(result["metrics"]) == _names("end_to_end")
    assert report[0]["report"]["error_rate"] == 1


def test_without_sources_exits_nonzero(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc, result, _ = run_bench(
        tmp_path / "cache", "--workload", "scan-large", cwd=tmp_path,
        script=tmp_path / "perfbench" / "run.py",
    )
    assert proc.returncode != 0
    assert result is None


def test_sampler_scales_to_reference_speed():
    sampler = speed.Sampler()
    sampler.start()
    t0 = perf_counter()
    while perf_counter() - t0 < 0.3:
        sum(range(1000))
    probe_s = sampler.stop()
    assert len(sampler.times) >= 4 and probe_s > 0
    assert speed.at_ref_speed(2.0, speed.REF_PROBE_S) == 2.0
    assert speed.at_ref_speed(2.0, 2 * speed.REF_PROBE_S) == 1.0
