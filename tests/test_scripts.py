"""The command-line scripts under scripts/, run as subprocesses on small inputs."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("kind", ["experiment", "temporal"])
def test_make_corpus(tmp_path, kind):
    proc = run_script(
        "make_corpus.py", "--out", "corpus", "--kind", kind, "--per-class", "20", cwd=tmp_path
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "corpus" / "manifest.csv").is_file()


def test_run_experiments_obfuscation_and_temporal(tmp_path):
    proc = run_script(
        "run_experiments.py", "--out", "results", "--per-class", "30", "--skip", "random",
        cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    names = {p.name for p in (tmp_path / "results").glob("*.json")}
    expected = {f"temporal_{g}.json" for g in ("package", "class", "method")}
    for g in ("package", "class", "method"):
        for kind in ("string-encryption", "resource-encryption", "class-encryption"):
            expected.add(f"obfuscation_{kind}_{g}.json")
        expected.add(f"obfuscation_class-encryption_plus_one_{g}.json")
    assert names == expected
    # class encryption collapses every transformed sample onto the stub until
    # one transformed sample joins the training set
    got = {}
    for arm in ("", "_plus_one"):
        path = tmp_path / "results" / f"obfuscation_class-encryption{arm}_method.json"
        doc = json.loads(path.read_text())
        got[arm] = tuple(
            doc[k] for k in ("n_transformed", "n_detected", "detection_rate", "injected_id")
        )
    assert got == {"": (30, 0, 0.0, None), "_plus_one": (30, 30, 1.0, "r0001")}


def test_run_experiments_random_split(tmp_path):
    proc = run_script(
        "run_experiments.py", "--out", "results", "--per-class", "20",
        "--skip", "temporal", "obfuscation", cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    for g in ("package", "class", "method"):
        doc = json.loads((tmp_path / "results" / f"random_split_{g}.json").read_text())
        assert doc["protocol"] == "random-split"
