"""Command-line surface: exit-code taxonomy, determinism, stream hygiene."""

import json
from pathlib import Path

import pytest

from apksift.cli import main
from apksift.features import extract_features
from apksift.forest import Hyperparams, Label, LabeledDataset, LabeledSample, save_model, train_forest
from apksift.reference import Granularity, save_reference
from apksift.synth import (
    EXPERIMENT_VOCAB,
    dex_from_invokes,
    generate_corpus,
    generate_temporal_corpus,
    reference_from_vocab,
    write_apk,
    write_corpus,
)

from conftest import CORRUPT_STREAMS, chain_model_doc, corrupt_apk_bytes, locker_body


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Corpus on disk + reference files + a trained package-granularity model."""
    root = tmp_path_factory.mktemp("cli")
    samples = generate_corpus(n_per_class=40, seed=21)
    manifest = write_corpus(root / "corpus", samples)

    refs = {}
    for g in (Granularity.Package, Granularity.Class, Granularity.Method):
        ref = reference_from_vocab(EXPERIMENT_VOCAB, g)
        path = root / f"{g.value}.ref"
        save_reference(ref, path)
        refs[g] = (ref, path)

    pkg_ref, _ = refs[Granularity.Package]
    dataset = LabeledDataset(
        LabeledSample(s.sample_id, extract_features(s.invokes, pkg_ref), s.label, s.first_seen)
        for s in samples
    )
    model_path = root / "model.json"
    save_model(train_forest(dataset, Hyperparams(n_trees=25, seed=4)), model_path)

    benign = [s for s in samples if s.label is Label.Trusted][0]
    benign_apk = root / "benign.apk"
    write_apk(benign_apk, [dex_from_invokes(list(benign.invokes))])

    locker_apk = root / "locker.apk"
    from conftest import build_single_method_dex

    blob, _ = build_single_method_dex(locker_body() * 3, class_path="com/fixture/Locker")
    write_apk(locker_apk, [blob])

    return {
        "root": root,
        "manifest": manifest,
        "refs": refs,
        "model": model_path,
        "benign_apk": benign_apk,
        "locker_apk": locker_apk,
    }


def test_scan_benign_exit_zero(workspace, capsys):
    _, ref_path = workspace["refs"][Granularity.Package]
    rc = main(
        ["scan", str(workspace["benign_apk"]), "--model", str(workspace["model"]),
         "--reference", str(ref_path)]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "\ttrusted\t" in out


def test_scan_locker_fixture_is_ransomware(workspace, capsys):
    _, ref_path = workspace["refs"][Granularity.Package]
    rc = main(
        ["scan", str(workspace["locker_apk"]), "--model", str(workspace["model"]),
         "--reference", str(ref_path)]
    )
    out = capsys.readouterr().out
    assert rc == 11
    assert "\transomware\t" in out
    assert "android/app/admin" in out  # evidence line names the admin package


def test_scan_multiple_files_ordered_worst_exit(workspace, capsys):
    _, ref_path = workspace["refs"][Granularity.Package]
    rc = main(
        ["scan", str(workspace["benign_apk"]), str(workspace["locker_apk"]),
         "--model", str(workspace["model"]), "--reference", str(ref_path)]
    )
    out_lines = [l for l in capsys.readouterr().out.splitlines() if not l.startswith(" ")]
    assert rc == 11
    assert str(workspace["benign_apk"]) in out_lines[0]
    assert str(workspace["locker_apk"]) in out_lines[1]


def test_scan_corrupt_apk_exit_3(workspace, tmp_path, capsys):
    bad = tmp_path / "bad.apk"
    bad.write_bytes(b"not a zip at all")
    _, ref_path = workspace["refs"][Granularity.Package]
    rc = main(
        ["scan", str(bad), "--model", str(workspace["model"]), "--reference", str(ref_path)]
    )
    err = capsys.readouterr().err
    assert rc == 3
    assert "NotAZipArchive" in err


def test_scan_fingerprint_mismatch_exit_4(workspace, capsys):
    _, class_ref_path = workspace["refs"][Granularity.Class]
    rc = main(
        ["scan", str(workspace["benign_apk"]), "--model", str(workspace["model"]),
         "--reference", str(class_ref_path)]
    )
    assert rc == 4
    assert "fingerprint" in capsys.readouterr().err


def test_reference_dir_env_var(workspace, capsys, monkeypatch, tmp_path):
    env_dir = tmp_path / "refs"
    env_dir.mkdir()
    ref, _ = workspace["refs"][Granularity.Package]
    save_reference(ref, env_dir / "packages.txt")
    monkeypatch.setenv("APKSIFT_REFERENCE_DIR", str(env_dir))
    rc = main(
        ["scan", str(workspace["benign_apk"]), "--model", str(workspace["model"]),
         "--granularity", "package"]
    )
    assert rc == 0


def test_missing_reference_usage_error(workspace, capsys, monkeypatch):
    monkeypatch.delenv("APKSIFT_REFERENCE_DIR", raising=False)
    rc = main(["scan", str(workspace["benign_apk"]), "--model", str(workspace["model"])])
    assert rc == 2


def test_train_smoke_and_determinism(workspace, tmp_path, capsys):
    _, ref_path = workspace["refs"][Granularity.Package]
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    for out in (out_a, out_b):
        rc = main(
            ["train", "--manifest", str(workspace["manifest"]), "--reference", str(ref_path),
             "--out-model", str(out), "--grid", "5", "15", "--seed", "3"]
        )
        assert rc == 0
    stdout = capsys.readouterr().out
    assert "chosen n_trees=" in stdout
    assert "cv_accuracy=" in stdout
    assert out_a.read_bytes() == out_b.read_bytes()


def test_train_single_class_exit_2(workspace, tmp_path, capsys):
    samples = [s for s in generate_corpus(n_per_class=12, seed=2) if s.label is Label.Trusted]
    manifest = write_corpus(tmp_path / "mono", samples)
    _, ref_path = workspace["refs"][Granularity.Package]
    rc = main(
        ["train", "--manifest", str(manifest), "--reference", str(ref_path),
         "--out-model", str(tmp_path / "m.json")]
    )
    assert rc == 2
    assert "class" in capsys.readouterr().err.lower()


def test_extract_csv(workspace, tmp_path, capsys):
    _, ref_path = workspace["refs"][Granularity.Package]
    out_csv = tmp_path / "features.csv"
    rc = main(
        ["extract", "--manifest", str(workspace["manifest"]), "--reference", str(ref_path),
         "--out-csv", str(out_csv)]
    )
    assert rc == 0
    header = out_csv.read_text().splitlines()[0]
    assert header.startswith("sample_id,label,")
    assert len(out_csv.read_text().splitlines()) == 1 + 120


def test_eval_random_report(workspace, tmp_path, capsys):
    _, ref_path = workspace["refs"][Granularity.Package]
    rc = main(
        ["eval-random", "--manifest", str(workspace["manifest"]), "--reference", str(ref_path),
         "--repeats", "2", "--grid", "5", "--seed", "1", "--out", str(tmp_path)]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "mean=" in out and "std=" in out
    doc = json.loads((tmp_path / "random_split_report.json").read_text())
    assert doc["protocol"] == "random-split"
    assert len(doc["repeats"]) == 2
    assert doc["seed"] == 1
    assert doc["tool_version"]
    assert doc["reference_fingerprint"]


def test_eval_temporal_bin_before_cutoff_usage_error(workspace, capsys):
    _, ref_path = workspace["refs"][Granularity.Package]
    rc = main(
        ["eval-temporal", "--manifest", str(workspace["manifest"]), "--reference", str(ref_path),
         "--train-cutoff", "2016-12-31", "--bin", "early:2016-01-01:2016-06-30"]
    )
    assert rc == 2


def test_eval_temporal_runs(tmp_path, capsys):
    from apksift.synth import temporal_vocab

    corpus = generate_temporal_corpus(seed=6, n_trusted=40, n_malware=24, n_train_ransomware=30)
    manifest = write_corpus(tmp_path / "temporal", corpus)
    ref_path = tmp_path / "methods.ref"
    save_reference(reference_from_vocab(temporal_vocab(), Granularity.Method), ref_path)
    rc = main(
        ["eval-temporal", "--manifest", str(manifest), "--reference", str(ref_path),
         "--train-cutoff", "2016-12-31",
         "--bin", "jan-sep:2017-01-01:2017-09-30",
         "--bin", "oct:2017-10-01:2017-10-31",
         "--bin", "nov:2017-11-01:2017-11-30",
         "--n-trees", "15", "--out", str(tmp_path)]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert out.count("detection_rate=") == 3
    assert (tmp_path / "temporal_report.json").exists()


def test_eval_obfuscation_plus_one_two_rates(workspace, tmp_path, capsys):
    _, ref_path = workspace["refs"][Granularity.Method]
    rc = main(
        ["eval-obfuscation", "--manifest", str(workspace["manifest"]),
         "--reference", str(ref_path), "--kind", "class-encryption",
         "--plus-one", "--n-trees", "25", "--seed", "2", "--out", str(tmp_path)]
    )
    out = capsys.readouterr().out
    assert rc == 0
    lines = [l for l in out.splitlines() if l.startswith("class-encryption")]
    assert len(lines) == 2
    assert "baseline" in lines[0] and "plus_one" in lines[1]
    assert (tmp_path / "obfuscation_class_encryption_baseline.json").exists()
    assert (tmp_path / "obfuscation_class_encryption_plus_one.json").exists()


def test_rank_output(workspace, capsys):
    _, ref_path = workspace["refs"][Granularity.Package]
    rc = main(
        ["rank", "--manifest", str(workspace["manifest"]), "--reference", str(ref_path),
         "--splits", "3", "--top", "5"]
    )
    out = capsys.readouterr().out.splitlines()
    assert rc == 0
    assert out[0] == "rank\tfeature\tmean_information_gain"
    assert len(out) == 6


def test_model_info(workspace, capsys):
    rc = main(["model-info", "--model", str(workspace["model"])])
    out = capsys.readouterr().out
    assert rc == 0
    assert "n_trees\t25" in out
    assert "reference_fingerprint\t" in out
    assert "classes\ttrusted,malware,ransomware" in out


def test_machine_output_separate_from_logs(workspace, tmp_path, capsys):
    # a manifest with one broken row: warning goes to stderr, results to stdout
    manifest_text = Path(workspace["manifest"]).read_text().splitlines()
    broken = tmp_path / "broken"
    broken.mkdir()
    src_dir = Path(workspace["manifest"]).parent
    for line in manifest_text[1:4]:
        name = line.split(",")[0]
        (broken / name).write_bytes((src_dir / name).read_bytes())
    (broken / "junk.txt").write_text("invoke-bogus X Y\n")
    rows = manifest_text[0:4] + ["junk.txt,ransomware,2016-01-01,x"]
    (broken / "manifest.csv").write_text("\n".join(rows) + "\n")
    _, ref_path = workspace["refs"][Granularity.Package]
    out_csv = tmp_path / "f.csv"
    rc = main(
        ["extract", "--manifest", str(broken / "manifest.csv"), "--reference", str(ref_path),
         "--out-csv", str(out_csv)]
    )
    captured = capsys.readouterr()
    assert rc == 0
    assert "junk.txt" not in captured.out
    assert "wrote 3 vectors" in captured.out


def test_version_flag(capsys):
    rc = main(["--version"])
    assert rc == 0
    assert capsys.readouterr().out.startswith("apksift ")


def _manifest(tmp_path, rows):
    """Write a manifest; a lone surrogate "\\udcXX" in a row stands for the raw byte 0xXX."""
    path = tmp_path / "manifest.csv"
    text = "path,label,first_seen,family\n" + "".join(f"{r}\n" for r in rows)
    path.write_bytes(text.encode("utf-8", "surrogateescape"))
    return path


def _run_on_manifest(workspace, tmp_path, capsys, command, rows):
    """(manifest path, exit code, stderr) of one manifest-reading command."""
    manifest = _manifest(tmp_path, rows)
    _, ref_path = workspace["refs"][Granularity.Package]
    extra = {"extract": ["--out-csv", str(tmp_path / "f.csv")],
             "train": ["--out-model", str(tmp_path / "m.json")],
             "eval-obfuscation": ["--out", str(tmp_path)]}[command]
    rc = main([command, "--manifest", str(manifest), "--reference", str(ref_path), *extra])
    return manifest, rc, capsys.readouterr().err


@pytest.mark.parametrize("command", ["extract", "train", "eval-obfuscation"])
def test_bad_first_seen_is_a_usage_error(workspace, tmp_path, capsys, command):
    corpus = Path(workspace["manifest"]).parent
    rows = [f"{corpus / 't0000.txt'},trusted,2016-01-02,x",
            f"{corpus / 'r0000.txt'},ransomware,2016-13-45,x"]
    manifest, rc, err = _run_on_manifest(workspace, tmp_path, capsys, command, rows)
    assert rc == 2
    assert err == f"error: {manifest}:3: bad first_seen '2016-13-45'\n"


@pytest.mark.parametrize("command", ["extract", "train", "eval-obfuscation"])
def test_duplicate_manifest_path_is_a_usage_error(workspace, tmp_path, capsys, command):
    t0 = Path(workspace["manifest"]).parent / "t0000.txt"
    rows = [f"{t0},trusted,2016-01-02,x", f"{t0},trusted,2016-01-02,x"]
    manifest, rc, err = _run_on_manifest(workspace, tmp_path, capsys, command, rows)
    assert rc == 2
    assert err == f"error: {manifest}:3: duplicate path '{t0}'\n"


@pytest.mark.parametrize("command", ["extract", "train", "eval-obfuscation"])
@pytest.mark.parametrize(
    "path, message",
    [("r\0.txt", ":3: NUL byte in path"), ("r\udcff.txt", ": not UTF-8 (invalid start byte)")],
    ids=["nul-in-path", "not-utf8"],
)
def test_unreadable_manifest_is_a_usage_error(workspace, tmp_path, capsys, command, path, message):
    corpus = Path(workspace["manifest"]).parent
    rows = [f"{corpus / 't0000.txt'},trusted,2016-01-02,x", f"{path},ransomware,2016-01-01,x"]
    manifest, rc, err = _run_on_manifest(workspace, tmp_path, capsys, command, rows)
    assert rc == 2
    assert err == f"error: {manifest}{message}\n"


@pytest.mark.parametrize("kind", CORRUPT_STREAMS)
def test_corrupt_dex_stream_exit_3_and_row_skipped(workspace, tmp_path, capsys, caplog, kind):
    bad = tmp_path / "bad.apk"
    bad.write_bytes(corrupt_apk_bytes(kind))
    _, ref_path = workspace["refs"][Granularity.Package]
    rc = main(["scan", str(bad), "--model", str(workspace["model"]), "--reference", str(ref_path)])
    err = capsys.readouterr().err
    assert rc == 3
    assert err.startswith("error: NotAZipArchive: ") and err.count("\n") == 1
    assert "Traceback" not in err
    t0 = Path(workspace["manifest"]).parent / "t0000.txt"
    rows = [f"{t0},trusted,2016-01-02,x", f"{bad},ransomware,2016-01-01,x"]
    _, rc, _ = _run_on_manifest(workspace, tmp_path, capsys, "extract", rows)
    assert rc == 0
    assert "1 rows skipped" in caplog.text


def test_scan_non_utf8_fixture_exit_3(workspace, tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"# fixture\ninvoke-static La/B; Ljava/io/File;->\xffdelete()Z\n")
    _, ref_path = workspace["refs"][Granularity.Package]
    rc = main(["scan", str(bad), "--model", str(workspace["model"]), "--reference", str(ref_path)])
    err = capsys.readouterr().err
    assert rc == 3
    assert err.startswith("error: MalformedLine: line 2: not UTF-8")
    assert err.count("\n") == 1


def test_extract_skips_non_utf8_fixture(workspace, tmp_path, capsys):
    (tmp_path / "bad.txt").write_bytes(b"invoke-static La/B; Ljava/io/File;->delete()Z\n\xfe\n")
    corpus = Path(workspace["manifest"]).parent
    manifest = _manifest(
        tmp_path, [f"{corpus / 't0000.txt'},trusted,2016-01-02,x", "bad.txt,ransomware,2016-01-01,x"]
    )
    _, ref_path = workspace["refs"][Granularity.Package]
    out_csv = tmp_path / "f.csv"
    rc = main(["extract", "--manifest", str(manifest), "--reference", str(ref_path),
               "--out-csv", str(out_csv)])
    assert rc == 0
    assert "wrote 1 vectors" in capsys.readouterr().out
    assert "bad.txt" not in out_csv.read_text()


@pytest.mark.parametrize(
    "keys, value",
    [
        (("trees",), 5),
        (("trees",), [5]),
        (("trees", 0, -1, 1), "a"),
        (("trees", 0, -1, 1), float("nan")),
        (("trees", 0, 0, 2), float("nan")),
        (("hyperparams", "n_trees"), "1"),
        (("hyperparams", "min_samples_leaf"), 0),
        (("hyperparams", "seed"), -1),
        (("hyperparams", "n_trees"), 0),
        (("hyperparams", "max_depth"), -2),
        (("hyperparams", "features_per_split"), 0),
        (("hyperparams", "max_depth"), 5),
        (("hyperparams", "min_samples_leaf"), 2),
        (("hyperparams", "features_per_split"), 3),
    ],
    ids=["trees-int", "tree-int", "leaf-string", "leaf-nan", "threshold-nan", "n_trees-string",
         "min_samples_leaf-0", "seed-negative", "n_trees-0", "max_depth-negative",
         "features_per_split-0", "max_depth-5", "min_samples_leaf-2", "features_per_split-3"],
)
def test_model_info_corrupt_model_exit_3(tmp_path, capsys, keys, value):
    doc = chain_model_doc(2, "left")
    target = doc
    for key in keys[:-1]:
        target = target[key]
    target[keys[-1]] = value
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    rc = main(["model-info", "--model", str(path)])
    err = capsys.readouterr().err
    assert rc == 3
    assert err.startswith("error: CorruptModel: ")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "data", [b'{"format": "\xff"}', b"[" * 100_000], ids=["not-utf8", "deep-nesting"]
)
def test_model_info_unreadable_model_exit_3(workspace, tmp_path, capsys, data):
    path = tmp_path / "model.json"
    path.write_bytes(data)
    _, ref_path = workspace["refs"][Granularity.Package]
    for argv in (["model-info"], ["scan", str(workspace["benign_apk"]), "--reference", str(ref_path)]):
        rc = main(argv + ["--model", str(path)])
        err = capsys.readouterr().err
        assert rc == 3
        assert err.startswith("error: CorruptModel: ") and err.count("\n") == 1
        assert "Traceback" not in err


@pytest.mark.parametrize("side", ["left", "right"])
def test_model_info_deep_chain(tmp_path, capsys, side):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(chain_model_doc(5000, side)))
    rc = main(["model-info", "--model", str(path)])
    assert rc == 0
    assert "total_nodes\t10001\n" in capsys.readouterr().out


def test_eval_obfuscation_skips_bad_row(workspace, tmp_path, capsys):
    corpus = Path(workspace["manifest"]).parent
    lines = Path(workspace["manifest"]).read_text().splitlines()[1:]
    (tmp_path / "junk.txt").write_text("invoke-bogus X Y\n")
    manifest = _manifest(
        tmp_path, [f"{corpus}/{line}" for line in lines] + ["junk.txt,ransomware,2016-01-01,x"]
    )
    _, ref_path = workspace["refs"][Granularity.Method]
    rc = main(["eval-obfuscation", "--manifest", str(manifest), "--reference", str(ref_path),
               "--n-trees", "5", "--out", str(tmp_path)])
    assert rc == 0
    assert "class-encryption\tbaseline\tdetection_rate=" in capsys.readouterr().out


def test_eval_temporal_bad_date_checked_before_manifest(workspace, tmp_path, capsys):
    _, ref_path = workspace["refs"][Granularity.Package]
    rc = main(["eval-temporal", "--manifest", str(tmp_path / "missing.csv"),
               "--reference", str(ref_path), "--train-cutoff", "2016-13-45",
               "--bin", "late:2017-01-01:2017-02-01"])
    assert rc == 2
    assert "bad date" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, extra",
    [
        ("train", ["--cv-folds", "0"]),
        ("train", ["--cv-folds", "1"]),
        ("train", ["--cv-folds", "-3"]),
        ("eval-random", ["--repeats", "0"]),
        ("eval-random", ["--repeats", "-2"]),
        ("eval-random", ["--fraction", "nan"]),
        ("eval-random", ["--fraction", "1.5"]),
        ("eval-random", ["--target-fpr", "nan"]),
        ("eval-random", ["--target-fpr", "1.5"]),
        ("eval-temporal", ["--target-fpr", "nan"]),
        ("eval-temporal", ["--target-fpr", "-0.01"]),
        ("rank", ["--splits", "0"]),
        ("rank", ["--splits", "-1"]),
        ("rank", ["--fraction", "0"]),
    ],
    ids=lambda v: "=".join(v).lstrip("-") if isinstance(v, list) else v,
)
def test_protocol_argument_out_of_range_exit_2(workspace, tmp_path, capsys, command, extra):
    _, ref_path = workspace["refs"][Granularity.Package]
    argv = [command, "--manifest", str(workspace["manifest"]), "--reference", str(ref_path)]
    if command == "train":
        argv += ["--out-model", str(tmp_path / "m.json"), "--grid", "5"]
    if command == "eval-random":
        argv += ["--grid", "5", "--out", str(tmp_path)]
    if command == "eval-temporal":
        argv += ["--train-cutoff", "2016-12-31", "--bin", "late:2017-01-01:2017-12-31",
                 "--n-trees", "5", "--out", str(tmp_path)]
    rc = main(argv + extra)
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["scan", "rank"])
def test_negative_top_exit_2(workspace, tmp_path, capsys, command):
    _, ref_path = workspace["refs"][Granularity.Package]
    if command == "scan":
        argv = ["scan", str(workspace["benign_apk"]), "--model", str(workspace["model"])]
    else:
        argv = ["rank", "--manifest", str(workspace["manifest"]), "--splits", "1"]
    argv += ["--reference", str(ref_path)]
    assert main(argv + ["--top", "0"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 1  # the header or verdict line
    rc = main(argv + ["--top", "-1"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err == "error: --top -1 < 0\n"
