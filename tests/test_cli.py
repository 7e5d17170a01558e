"""Command-line surface: exit-code taxonomy, determinism, stream hygiene."""

import codecs
import csv
import io
import json
import logging
import re
import struct
import sys
import zlib
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apksift.cli import main
from apksift.dex import _string, parse_dex
from apksift.features import extract_features, features_from_dex_blobs
from apksift.forest import Hyperparams, Label, LabeledDataset, LabeledSample, save_model, train_forest
from apksift.invokes import InvokeKind
from apksift.reference import Granularity, key_of, make_reference, save_reference
from apksift.synth import (
    EXPERIMENT_VOCAB,
    DexBuilder,
    MethodDef,
    dex_from_invokes,
    generate_corpus,
    generate_temporal_corpus,
    ins_invoke,
    ins_return_void,
    random_dex,
    reference_from_vocab,
    write_apk,
    write_corpus,
)

from conftest import (
    CORRUPT_ZIPS,
    TYPE_LIST_FAULTS,
    assert_peak_within_8x,
    build_single_method_dex,
    chain_model_doc,
    corrupt_apk_bytes,
    locker_body,
    mixed_caller_dex,
    non_ascii_dex,
    shared_class_data_dex,
    tracemalloc_peak,
    with_bad_type_list,
    with_overlong_method_name,
    with_overlong_type_name,
    write_mixed_caller_apks,
    zeros_apk_bytes,
)


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


def test_scan_structural_error_exit_3(workspace, tmp_path, capsys):
    from conftest import build_single_method_dex

    blob, _ = build_single_method_dex(locker_body())
    patched = bytearray(blob)
    patched[36] = 116  # header_size
    bad = tmp_path / "bad.apk"
    write_apk(bad, [bytes(patched)])
    _, ref_path = workspace["refs"][Granularity.Package]
    rc = main(
        ["scan", str(bad), "--model", str(workspace["model"]), "--reference", str(ref_path)]
    )
    captured = capsys.readouterr()
    assert rc == 3
    assert captured.out == ""
    assert captured.err == "error: StructuralError: header_size 116\n"


def test_scan_overlong_type_name_exit_3(workspace, tmp_path, capsys):
    blob, _ = non_ascii_dex()
    _, ref_path = workspace["refs"][Granularity.Package]
    argv = ["--model", str(workspace["model"]), "--reference", str(ref_path)]
    good, bad = tmp_path / "good.apk", tmp_path / "bad.apk"
    write_apk(good, [blob])
    write_apk(bad, [with_overlong_type_name(blob)])
    assert main(["scan", str(good)] + argv) in (0, 10, 11)
    capsys.readouterr()
    rc = main(["scan", str(bad)] + argv)
    captured = capsys.readouterr()
    assert rc == 3
    assert captured.out == ""
    assert captured.err.startswith("error: InvalidSequence: ") and captured.err.count("\n") == 1


def test_scan_overlong_method_name_exit_3(workspace, tmp_path, capsys):
    # an invoked method's name is decoded at package granularity too
    blob, _ = non_ascii_dex()
    bad = tmp_path / "bad.apk"
    write_apk(bad, [with_overlong_method_name(blob)])
    _, ref_path = workspace["refs"][Granularity.Package]
    rc = main(["scan", str(bad), "--model", str(workspace["model"]), "--reference", str(ref_path)])
    captured = capsys.readouterr()
    assert rc == 3
    assert captured.out == ""
    assert captured.err == "error: InvalidSequence: byte 0xc1: invalid start byte\n"


@pytest.mark.parametrize("version", [b"+35", b" 35", b"35 ", b"\t35", b"3_5"])
def test_scan_version_not_three_digits_exit_3(workspace, tmp_path, capsys, version):
    blob = bytearray(random_dex(1)[0])
    blob[4:7] = version
    bad = tmp_path / "bad.apk"
    write_apk(bad, [bytes(blob)])
    _, ref_path = workspace["refs"][Granularity.Package]
    rc = main(["scan", str(bad), "--model", str(workspace["model"]), "--reference", str(ref_path)])
    captured = capsys.readouterr()
    assert rc == 3
    assert captured.err == f"error: BadMagic: magic {bytes(blob[:8])!r}\n"


def test_scan_zip_bomb_exit_3(workspace, tmp_path, capsys):
    bad = tmp_path / "bomb.apk"
    bad.write_bytes(zeros_apk_bytes(16 << 20))
    _, ref_path = workspace["refs"][Granularity.Package]
    rc = main(["scan", str(bad), "--model", str(workspace["model"]), "--reference", str(ref_path)])
    captured = capsys.readouterr()
    assert rc == 3
    assert captured.out == ""
    assert captured.err == f"error: BadMagic: magic {bytes(8)!r}\n"


@pytest.mark.parametrize("kind", TYPE_LIST_FAULTS)
def test_scan_classifies_a_dex_with_a_bad_type_list(workspace, tmp_path, capsys, kind):
    # the locker apk's dex, damaged where only a descriptor would read it
    blob, _ = build_single_method_dex(locker_body() * 3, class_path="com/fixture/Locker")
    bad = tmp_path / "bad.apk"
    write_apk(bad, [with_bad_type_list(blob, kind)[0]])
    _, ref_path = workspace["refs"][Granularity.Package]
    rc = main(["scan", str(bad), "--model", str(workspace["model"]), "--reference", str(ref_path)])
    assert rc == 11
    assert "error:" not in capsys.readouterr().err


# -- shared strings: many ids naming one long string ---------------------------

_API = "android/app/admin/DevicePolicyManager"


def _dex_of(body, filler=(), descriptor="()V"):
    builder = DexBuilder()
    builder.add_filler_strings(filler)
    builder.add_class("com/app/Main", [MethodDef("run", descriptor, body + [ins_return_void()])])
    return builder.build()


def _sharing(blob, strings, target, stride=0):
    """``blob`` with the string ids of ``strings`` pointed at the data of
    ``target``, its checksum made good again. With ``stride`` 1 the k-th id
    points k bytes further in, so each names a shorter suffix of ``target``."""
    offsets = parse_dex(blob).string_offsets
    index = {_string(blob, off): i for i, off in enumerate(offsets)}
    ids_off = struct.unpack_from("<I", blob, 60)[0]
    patched = bytearray(blob)
    start = offsets[index[target]]
    for k, s in enumerate(strings):
        struct.pack_into("<I", patched, ids_off + 4 * index[s], start + stride * k)
    struct.pack_into("<I", patched, 8, zlib.adler32(patched[12:]))
    return bytes(patched)


_OWNER = "p/" + "X" * 39_998


def _shared_string_dex(kind):
    if kind == "type-names":  # 4,000 parameter types named by one 40,000-character string
        params = [f"Lp/C{i};" for i in range(4000)]
        name = "Lp/" + "x" * 39_996 + ";"
        return _sharing(_dex_of([], [name], "(" + "".join(params) + ")V"), params, name)
    if kind == "method-names":  # 300 invoked methods named by one 500,000-character string
        names = [f"m{i}" for i in range(300)]
        name = "n" * 500_000
        body = [ins_invoke(InvokeKind.Static, _API, n, "()V") for n in names]
        return _sharing(_dex_of(body, [name]), names, name)
    if kind == "class-paths":  # 4,000 invoked methods of one 40,000-character class
        return _dex_of([ins_invoke(InvokeKind.Static, _OWNER, f"m{i}", "()V") for i in range(4000)])
    if kind == "many-classes":  # 600 classes: batched class_data passes over > WINDOW_CAP bytes
        builder = DexBuilder()
        for c in range(600):
            body = [ins_invoke(InvokeKind.Static, _API, f"m{c}", "()V"), ins_return_void()]
            builder.add_class(f"com/app/C{c}", [MethodDef(f"r{k}", "()V", body) for k in range(32)])
        return builder.build()
    # 10 invoked methods, each taking 250 parameters of one 60,000-character class
    descriptor = "(" + ("Lp/" + "X" * 59_995 + ";") * 250 + ")V"
    return _dex_of([ins_invoke(InvokeKind.Static, _API, f"m{i}", descriptor) for i in range(10)])


@pytest.mark.parametrize(
    "kind, strict",
    [
        ("type-names", False),
        ("method-names", False),
        ("method-names", True),
        ("descriptors", False),
        ("class-paths", False),
        ("many-classes", False),
    ],
)
def test_scan_memory_in_proportion_to_the_dex(workspace, tmp_path, capsys, kind, strict):
    blob = _shared_string_dex(kind)
    apk = tmp_path / "shared.apk"
    write_apk(apk, [blob])
    _, ref_path = workspace["refs"][Granularity.Package]
    argv = ["scan", str(apk), "--model", str(workspace["model"]), "--reference", str(ref_path)]
    argv += ["--strict-dex"] * strict
    main(argv)  # outside the window: the first scan of a process pays one-time costs
    rc, peak = tracemalloc_peak(lambda: main(argv))
    assert rc in (0, 10, 11)
    assert "error:" not in capsys.readouterr().err
    assert_peak_within_8x(peak, len(blob), "dex")


@pytest.mark.parametrize("g", list(Granularity))
def test_features_memory_in_proportion_to_the_dex(g):
    # scan above runs at package granularity only, the workspace model's
    blob = _shared_string_dex("class-paths")
    ref = make_reference(g, [key_of(_OWNER, "m0", g)])
    fv, peak = tracemalloc_peak(lambda: features_from_dex_blobs([blob], ref))
    assert fv.counts == ((1,) if g is Granularity.Method else (4000,))
    assert_peak_within_8x(peak, len(blob), "dex")


def _overlapping_string_dex(kind):
    """2,000 string ids pointed at successive bytes of one 40,000-character string."""
    if kind == "type-names":  # parameter types, decoded by parse_dex
        params = [f"Lp/C{i};" for i in range(2000)]
        name = "Lp/" + "x" * 39_996 + ";"
        return _sharing(_dex_of([], [name], "(" + "".join(params) + ")V"), params, name, 1)
    names = [f"m{i}" for i in range(2000)]
    name = "n" * 40_000
    if kind == "method-names":  # invoked methods, named by the count path
        body = [ins_invoke(InvokeKind.Static, _API, n, "()V") for n in names]
        return _sharing(_dex_of(body, [name]), names, name, 1)
    return _sharing(_dex_of([], names + [name]), names, name, 1)  # only --strict-dex decodes these


@pytest.mark.parametrize(
    "kind, strict", [("type-names", False), ("method-names", False), ("strings", True)]
)
def test_scan_overlapping_string_data_exit_3(workspace, tmp_path, capsys, kind, strict):
    blob = _overlapping_string_dex(kind)
    apk = tmp_path / "overlapping.apk"
    write_apk(apk, [blob])
    _, ref_path = workspace["refs"][Granularity.Package]
    argv = ["scan", str(apk), "--model", str(workspace["model"]), "--reference", str(ref_path)]
    if strict:
        assert main(argv) in (0, 10, 11)
        capsys.readouterr()
    rc, peak = tracemalloc_peak(lambda: main(argv + ["--strict-dex"] * strict))
    captured = capsys.readouterr()
    assert rc == 3
    assert captured.out == ""
    assert re.fullmatch(
        r"error: StructuralError: string data at \d+ overlaps other strings\n", captured.err
    )
    assert_peak_within_8x(peak, len(blob), "dex")


def test_scan_shared_class_data_exit_3(workspace, tmp_path, capsys):
    # decoded once per class_def, one item of 200 methods named by 2,001 of
    # them would cost memory in proportion to classes x methods
    blob, item = shared_class_data_dex(2001, 200)
    apk = tmp_path / "shared.apk"
    write_apk(apk, [blob])
    _, ref_path = workspace["refs"][Granularity.Package]
    argv = ["scan", str(apk), "--model", str(workspace["model"]), "--reference", str(ref_path)]
    main(argv)  # outside the window: the first scan of a process pays one-time costs
    capsys.readouterr()
    rc, peak = tracemalloc_peak(lambda: main(argv))
    captured = capsys.readouterr()
    assert rc == 3
    assert captured.out == ""
    assert captured.err == (
        f"error: StructuralError: class_data_off {item} shared by two class_defs\n"
    )
    assert_peak_within_8x(peak, len(blob), "dex")


def test_scan_missing_file_exit_3(workspace, tmp_path, capsys):
    missing = tmp_path / "missing.apk"
    _, ref_path = workspace["refs"][Granularity.Package]
    rc = main(
        ["scan", str(missing), "--model", str(workspace["model"]), "--reference", str(ref_path)]
    )
    assert rc == 3
    assert capsys.readouterr().err == f"error: [Errno 2] No such file or directory: '{missing}'\n"


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


@pytest.mark.parametrize("manifest", ["corpus", "missing"])
def test_eval_obfuscation_string_encryption_stub_exit_2(workspace, tmp_path, capsys, manifest):
    # string encryption injects no stub, so --stub would be silently ignored;
    # the pair is rejected before the manifest is read
    _, ref_path = workspace["refs"][Granularity.Method]
    stub = tmp_path / "stub.txt"
    stub.write_text("invoke-static Lcom/obf/Loader; Ljava/io/File;->delete()Z\n")
    path = workspace["manifest"] if manifest == "corpus" else tmp_path / "missing.csv"
    rc = main(
        ["eval-obfuscation", "--manifest", str(path), "--reference", str(ref_path),
         "--kind", "string-encryption", "--stub", str(stub), "--n-trees", "5",
         "--out", str(tmp_path / "out")]
    )
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err == (
        "error: --stub does not apply to --kind string-encryption: it injects no System API\n"
    )
    assert captured.out == ""
    assert not (tmp_path / "out").exists()


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
    "row, message",
    [
        ("r\0.txt,ransomware,2016-01-01,x", ":3: NUL byte in path"),
        ("r\udcff.txt,ransomware,2016-01-01,x", ": not UTF-8 (invalid start byte)"),
        ("r0000.txt", ":3: row has no path or label field"),
        ("r" * 140_000 + ".txt,ransomware", ": field larger than field limit (131072)"),
    ],
    ids=["nul-in-path", "not-utf8", "short-row", "oversize-field"],
)
def test_unreadable_manifest_is_a_usage_error(workspace, tmp_path, capsys, command, row, message):
    corpus = Path(workspace["manifest"]).parent
    rows = [f"{corpus / 't0000.txt'},trusted,2016-01-02,x", row]
    manifest, rc, err = _run_on_manifest(workspace, tmp_path, capsys, command, rows)
    assert rc == 2
    assert err == f"error: {manifest}{message}\n"


@pytest.mark.parametrize("kind", CORRUPT_ZIPS)
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


def test_scan_non_utf8_fixture_after_a_bom_names_its_line(workspace, tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(codecs.BOM_UTF8 + b"# fixture\n\xff\n")  # the bad byte right after a newline
    _, ref_path = workspace["refs"][Granularity.Package]
    rc = main(["scan", str(bad), "--model", str(workspace["model"]), "--reference", str(ref_path)])
    assert rc == 3
    assert capsys.readouterr().err.startswith("error: MalformedLine: line 2: not UTF-8")


@pytest.mark.parametrize("kind", ["manifest", "reference", "invoke-list"])
def test_leading_utf8_bom_changes_nothing(workspace, tmp_path, capsys, kind):
    corpus = Path(workspace["manifest"]).parent
    model, (_, ref_path) = str(workspace["model"]), workspace["refs"][Granularity.Package]
    if kind == "manifest":
        path = tmp_path / "m.csv"
        text = "path,label\n" + "".join(
            f"{corpus / name},{label}\n" for name, label in [("t0000.txt", "trusted"),
                                                             ("r0000.txt", "ransomware")]
        )
        argv = ["extract", "--manifest", str(path), "--reference", str(ref_path),
                "--out-csv", str(tmp_path / "f.csv")]
    elif kind == "reference":
        path, text = tmp_path / "p.ref", ref_path.read_text()
        argv = ["scan", str(corpus / "r0000.txt"), "--model", model, "--reference", str(path)]
    else:
        path, text = tmp_path / "sample.txt", (corpus / "r0000.txt").read_text()
        argv = ["scan", str(path), "--model", model, "--reference", str(ref_path)]
    outcomes = []
    for head in ("", "\ufeff"):
        path.write_text(head + text, encoding="utf-8")
        outcomes.append((main(argv), capsys.readouterr().out))
    assert outcomes[1] == outcomes[0]
    assert outcomes[0][0] in (0, 10, 11) and outcomes[0][1]


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
        (("feature_dim",), True),
        (("trees", 0, 0, 2), 10**400),  # too large for a float
        (("trees", 0, -1, 1), 10**400),
    ],
    ids=["trees-int", "tree-int", "leaf-string", "leaf-nan", "threshold-nan", "n_trees-string",
         "min_samples_leaf-0", "seed-negative", "n_trees-0", "max_depth-negative",
         "features_per_split-0", "max_depth-5", "min_samples_leaf-2", "features_per_split-3",
         "feature_dim-true", "threshold-huge-int", "leaf-huge-int"],
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
    "data",
    [b'{"format": "\xff"}', b"[" * 100_000, b'{"format": ' + b"7" * 5000 + b"}"],
    ids=["not-utf8", "deep-nesting", "5000-digit-int"],  # json.dumps cannot write the last
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


def test_eval_obfuscation_plus_one_id_never_collides(workspace, tmp_path, capsys):
    # r.apk is the only ransomware row, so the seeded pick is r.apk whatever
    # the seed; the injected copy must not take the id of the row r.apk+obf
    samples = generate_corpus(n_per_class=1, seed=3)
    rows = []
    for path, s in (("r.apk", samples[2]), ("r.apk+obf", samples[0]), ("m.apk", samples[1])):
        write_apk(tmp_path / path, [dex_from_invokes(list(s.invokes))])
        rows.append(f"{path},{s.label.value}")
    _, ref_path = workspace["refs"][Granularity.Method]
    rc = main(["eval-obfuscation", "--manifest", str(_manifest(tmp_path, rows)),
               "--reference", str(ref_path), "--plus-one", "--n-trees", "5", "--seed", "1",
               "--out", str(tmp_path / "out")])
    out = capsys.readouterr().out
    assert rc == 0
    arms = [line.rpartition("\t")[0] for line in out.splitlines() if "detection_rate=" in line]
    assert arms == ["class-encryption\tbaseline", "class-encryption\tplus_one"]


def _walk_fault_dex() -> bytes:
    """A dex whose one code item declares 2 of its 4 code units, so the walk
    of a user class overruns insns_size."""
    site = generate_corpus(n_per_class=1, seed=3)[2].invokes[0]
    blob = bytearray(mixed_caller_dex([("com/app/Broken", [site])]))
    code_off = parse_dex(bytes(blob)).class_items[0].code_offsets[0]
    struct.pack_into("<I", blob, code_off + 12, 2)
    return bytes(blob)


def test_eval_obfuscation_counts_apks_without_invoke_sites(
    workspace, tmp_path, capsys, caplog, monkeypatch
):
    # eval-obfuscation counts invokes per method index as every command does:
    # nothing on its path resolves one InvokeSite per call or rebuilds a list
    def per_site_path(*args, **kwargs):
        raise AssertionError("per-site path reached")

    for name, module in list(sys.modules.items()):
        for attr in ("extract_invokes", "transform"):
            if name.partition(".")[0] == "apksift" and hasattr(module, attr):
                monkeypatch.setattr(module, attr, per_site_path)
    corpus = tmp_path / "apks"
    manifest = write_mixed_caller_apks(corpus, generate_corpus(n_per_class=6, seed=5))
    header_fault = bytearray(mixed_caller_dex([]))
    header_fault[36] = 0x71  # header_size
    (corpus / "junk.apk").write_bytes(b"not a zip")
    write_apk(corpus / "header.apk", [bytes(header_fault)])
    write_apk(corpus / "walk.apk", [_walk_fault_dex()])
    with open(manifest, "a", encoding="utf-8") as fh:
        fh.write("junk.apk,ransomware\nheader.apk,trusted\nwalk.apk,ransomware\n")
    _, ref_path = workspace["refs"][Granularity.Method]
    with caplog.at_level(logging.WARNING, logger="apksift"):
        rc = main(["eval-obfuscation", "--manifest", str(manifest), "--reference", str(ref_path),
                   "--plus-one", "--n-trees", "5", "--out", str(tmp_path / "out")])
    assert rc == 0
    assert capsys.readouterr().out.count("detection_rate=") == 2
    skipped = [r.args[0] for r in caplog.records if r.msg.startswith("skipping")]
    assert skipped == ["junk.apk", "header.apk", "walk.apk"]


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


@pytest.mark.parametrize(
    "command, extra, side",
    [
        ("rank", ["--fraction", "0.4"], "train"),
        ("rank", ["--fraction", "0.9"], "test"),
        ("eval-temporal", ["--train-cutoff", "2016-12-31", "--bin", "a:2017-01-01:2017-02-01",
                           "--n-trees", "3"], "test"),
    ],
    ids=["rank-fraction=0.4", "rank-fraction=0.9", "eval-temporal"],
)
def test_split_with_an_empty_side_exit_2(workspace, tmp_path, capsys, command, extra, side):
    corpus = Path(workspace["manifest"]).parent
    rows = [f"{corpus / f'{p}0000.txt'},{label},2016-01-02,x"
            for p, label in (("t", "trusted"), ("m", "malware"), ("r", "ransomware"))]
    _, ref_path = workspace["refs"][Granularity.Package]
    argv = [command, "--manifest", str(_manifest(tmp_path, rows)), "--reference", str(ref_path)]
    if command == "eval-temporal":
        argv += ["--out", str(tmp_path)]
    rc = main(argv + extra)
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: split fraction ") and err.count("\n") == 1
    assert f"leaves the {side} side empty" in err
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


@pytest.mark.parametrize(
    "command", ["train", "eval-random", "eval-temporal", "eval-obfuscation", "rank"]
)
def test_negative_seed_exit_2(workspace, tmp_path, capsys, command):
    _, ref_path = workspace["refs"][Granularity.Package]
    argv = [command, "--manifest", str(workspace["manifest"]), "--reference", str(ref_path)]
    if command == "train":
        argv += ["--out-model", str(tmp_path / "m.json")]
    if command == "eval-temporal":
        argv += ["--train-cutoff", "2016-12-31", "--bin", "late:2017-01-01:2017-12-31"]
    if command.startswith("eval-"):
        argv += ["--out", str(tmp_path)]
    rc = main(argv + ["--seed", "-1"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err == "error: --seed -1 < 0\n"
    assert list(tmp_path.iterdir()) == []


def test_manifest_row_without_optional_columns_loads(workspace, tmp_path, capsys):
    corpus = Path(workspace["manifest"]).parent
    rows = [f"{corpus / 't0000.txt'},trusted", f"{corpus / 'r0000.txt'},ransomware,2016-01-01"]
    _, rc, err = _run_on_manifest(workspace, tmp_path, capsys, "extract", rows)
    assert rc == 0 and err == ""
    assert len((tmp_path / "f.csv").read_text().splitlines()) == 1 + 2


# -- hostile inputs: every input ends in an exit code and one error line -------

_FUZZ = settings(derandomize=True, deadline=None, database=None, max_examples=200)

# (operation, position, byte); positions wrap around the input's length
_EDITS = st.lists(
    st.tuples(
        st.sampled_from(["set", "set", "insert", "delete", "truncate"]),
        st.integers(0, 2**32),
        st.integers(0, 255),
    ),
    min_size=1,
    max_size=6,
)


def _mutate(data: bytes, edits) -> bytes:
    out = bytearray(data)
    for op, pos, value in edits:
        i = pos % (len(out) + 1)
        if op == "insert":
            out[i:i] = bytes([value])
        elif op == "truncate":
            del out[i:]
        elif i < len(out):
            if op == "set":
                out[i] = value
            else:
                del out[i : i + 1]
    return bytes(out)


def _assert_contract(argv):
    """main returns an exit code of the taxonomy and prints at most one error line."""
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        rc = main(argv)
    assert rc in {0, 2, 3, 4, 10, 11}
    assert sum(line.startswith("error:") for line in err.getvalue().splitlines()) <= 1


@pytest.fixture(scope="module")
def fuzz_inputs(workspace):
    """Per input kind: (valid bytes, file the mutation is written to, argv reading it)."""
    root = workspace["root"] / "fuzz"
    root.mkdir()
    corpus = Path(workspace["manifest"]).parent
    manifest = "path,label,first_seen,family\n" + "".join(
        f"../corpus/{name}.txt,{label},2016-01-02,x\n"
        for name, label in (("t0000", "trusted"), ("m0000", "malware"), ("r0000", "ransomware"))
    )
    model, (_, ref) = str(workspace["model"]), workspace["refs"][Granularity.Package]
    scan = ["scan", "--model", model, "--reference", str(ref)]
    benign = str(workspace["benign_apk"])
    kinds = {
        "apk": (workspace["benign_apk"].read_bytes(), "input.apk", scan),
        "invoke-list": ((corpus / "r0000.txt").read_bytes(), "input.txt", scan),
        "reference": (ref.read_bytes(), "input.ref", ["scan", benign, "--model", model, "--reference"]),
        "manifest": (manifest.encode(), "input.csv",
                     ["extract", "--reference", str(ref), "--out-csv", str(root / "f.csv"), "--manifest"]),
        "model": (workspace["model"].read_bytes(), "input.json", ["scan", benign, "--reference", str(ref), "--model"]),
    }
    return root, kinds


@pytest.mark.parametrize("kind", ["apk", "invoke-list", "reference", "manifest", "model"])
@_FUZZ
@given(edits=_EDITS)
def test_mutated_input_reaches_an_exit_code(fuzz_inputs, kind, edits):
    root, kinds = fuzz_inputs
    data, name, argv = kinds[kind]
    path = root / name
    path.write_bytes(_mutate(data, edits))
    _assert_contract(argv + [str(path)])


@settings(_FUZZ, max_examples=300)
@given(edits=_EDITS, strict=st.booleans())
def test_mutated_dex_reaches_an_exit_code(fuzz_inputs, workspace, edits, strict):
    """The dex is mutated before it is zipped: mutating the archive trips the
    zip CRC check, so the DEX parser would never see the damage."""
    root, kinds = fuzz_inputs
    path = root / "dex.apk"
    write_apk(path, [_mutate(random_dex(1)[0], edits)])
    _assert_contract(kinds["apk"][2] + [str(path)] + ["--strict-dex"] * strict)


_MANIFEST_FIELDS = st.one_of(
    st.sampled_from(["../corpus/t0000.txt", "../corpus/r0000.txt", "trusted", "ransomware",
                     "2016-01-02", "2016-13-45", "path", "label", ""]),
    st.text(max_size=6),
    st.just("y" * 140_000),
)


@_FUZZ
@given(rows=st.lists(st.lists(_MANIFEST_FIELDS, max_size=5), max_size=4))
def test_manifest_rows_reach_an_exit_code(fuzz_inputs, rows):
    root, kinds = fuzz_inputs
    path = root / "rows.csv"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["path", "label", "first_seen", "family"])
        writer.writerows(rows)
    _assert_contract(kinds["manifest"][2] + [str(path)])
