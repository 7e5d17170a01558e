"""Golden outputs of every CLI subcommand on a small seeded corpus.

Each subcommand runs once through ``main``, and ``eval-obfuscation`` runs
once more per obfuscation kind on apks whose calls come from user,
platform and array-typed classes. The tests pin its exit code and
its stdout (with the temp directory written as ``<tmp>``), plus the sha256
of the model file, the features CSV, every report CSV and every report JSON
(with its ``runtime_seconds`` line removed). A change that keeps behaviour the same
leaves every literal below unchanged; the floats behind the digests are
computed on the host, so a different libm or numpy may move them.
"""

import hashlib
import io
import re
from contextlib import redirect_stdout
from datetime import date

import pytest

from apksift.cli import main
from apksift.obfuscation import ObfuscationKind
from apksift.reference import Granularity, save_reference
from apksift.synth import (
    EXPERIMENT_VOCAB,
    TemporalBinSpec,
    dex_from_invokes,
    generate_corpus,
    generate_temporal_corpus,
    reference_from_vocab,
    temporal_vocab,
    write_apk,
    write_corpus,
)

from conftest import write_mixed_caller_apks

TEMPORAL_BINS = (
    TemporalBinSpec("jan-sep", date(2017, 1, 1), date(2017, 9, 30), 12, 0.15),
    TemporalBinSpec("oct", date(2017, 10, 1), date(2017, 10, 31), 12, 0.35),
)

GOLDEN_STDOUT = {
    "eval-obfuscation": (
        0,
        "class-encryption\tbaseline\tdetection_rate=0.0000\n"
        "report written to <tmp>/obfuscation/obfuscation_class_encryption_baseline.json\n"
        "class-encryption\tplus_one\tdetection_rate=1.0000\n"
        "report written to <tmp>/obfuscation/obfuscation_class_encryption_plus_one.json\n"
    ),
    "eval-obfuscation-apk-class-encryption": (
        0,
        "class-encryption\tbaseline\tdetection_rate=1.0000\n"
        "report written to <tmp>/obfuscation-apk/obfuscation_class_encryption_baseline.json\n"
        "class-encryption\tplus_one\tdetection_rate=0.6250\n"
        "report written to <tmp>/obfuscation-apk/obfuscation_class_encryption_plus_one.json\n"
    ),
    "eval-obfuscation-apk-resource-encryption": (
        0,
        "resource-encryption\tbaseline\tdetection_rate=1.0000\n"
        "report written to <tmp>/obfuscation-apk/obfuscation_resource_encryption_baseline.json\n"
        "resource-encryption\tplus_one\tdetection_rate=1.0000\n"
        "report written to <tmp>/obfuscation-apk/obfuscation_resource_encryption_plus_one.json\n"
    ),
    "eval-obfuscation-apk-string-encryption": (
        0,
        "string-encryption\tbaseline\tdetection_rate=1.0000\n"
        "report written to <tmp>/obfuscation-apk/obfuscation_string_encryption_baseline.json\n"
        "string-encryption\tplus_one\tdetection_rate=1.0000\n"
        "report written to <tmp>/obfuscation-apk/obfuscation_string_encryption_plus_one.json\n"
    ),
    "eval-random": (
        0,
        "malware_vs_benign:auc\tmean=0.9994\tstd=0.0009\n"
        "malware_vs_benign:tpr_at_0.01_fpr\tmean=0.9750\tstd=0.0354\n"
        "ransomware_vs_benign:auc\tmean=0.9994\tstd=0.0009\n"
        "ransomware_vs_benign:tpr_at_0.01_fpr\tmean=0.9750\tstd=0.0354\n"
        "report written to <tmp>/random/random_split_report.json\n"
    ),
    "eval-temporal": (
        0,
        "bin=jan-sep\tn=12\tdetection_rate=0.8333\n"
        "bin=oct\tn=12\tdetection_rate=0.4167\n"
        "bin=dec\tn=0\tdetection_rate=n/a (empty)\n"
        "report written to <tmp>/temporal-out/temporal_report.json\n"
    ),
    "eval-obfuscation-csv": (
        0,
        "class-encryption\tbaseline\tdetection_rate=0.0000\n"
        "report written to <tmp>/obfuscation/obfuscation_class_encryption_baseline.csv\n"
        "class-encryption\tplus_one\tdetection_rate=1.0000\n"
        "report written to <tmp>/obfuscation/obfuscation_class_encryption_plus_one.csv\n"
    ),
    "eval-random-csv": (
        0,
        "malware_vs_benign:auc\tmean=0.9994\tstd=0.0009\n"
        "malware_vs_benign:tpr_at_0.01_fpr\tmean=0.9750\tstd=0.0354\n"
        "ransomware_vs_benign:auc\tmean=0.9994\tstd=0.0009\n"
        "ransomware_vs_benign:tpr_at_0.01_fpr\tmean=0.9750\tstd=0.0354\n"
        "report written to <tmp>/random/random_split_report.csv\n"
    ),
    "eval-temporal-csv": (
        0,
        "bin=jan-sep\tn=12\tdetection_rate=0.8333\n"
        "bin=oct\tn=12\tdetection_rate=0.4167\n"
        "bin=dec\tn=0\tdetection_rate=n/a (empty)\n"
        "report written to <tmp>/temporal-out/temporal_report.csv\n"
    ),
    "extract": (
        0,
        "wrote 120 vectors to <tmp>/features.csv\n"
    ),
    "model-info": (
        0,
        "format_version\t1\n"
        "tool_version\t0.1.0\n"
        "classes\ttrusted,malware,ransomware\n"
        "reference_fingerprint\tea0efc1f170e80a8\n"
        "feature_dim\t12\n"
        "n_trees\t10\n"
        "max_depth\tNone\n"
        "min_samples_leaf\t1\n"
        "features_per_split\tNone\n"
        "seed\t7\n"
        "total_nodes\t126\n"
    ),
    "rank": (
        0,
        "rank\tfeature\tmean_information_gain\n"
        "1\tandroid/app/admin/DevicePolicyManager\t0.800721\n"
        "2\tandroid/telephony/TelephonyManager\t0.629267\n"
        "3\tjavax/crypto/Cipher\t0.623638\n"
        "4\tjavax/crypto/CipherOutputStream\t0.612040\n"
        "5\tandroid/telephony/SmsManager\t0.554963\n"
        "6\tjava/io/File\t0.510710\n"
        "7\tjava/io/FileInputStream\t0.410489\n"
        "8\tandroid/app/Activity\t0.383025\n"
    ),
    "scan-apk": (
        11,
        "<tmp>/r0000.apk\transomware\ttrusted=0.0000\tmalware=0.1000\transomware=0.9000\n"
        "  feature\tandroid/telephony\tcount=3\tmodel_splits=14\n"
        "  feature\tandroid/app/admin\tcount=4\tmodel_splits=8\n"
        "  feature\tandroid/widget\tcount=2\tmodel_splits=8\n"
        "  feature\tjava/io\tcount=14\tmodel_splits=7\n"
        "  feature\tjavax/crypto\tcount=5\tmodel_splits=7\n"
    ),
    "scan-fixture": (
        10,
        "<tmp>/corpus/t0000.txt\ttrusted\ttrusted=1.0000\tmalware=0.0000\transomware=0.0000\n"
        "  feature\tandroid/widget\tcount=8\tmodel_splits=8\n"
        "  feature\tjava/io\tcount=3\tmodel_splits=7\n"
        "  feature\tjavax/crypto\tcount=1\tmodel_splits=7\n"
        "<tmp>/corpus/m0000.txt\tmalware\ttrusted=0.0000\tmalware=0.9000\transomware=0.1000\n"
        "  feature\tandroid/telephony\tcount=5\tmodel_splits=14\n"
        "  feature\tandroid/widget\tcount=3\tmodel_splits=8\n"
        "  feature\tjava/io\tcount=3\tmodel_splits=7\n"
    ),
    "train": (
        0,
        "n_trees=5\tcv_accuracy=0.9750\n"
        "n_trees=10\tcv_accuracy=0.9917\n"
        "chosen n_trees=10\n"
        "model written to <tmp>/model.json (fingerprint ea0efc1f170e80a8)\n"
    ),
}

GOLDEN_SHA256 = {
    "features.csv": "c9d8ee0109a86d71da3fd0bb6e8d679bf2d12c4dac3d08cf950154f967bdbaa5",
    "model.json": "c8bceb01222aa8555bc93504339d59ba24208c1f740ac10590cd1c536a2ba795",
    "obfuscation/obfuscation_class_encryption_baseline.csv": (
        "8d8f6ba2d8d1308c4065a90bc1ce9a04c3e8b7d4566049bc8d43cc6f430cfa87"
    ),
    "obfuscation/obfuscation_class_encryption_baseline.json": (
        "3955f8d5e615e3261269bae728a66d147617ce6ba3ed6c2907f2507ce6189094"
    ),
    "obfuscation/obfuscation_class_encryption_plus_one.csv": (
        "709369eb4605a7b10cb9a72b1c60e0f567951864ec0b0e866cba2b78e1565d26"
    ),
    "obfuscation/obfuscation_class_encryption_plus_one.json": (
        "064562b6079f82b695ef06263867e40a3643d71c0ec04ad8ac441aa2f0a169d7"
    ),
    "obfuscation-apk/obfuscation_class_encryption_baseline.json": (
        "0ab8cbc4f49a746fcf9b5d32cfb2f1a91313fad3d59ab822fbf10cd354d76cd9"
    ),
    "obfuscation-apk/obfuscation_class_encryption_plus_one.json": (
        "ba8ec67ffa19d22ef31c947fcdfe9233b3595d3e127896f12ccbe469a5a78e26"
    ),
    "obfuscation-apk/obfuscation_resource_encryption_baseline.json": (
        "adc2469d1b816a041a0ef470e9f08e782b143983bacf28898cdc291e7de6ac5f"
    ),
    "obfuscation-apk/obfuscation_resource_encryption_plus_one.json": (
        "483ed73a18ce9e6443a45c39b6716ffd695a4a221a64b6556a784fcfbc7a50d5"
    ),
    "obfuscation-apk/obfuscation_string_encryption_baseline.json": (
        "b580732869b1facd664d01c058b79a8152e6c7b27130622eb7942d4ad0b1af46"
    ),
    "obfuscation-apk/obfuscation_string_encryption_plus_one.json": (
        "10ae89d8e7ea758c868fd3db8468ec764b2bdb3311afc6675249221f1d769098"
    ),
    "random/random_split_report.csv": (
        "e767ee7af859d10064af8e1281a5e090600bf402ef46b1faab76e5f52541a42b"
    ),
    "random/random_split_report.json": (
        "48c27ac4bc8b6d81abf0e064cabc702532c649d0709c2755679c57a372a47c0b"
    ),
    "temporal-out/temporal_report.csv": (
        "23db3804af75787a6645f5ea0953d5efd95e08d693a8874d4c887876cf18b241"
    ),
    "temporal-out/temporal_report.json": (
        "9b02e7ee876da4457cfcf0a56723e6a07f9839426d3041ac9e3a63aea801925a"
    ),
}


def run_all(root):
    """Run every subcommand once under ``root``; return (exit code, stdout) per run."""
    samples = generate_corpus(n_per_class=40, seed=7)
    manifest = write_corpus(root / "corpus", samples)
    temporal = generate_temporal_corpus(
        seed=7, n_trusted=40, n_malware=24, n_train_ransomware=30, bins=TEMPORAL_BINS
    )
    temporal_manifest = write_corpus(root / "temporal", temporal)
    ref = {}
    for g in Granularity:
        ref[g] = root / f"{g.value}.txt"
        save_reference(reference_from_vocab(EXPERIMENT_VOCAB, g), ref[g])
    temporal_ref = root / "temporal-methods.txt"
    save_reference(reference_from_vocab(temporal_vocab(), Granularity.Method), temporal_ref)
    ransomware_apk = root / "r0000.apk"
    write_apk(ransomware_apk, [dex_from_invokes(list(samples[80].invokes))])
    model = root / "model.json"

    runs = {}

    def run(name, *argv):
        buf = io.StringIO()
        with redirect_stdout(buf):
            rc = main([str(a) for a in argv])
        runs[name] = (rc, buf.getvalue().replace(str(root), "<tmp>"))

    run("train", "train", "--manifest", manifest, "--reference", ref[Granularity.Package],
        "--out-model", model, "--grid", "5", "10", "--seed", "7")
    run("scan-apk", "scan", ransomware_apk, "--model", model,
        "--reference", ref[Granularity.Package])
    run("scan-fixture", "scan", root / "corpus" / "t0000.txt", root / "corpus" / "m0000.txt",
        "--model", model, "--reference", ref[Granularity.Package], "--top", "3")
    run("extract", "extract", "--manifest", manifest, "--reference", ref[Granularity.Method],
        "--out-csv", root / "features.csv")
    run("eval-random", "eval-random", "--manifest", manifest,
        "--reference", ref[Granularity.Package], "--repeats", "2", "--grid", "5", "10",
        "--seed", "7", "--out", root / "random")
    run("eval-temporal", "eval-temporal", "--manifest", temporal_manifest,
        "--reference", temporal_ref, "--train-cutoff", "2016-12-31",
        "--bin", "jan-sep:2017-01-01:2017-09-30", "--bin", "oct:2017-10-01:2017-10-31",
        "--bin", "dec:2017-12-01:2017-12-31", "--n-trees", "15", "--seed", "7",
        "--out", root / "temporal-out")
    run("eval-obfuscation", "eval-obfuscation", "--manifest", manifest,
        "--reference", ref[Granularity.Method], "--kind", "class-encryption", "--plus-one",
        "--n-trees", "15", "--seed", "7", "--out", root / "obfuscation")
    # the same three protocols again, written as CSV next to their JSON reports
    run("eval-random-csv", "eval-random", "--manifest", manifest,
        "--reference", ref[Granularity.Package], "--repeats", "2", "--grid", "5", "10",
        "--seed", "7", "--out", root / "random", "--format", "csv")
    run("eval-temporal-csv", "eval-temporal", "--manifest", temporal_manifest,
        "--reference", temporal_ref, "--train-cutoff", "2016-12-31",
        "--bin", "jan-sep:2017-01-01:2017-09-30", "--bin", "oct:2017-10-01:2017-10-31",
        "--bin", "dec:2017-12-01:2017-12-31", "--n-trees", "15", "--seed", "7",
        "--out", root / "temporal-out", "--format", "csv")
    run("eval-obfuscation-csv", "eval-obfuscation", "--manifest", manifest,
        "--reference", ref[Granularity.Method], "--kind", "class-encryption", "--plus-one",
        "--n-trees", "15", "--seed", "7", "--out", root / "obfuscation", "--format", "csv")
    apk_manifest = write_mixed_caller_apks(root / "apks", generate_corpus(n_per_class=8, seed=11))
    for kind in ObfuscationKind:
        run(f"eval-obfuscation-apk-{kind.value}", "eval-obfuscation", "--manifest", apk_manifest,
            "--reference", ref[Granularity.Method], "--kind", kind.value, "--plus-one",
            "--n-trees", "15", "--seed", "7", "--out", root / "obfuscation-apk")
    run("rank", "rank", "--manifest", manifest, "--reference", ref[Granularity.Class],
        "--splits", "3", "--top", "8", "--seed", "7")
    run("model-info", "model-info", "--model", model)
    return runs


@pytest.fixture(scope="module")
def golden_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    return root, run_all(root)


def _file_digest(path) -> str:
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".json" and path.name != "model.json":
        text = re.sub(r'^  "runtime_seconds": [^\n]*\n', "", text, flags=re.M)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_every_subcommand_is_pinned(golden_run):
    _, runs = golden_run
    assert sorted(runs) == sorted(GOLDEN_STDOUT)


@pytest.mark.parametrize("name", sorted(GOLDEN_STDOUT))
def test_exit_code_and_stdout(golden_run, name):
    _, runs = golden_run
    assert runs[name] == GOLDEN_STDOUT[name]


@pytest.mark.parametrize("relpath", sorted(GOLDEN_SHA256))
def test_output_file_digest(golden_run, relpath):
    root, _ = golden_run
    assert _file_digest(root / relpath) == GOLDEN_SHA256[relpath]


def test_every_output_file_is_pinned(golden_run):
    root, _ = golden_run
    written = {"model.json", "features.csv"}
    for sub in ("random", "temporal-out", "obfuscation", "obfuscation-apk"):
        written |= {f"{sub}/{p.name}" for p in (root / sub).iterdir()}
    assert written == set(GOLDEN_SHA256)
