"""Seeded benchmark inputs and their oracles, with an on-disk cache.

Every input is made from the workload seed with ``apksift.synth``: dex files
come from ``DexBuilder``, whose ``expected_invokes`` is the ground truth for
the apk's feature vector, and the invoke-list corpus comes from
``generate_corpus``. Expected vectors are counted here from that ground
truth, with a plain dictionary over the vocabulary, so the parser and the
feature code under test never act as their own oracle.

The shape of a workload (how many apks, dex sizes, class counts, rows) is
fixed; the seed chooses the contents. That keeps the cost of one run nearly
the same from seed to seed while the bytes differ.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import random
import shutil
import struct
import time
import zipfile
from pathlib import Path

MIB = 1024 * 1024
GEN_VERSION = 1
KEEP_CACHED = 4  # entries kept per workload and scale; older ones are deleted
ZIP_DATE = (2017, 1, 1, 0, 0, 0)

# scan-large: one tuple per apk, one (dex MiB, classes) pair per classes*.dex.
# Code volume is classes x 8 methods; the rest of each dex is string pool.
SCAN_APKS = {
    "full": (
        ((3, 400),),  # one dex, mostly string pool
        ((3, 700), (3, 500)),  # two small dex files
        ((5, 2200),),  # one dex, about half code
        ((6, 4000),),  # one dex, mostly code
        ((8, 3000), (4, 1000), (3, 600)),  # three dex files
    ),
    "smoke": (((0.25, 40),), ((0.2, 30), (0.2, 20))),
}
SCAN_METHODS_PER_CLASS = 8
BODY_LIBRARY = 1024  # distinct method bodies per dex; methods draw from them

# extract-corpus: good rows with class counts spread log-evenly over
# [1, max_classes], plus a fixed set of malformed rows.
EXTRACT = {
    "full": {"good": 290, "max_classes": 100, "bad": 3, "bomb_mib": 32},
    "smoke": {"good": 16, "max_classes": 10, "bad": 1, "bomb_mib": 1},
}
EXTRACT_METHODS_PER_CLASS = 3
# malformed kind -> the ApksiftError subclass the loader must skip it with
MALFORMED_ERRORS = {
    "truncated-zip": "NotAZipArchive",
    "bad-magic": "BadMagic",
    "truncated-code": "StructuralError",
    "bomb": "BadMagic",
}

# train-demo: the README flow on a write_corpus manifest
TRAIN = {
    "full": {"per_class": 300, "grid": [10, 30], "cv_folds": 10, "repeats": 1},
    "smoke": {"per_class": 60, "grid": [10, 12], "cv_folds": 3, "repeats": 1},
}
SCAN_MODEL = {
    "full": {"per_class": 100, "n_trees": 30},
    "smoke": {"per_class": 10, "n_trees": 3},
}

_OTHER_TARGETS = (
    ("Ljava/util/ArrayList;", "add", "(Ljava/lang/Object;)Z"),
    ("Ljava/util/HashMap;", "put", "(Ljava/lang/Object;Ljava/lang/Object;)Ljava/lang/Object;"),
    ("Landroid/util/Log;", "d", "(Ljava/lang/String;Ljava/lang/String;)I"),
    ("Landroid/os/Handler;", "post", "(Ljava/lang/Runnable;)Z"),
    ("Ljava/lang/Integer;", "parseInt", "(Ljava/lang/String;)I"),
    ("Landroid/view/View;", "setVisibility", "(I)V"),
    ("[Ljava/lang/String;", "clone", "()Ljava/lang/Object;"),  # normalized receiver
    ("[B", "clone", "()Ljava/lang/Object;"),  # primitive receiver: never a site
)
_MARKER = 0xB0B5  # const/16 v15 literal that tags the method to truncate


def cache_key(workload: str, seed: int, scale: str, src: Path) -> str:
    h = hashlib.sha256()
    h.update(f"{GEN_VERSION}:{workload}:{seed}:{scale}".encode())
    h.update(Path(__file__).read_bytes())
    h.update((src / "apksift" / "synth.py").read_bytes())
    return f"{scale}-seed{seed}-{h.hexdigest()[:12]}"


def prepare(workload: str, seed: int, scale: str, cache_root: Path, src: Path):
    """Return (inputs dir, oracle dict, generation seconds, cache hit)."""
    base = cache_root / workload
    out = base / cache_key(workload, seed, scale, src)
    oracle_path = out / "oracle.json"
    if oracle_path.is_file():
        return out, json.loads(oracle_path.read_text()), 0.0, True
    if out.exists():
        shutil.rmtree(out)  # a generation that did not finish
    out.mkdir(parents=True)
    t0 = time.perf_counter()
    oracle = GENERATORS[workload](out, seed, scale)
    gen_s = time.perf_counter() - t0
    oracle_path.write_text(json.dumps(oracle))  # written last: marks the entry complete
    old = sorted(
        (p for p in base.iterdir() if p.name.startswith(f"{scale}-") and p != out),
        key=lambda p: p.stat().st_mtime,
    )
    for stale in old[: max(0, len(old) - (KEEP_CACHED - 1))]:
        shutil.rmtree(stale, ignore_errors=True)
    return out, oracle, gen_s, False


# -- shared pieces --------------------------------------------------------------


def _vocab() -> list[str]:
    from apksift.synth import EXPERIMENT_VOCAB

    return sorted(EXPERIMENT_VOCAB)


def _write_reference(out: Path) -> str:
    from apksift.reference import Granularity, save_reference
    from apksift.synth import EXPERIMENT_VOCAB, reference_from_vocab

    save_reference(reference_from_vocab(EXPERIMENT_VOCAB, Granularity.Method), out / "methods.txt")
    return "methods.txt"


def expected_vector(sites, vocab: list[str]) -> list[int]:
    """Method-granularity occurrence counts of ``sites`` over ``vocab``."""
    index = {key: i for i, key in enumerate(vocab)}
    counts = [0] * len(vocab)
    for site in sites:
        i = index.get(f"{site.target.class_path};->{site.target.name}")
        if i is not None:
            counts[i] += 1
    return counts


def _target_pool(rng: random.Random, vocab: list[str]):
    vocab_targets = [(f"L{k.split(';->')[0]};", k.split(";->")[1], "()V") for k in vocab]
    app_targets = [
        (f"Lcom/app/lib{u % 40}/Util{u};", f"op{u % 17}", "()V") for u in range(300)
    ]
    rng.shuffle(app_targets)
    return vocab_targets, list(_OTHER_TARGETS), app_targets


def _body(rng: random.Random, pools):
    from apksift import synth
    from apksift.invokes import InvokeKind

    vocab_targets, other_targets, app_targets = pools
    body = []
    for _ in range(rng.randrange(12, 40)):
        roll = rng.random()
        if roll < 0.2:
            pick = rng.random()
            pool = vocab_targets if pick < 0.3 else other_targets if pick < 0.4 else app_targets
            desc, name, mdesc = rng.choice(pool)
            kind = rng.random()
            kind = (
                InvokeKind.Virtual if kind < 0.55
                else InvokeKind.Static if kind < 0.75
                else InvokeKind.Direct if kind < 0.85
                else InvokeKind.Interface if kind < 0.95
                else InvokeKind.VirtualRange
            )
            body.append(synth.ins_invoke(kind, desc, name, mdesc))
        elif roll < 0.5:
            body.append(synth.ins_const16(1, rng.randrange(0, 0xFFFF)))
        elif roll < 0.7:
            body.append(synth.ins_move(0, 1))
        elif roll < 0.85:
            body.append(synth.ins_if_ne(0, 1, 6))
        elif roll < 0.995:
            body.append(synth.ins_add_int(0, 1, 2))
        else:
            body.append(synth.ins_sparse_switch_payload(rng.randrange(1, 5)))
    body.append(synth.ins_return_void())
    return body


def _dex(rng: random.Random, vocab, n_classes: int, methods: int, target_bytes: int = 0,
         marker_class: int | None = None):
    """A DexBuilder blob of ``n_classes`` classes, padded with pool strings
    up to about ``target_bytes``; returns (blob, expected_invokes)."""
    from apksift import synth
    from apksift.invokes import InvokeKind

    builder = synth.DexBuilder()
    pools = _target_pool(rng, vocab)
    library = [_body(rng, pools) for _ in range(min(BODY_LIBRARY, n_classes * methods))]
    tag = rng.randrange(1 << 30)
    for c in range(n_classes):
        defs = [synth.MethodDef(f"m{m}", "()V", rng.choice(library)) for m in range(methods)]
        if c == marker_class:
            vocab_desc, vocab_name, _ = pools[0][0]
            defs.append(synth.MethodDef("tail", "()V", [
                synth.ins_const16(15, _MARKER),
                synth.ins_invoke(InvokeKind.Virtual, vocab_desc, vocab_name, "()V"),
                synth.ins_return_void(),
            ]))
        builder.add_class(f"com/app{tag}/mod{c % 60}/Screen{c}", defs)
    # about 1150 bytes per 8-method class; the remainder becomes string pool
    gap = target_bytes - n_classes * methods * 144
    if gap > 0:
        builder.add_filler_strings(
            f"res/string/v{tag}_{i:06d}_" + "x" * 64 for i in range(gap // 100)
        )
    return builder.build(), builder.expected_invokes


def _zip_bytes(entries: dict[str, bytes], level: int = 6) -> bytes:
    buf = io.BytesIO()
    with zipfile.ZipFile(buf, "w") as zf:
        for name, payload in entries.items():
            info = zipfile.ZipInfo(name, date_time=ZIP_DATE)
            info.compress_type = zipfile.ZIP_DEFLATED
            zf.writestr(info, payload, compresslevel=level)
    return buf.getvalue()


def _apk_bytes(blobs, rng: random.Random) -> bytes:
    entries = {"AndroidManifest.xml": b"<manifest/>"}
    for i, blob in enumerate(blobs):
        entries["classes.dex" if i == 0 else f"classes{i + 1}.dex"] = blob
    entries["resources.arsc"] = rng.randbytes(2048)
    return _zip_bytes(entries)


def _truncate_marked_code_item(blob: bytes) -> bytes:
    """Cut the tagged method's insns_size so its invoke is truncated."""
    pattern = struct.pack("<2H", 0x13 | 15 << 8, _MARKER)
    pos = blob.find(pattern)
    size_at = pos - 4
    if pos < 0 or struct.unpack_from("<I", blob, size_at)[0] != 6:
        raise RuntimeError("marker method not found in generated dex")
    out = bytearray(blob)
    struct.pack_into("<I", out, size_at, 3)  # const/16 (2 units) + 1 of the invoke's 3
    return bytes(out)


def _write_manifest(path: Path, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["path", "label", "first_seen", "family"])
        writer.writerows(rows)


# -- generators ------------------------------------------------------------------


def gen_scan_large(out: Path, seed: int, scale: str) -> dict:
    from apksift.evaluation import dataset_from_invoke_samples
    from apksift.forest import Hyperparams, save_model, train_forest
    from apksift.reference import Granularity, load_reference
    from apksift.synth import generate_corpus

    rng = random.Random(f"scan-large:{seed}")
    vocab = _vocab()
    apks = []
    for a, shape in enumerate(SCAN_APKS[scale]):
        blobs, expected = [], [0] * len(vocab)
        for mib, n_classes in shape:
            blob, sites = _dex(rng, vocab, n_classes, SCAN_METHODS_PER_CLASS, int(mib * MIB))
            blobs.append(blob)
            expected = [x + y for x, y in zip(expected, expected_vector(sites, vocab))]
        name = f"app{a}.apk"
        (out / name).write_bytes(_apk_bytes(blobs, rng))
        apks.append({"path": name, "dex_bytes": sum(map(len, blobs)), "expected": expected})
    reference = _write_reference(out)
    ref = load_reference(out / reference, Granularity.Method)
    cfg = SCAN_MODEL[scale]
    data = dataset_from_invoke_samples(generate_corpus(cfg["per_class"], seed=seed), ref)
    save_model(train_forest(data, Hyperparams(n_trees=cfg["n_trees"], seed=seed)), out / "model.json")
    return {"vocab": vocab, "reference": reference, "model": "model.json", "apks": apks}


def gen_extract_corpus(out: Path, seed: int, scale: str) -> dict:
    cfg = EXTRACT[scale]
    rng = random.Random(f"extract-corpus:{seed}")
    vocab = _vocab()
    labels = ("trusted", "malware", "ransomware")
    sizes = [
        round(math.exp(math.log(cfg["max_classes"]) * i / (cfg["good"] - 1)))
        for i in range(cfg["good"])
    ]
    rng.shuffle(sizes)
    rows = [{"kind": "good", "classes": n} for n in sizes]
    for kind in ("truncated-zip", "bad-magic", "truncated-code"):
        rows += [{"kind": kind, "classes": 4} for _ in range(cfg["bad"])]
    rows.append({"kind": "bomb"})
    rng.shuffle(rows)
    manifest, oracle_rows = [], []
    for i, row in enumerate(rows):
        name = f"s{i:04d}.apk"
        kind = row["kind"]
        if kind == "bomb":
            payload = _zip_bytes({"classes.dex": bytes(cfg["bomb_mib"] * MIB)}, level=9)
        else:
            marker = row["classes"] // 2 if kind == "truncated-code" else None
            blob, sites = _dex(rng, vocab, row["classes"], EXTRACT_METHODS_PER_CLASS,
                               marker_class=marker)
            if kind == "bad-magic":
                blob = b"dey\n" + blob[4:]
            elif kind == "truncated-code":
                blob = _truncate_marked_code_item(blob)
            payload = _apk_bytes([blob], rng)
            if kind == "truncated-zip":
                payload = payload[: len(payload) * 3 // 5]
        (out / name).write_bytes(payload)
        manifest.append([name, rng.choice(labels), "2016-06-01", kind])
        entry = {"path": name, "kind": kind}
        if kind == "good":
            entry["expected"] = expected_vector(sites, vocab)
        else:
            entry["error"] = MALFORMED_ERRORS[kind]
        oracle_rows.append(entry)
    _write_manifest(out / "manifest.csv", manifest)
    return {"vocab": vocab, "reference": _write_reference(out), "manifest": "manifest.csv",
            "rows": oracle_rows}


def gen_train_demo(out: Path, seed: int, scale: str) -> dict:
    from apksift.synth import generate_corpus, write_corpus

    cfg = TRAIN[scale]
    vocab = _vocab()
    samples = generate_corpus(cfg["per_class"], seed=seed)
    write_corpus(out, samples)
    expected = {f"{s.sample_id}.txt": expected_vector(s.invokes, vocab) for s in samples}
    return {"vocab": vocab, "reference": _write_reference(out), "manifest": "manifest.csv",
            "expected": expected, **cfg}


GENERATORS = {
    "scan-large": gen_scan_large,
    "extract-corpus": gen_extract_corpus,
    "train-demo": gen_train_demo,
}
