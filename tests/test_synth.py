"""Synthetic fixtures: what ``synth`` produces is pinned byte for byte.

The parser oracles and the benchmark inputs are both computed by ``synth``
itself, so they cannot show that a change to ``synth`` left its output
alone. One digest over the fixtures can.
"""

import hashlib

from apksift.dex import _string, parse_dex
from apksift.invokes import dumps_invoke_list
from apksift.reference import Granularity
from apksift.synth import (
    EXPERIMENT_VOCAB,
    DexBuilder,
    benchmark_dex,
    generate_corpus,
    generate_temporal_corpus,
    random_dex,
    reference_from_vocab,
    temporal_vocab,
)

# sha256 captured from the synth module before its descriptor and key
# rules moved to invokes.class_path_of and reference.target_of_key
SYNTH_DIGEST = "414cbb6bbc22a85f5718b922031114502fe234582825d8fd4b44f966f9adfef2"


def synth_digest() -> str:
    h = hashlib.sha256()
    for seed in range(20):
        blob, expected = random_dex(seed)
        h.update(blob)
        h.update(dumps_invoke_list(expected).encode())
    h.update(benchmark_dex(7))
    for samples in (generate_corpus(50, seed=2), generate_temporal_corpus(seed=2)):
        for s in samples:
            h.update(f"{s.sample_id} {s.label.value} {s.first_seen.isoformat()}\n".encode())
            h.update(dumps_invoke_list(s.invokes).encode())
    for vocab in (EXPERIMENT_VOCAB, temporal_vocab()):
        for g in Granularity:
            h.update(f"# {g.value}\n".encode())
            h.update("\n".join(reference_from_vocab(vocab, g).entries).encode())
    return h.hexdigest()


def test_synth_output_pinned():
    assert synth_digest() == SYNTH_DIGEST


def _utf16(s: str) -> bytes:
    return s.encode("utf-16-be", "surrogatepass")


def test_string_and_type_ids_in_utf16_order():
    # by code point U+FF01 sorts before U+1F600; by UTF-16 code unit, the
    # order the DEX format prescribes, it sorts after the surrogate 0xD83D
    b = DexBuilder()
    b.add_filler_strings(["\uff01", "\U0001f600"])
    b.add_class("p/\uff01", [])
    b.add_class("p/\U0001f600", [])
    dex = parse_dex(b.build())
    pool = [_string(dex.blob, off) for off in dex.string_offsets]
    assert pool == sorted(pool, key=_utf16)
    assert pool.index("\U0001f600") < pool.index("\uff01")
    assert list(dex.type_names) == sorted(dex.type_names, key=_utf16)
    assert dex.type_names.index("Lp/\U0001f600;") < dex.type_names.index("Lp/\uff01;")
