"""Synthetic fixtures: what ``synth`` produces is pinned byte for byte.

The parser oracles and the benchmark inputs are both computed by ``synth``
itself, so they cannot show that a change to ``synth`` left its output
alone. One digest over the fixtures can.
"""

import hashlib

from apksift.invokes import dumps_invoke_list
from apksift.reference import Granularity
from apksift.synth import (
    EXPERIMENT_VOCAB,
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
