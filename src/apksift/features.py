"""Occurrence-count feature vectors over a reference vocabulary.

Every invocation whose target key (at the list's granularity) appears in the
reference list bumps that feature by one; everything else is ignored. Counts
are raw occurrences, saturated at 2**31 - 1 so degenerate inputs cannot
overflow downstream consumers.
"""

from __future__ import annotations

import csv
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

from .apk import open_apk
from .dex import count_invoke_targets, extract_invokes, parse_dex
from .errors import IoFailure
from .invokes import InvokeSite, load_invoke_list_text
from .reference import ApiReferenceList, key_of

COUNT_CEILING = 2**31 - 1


@dataclass(frozen=True)
class FeatureVector:
    """Non-negative occurrence counts aligned to one reference list."""

    counts: tuple[int, ...]
    reference_fingerprint: str

    def __post_init__(self):
        if any(c < 0 for c in self.counts):
            raise ValueError("feature counts must be non-negative")

    def total(self) -> int:
        return sum(self.counts)


def _vector_from_counter(target_counts: Counter, ref: ApiReferenceList) -> FeatureVector:
    """Project occurrence counts per MethodRef onto the reference list."""
    g = ref.granularity
    index_of = ref.index_of
    counts = [0] * len(ref.entries)
    for target, n in target_counts.items():
        idx = index_of.get(key_of(target, g))
        if idx is not None:
            counts[idx] = min(counts[idx] + n, COUNT_CEILING)
    return FeatureVector(tuple(counts), ref.fingerprint)


def extract_features(invokes: Iterable[InvokeSite], ref: ApiReferenceList) -> FeatureVector:
    """Count invoke targets against the reference list (zero vector if empty)."""
    return _vector_from_counter(Counter(site.target for site in invokes), ref)


def features_from_dex_blobs(
    blobs: Sequence[bytes], ref: ApiReferenceList, strict: bool = False
) -> FeatureVector:
    target_counts: Counter = Counter()
    for blob in blobs:
        target_counts.update(count_invoke_targets(parse_dex(blob, strict=strict)))
    return _vector_from_counter(target_counts, ref)


INVOKE_LIST_SUFFIXES = (".txt", ".invokes", ".list")


def is_invoke_list_path(path) -> bool:
    import os

    return os.fspath(path).lower().endswith(INVOKE_LIST_SUFFIXES)


def extract_from_sample(path, ref: ApiReferenceList, strict: bool = False) -> FeatureVector:
    """Extract from an apk, or from an invoke-list fixture (by file suffix)."""
    if is_invoke_list_path(path):
        return extract_features(load_invoke_list_text(path), ref)
    return features_from_dex_blobs(open_apk(path).dex_blobs, ref, strict=strict)


def invokes_from_sample(path) -> tuple[InvokeSite, ...]:
    """Every invoke site of an apk (all DEX blobs in order), or of an invoke-list fixture."""
    if is_invoke_list_path(path):
        return tuple(load_invoke_list_text(path))
    return tuple(
        site for blob in open_apk(path).dex_blobs for site in extract_invokes(parse_dex(blob))
    )


def write_features_csv(
    rows: Iterable[tuple[str, str, FeatureVector]], ref: ApiReferenceList, path
) -> None:
    """Export vectors: header of keys, one row per sample (id, label, counts)."""
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["sample_id", "label", *ref.entries])
            for sample_id, label, fv in rows:
                if fv.reference_fingerprint != ref.fingerprint:
                    raise ValueError(f"{sample_id}: vector built against a different list")
                writer.writerow([sample_id, label, *fv.counts])
    except OSError as exc:
        raise IoFailure(str(exc)) from exc
