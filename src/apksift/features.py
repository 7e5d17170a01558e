"""Occurrence-count feature vectors over a reference vocabulary.

Every invocation whose target key (at the list's granularity) appears in the
reference list bumps that feature by one; everything else is ignored. Counts
are raw occurrences, saturated at 2**31 - 1 so degenerate inputs cannot
overflow downstream consumers.
"""

from __future__ import annotations

import csv
from collections import Counter
from dataclasses import dataclass, replace
from typing import Iterable, Sequence

from .apk import open_apk
from .dex import count_invoke_targets, parse_dex
from .invokes import InvokeSite, load_invoke_list_text
from .obfuscation import ObfuscationKind, ObfuscationTransform, is_user_implemented
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


def platform_features(invokes: Iterable[InvokeSite], ref: ApiReferenceList) -> FeatureVector:
    """extract_features of the invokes made from platform classes alone."""
    return extract_features((s for s in invokes if not is_user_implemented(s.caller_class)), ref)


def caller_split(path, ref: ApiReferenceList) -> tuple[FeatureVector, FeatureVector]:
    """extract_from_sample and platform_features of one sample, read once: an
    apk's dex files are counted again through a view of their platform classes."""
    if is_invoke_list_path(path):
        sites = load_invoke_list_text(path)
        return extract_features(sites, ref), platform_features(sites, ref)
    every, platform = Counter(), Counter()
    for blob in open_apk(path).dex_blobs:
        dex = parse_dex(blob)
        every.update(count_invoke_targets(dex))
        kept = tuple(c for c in dex.class_items if not is_user_implemented(dex.caller_of(c)))
        platform.update(count_invoke_targets(replace(dex, class_items=kept)))
    return _vector_from_counter(every, ref), _vector_from_counter(platform, ref)


def obfuscated_vector(
    every: FeatureVector, platform: FeatureVector, t: ObfuscationTransform, ref: ApiReferenceList
) -> FeatureVector:
    """extract_features(transform(invokes, t), ref) from caller_split's
    vectors, less the calls to com/obf/StringVault, which are not System API."""
    base = platform if t.kind is ObfuscationKind.ClassEncryption else every
    counts = zip(base.counts, extract_features(t.stub_profile, ref).counts)
    return FeatureVector(tuple(min(a + b, COUNT_CEILING) for a, b in counts), ref.fingerprint)


def write_features_csv(
    rows: Iterable[tuple[str, str, FeatureVector]], ref: ApiReferenceList, path
) -> None:
    """Export vectors: header of keys, one row per sample (id, label, counts)."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["sample_id", "label", *ref.entries])
        for sample_id, label, fv in rows:
            if fv.reference_fingerprint != ref.fingerprint:
                raise ValueError(f"{sample_id}: vector built against a different list")
            writer.writerow([sample_id, label, *fv.counts])
