"""Occurrence-count feature vectors over a reference vocabulary.

Every invocation whose target key (at the list's granularity) appears in the
reference list bumps that feature by one; everything else is ignored. Counts
are raw occurrences, saturated at 2**31 - 1 so degenerate inputs cannot
overflow downstream consumers.

A dex is counted per method index (``count_invoke_targets``), and each index
goes into the vector as its feature key: ``key_of`` of its class path and
name. The keys are streamed and none is kept, so memory does not grow with
the number of methods invoked on one long class path.

An invoke list is counted per distinct line (``invokes.count_invoke_list``):
occurrences are summed per (class path, name), and each distinct target
goes through ``key_of`` and into the vector once. The same pass sums the
calls made from platform classes, for ``caller_split``'s second vector,
asking ``is_user_implemented`` once per distinct caller. ``extract_features``
counts InvokeSites the same way, for in-memory samples, the stub profiles
and the tests' oracle.
"""

from __future__ import annotations

import csv
from collections import Counter
from dataclasses import dataclass, replace
from typing import Iterable, Iterator, Sequence

from .apk import open_apk
from .dex import DexFile, count_invoke_targets, parse_dex
from .invokes import InvokeSite, class_path_of, count_invoke_list
from .obfuscation import ObfuscationKind, ObfuscationTransform, is_user_implemented
from .reference import ApiReferenceList, Granularity, key_of

COUNT_CEILING = 2**31 - 1


@dataclass(frozen=True)
class FeatureVector:
    """Non-negative occurrence counts aligned to one reference list."""

    counts: tuple[int, ...]
    reference_fingerprint: str

    def __post_init__(self):
        if min(self.counts, default=0) < 0:
            raise ValueError("feature counts must be non-negative")

    def total(self) -> int:
        return sum(self.counts)


def _add(counts: list[int], keyed: Iterable[tuple[str | None, int]], ref: ApiReferenceList) -> None:
    """Add each (feature key, n) pair into ``counts``, a vector over ``ref``;
    keys outside the list, and None, are ignored."""
    index_of = ref.index_of
    for key, n in keyed:
        idx = index_of.get(key)
        if idx is not None:
            counts[idx] = min(counts[idx] + n, COUNT_CEILING)


def _dex_keys(dex: DexFile, g: Granularity) -> Iterator[tuple[str | None, int]]:
    """(feature key, sites) per method index ``dex`` invokes; every name is decoded."""
    for method_idx, n in count_invoke_targets(dex).items():
        class_idx, _, name_idx = dex.method_ids.item(method_idx)
        yield key_of(class_path_of(dex.type_names[class_idx]), dex.string(name_idx), g), n


def _vector(targets: dict[tuple[str, str], int], ref: ApiReferenceList) -> FeatureVector:
    """The vector over ``ref`` of the occurrences of each (class path, name)."""
    counts, g = [0] * len(ref), ref.granularity
    _add(counts, ((key_of(*t, g), n) for t, n in targets.items()), ref)
    return FeatureVector(tuple(counts), ref.fingerprint)


def extract_features(invokes: Iterable[InvokeSite], ref: ApiReferenceList) -> FeatureVector:
    """Count invoke targets against the reference list (zero vector if empty)."""
    return _vector(Counter((s.target.class_path, s.target.name) for s in invokes), ref)


def _list_targets(path) -> tuple[dict, dict]:
    """Occurrences of each (class path, name) of an invoke-list file: of every
    call, and of the calls made from platform classes."""
    every: dict[tuple[str, str], int] = {}
    platform: dict[tuple[str, str], int] = {}
    user_of: dict[str, bool] = {}
    for caller, class_path, name, n in count_invoke_list(path):
        target = class_path, name
        every[target] = every.get(target, 0) + n
        user = user_of.get(caller)
        if user is None:
            user = user_of[caller] = is_user_implemented(caller)
        if not user:
            platform[target] = platform.get(target, 0) + n
    return every, platform


def features_from_dex_blobs(
    blobs: Sequence[bytes], ref: ApiReferenceList, strict: bool = False
) -> FeatureVector:
    counts = [0] * len(ref)
    for blob in blobs:  # each dex is released before the next one parses
        _add(counts, _dex_keys(parse_dex(blob, strict=strict), ref.granularity), ref)
    return FeatureVector(tuple(counts), ref.fingerprint)


INVOKE_LIST_SUFFIXES = (".txt", ".invokes", ".list")


def is_invoke_list_path(path) -> bool:
    import os

    return os.fspath(path).lower().endswith(INVOKE_LIST_SUFFIXES)


def extract_from_sample(path, ref: ApiReferenceList, strict: bool = False) -> FeatureVector:
    """Extract from an apk, or from an invoke-list fixture (by file suffix)."""
    if is_invoke_list_path(path):
        return _vector(_list_targets(path)[0], ref)
    return features_from_dex_blobs(open_apk(path).dex_blobs, ref, strict=strict)


def platform_features(invokes: Iterable[InvokeSite], ref: ApiReferenceList) -> FeatureVector:
    """extract_features of the invokes made from platform classes alone."""
    return extract_features((s for s in invokes if not is_user_implemented(s.caller_class)), ref)


def caller_split(path, ref: ApiReferenceList) -> tuple[FeatureVector, FeatureVector]:
    """extract_from_sample and platform_features of one sample, read once: an
    apk's dex files are counted again through a view of their platform classes."""
    if is_invoke_list_path(path):
        every, platform = _list_targets(path)
        return _vector(every, ref), _vector(platform, ref)
    g, every, platform = ref.granularity, [0] * len(ref), [0] * len(ref)
    for blob in open_apk(path).dex_blobs:
        dex = parse_dex(blob)
        _add(every, _dex_keys(dex, g), ref)
        kept = tuple(c for c in dex.class_items if not is_user_implemented(dex.caller_of(c)))
        _add(platform, _dex_keys(replace(dex, class_items=kept), g), ref)
        del dex  # released before the next dex parses
    fingerprint = ref.fingerprint
    return FeatureVector(tuple(every), fingerprint), FeatureVector(tuple(platform), fingerprint)


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
