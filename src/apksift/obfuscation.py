"""Invoke-list transformations mimicking commercial obfuscation strategies.

``transform`` rewrites an invoke list, not DEX bytes: it is the readable
spec of each strategy and the test oracle of ``features.obfuscated_vector``,
which the protocol applies as count arithmetic. Each strategy's injected
call profile is fixed across samples (auditable invoke-list fixtures under
``data/stubs/``). Known approximation, stated up front: the stub contents
are plausible stand-ins for what a commercial protector injects, so any
conclusion drawn with them is about the mechanism, not a specific product.

* StringEncryption appends a handful of calls to a user-implemented
  decryptor. No System API is touched, so feature vectors are unchanged at
  every granularity.
* ResourceEncryption additionally appends a fixed crypto + stream-io stub.
* ClassEncryption drops every call made from user-implemented code and
  appends a fixed class-loading + crypto + io loader stub; all transformed
  samples therefore collapse onto one System-API-visible profile.
"""

from __future__ import annotations

import enum
import hashlib
from dataclasses import dataclass
from importlib import resources
from typing import Sequence

from .invokes import (
    InvokeKind,
    InvokeSite,
    MethodRef,
    dumps_invoke_list,
    loads_invoke_list,
)

# Callers whose class path starts with one of these are treated as platform
# code; everything else is user-implemented (the part class encryption hides).
SYSTEM_PACKAGE_PREFIXES = (
    "android/",
    "androidx/",
    "dalvik/",
    "java/",
    "javax/",
    "junit/",
    "kotlin/",
    "kotlinx/",
    "libcore/",
    "org/apache/",
    "org/json/",
    "org/w3c/",
    "org/xml/",
    "org/xmlpull/",
)


def is_user_implemented(class_path: str) -> bool:
    if not class_path:
        return True
    return not class_path.startswith(SYSTEM_PACKAGE_PREFIXES)


class ObfuscationKind(enum.Enum):
    StringEncryption = "string-encryption"
    ResourceEncryption = "resource-encryption"
    ClassEncryption = "class-encryption"


@dataclass(frozen=True)
class ObfuscationTransform:
    """One strategy: a fixed System-API stub plus a seed for the user-call noise."""

    kind: ObfuscationKind
    stub_profile: tuple[InvokeSite, ...]
    seed: int = 0


_STUB_FILES = {
    ObfuscationKind.StringEncryption: None,  # injects no System API
    ObfuscationKind.ResourceEncryption: "resource_encryption.txt",
    ObfuscationKind.ClassEncryption: "class_encryption.txt",
}


def load_stub_profile(kind: ObfuscationKind) -> tuple[InvokeSite, ...]:
    name = _STUB_FILES[kind]
    if name is None:
        return ()
    text = resources.files("apksift").joinpath("data/stubs").joinpath(name).read_text("utf-8")
    return tuple(loads_invoke_list(text))


def default_transform(kind: ObfuscationKind, seed: int = 0) -> ObfuscationTransform:
    return ObfuscationTransform(kind, load_stub_profile(kind), seed)


_DECRYPT_CALLER = "com/obf/StringVault"
_DECRYPT_TARGET = MethodRef(
    "com/obf/StringVault", "decrypt", "(Ljava/lang/String;)Ljava/lang/String;"
)


def _noise_count(invokes: Sequence[InvokeSite], seed: int) -> int:
    """Per-sample deterministic 1..5, keyed on content so samples differ."""
    digest = hashlib.sha256()
    digest.update(str(seed).encode())
    digest.update(dumps_invoke_list(invokes).encode())
    return 1 + digest.digest()[0] % 5


def _decryptor_calls(n: int) -> list[InvokeSite]:
    return [InvokeSite(InvokeKind.Static, _DECRYPT_CALLER, _DECRYPT_TARGET)] * n


def transform(invokes: Sequence[InvokeSite], t: ObfuscationTransform) -> list[InvokeSite]:
    """Apply one obfuscation strategy; the input list is never mutated."""
    if t.kind is ObfuscationKind.StringEncryption:
        return list(invokes) + _decryptor_calls(_noise_count(invokes, t.seed))
    if t.kind is ObfuscationKind.ResourceEncryption:
        return (
            list(invokes)
            + _decryptor_calls(_noise_count(invokes, t.seed))
            + list(t.stub_profile)
        )
    if t.kind is ObfuscationKind.ClassEncryption:
        kept = [s for s in invokes if not is_user_implemented(s.caller_class)]
        return kept + list(t.stub_profile)
    raise ValueError(f"unknown obfuscation kind {t.kind}")
