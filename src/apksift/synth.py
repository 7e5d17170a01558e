"""Synthetic fixtures: DEX assembly and labeled desk-scale corpora.

This module is test/experiment surface, not detection API. It provides

* ``DexBuilder`` — assembles structurally valid DEX blobs from class /
  method / instruction descriptions, recording the ground-truth invoke
  list at generation time (the oracle for the parser test suite);
* ``random_dex`` / ``benchmark_dex`` — randomized parser fixtures and a
  large realistic blob for throughput measurements;
* corpus generators — labeled invoke-list samples with class-distinct
  API usage profiles, plus a temporally drifting variant whose drift
  redistributes counts among same-package methods (invisible to
  package-granularity features by construction);
* ``write_corpus`` / ``write_apk`` — materialize fixtures on disk in the
  formats the CLI consumes.
"""

from __future__ import annotations

import csv
import random
import struct
import zipfile
from dataclasses import dataclass
from datetime import date, timedelta
from hashlib import sha1
from pathlib import Path
from typing import Iterable, Sequence
from zlib import adler32

import numpy as np

from .evaluation import InvokeSample
from .forest import CLASS_INDEX, CLASS_ORDER, Label
from .invokes import (
    KIND_BY_OPCODE,
    OPCODE_BY_KIND,
    InvokeKind,
    InvokeSite,
    MethodRef,
    class_path_of,
    dump_invoke_list_text,
)
from .reference import ApiReferenceList, Granularity, key_of, make_reference, project, target_of_key

# ---------------------------------------------------------------------------
# descriptor helpers


def _iter_type_descriptors(s: str):
    i = 0
    n = len(s)
    while i < n:
        start = i
        while s[i] == "[":
            i += 1
        if s[i] == "L":
            end = s.index(";", i)
            i = end + 1
        else:
            i += 1
        yield s[start:i]


def _split_descriptor(descriptor: str) -> tuple[list[str], str]:
    close = descriptor.index(")")
    params = list(_iter_type_descriptors(descriptor[1:close]))
    return params, descriptor[close + 1 :]


def _shorty(params: list[str], ret: str) -> str:
    def ch(d: str) -> str:
        return "L" if d[0] in "[L" else d

    return ch(ret) + "".join(ch(p) for p in params)


def _uleb(value: int) -> bytes:
    out = bytearray()
    while True:
        b = value & 0x7F
        value >>= 7
        if value:
            out.append(b | 0x80)
        else:
            out.append(b)
            return bytes(out)


# ---------------------------------------------------------------------------
# instruction mini-assembler: items are either tuples of 16-bit units or an
# ("invoke", opcode, class_descriptor, name, descriptor) placeholder resolved
# to a method index at build time.

Item = tuple


def ins_nop() -> Item:
    return (0x0000,)


def ins_const4(reg: int, value: int) -> Item:
    return (0x12 | (reg & 0xF) << 8 | (value & 0xF) << 12,)


def ins_const16(reg: int, value: int) -> Item:
    return (0x13 | (reg & 0xFF) << 8, value & 0xFFFF)


def ins_const(reg: int, value: int) -> Item:
    return (0x14 | (reg & 0xFF) << 8, value & 0xFFFF, (value >> 16) & 0xFFFF)


def ins_const_wide(reg: int) -> Item:
    return (0x18 | (reg & 0xFF) << 8, 0x1111, 0x2222, 0x3333, 0x4444)


def ins_move(dst: int, src: int) -> Item:
    return (0x01 | (dst & 0xF) << 8 | (src & 0xF) << 12,)


def ins_move_object(dst: int, src: int) -> Item:
    return (0x07 | (dst & 0xF) << 8 | (src & 0xF) << 12,)


def ins_move_result(reg: int) -> Item:
    return (0x0A | (reg & 0xFF) << 8,)


def ins_move_result_object(reg: int) -> Item:
    return (0x0C | (reg & 0xFF) << 8,)


def ins_return_void() -> Item:
    return (0x0E,)


def ins_if_ne(a: int, b: int, offset: int = 4) -> Item:
    return (0x33 | (a & 0xF) << 8 | (b & 0xF) << 12, offset & 0xFFFF)


def ins_goto(offset: int = 1) -> Item:
    return (0x28 | (offset & 0xFF) << 8,)


def ins_add_int(dst: int, a: int, b: int) -> Item:
    return (0x90 | (dst & 0xFF) << 8, (a & 0xFF) | (b & 0xFF) << 8)


def ins_aget(dst: int, arr: int, idx: int) -> Item:
    return (0x44 | (dst & 0xFF) << 8, (arr & 0xFF) | (idx & 0xFF) << 8)


def ins_sget(dst: int) -> Item:
    return (0x60 | (dst & 0xFF) << 8, 0)


def ins_cmp_long(dst: int, a: int, b: int) -> Item:
    return (0x31 | (dst & 0xFF) << 8, (a & 0xFF) | (b & 0xFF) << 8)


def ins_packed_switch_payload(n_targets: int) -> Item:
    units = [0x0100, n_targets, 0x0005, 0x0000]
    units.extend([0x0001, 0x0000] * n_targets)
    return tuple(units)


def ins_sparse_switch_payload(n_targets: int) -> Item:
    units = [0x0200, n_targets]
    units.extend([0x0002, 0x0000] * n_targets)  # keys
    units.extend([0x0003, 0x0000] * n_targets)  # targets
    return tuple(units)


def ins_fill_array_payload(element_width: int, count: int) -> Item:
    data_units = (element_width * count + 1) // 2
    units = [0x0300, element_width, count & 0xFFFF, (count >> 16) & 0xFFFF]
    units.extend([0xABCD] * data_units)
    return tuple(units)


def ins_invoke(kind: InvokeKind, class_path_or_desc: str, name: str, descriptor: str) -> Item:
    desc = (
        class_path_or_desc
        if class_path_or_desc.startswith(("L", "["))
        else f"L{class_path_or_desc};"
    )
    return ("invoke", OPCODE_BY_KIND[kind], desc, name, descriptor)


def ins_invoke_site(site: InvokeSite) -> Item:
    return ins_invoke(site.kind, site.target.class_path, site.target.name, site.target.descriptor)


# ---------------------------------------------------------------------------
# DEX assembly


@dataclass
class MethodDef:
    name: str
    descriptor: str  # e.g. "([B)I"
    body: list[Item] | None  # None -> abstract (no code item)


@dataclass
class ClassDef:
    class_path: str  # e.g. "com/fixture/App"
    methods: list[MethodDef]


class DexBuilder:
    """Assemble a DEX blob; records ground-truth invoke sites as added."""

    def __init__(self, version: int = 35):
        self.version = version
        self.classes: list[ClassDef] = []
        self.filler_strings: list[str] = []
        self.expected_invokes: list[InvokeSite] = []

    def add_class(self, class_path: str, methods: list[MethodDef]) -> None:
        self.classes.append(ClassDef(class_path, methods))
        for m in methods:
            for item in m.body or ():
                if item and item[0] == "invoke":
                    _, op, desc, name, mdesc = item
                    receiver = class_path_of(desc)
                    if receiver is not None:
                        target = MethodRef(receiver, name, mdesc)
                        self.expected_invokes.append(
                            InvokeSite(KIND_BY_OPCODE[op], class_path, target)
                        )

    def add_filler_strings(self, strings: Iterable[str]) -> None:
        self.filler_strings.extend(strings)

    def build(self) -> bytes:
        strings: set[str] = set(self.filler_strings)
        types: set[str] = set()
        protos: set[tuple[str, tuple[str, ...]]] = set()
        methods: set[tuple[str, str, tuple[str, tuple[str, ...]]]] = set()

        def note_proto(descriptor: str) -> tuple[str, tuple[str, ...]]:
            params, ret = _split_descriptor(descriptor)
            key = (ret, tuple(params))
            protos.add(key)
            strings.add(_shorty(params, ret))
            types.add(ret)
            types.update(params)
            return key

        for cd in self.classes:
            cdesc = f"L{cd.class_path};"
            types.add(cdesc)
            for m in cd.methods:
                strings.add(m.name)
                methods.add((cdesc, m.name, note_proto(m.descriptor)))
                for item in m.body or ():
                    if item and item[0] == "invoke":
                        _, _, tdesc, name, mdesc = item
                        types.add(tdesc)
                        strings.add(name)
                        methods.add((tdesc, name, note_proto(mdesc)))

        strings.update(types)
        # the DEX format orders string_ids by UTF-16 code units and type_ids
        # by string index
        string_list = sorted(strings, key=lambda s: s.encode("utf-16-be", "surrogatepass"))
        string_idx = {s: i for i, s in enumerate(string_list)}
        type_list = sorted(types, key=string_idx.__getitem__)
        type_idx = {t: i for i, t in enumerate(type_list)}
        proto_list = sorted(
            protos, key=lambda p: (type_idx[p[0]], tuple(type_idx[x] for x in p[1]))
        )
        proto_idx = {p: i for i, p in enumerate(proto_list)}
        method_list = sorted(
            methods,
            key=lambda m: (type_idx[m[0]], string_idx[m[1]], proto_idx[m[2]]),
        )
        method_idx = {m: i for i, m in enumerate(method_list)}

        n_str, n_type, n_proto, n_meth, n_class = (
            len(string_list),
            len(type_list),
            len(proto_list),
            len(method_list),
            len(self.classes),
        )
        string_ids_off = 112
        type_ids_off = string_ids_off + 4 * n_str
        proto_ids_off = type_ids_off + 4 * n_type
        method_ids_off = proto_ids_off + 12 * n_proto
        class_defs_off = method_ids_off + 8 * n_meth
        data_off = class_defs_off + 32 * n_class

        data = bytearray()

        def align4() -> None:
            while (data_off + len(data)) % 4:
                data.append(0)

        # type_lists for protos with parameters
        param_list_off: dict[tuple[str, ...], int] = {}
        for ret, params in proto_list:
            if params and params not in param_list_off:
                align4()
                param_list_off[params] = data_off + len(data)
                data += struct.pack("<I", len(params))
                for p in params:
                    data += struct.pack("<H", type_idx[p])

        # code items
        code_offs: dict[int, int] = {}  # id(MethodDef) -> offset
        for cd in self.classes:
            for m in cd.methods:
                if m.body is None:
                    continue
                units: list[int] = []
                for item in m.body:
                    if item and item[0] == "invoke":
                        _, op, tdesc, name, mdesc = item
                        params, ret = _split_descriptor(mdesc)
                        midx = method_idx[(tdesc, name, (ret, tuple(params)))]
                        units.extend((op | 0x1000, midx, 0x0000))
                    else:
                        units.extend(item)
                align4()
                code_offs[id(m)] = data_off + len(data)
                data += struct.pack("<4H2I", 8, 1, 2, 0, 0, len(units))
                data += struct.pack(f"<{len(units)}H", *units)

        # class_data items
        class_data_offs: list[int] = []
        for cd in self.classes:
            with_code = [m for m in cd.methods if m.body is not None]
            if not with_code:
                class_data_offs.append(0)
                continue
            encoded: list[tuple[int, int]] = []  # (method_idx, code_off)
            for m in with_code:
                params, ret = _split_descriptor(m.descriptor)
                midx = method_idx[(f"L{cd.class_path};", m.name, (ret, tuple(params)))]
                encoded.append((midx, code_offs[id(m)]))
            encoded.sort()
            class_data_offs.append(data_off + len(data))
            data += _uleb(0) + _uleb(0) + _uleb(len(encoded)) + _uleb(0)
            prev = 0
            for midx, coff in encoded:
                data += _uleb(midx - prev) + _uleb(0x1) + _uleb(coff)
                prev = midx
        # string data
        string_data_offs = []
        for s in string_list:
            string_data_offs.append(data_off + len(data))
            utf16_len = len(s.encode("utf-16-le", "surrogatepass")) // 2
            data += _uleb(utf16_len) + _encode_mutf8(s) + b"\x00"

        total = data_off + len(data)
        blob = bytearray(total)
        blob[0:8] = f"dex\n{self.version:03d}\x00".encode("ascii")
        struct.pack_into(
            "<20I",
            blob,
            32,
            total,  # file_size
            112,  # header_size
            0x12345678,  # endian_tag
            0,
            0,  # link
            0,  # map_off
            n_str,
            string_ids_off,
            n_type,
            type_ids_off,
            n_proto,
            proto_ids_off,
            0,
            0,  # field_ids
            n_meth,
            method_ids_off,
            n_class,
            class_defs_off,
            len(data),
            data_off,
        )
        struct.pack_into(f"<{n_str}I", blob, string_ids_off, *string_data_offs)
        struct.pack_into(
            f"<{n_type}I", blob, type_ids_off, *(string_idx[t] for t in type_list)
        )
        for i, (ret, params) in enumerate(proto_list):
            struct.pack_into(
                "<3I",
                blob,
                proto_ids_off + 12 * i,
                string_idx[_shorty(list(params), ret)],
                type_idx[ret],
                param_list_off.get(params, 0),
            )
        for i, (cdesc, name, proto) in enumerate(method_list):
            struct.pack_into(
                "<HHI",
                blob,
                method_ids_off + 8 * i,
                type_idx[cdesc],
                proto_idx[proto],
                string_idx[name],
            )
        no_index = 0xFFFFFFFF
        for i, cd in enumerate(self.classes):
            struct.pack_into(
                "<8I",
                blob,
                class_defs_off + 32 * i,
                type_idx[f"L{cd.class_path};"],
                0x1,  # access_flags: public
                no_index,  # superclass
                0,  # interfaces_off
                no_index,  # source_file
                0,  # annotations_off
                class_data_offs[i],
                0,  # static_values_off
            )
        blob[data_off:total] = data
        blob[12:32] = sha1(bytes(blob[32:])).digest()
        struct.pack_into("<I", blob, 8, adler32(bytes(blob[12:])) & 0xFFFFFFFF)
        return bytes(blob)


def _encode_mutf8(s: str) -> bytes:
    """The inverse of ``dex.decode_mutf8`` (without the terminator): each
    UTF-16 code unit as its own UTF-8 form, and U+0000 as C0 80."""
    raw = s.encode("utf-16-le", "surrogatepass")
    units = struct.unpack(f"<{len(raw) // 2}H", raw)
    text = "".join(map(chr, units))
    return text.encode("utf-8", "surrogatepass").replace(b"\x00", b"\xc0\x80")


def dex_from_invokes(sites: Sequence[InvokeSite]) -> bytes:
    """Package an invoke list as a one-class DEX (callers become the class),
    500 invokes per method."""
    builder = DexBuilder()
    methods = []
    for i in range(0, max(len(sites), 1), 500):
        body: list[Item] = [ins_invoke_site(s) for s in sites[i : i + 500]]
        body.append(ins_return_void())
        methods.append(MethodDef(f"run{i // 500}", "()V", body))
    builder.add_class("com/fixture/App", methods)
    return builder.build()


def write_apk(path, dex_blobs: Sequence[bytes], extra_entries: dict[str, bytes] | None = None):
    """Write a minimal apk-shaped zip with the given classes.dex payloads."""
    with zipfile.ZipFile(path, "w", compression=zipfile.ZIP_STORED) as zf:
        zf.writestr("AndroidManifest.xml", b"<manifest/>")
        for i, blob in enumerate(dex_blobs):
            name = "classes.dex" if i == 0 else f"classes{i + 1}.dex"
            zf.writestr(name, blob)
        for name, payload in (extra_entries or {}).items():
            zf.writestr(name, payload)


# ---------------------------------------------------------------------------
# randomized parser fixtures

_SMS_SIG = (
    "(Ljava/lang/String;Ljava/lang/String;Ljava/lang/String;"
    "Landroid/app/PendingIntent;Landroid/app/PendingIntent;)V"
)
_SYSTEM_TARGETS = [
    ("Ljava/io/FileInputStream;", "read", "([B)I"),
    ("Ljava/io/FileInputStream;", "close", "()V"),
    ("Ljava/io/File;", "delete", "()Z"),
    ("Ljavax/crypto/Cipher;", "doFinal", "([B)[B"),
    ("Ljavax/crypto/CipherOutputStream;", "flush", "()V"),
    ("Landroid/app/admin/DevicePolicyManager;", "lockNow", "()V"),
    ("Landroid/telephony/SmsManager;", "sendTextMessage", _SMS_SIG),
    ("Ljava/lang/StringBuilder;", "append", "(Ljava/lang/String;)Ljava/lang/StringBuilder;"),
    ("Ljava/lang/Object;", "toString", "()Ljava/lang/String;"),
    ("Ljava/lang/String;", "valueOf", "(I)Ljava/lang/String;"),
    ("[Ljava/lang/String;", "clone", "()Ljava/lang/Object;"),  # reference array
    ("[B", "clone", "()Ljava/lang/Object;"),  # primitive array: never a site
]

_INVOKE_KINDS_35C = (
    InvokeKind.Virtual,
    InvokeKind.Super,
    InvokeKind.Direct,
    InvokeKind.Static,
    InvokeKind.Interface,
)
_INVOKE_KINDS_3RC = (
    InvokeKind.VirtualRange,
    InvokeKind.StaticRange,
    InvokeKind.InterfaceRange,
)


def _random_body(rng: random.Random, target_pool: list[tuple[str, str, str]]) -> list[Item]:
    simple = (
        ins_nop(),
        ins_const4(0, 7),
        ins_const16(1, 300),
        ins_const(2, 70000),
        ins_const_wide(3),
        ins_move(0, 1),
        ins_move_object(1, 2),
        ins_move_result(0),
        ins_if_ne(0, 1, 6),
        ins_goto(2),
        ins_add_int(0, 1, 2),
        ins_aget(0, 1, 2),
        ins_sget(4),
        ins_cmp_long(0, 2, 4),
    )
    body: list[Item] = []
    for _ in range(rng.randrange(0, 40)):
        roll = rng.random()
        if roll < 0.25:
            desc, name, mdesc = rng.choice(target_pool)
            kind = rng.choice(_INVOKE_KINDS_35C if rng.random() < 0.8 else _INVOKE_KINDS_3RC)
            body.append(ins_invoke(kind, desc, name, mdesc))
        elif roll < 0.32:
            payload = rng.random()
            if payload < 0.4:
                body.append(ins_packed_switch_payload(rng.randrange(1, 6)))
            elif payload < 0.8:
                body.append(ins_sparse_switch_payload(rng.randrange(1, 5)))
            else:
                body.append(ins_fill_array_payload(rng.choice((1, 2, 4)), rng.randrange(1, 9)))
        else:
            body.append(rng.choice(simple))
    body.append(ins_return_void())
    return body


def random_dex(seed: int) -> tuple[bytes, list[InvokeSite]]:
    """A randomized structurally valid DEX plus its ground-truth invoke list."""
    rng = random.Random(seed)
    builder = DexBuilder()
    pool = list(_SYSTEM_TARGETS)
    for u in range(rng.randrange(2, 7)):
        pool.append((f"Lcom/gen/util/Helper{u};", rng.choice(("run", "apply", "call")), "()V"))
    for c in range(rng.randrange(2, 10)):
        methods = []
        for m in range(rng.randrange(1, 6)):
            if rng.random() < 0.1:
                methods.append(MethodDef(f"abstract{m}", "()V", None))
            else:
                methods.append(MethodDef(f"m{m}", "()V", _random_body(rng, pool)))
        builder.add_class(f"com/gen/pkg{c % 3}/Cls{c}", methods)
    if rng.random() < 0.3:
        builder.add_class("com/gen/Marker", [])  # class without class_data
    return builder.build(), list(builder.expected_invokes)


def benchmark_dex(seed: int = 0) -> bytes:
    """A large, realistic blob for throughput measurement: 2,400 classes of 8
    methods, padded with pool strings to about 5 MiB."""
    rng = random.Random(seed)
    builder = DexBuilder()
    pool = list(_SYSTEM_TARGETS)
    for u in range(300):
        pool.append((f"Lcom/app/lib{u % 40}/Util{u};", f"op{u % 17}", "()V"))
    for c in range(2400):
        methods = []
        for m in range(8):
            body: list[Item] = []
            for _ in range(rng.randrange(12, 40)):
                roll = rng.random()
                if roll < 0.18:
                    desc, name, mdesc = rng.choice(pool)
                    body.append(ins_invoke(InvokeKind.Virtual, desc, name, mdesc))
                elif roll < 0.5:
                    body.append(ins_const16(1, rng.randrange(0, 0xFFFF)))
                elif roll < 0.7:
                    body.append(ins_move(0, 1))
                elif roll < 0.85:
                    body.append(ins_if_ne(0, 1, 6))
                else:
                    body.append(ins_add_int(0, 1, 2))
            body.append(ins_return_void())
            methods.append(MethodDef(f"m{m}", "()V", body))
        builder.add_class(f"com/app/mod{c % 60}/Screen{c}", methods)
    # close the size gap with string-pool payload, like real apps' const data:
    # 96-character strings, 102 bytes each with their id and length prefix
    gap = 5 * 1024 * 1024 - len(builder.build())
    if gap > 0:
        builder.add_filler_strings(
            f"res/string/value_{i:06d}_" + "x" * 72 for i in range(gap // 102 + 1)
        )
    return builder.build()


# ---------------------------------------------------------------------------
# labeled corpora

# method key -> (trusted, malware, ransomware) Poisson intensity
EXPERIMENT_VOCAB: dict[str, tuple[float, float, float]] = {
    # ransomware-characteristic: device administration and crypto + file io
    "android/app/admin/DevicePolicyManager;->lockNow": (0.02, 0.1, 2.5),
    "android/app/admin/DevicePolicyManager;->resetPassword": (0.01, 0.05, 1.5),
    "android/app/admin/DevicePolicyManager;->isAdminActive": (0.05, 0.2, 1.8),
    "javax/crypto/Cipher;->getInstance": (0.2, 0.6, 3.5),
    "javax/crypto/Cipher;->doFinal": (0.15, 0.5, 3.0),
    "javax/crypto/CipherOutputStream;->flush": (0.02, 0.1, 1.6),
    "javax/crypto/CipherOutputStream;->close": (0.02, 0.1, 1.6),
    "javax/crypto/spec/SecretKeySpec;-><init>": (0.1, 0.3, 2.2),
    "java/io/FileInputStream;->read": (0.8, 1.2, 3.2),
    "java/io/FileInputStream;->close": (0.9, 1.2, 3.0),
    "java/io/FileOutputStream;->write": (0.7, 1.0, 2.8),
    "java/io/File;->delete": (0.3, 0.8, 2.4),
    "java/io/File;->listFiles": (0.4, 0.6, 2.2),
    # malware-characteristic: telephony, sms, device identity, reflection
    "android/telephony/SmsManager;->sendTextMessage": (0.02, 2.8, 0.4),
    "android/telephony/TelephonyManager;->getDeviceId": (0.1, 2.5, 0.6),
    "android/telephony/TelephonyManager;->getSubscriberId": (0.05, 2.0, 0.3),
    "java/lang/reflect/Method;->invoke": (0.3, 1.8, 0.5),
    "java/net/HttpURLConnection;->connect": (0.9, 2.6, 0.8),
    "java/net/URL;->openConnection": (0.9, 2.4, 0.8),
    # benign-characteristic: ui and app lifecycle
    "android/app/Activity;->onCreate": (3.0, 1.2, 0.9),
    "android/app/Activity;->setContentView": (2.8, 1.0, 0.8),
    "android/app/Activity;->findViewById": (3.2, 1.0, 0.7),
    "android/widget/TextView;->setText": (3.0, 0.8, 0.5),
    "android/widget/Toast;->makeText": (2.2, 0.9, 0.6),
    "android/widget/Button;->setOnClickListener": (2.5, 0.7, 0.4),
    "android/content/Intent;-><init>": (2.6, 1.6, 1.0),
    "android/content/Context;->startActivity": (2.2, 1.2, 0.8),
    # shared background noise
    "java/lang/StringBuilder;->append": (4.0, 4.0, 4.0),
    "java/lang/String;->valueOf": (2.0, 2.0, 2.0),
    "java/lang/Object;->toString": (1.5, 1.5, 1.5),
    "java/lang/System;->currentTimeMillis": (1.0, 1.0, 1.0),
    # class-loading: essentially unused by every profile (the class-encryption
    # stub is the only thing that touches these)
    "dalvik/system/DexClassLoader;-><init>": (0.0, 0.02, 0.0),
    "dalvik/system/DexClassLoader;->loadClass": (0.0, 0.02, 0.0),
}

# temporal corpus: benign and ransomware share package totals by construction
# and differ only in which same-package methods they call. Drift moves
# ransomware counts onto rarely-used same-package siblings, so package sums
# never change (the drift is invisible to package-granularity features)
# while the method-level signature dilutes over time.
_TEMPORAL_GROUPS = [
    # (benign-side keys, ransomware-side keys, rarely-used siblings)
    (
        ["java/io/File;->exists", "java/io/File;->getName",
         "java/io/FileInputStream;->available", "java/io/FileOutputStream;->flush"],
        ["java/io/FileInputStream;->read", "java/io/FileOutputStream;->write",
         "java/io/File;->delete", "java/io/RandomAccessFile;->seek"],
        ["java/io/File;->setReadOnly", "java/io/PushbackInputStream;->unread",
         "java/io/PipedWriter;->connect", "java/io/StreamTokenizer;->nextToken"],
    ),
    (
        ["android/os/Bundle;->getString", "android/os/Handler;->post",
         "android/os/Parcel;->readString", "android/os/Bundle;->putString"],
        ["android/os/PowerManager;->newWakeLock", "android/os/Process;->killProcess",
         "android/os/SystemClock;->sleep", "android/os/Vibrator;->vibrate"],
        ["android/os/Debug;->isDebuggerConnected", "android/os/StatFs;->getBlockSize",
         "android/os/ConditionVariable;->block", "android/os/MemoryFile;->readBytes"],
    ),
    (
        ["java/util/ArrayList;->add", "java/util/HashMap;->put",
         "java/util/Iterator;->next", "java/util/List;->size"],
        ["java/util/Timer;->schedule", "java/util/Random;->nextBytes",
         "java/util/Arrays;->fill", "java/util/Collections;->shuffle"],
        ["java/util/BitSet;->flip", "java/util/StringTokenizer;->countTokens",
         "java/util/PriorityQueue;->peek", "java/util/Formatter;->flush"],
    ),
]
_TEMPORAL_SIDE_INTENSITY = 4.0
_TEMPORAL_MALWARE_KEYS = [
    "android/telephony/SmsManager;->sendTextMessage",
    "android/telephony/TelephonyManager;->getDeviceId",
]
_TEMPORAL_NOISE_KEYS = [
    "java/lang/StringBuilder;->append",
    "java/lang/String;->valueOf",
]


def temporal_vocab() -> dict[str, tuple[float, float, float]]:
    vocab: dict[str, tuple[float, float, float]] = {}
    for benign_side, ransom_side, rare_side in _TEMPORAL_GROUPS:
        for key in benign_side:
            vocab[key] = (_TEMPORAL_SIDE_INTENSITY, 1.0, 0.0)
        for key in ransom_side:
            vocab[key] = (0.0, 1.0, _TEMPORAL_SIDE_INTENSITY)
        for key in rare_side:
            vocab[key] = (0.05, 0.05, 0.05)
    for key in _TEMPORAL_MALWARE_KEYS:
        vocab[key] = (0.05, 3.0, 0.05)
    for key in _TEMPORAL_NOISE_KEYS:
        vocab[key] = (2.0, 2.0, 2.0)
    return vocab


def temporal_drift_receivers() -> set[str]:
    """The same-package siblings that drifting samples shift their calls onto."""
    out: set[str] = set()
    for _benign, _ransom, rare in _TEMPORAL_GROUPS:
        out.update(rare)
    return out


def reference_from_vocab(vocab_keys: Iterable[str], granularity: Granularity) -> ApiReferenceList:
    method_list = make_reference(Granularity.Method, sorted(set(vocab_keys)), api_level=25)
    if granularity is Granularity.Method:
        return method_list
    return project(method_list, granularity)


def _counts_for(
    vocab: dict[str, tuple[float, float, float]], label: Label, rng: np.random.Generator
) -> dict[str, int]:
    column = CLASS_INDEX[label]
    activity = float(rng.lognormal(0.0, 0.3))
    counts = {}
    for key, lams in vocab.items():
        lam = lams[column] * activity
        n = int(rng.poisson(lam)) if lam > 0 else 0
        if n:
            counts[key] = n
    return counts


def invokes_from_counts(
    counts: dict[str, int], caller: str, rng: np.random.Generator
) -> tuple[InvokeSite, ...]:
    sites: list[InvokeSite] = []
    kinds = (InvokeKind.Virtual, InvokeKind.Virtual, InvokeKind.Static, InvokeKind.Direct)
    for key in sorted(counts):
        ref = MethodRef(*target_of_key(key), "()V")
        for _ in range(counts[key]):
            sites.append(InvokeSite(kinds[int(rng.integers(len(kinds)))], caller, ref))
    perm = rng.permutation(len(sites))
    return tuple(sites[i] for i in perm)


_PREFIX = {Label.Trusted: "t", Label.GenericMalware: "m", Label.Ransomware: "r"}
_YEAR_2016 = (date(2016, 1, 1), date(2016, 12, 31))


def _sample(
    label: Label, i: int, counts: dict[str, int], dates: tuple[date, date], rng: np.random.Generator
) -> InvokeSample:
    """Sample ``i`` of ``label``: draws its first_seen day within ``dates``,
    then the order of its calls. Every corpus sample is built here."""
    sample_id = f"{_PREFIX[label]}{i:04d}"
    start, end = dates
    first_seen = start + timedelta(days=int(rng.integers(0, (end - start).days + 1)))
    invokes = invokes_from_counts(counts, f"com/sample/{sample_id}/Main", rng)
    return InvokeSample(sample_id, label, first_seen, invokes)


def generate_corpus(n_per_class: int, seed: int = 0) -> list[InvokeSample]:
    """Labeled invoke-list samples with class-distinct API usage profiles."""
    rng = np.random.default_rng((seed, 1))
    return [
        _sample(label, i, _counts_for(EXPERIMENT_VOCAB, label, rng), _YEAR_2016, rng)
        for label in CLASS_ORDER
        for i in range(n_per_class)
    ]


def redistribute_within_packages(
    counts: dict[str, int], rho: float, rng: np.random.Generator, receivers: Iterable[str]
) -> dict[str, int]:
    """Move a rho-fraction of each method count onto same-package siblings.

    Package sums are preserved exactly, so the transformation cannot be seen
    at package granularity. ``receivers`` are the sibling methods that may
    gain the moved counts.
    """
    def package(key: str) -> str:
        return key_of(*target_of_key(key), Granularity.Package)

    by_package: dict[str, list[str]] = {}
    for key in sorted(set(receivers)):
        by_package.setdefault(package(key), []).append(key)
    out = dict(counts)
    for key in sorted(counts):
        siblings = [k for k in by_package.get(package(key), []) if k != key]
        if not siblings:
            continue
        moved = int(rng.binomial(counts[key], rho))
        if not moved:
            continue
        out[key] = out.get(key, 0) - moved
        for _ in range(moved):
            sib = siblings[int(rng.integers(len(siblings)))]
            out[sib] = out.get(sib, 0) + 1
    return {k: v for k, v in out.items() if v > 0}


@dataclass(frozen=True)
class TemporalBinSpec:
    label: str
    start: date
    end: date
    n_samples: int
    drift_rho: float


DEFAULT_TEMPORAL_BINS = (
    TemporalBinSpec("2017-jan-sep", date(2017, 1, 1), date(2017, 9, 30), 60, 0.15),
    TemporalBinSpec("2017-oct", date(2017, 10, 1), date(2017, 10, 31), 60, 0.25),
    TemporalBinSpec("2017-nov", date(2017, 11, 1), date(2017, 11, 30), 60, 0.35),
)


def generate_temporal_corpus(
    seed: int = 0,
    n_trusted: int = 200,
    n_malware: int = 120,
    n_train_ransomware: int = 150,
    bins: Sequence[TemporalBinSpec] = DEFAULT_TEMPORAL_BINS,
) -> list[InvokeSample]:
    """Corpus with drifting post-cutoff ransomware bins.

    Training-era ransomware is package-indistinguishable from benign by
    construction; test bins apply increasing same-package count
    redistribution, so method-granularity features see the drift while
    package-granularity features cannot.
    """
    vocab = temporal_vocab()
    rng = np.random.default_rng((seed, 2))
    sizes = zip(CLASS_ORDER, (n_trusted, n_malware, n_train_ransomware))
    samples = [
        _sample(label, i, _counts_for(vocab, label, rng), _YEAR_2016, rng)
        for label, n in sizes
        for i in range(n)
    ]
    receivers = temporal_drift_receivers()
    drifting = [spec for spec in bins for _ in range(spec.n_samples)]
    for i, spec in enumerate(drifting, start=n_train_ransomware):
        counts = _counts_for(vocab, Label.Ransomware, rng)
        drifted = redistribute_within_packages(counts, spec.drift_rho, rng, receivers)
        samples.append(_sample(Label.Ransomware, i, drifted, (spec.start, spec.end), rng))
    return samples


def write_corpus(directory, samples: Sequence[InvokeSample]):
    """Materialize samples as invoke-list files plus a manifest.csv
    (family "synthetic")."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    manifest = directory / "manifest.csv"
    with open(manifest, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["path", "label", "first_seen", "family"])
        for s in samples:
            name = f"{s.sample_id}.txt"
            dump_invoke_list_text(s.invokes, directory / name)
            writer.writerow([name, s.label.value, s.first_seen.isoformat(), "synthetic"])
    return manifest
