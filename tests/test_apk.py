"""Application-package ingestion: entry selection, ordering, byte accounting."""

import io
import re
import struct
import zipfile
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apksift.apk import open_apk
from apksift.dex import HEADER_SIZE
from apksift.errors import BadMagic, NoDexFound, NotAZipArchive, StructuralError
from apksift.features import extract_from_sample, features_from_dex_blobs
from apksift.reference import Granularity, make_reference
from apksift.synth import DexBuilder

from conftest import (
    CORRUPT_ZIPS,
    assert_peak_within_8x,
    build_single_method_dex,
    corrupt_apk_bytes,
    crypto_body,
    locker_body,
    tracemalloc_peak,
    zeros_apk_bytes,
)


def make_zip(entries: dict[str, bytes], compression=zipfile.ZIP_STORED) -> bytes:
    buf = io.BytesIO()
    with zipfile.ZipFile(buf, "w", compression=compression) as zf:
        for name, payload in entries.items():
            zf.writestr(name, payload)
    return buf.getvalue()


def test_single_dex(tmp_path):
    path = tmp_path / "one.apk"
    path.write_bytes(make_zip({"AndroidManifest.xml": b"<m/>", "classes.dex": b"DEX0"}))
    pkg = open_apk(path)
    assert pkg.dex_blobs == (b"DEX0",)


def test_two_dex_entry_name_order(tmp_path):
    path = tmp_path / "two.apk"
    # write in reverse to prove ordering comes from names, not archive order
    path.write_bytes(make_zip({"classes2.dex": b"SECOND", "classes.dex": b"FIRST"}))
    pkg = open_apk(path)
    assert pkg.dex_blobs == (b"FIRST", b"SECOND")


def test_no_dex(tmp_path):
    path = tmp_path / "empty.apk"
    path.write_bytes(make_zip({"AndroidManifest.xml": b"<m/>"}))
    with pytest.raises(NoDexFound):
        open_apk(path)


def test_lookalike_names_do_not_match(tmp_path):
    path = tmp_path / "fake.apk"
    path.write_bytes(
        make_zip(
            {
                "assets/classes.dex": b"nested",
                "classes10.dexx": b"bad ext",
                "xclasses.dex": b"prefixed",
                "classes1.dex": b"N=1 is not a valid suffix",
            }
        )
    )
    with pytest.raises(NoDexFound):
        open_apk(path)


def test_not_a_zip(tmp_path):
    path = tmp_path / "garbage.apk"
    path.write_bytes(b"\x00\x01\x02 nothing like a zip")
    with pytest.raises(NotAZipArchive):
        open_apk(path)


def test_truncated_central_directory(tmp_path):
    whole = make_zip({"classes.dex": b"D" * 64})
    path = tmp_path / "trunc.apk"
    path.write_bytes(whole[: len(whole) - 10])
    with pytest.raises(NotAZipArchive):
        open_apk(path)


@pytest.mark.parametrize(
    "kind, cause",
    zip(
        CORRUPT_ZIPS,
        [zlib.error, NotImplementedError, NotImplementedError, RuntimeError, EOFError,
         NotImplementedError, UnicodeDecodeError],
    ),
    ids=CORRUPT_ZIPS,
)
def test_corrupt_dex_stream_is_not_a_zip(tmp_path, kind, cause):
    path = tmp_path / "corrupt.apk"
    path.write_bytes(corrupt_apk_bytes(kind))
    with pytest.raises(NotAZipArchive) as exc:
        open_apk(path)
    assert type(exc.value.__cause__) is cause


def test_missing_file():
    with pytest.raises(FileNotFoundError):
        open_apk("/nonexistent/nowhere.apk")


class RangeTrackingFile:
    """Seekable read-only file that records every byte range read."""

    def __init__(self, data: bytes):
        self._bio = io.BytesIO(data)
        self.ranges: list[tuple[int, int]] = []

    def read(self, n=-1):
        start = self._bio.tell()
        out = self._bio.read(n)
        if out:
            self.ranges.append((start, start + len(out)))
        return out

    def seek(self, *args):
        return self._bio.seek(*args)

    def tell(self):
        return self._bio.tell()

    def seekable(self):
        return True


def _data_span(raw: bytes, name: str) -> tuple[int, int]:
    """[start, end) of an entry's data in a zip, from its central directory."""
    with zipfile.ZipFile(io.BytesIO(raw)) as zf:
        info = zf.getinfo(name)
    start = info.header_offset + 30 + len(info.filename.encode())
    return start, start + info.compress_size


def test_non_dex_entry_data_never_read(tmp_path):
    dex = DexBuilder().build()
    entries = {
        "AndroidManifest.xml": b"M" * 4096,
        "res/raw/blob.bin": b"R" * 8192,
        "classes.dex": dex,
        "lib/armeabi/native.so": b"S" * 2048,
    }
    raw = make_zip(entries)
    spans = [(*_data_span(raw, name), name) for name in entries if name != "classes.dex"]

    tracker = RangeTrackingFile(raw)
    pkg = open_apk(tracker)
    assert pkg.dex_blobs == (dex,)
    for lo, hi in tracker.ranges:
        for s, e, name in spans:
            assert not (lo < e and s < hi), f"read [{lo},{hi}) touched {name} data [{s},{e})"


def test_bad_magic_entry_read_no_further_than_the_first_read():
    raw = make_zip({"classes.dex": b"D" * 65536})
    start, end = _data_span(raw, "classes.dex")
    # what zipfile reads to get the header's 112 bytes
    first_read_end = start + zipfile.ZipExtFile.MIN_READ_SIZE

    tracker = RangeTrackingFile(raw)
    assert open_apk(tracker).dex_blobs == (b"D" * HEADER_SIZE,)
    for lo, hi in tracker.ranges:
        assert not (lo < end and first_read_end < hi), f"read [{lo},{hi}) past {first_read_end}"


def _outcome(fn):
    """``fn()``'s vector counts, or the class and message of what it raised."""
    try:
        return fn().counts
    except Exception as exc:
        return type(exc), str(exc)


def test_zip_bomb_memory_in_proportion_to_the_apk(tmp_path):
    apk = tmp_path / "bomb.apk"
    apk.write_bytes(zeros_apk_bytes(16 << 20))  # about 16 KiB on disk
    ref = make_reference(Granularity.Package, ["java/io"])
    outcome, peak = tracemalloc_peak(lambda: _outcome(lambda: extract_from_sample(apk, ref)))
    assert outcome == (BadMagic, f"magic {bytes(8)!r}")
    size = apk.stat().st_size
    assert_peak_within_8x(peak, size, "apk")


def test_valid_magic_zip_bomb_memory_in_proportion_to_the_apk(tmp_path):
    # the magic passes; the zeros after it fail the header's endian tag
    apk = tmp_path / "bomb.apk"
    apk.write_bytes(zeros_apk_bytes(16 << 20, head=b"dex\n035\x00"))
    ref = make_reference(Granularity.Package, ["java/io"])
    outcome, peak = tracemalloc_peak(lambda: _outcome(lambda: extract_from_sample(apk, ref)))
    assert outcome == (StructuralError, "endian_tag 0x00000000 (big-endian unsupported)")
    size = apk.stat().st_size
    assert_peak_within_8x(peak, size, "apk")


@pytest.mark.parametrize(
    "method, name", [(zipfile.ZIP_LZMA, "lzma"), (zipfile.ZIP_BZIP2, "bzip2")], ids=["lzma", "bzip2"]
)
def test_unsupported_compression_memory_in_proportion_to_the_apk(tmp_path, method, name):
    # zipfile inflates an lzma or bzip2 entry's first read whole, 16 MiB here
    buf = io.BytesIO()
    with zipfile.ZipFile(buf, "w") as zf:
        zf.writestr("assets/filler.bin", bytes(range(256)) * 64)  # 16 KiB, stored
        zf.writestr("classes.dex", bytes(16 << 20), compress_type=method)
    apk = tmp_path / f"{name}.apk"
    apk.write_bytes(buf.getvalue())
    ref = make_reference(Granularity.Package, ["java/io"])
    outcome, peak = tracemalloc_peak(lambda: _outcome(lambda: extract_from_sample(apk, ref)))
    size = apk.stat().st_size
    assert_peak_within_8x(peak, size, "apk")
    assert outcome == (
        NotAZipArchive, f"{apk}: classes.dex: {name} compression; a dex entry is stored or deflated"
    )


def test_bad_magic_entry_with_a_damaged_stream_is_bad_magic():
    # a wrong CRC-32 shows only at the end of the entry, which a bad magic
    # never reaches; reading the whole entry would be NotAZipArchive instead
    raw = zeros_apk_bytes(65536, bad_crc=True)
    with zipfile.ZipFile(io.BytesIO(raw)) as zf, pytest.raises(zipfile.BadZipFile, match="CRC"):
        zf.read("classes.dex")
    blobs = open_apk(io.BytesIO(raw)).dex_blobs
    assert blobs == (bytes(HEADER_SIZE),)
    with pytest.raises(BadMagic, match=re.escape(f"magic {bytes(8)!r}")):
        features_from_dex_blobs(blobs, make_reference(Granularity.Package, ["java/io"]))


# entries whose first 0-16 bytes are at or near a dex magic, then a tail: the
# rest of a real dex (so a good magic parses), that rest cut short, or a few
# arbitrary bytes; the dex's header_size and endian tag may be damaged
_BODIES = [build_single_method_dex(body)[0] for body in (locker_body(), crypto_body())]
_MAGIC_WORDS = st.sampled_from([b"dex\n", b"dey\n", b"DEX\n", b"dex\0", b"\0\0\0\0"])
_VERSIONS = st.one_of(
    st.sampled_from([b"035", b"039", b"034", b"040", b"000", b"999"]),
    st.text("0123456789 +", min_size=3, max_size=3).map(str.encode),
)
_NUL = st.sampled_from([b"\0", b"\x01", b"\n"])
# header_size and endian_tag, bytes 36-44 of the header
_SIZE_AND_TAG = st.sampled_from(
    [struct.pack("<2I", *fields) for fields in ((112, 0x12345678), (116, 0x12345678),
                                                (112, 0x78563412), (0, 0))]
)


@st.composite
def _entries(draw):
    body = draw(st.sampled_from(_BODIES))
    body = body[:36] + draw(_SIZE_AND_TAG) + body[44:]
    magic = draw(_MAGIC_WORDS) + draw(_VERSIONS) + draw(_NUL)
    n = draw(st.integers(0, 16))
    head = (magic + body[8:])[:n]
    cut = st.integers(n, len(body)).map(lambda end: body[n:end])
    return head + draw(st.one_of(st.just(body[n:]), cut, st.binary(max_size=24)))


@settings(max_examples=300, deadline=None)
@given(
    entries=st.lists(_entries(), min_size=1, max_size=2),
    compression=st.sampled_from([zipfile.ZIP_STORED, zipfile.ZIP_DEFLATED]),
)
def test_early_stop_gives_what_the_whole_entries_give(entries, compression):
    ref = make_reference(Granularity.Package, ["android/app/admin", "java/io", "javax/crypto"])
    names = ["classes.dex", "classes2.dex"]
    raw = make_zip(dict(zip(names, entries)), compression)
    from_apk = _outcome(lambda: features_from_dex_blobs(open_apk(io.BytesIO(raw)).dex_blobs, ref))
    assert from_apk == _outcome(lambda: features_from_dex_blobs(entries, ref))


def test_struct_for_zip_store_layout():
    # guard the 30-byte local-header assumption used by the accounting test
    raw = make_zip({"abc.txt": b"xyz"})
    assert raw[:4] == b"PK\x03\x04"
    name_len = struct.unpack_from("<H", raw, 26)[0]
    assert name_len == len("abc.txt")
