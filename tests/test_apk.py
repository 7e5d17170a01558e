"""Application-package ingestion: entry selection, ordering, byte accounting."""

import io
import lzma
import struct
import zipfile
import zlib

import pytest

from apksift.apk import open_apk
from apksift.errors import NoDexFound, NotAZipArchive

from conftest import CORRUPT_ZIPS, corrupt_apk_bytes


def make_zip(entries: dict[str, bytes]) -> bytes:
    buf = io.BytesIO()
    with zipfile.ZipFile(buf, "w", compression=zipfile.ZIP_STORED) as zf:
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
        [zlib.error, lzma.LZMAError, NotImplementedError, RuntimeError, EOFError,
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


def test_non_dex_entry_data_never_read(tmp_path):
    entries = {
        "AndroidManifest.xml": b"M" * 4096,
        "res/raw/blob.bin": b"R" * 8192,
        "classes.dex": b"D" * 512,
        "lib/armeabi/native.so": b"S" * 2048,
    }
    raw = make_zip(entries)

    # non-dex data spans, computed from the central directory of the raw bytes
    spans = []
    with zipfile.ZipFile(io.BytesIO(raw)) as zf:
        for info in zf.infolist():
            if info.filename == "classes.dex":
                continue
            data_start = info.header_offset + 30 + len(info.filename.encode())
            spans.append((data_start, data_start + info.compress_size, info.filename))

    tracker = RangeTrackingFile(raw)
    pkg = open_apk(tracker)
    assert pkg.dex_blobs == (b"D" * 512,)
    for lo, hi in tracker.ranges:
        for s, e, name in spans:
            assert not (lo < e and s < hi), f"read [{lo},{hi}) touched {name} data [{s},{e})"


def test_struct_for_zip_store_layout():
    # guard the 30-byte local-header assumption used by the accounting test
    raw = make_zip({"abc.txt": b"xyz"})
    assert raw[:4] == b"PK\x03\x04"
    name_len = struct.unpack_from("<H", raw, 26)[0]
    assert name_len == len("abc.txt")
