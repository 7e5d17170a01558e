"""Reference vocabularies: loading, key derivation, projection."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from apksift.errors import GranularityMismatch, InvalidProjection, MalformedKey
from apksift.invokes import MethodRef
from apksift.reference import (
    Granularity,
    key_of,
    load_reference,
    make_reference,
    project,
    save_reference,
)

from conftest import class_paths


def write(tmp_path, text, name="ref.txt"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def test_load_package_list(tmp_path):
    path = write(
        tmp_path,
        "# granularity: package\n# api-level: 25\njava/io\njavax/crypto\njava/lang\n",
    )
    ref = load_reference(path, Granularity.Package)
    assert ref.entries == ("java/io", "java/lang", "javax/crypto")
    assert ref.api_level == 25
    assert ref.index_of["javax/crypto"] == 2


def test_duplicates_dropped_with_count(tmp_path, caplog):
    path = write(tmp_path, "# granularity: package\njava/io\njava/io\njava/lang\n")
    ref = load_reference(path, Granularity.Package)
    assert ref.entries == ("java/io", "java/lang")
    assert "dropped 1 duplicate entries" in caplog.text


def test_class_key_in_package_file(tmp_path):
    path = write(tmp_path, "# granularity: package\njava/io/FileInputStream\n")
    with pytest.raises(MalformedKey) as exc:
        load_reference(path, Granularity.Package)
    assert exc.value.line_no == 2


def test_method_key_in_class_file(tmp_path):
    path = write(tmp_path, "# granularity: class\njava/io/File;->delete\n")
    with pytest.raises(MalformedKey):
        load_reference(path, Granularity.Class)


def test_granularity_mismatch(tmp_path):
    path = write(tmp_path, "# granularity: package\njava/io\n")
    with pytest.raises(GranularityMismatch):
        load_reference(path, Granularity.Class)


def test_missing_header(tmp_path):
    path = write(tmp_path, "java/io\n")
    with pytest.raises(GranularityMismatch):
        load_reference(path, Granularity.Package)
    with pytest.raises(GranularityMismatch):
        load_reference(path)


def test_conflicting_headers_rejected_by_both_loaders(tmp_path):
    path = write(tmp_path, "# granularity: package\njava/io\n# granularity: class\n")
    for load in (load_reference, lambda p: load_reference(p, Granularity.Class)):
        with pytest.raises(GranularityMismatch, match="line 3 declares class"):
            load(path)


def test_non_utf8_file_rejected_by_both_loaders(tmp_path):
    path = tmp_path / "ref.txt"
    path.write_bytes(b"# granularity: package\njava/io\n\xff\n")
    for load in (load_reference, lambda p: load_reference(p, Granularity.Package)):
        with pytest.raises(GranularityMismatch, match="utf-8"):
            load(path)


def test_load_auto_uses_header(tmp_path):
    path = write(tmp_path, "# granularity: class\njava/io/File\n")
    ref = load_reference(path)
    assert ref.granularity is Granularity.Class


def test_fingerprint_independent_of_file_order(tmp_path):
    a = load_reference(
        write(tmp_path, "# granularity: package\njava/io\njavax/crypto\n", "a.txt"),
        Granularity.Package,
    )
    b = load_reference(
        write(tmp_path, "# granularity: package\njavax/crypto\njava/io\n", "b.txt"),
        Granularity.Package,
    )
    assert a.fingerprint == b.fingerprint
    assert a.entries == b.entries


def test_fingerprint_covers_granularity():
    classes = make_reference(Granularity.Class, ["java/io/File"])
    # same entry text under a different granularity must not collide
    methods = make_reference(Granularity.Method, ["java/io/File;->delete"])
    assert classes.fingerprint != methods.fingerprint


def test_save_round_trip(tmp_path):
    ref = make_reference(Granularity.Method, ["java/io/File;->delete"], api_level=25)
    path = tmp_path / "saved.txt"
    save_reference(ref, path)
    again = load_reference(path, Granularity.Method)
    assert again == ref
    assert again.fingerprint == ref.fingerprint


# -- key_of -----------------------------------------------------------------


READ = MethodRef.from_class_path("java/io/FileInputStream", "read", "([B)I")


def test_key_of_method_excludes_descriptor():
    assert key_of(READ, Granularity.Method) == "java/io/FileInputStream;->read"


def test_key_of_class_and_package():
    assert key_of(READ, Granularity.Class) == "java/io/FileInputStream"
    assert key_of(READ, Granularity.Package) == "java/io"


def test_key_of_default_package_misses_lookup():
    ref = MethodRef.from_class_path("Foo", "bar", "()V")
    key = key_of(ref, Granularity.Package)
    assert key == ""
    packages = make_reference(Granularity.Package, ["java/io"])
    assert key not in packages.index_of


def test_key_of_empty_class_path_is_none():
    ref = MethodRef("", "", "bar", "()V")
    assert key_of(ref, Granularity.Method) is None


# -- projection ---------------------------------------------------------------


def test_project_methods_to_classes_dedupes():
    methods = make_reference(
        Granularity.Method,
        ["java/io/FileInputStream;->read", "java/io/FileInputStream;->close"],
    )
    classes = project(methods, Granularity.Class)
    assert classes.entries == ("java/io/FileInputStream",)


def test_project_classes_to_packages():
    classes = make_reference(Granularity.Class, ["java/io/FileInputStream"])
    packages = project(classes, Granularity.Package)
    assert packages.entries == ("java/io",)


def test_project_not_coarser():
    packages = make_reference(Granularity.Package, ["java/io"])
    with pytest.raises(InvalidProjection):
        project(packages, Granularity.Package)
    classes = make_reference(Granularity.Class, ["java/io/File"])
    with pytest.raises(InvalidProjection):
        project(classes, Granularity.Method)


@given(st.lists(class_paths(), min_size=1, max_size=20))
def test_projection_composes(paths):
    method_keys = sorted({f"{p};->run" for p in paths})
    methods = make_reference(Granularity.Method, method_keys)
    via_class = project(project(methods, Granularity.Class), Granularity.Package)
    direct = project(methods, Granularity.Package)
    assert via_class.entries == direct.entries
    assert via_class.fingerprint == direct.fingerprint


@given(st.lists(class_paths(), min_size=1, max_size=20))
def test_every_method_key_resolves_to_one_index(paths):
    method_keys = sorted({f"{p};->run" for p in paths})
    methods = make_reference(Granularity.Method, method_keys)
    for key in method_keys:
        positions = [i for i, e in enumerate(methods.entries) if e == key]
        assert positions == [methods.index_of[key]]
