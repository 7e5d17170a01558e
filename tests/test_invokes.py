"""Invoke-list text format: parsing, serialization, round trips."""

import pytest
from hypothesis import given

from apksift.errors import MalformedLine
from apksift.invokes import (
    InvokeKind,
    InvokeSite,
    MethodRef,
    dumps_invoke_list,
    load_invoke_list_text,
    loads_invoke_list,
    parse_invoke_line,
)
from apksift.reference import Granularity, key_of

from conftest import invoke_lists


def test_parse_virtual_line():
    site = parse_invoke_line("invoke-virtual Lcom/a/B; Ljava/io/FileInputStream;->read([B)I")
    assert site.kind is InvokeKind.Virtual
    assert site.caller_class == "com/a/B"
    assert site.target == MethodRef("java/io/FileInputStream", "read", "([B)I")
    assert key_of(site.target.class_path, "", Granularity.Package) == "java/io"


def test_parse_range_suffix():
    site = parse_invoke_line("invoke-static/range Lx/Y; Ljava/lang/System;->exit(I)V")
    assert site.kind is InvokeKind.StaticRange


def test_comments_and_blanks_only():
    assert loads_invoke_list("# a comment\n\n   \n# another\n") == []


def test_unknown_kind_is_malformed_line_1():
    with pytest.raises(MalformedLine) as exc:
        loads_invoke_list("invoke-bogus X Y\n")
    assert exc.value.line_no == 1


def test_first_offending_line_reported():
    text = (
        "# header\n"
        "invoke-virtual La/B; Ljava/io/File;->delete()Z\n"
        "invoke-virtual broken\n"
        "invoke-bogus X Y\n"
    )
    with pytest.raises(MalformedLine) as exc:
        loads_invoke_list(text)
    assert exc.value.line_no == 3


@pytest.mark.parametrize(
    "line",
    [
        "invoke-virtual La/B;",  # missing target
        "invoke-virtual a/B Ljava/io/File;->delete()Z",  # caller not a descriptor
        "invoke-virtual La/B; java/io/File;->delete()Z",  # target not a descriptor
        "invoke-virtual La/B; Ljava/io/File;delete()Z",  # missing ->
        "invoke-virtual La/B; Ljava/io/File;->delete",  # missing descriptor
    ],
)
def test_malformed_lines(line):
    with pytest.raises(MalformedLine):
        loads_invoke_list(line + "\n")


def test_empty_caller_round_trips():
    site = InvokeSite(
        InvokeKind.Direct, "", MethodRef("java/io/File", "delete", "()Z")
    )
    text = dumps_invoke_list([site])
    assert text == "invoke-direct L; Ljava/io/File;->delete()Z\n"
    assert loads_invoke_list(text) == [site]


def test_default_package_target():
    site = parse_invoke_line("invoke-virtual La/B; LFoo;->bar()V")
    assert key_of(site.target.class_path, "", Granularity.Package) == ""
    assert site.target.class_path == "Foo"


@given(invoke_lists())
def test_round_trip(sites):
    assert loads_invoke_list(dumps_invoke_list(sites)) == sites


def test_file_round_trip(tmp_path):
    from apksift.invokes import dump_invoke_list_text

    sites = [
        InvokeSite(
            InvokeKind.Interface,
            "app/Main",
            MethodRef("java/util/List", "size", "()I"),
        )
    ]
    path = tmp_path / "fixture.txt"
    dump_invoke_list_text(sites, path)
    assert load_invoke_list_text(path) == sites


def test_io_failure(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_invoke_list_text(tmp_path / "missing.txt")
