"""Feature extraction: the published worked example, algebraic properties,
and fast-path equivalence."""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apksift.errors import MalformedLine
from apksift.features import (
    COUNT_CEILING,
    FeatureVector,
    _add,
    caller_split,
    extract_features,
    extract_from_sample,
    features_from_dex_blobs,
    platform_features,
    write_features_csv,
)
from apksift.dex import extract_invokes, parse_dex
from apksift.invokes import InvokeKind, InvokeSite, format_invoke_site, loads_invoke_list
from apksift.reference import Granularity, key_of, make_reference, project
from apksift.synth import random_dex, write_apk

from conftest import (
    assert_peak_within_8x,
    build_single_method_dex,
    class_paths,
    invoke_lists,
    method_refs,
    tracemalloc_peak,
)


@pytest.fixture
def crypto_sites(crypto_dex):
    blob, _ = crypto_dex
    return extract_invokes(parse_dex(blob))


def by_key(fv, ref):
    return dict(zip(ref.entries, fv.counts))


def test_worked_example_packages(crypto_sites, package_subset):
    fv = extract_features(crypto_sites, package_subset)
    assert by_key(fv, package_subset) == {"java/io": 2, "javax/crypto": 2, "java/lang": 0}


def test_worked_example_classes(crypto_sites, class_subset):
    fv = extract_features(crypto_sites, class_subset)
    assert fv.counts == (2, 2)


def test_worked_example_methods(crypto_sites, method_subset):
    fv = extract_features(crypto_sites, method_subset)
    assert fv.counts == (1, 1, 1, 1)


def test_empty_invoke_list_zero_vector(package_subset):
    fv = extract_features([], package_subset)
    assert fv.counts == (0, 0, 0)


def test_nonreference_targets_ignored(package_subset):
    sites = load_invoke_list_text_from_str(
        "invoke-virtual La/B; Lcom/own/Thing;->run()V\n"
        "invoke-virtual La/B; Ljava/io/File;->delete()Z\n"
    )
    fv = extract_features(sites, package_subset)
    assert by_key(fv, package_subset)["java/io"] == 1
    assert fv.total() == 1


def load_invoke_list_text_from_str(text):
    from apksift.invokes import loads_invoke_list

    return loads_invoke_list(text)


def test_extract_from_apk_single_dex(tmp_path, crypto_dex, package_subset):
    blob, _ = crypto_dex
    apk = tmp_path / "one.apk"
    write_apk(apk, [blob])
    fv = extract_from_sample(apk, package_subset)
    assert by_key(fv, package_subset) == {"java/io": 2, "javax/crypto": 2, "java/lang": 0}


def test_extract_from_apk_multidex_additive(tmp_path, crypto_dex, package_subset):
    blob, _ = crypto_dex
    apk = tmp_path / "two.apk"
    write_apk(apk, [blob, blob])
    fv = extract_from_sample(apk, package_subset)
    assert by_key(fv, package_subset) == {"java/io": 4, "javax/crypto": 4, "java/lang": 0}


def test_extract_from_apk_zero_invokes(tmp_path, package_subset):
    from apksift.synth import ins_nop, ins_return_void

    blob, _ = build_single_method_dex([ins_nop(), ins_return_void()])
    apk = tmp_path / "quiet.apk"
    write_apk(apk, [blob])
    assert extract_from_sample(apk, package_subset).counts == (0, 0, 0)


def test_extract_from_sample_sniffs(tmp_path, crypto_dex, crypto_sites, package_subset):
    from apksift.invokes import dump_invoke_list_text

    blob, _ = crypto_dex
    apk = tmp_path / "s.apk"
    write_apk(apk, [blob])
    txt = tmp_path / "s.txt"
    dump_invoke_list_text(crypto_sites, txt)
    assert extract_from_sample(apk, package_subset) == extract_from_sample(txt, package_subset)


@given(invoke_lists(), invoke_lists())
def test_additivity(a, b):
    packages = {key_of(s.target.class_path, "", Granularity.Package) for s in a + b}
    keys = sorted(packages - {None, ""})
    if not keys:
        keys = ["java/io"]
    ref = make_reference(Granularity.Package, keys)
    fa = extract_features(a, ref)
    fb = extract_features(b, ref)
    fab = extract_features(list(a) + list(b), ref)
    assert fab.counts == tuple(x + y for x, y in zip(fa.counts, fb.counts))


@given(invoke_lists(), st.randoms(use_true_random=False))
def test_permutation_invariance(sites, rnd):
    keys = sorted({key_of(s.target.class_path, "", Granularity.Class) for s in sites} - {None, ""})
    if not keys:
        keys = ["java/io/File"]
    ref = make_reference(Granularity.Class, keys)
    shuffled = list(sites)
    rnd.shuffle(shuffled)
    assert extract_features(sites, ref) == extract_features(shuffled, ref)


@settings(max_examples=40, deadline=None)
@given(invoke_lists(max_size=60))
def test_granularity_consistency(sites):
    targets = {(s.target.class_path, s.target.name) for s in sites}
    method_keys = sorted({key_of(*t, Granularity.Method) for t in targets} - {None})
    if not method_keys:
        return
    methods = make_reference(Granularity.Method, method_keys)
    classes = project(methods, Granularity.Class)
    packages = project(methods, Granularity.Package)
    fm = extract_features(sites, methods)
    fc = extract_features(sites, classes)
    fp = extract_features(sites, packages)
    # method counts grouped by class equal the class counts, and likewise
    # class counts grouped by package equal the package counts
    per_class = Counter()
    for key, n in zip(methods.entries, fm.counts):
        per_class[key.split(";->")[0]] += n
    assert dict(per_class) == dict(zip(classes.entries, fc.counts))
    per_package = Counter()
    for key, n in zip(classes.entries, fc.counts):
        per_package[key.rsplit("/", 1)[0]] += n
    assert dict(per_package) == dict(zip(packages.entries, fp.counts))


def test_count_saturation(package_subset):
    counts = [0] * len(package_subset)
    keyed = [("java/io", COUNT_CEILING), ("java/io", 500), ("javax/crypto", 3)]
    _add(counts, keyed, package_subset)
    fv = FeatureVector(tuple(counts), package_subset.fingerprint)
    assert by_key(fv, package_subset)["java/io"] == COUNT_CEILING
    assert by_key(fv, package_subset)["javax/crypto"] == 3


def test_negative_counts_rejected():
    with pytest.raises(ValueError):
        FeatureVector((-1, 0), "abc")


def test_fast_path_equals_reference_composition(package_subset, method_subset):
    for seed in range(25):
        blob, _ = random_dex(seed)
        sites = extract_invokes(parse_dex(blob))
        for ref in (package_subset, method_subset):
            fast = features_from_dex_blobs([blob], ref)
            assert fast == extract_features(sites, ref)


def test_write_features_csv(tmp_path, crypto_sites, package_subset):
    fv = extract_features(crypto_sites, package_subset)
    out = tmp_path / "features.csv"
    write_features_csv([("s1", "ransomware", fv)], package_subset, out)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "sample_id,label,java/io,java/lang,javax/crypto"
    assert lines[1] == "s1,ransomware,2,0,2"


def test_write_features_csv_fingerprint_guard(tmp_path, crypto_sites, package_subset, class_subset):
    fv = extract_features(crypto_sites, class_subset)
    with pytest.raises(ValueError):
        write_features_csv([("s1", "trusted", fv)], package_subset, tmp_path / "x.csv")


# -- invoke lists: the per-distinct-line counter against the per-site oracle --

# every line boundary of str.splitlines, which numbers the lines of a list
_SEPARATORS = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
_NOISE = ["", "   ", "# a comment", "  # an indented comment"]
_BAD_LINES = [
    "invoke-bogus La/B; Ljava/io/File;->delete()Z",
    "invoke-virtual La/B;",
    "invoke-virtual  La/B; Ljava/io/File;->delete()Z",
    "invoke-virtual a/B Ljava/io/File;->delete()Z",
    "invoke-virtual La/B; java/io/File;->delete()Z",
    "invoke-virtual La/B; Ljava/io/File;delete()Z",
    "invoke-virtual La/B; Ljava/io/File;->delete",
    "invoke-virtual La/B; Ljava/io/File;->(Z)",
    "invoke-virtual La/B; L;->delete()V",
]
_CALLERS = st.one_of(
    st.sampled_from(["", "java/lang/Thread", "android/app/Activity", "com/app/Main"]), class_paths()
)


@st.composite
def invoke_list_texts(draw, fault: bool):
    """(text, BOM, pool): lines drawn from a small pool of sites, so many
    repeat, some padded, mixed with blanks and comments and split by every
    str.splitlines separator; with ``fault``, one bad line is injected (and may
    repeat) after a prefix that may hold a copy of a good line."""
    pool = draw(st.lists(
        st.builds(InvokeSite, st.sampled_from(list(InvokeKind)), _CALLERS, method_refs()),
        min_size=1, max_size=6,
    ))
    good = st.sampled_from(pool).map(format_invoke_site)
    line = st.one_of(good, good.map(lambda t: f" \t{t}  "), st.sampled_from(_NOISE))
    lines = draw(st.lists(line, max_size=30))
    if fault:
        bad = draw(st.sampled_from(_BAD_LINES))
        at = draw(st.integers(0, len(lines)))
        lines[at:at] = [bad]
        lines += draw(st.lists(st.sampled_from([bad, f"  {bad}", format_invoke_site(pool[0])]), max_size=3))
    seps = draw(st.lists(st.sampled_from(_SEPARATORS), min_size=len(lines), max_size=len(lines)))
    text = "".join(a + b for a, b in zip(lines, seps))
    if lines and draw(st.booleans()):
        text = text[: -len(seps[-1])]  # no line end after the last line
    return text, draw(st.booleans()), pool


def _refs(pool):
    """The pool's targets as a reference list at every granularity, plus a key it never calls."""
    keys = {key_of(s.target.class_path, s.target.name, Granularity.Method) for s in pool}
    methods = make_reference(Granularity.Method, keys | {"java/lang/Object;->wait"})
    return [methods, project(methods, Granularity.Class), project(methods, Granularity.Package)]


@pytest.fixture(scope="module")
def list_dir(tmp_path_factory):
    """One directory for the drawn lists; hypothesis rejects tmp_path."""
    return tmp_path_factory.mktemp("invoke-lists")


def _write_list(directory, text: str, bom: bool):
    path = directory / "list.txt"
    path.write_bytes(b"\xef\xbb\xbf" * bom + text.encode("utf-8"))
    return path


@settings(max_examples=150, deadline=None)
@given(invoke_list_texts(fault=False))
def test_list_count_matches_the_per_site_oracle(list_dir, drawn):
    text, bom, pool = drawn
    path = _write_list(list_dir, text, bom)
    sites = loads_invoke_list(text)
    for ref in _refs(pool):
        every = extract_features(sites, ref)
        assert extract_from_sample(path, ref) == every
        assert caller_split(path, ref) == (every, platform_features(sites, ref))


@settings(max_examples=150, deadline=None)
@given(invoke_list_texts(fault=True))
def test_list_count_names_the_oracles_first_bad_line(list_dir, drawn):
    text, bom, pool = drawn
    path = _write_list(list_dir, text, bom)
    with pytest.raises(MalformedLine) as oracle:
        loads_invoke_list(text)
    expected = (oracle.value.line_no, str(oracle.value))
    ref = _refs(pool)[0]
    for count in (extract_from_sample, caller_split):
        with pytest.raises(MalformedLine) as exc:
            count(path, ref)
        assert (exc.value.line_no, str(exc.value)) == expected


def test_invoke_list_memory_in_proportion_to_the_list(tmp_path):
    """40,000 distinct lines, none repeated: the count holds each distinct
    line and target once, and builds no InvokeSite, within 5x the file."""
    path = tmp_path / "large.txt"
    with open(path, "w", encoding="utf-8") as fh:
        for i in range(40_000):
            fh.write(
                f"invoke-virtual Lcom/example/app/ui/MainActivity{i % 97}; "
                f"Ljava/io/FileInputStream{i // 97};->read{i}([BII)I\n"
            )
    ref = make_reference(Granularity.Method, ["java/io/FileInputStream1;->read100"])
    fv, peak = tracemalloc_peak(lambda: extract_from_sample(path, ref))
    assert fv.counts == (1,)
    assert_peak_within_8x(peak, path.stat().st_size, "invoke list", factor=5)
