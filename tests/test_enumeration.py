import collections
import importlib
import io
import itertools
import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from udcodes.census import UniverseTooLarge, census, universe_size
from udcodes.decide import (
    Classification,
    classify,
    delay_analysis,
    is_prefix_code,
    sardinas_patterson,
)
from udcodes.enumeration import (
    BUILTIN_SUITE,
    bounded_delay_probe,
    enumerate_codes,
    safe_bound,
    two_factorization_search,
    write_classification_csv,
)
from udcodes.words import Code, CodesError, Word


def code(*texts, n=2):
    return Code.from_texts(list(texts), n)


def test_universe_size():
    assert universe_size((1, 1), 2) == 4
    assert universe_size((2, 3, 3), 2) == 256
    assert universe_size((2, 3, 3), 3) == 6561
    assert universe_size((1, 2), 2) == 8


def test_enumeration_order():
    codes = list(enumerate_codes((1, 2), 2))
    assert len(codes) == 8
    assert codes[0].texts() == ("0", "00")
    assert codes[1].texts() == ("0", "01")
    assert codes[-1].texts() == ("1", "11")


def test_enumeration_refuses_large_universe():
    with pytest.raises(UniverseTooLarge) as exc:
        list(enumerate_codes((2, 3, 3), 2, cap=10))
    assert exc.value.total == 256
    assert exc.value.cap == 10


def test_classify():
    assert classify(code("10", "100", "000")) == Classification(
        injective=True, prefix=False, ud=True, finite_delay=False, delay=None
    )
    assert classify(code("01", "001", "000")) == Classification(
        injective=True, prefix=True, ud=True, finite_delay=True, delay=3
    )
    assert classify(code("0", "0")) == Classification(
        injective=False, prefix=False, ud=False, finite_delay=False, delay=None
    )
    assert classify(code("0", "01", "10")).ud is False


def test_classify_explores_each_injective_code_once(monkeypatch):
    import udcodes.decide as decide
    import udcodes.enumeration as enumeration

    calls = []
    explore = decide._explore

    def counted(words, **kwargs):
        calls.append(words)
        return explore(words, **kwargs)

    def forbidden(*args):
        raise AssertionError("classify must not call the reference deciders")

    monkeypatch.setattr(decide, "_explore", counted)
    for name in ("is_prefix_code", "sardinas_patterson", "delay_analysis", "_assemble_witness"):
        for module in (decide, enumeration):
            monkeypatch.setattr(module, name, forbidden, raising=False)
    for texts in (("10", "100", "000"), ("01", "001", "000"), ("0", "01", "10"), ("0", "0")):
        classify(code(*texts))
    assert len(calls) == 3


CENSUS_TABLE = {
    ((1, 1), 2): (2, 2, 2),
    ((1, 1), 3): (6, 6, 6),
    ((1, 2), 2): (4, 6, 6),
    ((1, 2), 3): (18, 24, 24),
    ((2, 2), 2): (12, 12, 12),
    ((2, 2), 3): (72, 72, 72),
    ((1, 1, 1), 2): (0, 0, 0),
    ((1, 1, 1), 3): (6, 6, 6),
    ((1, 1, 2), 2): (0, 0, 0),
    ((1, 1, 2), 3): (18, 30, 30),
    ((1, 2, 2), 2): (4, 4, 8),
    ((1, 2, 2), 3): (90, 144, 156),
    ((1, 2, 4), 2): (16, 44, 54),
    ((1, 2, 4), 3): (810, 1758, 1788),
    ((2, 2, 3), 2): (48, 56, 80),
    ((2, 2, 3), 3): (1512, 1800, 1884),
    ((2, 2, 4), 2): (96, 144, 144),
    ((2, 2, 4), 3): (4536, 5544, 5544),
    ((2, 3, 3), 2): (120, 160, 180),
    ((2, 3, 3), 3): (4968, 6030, 6102),
    ((3, 4, 5, 5), 2): (72800, 107824, 117048),
    ((2, 3, 3, 4), 3): (327888, 461112, 478728),
}


@pytest.mark.parametrize("profile,n", sorted(CENSUS_TABLE))
def test_census_table(profile, n):
    pr, fd, ud = CENSUS_TABLE[(profile, n)]
    report = census(profile, n, mode="both")
    assert (report.pr, report.fd, report.ud) == (pr, fd, ud)
    assert report.discrepancies == ()
    assert report.total == universe_size(profile, n)


CENSUS_DIFFERENTIAL = [(p, n) for p in BUILTIN_SUITE for n in (2, 3)] + [
    ((2, 2, 3, 4), 2),
    ((1, 1, 2, 2), 3),
    ((2, 3, 4), 3),
    ((2, 2, 3, 3, 4), 2),
    ((2, 2, 2, 3), 3),
    ((3, 3, 4, 5), 2),
    ((1, 2, 2), 4),
]


@pytest.mark.parametrize(
    "profile,n", CENSUS_DIFFERENTIAL, ids=[f"{p}-{n}" for p, n in CENSUS_DIFFERENTIAL]
)
def test_census_matches_plain_enumeration(profile, n):
    """The census, which classifies one code per set of equal-length words
    and prunes non-UD partial codes, against classifying every ordered code."""
    pr = fd = ud = 0
    for c in enumerate_codes(profile, n):
        result = classify(c)
        pr += result.prefix
        fd += result.finite_delay
        ud += result.ud
    report = census(profile, n, mode="enumeration")
    assert (report.pr, report.fd, report.ud) == (pr, fd, ud)


def test_census_builds_no_code(monkeypatch):
    import udcodes.decide as decide
    import udcodes.enumeration as enumeration

    # the package binds the name udcodes.census to the function
    census_module = importlib.import_module("udcodes.census")

    def forbidden(*args, **kwargs):
        raise AssertionError("the census must not build or classify Code objects")

    for name in ("enumerate_codes", "classify"):
        monkeypatch.setattr(enumeration, name, forbidden)
    monkeypatch.setattr(decide, "classify", forbidden)
    monkeypatch.setattr(Code, "__post_init__", forbidden)
    monkeypatch.setattr(Word, "__post_init__", forbidden)
    monkeypatch.setattr(decide, "_finite_delay", forbidden)
    calls = []
    kernel = decide._classes

    def counted(words, with_delay):
        calls.append(words)
        return kernel(words, with_delay)

    monkeypatch.setattr(census_module, "_classes", counted)
    report = census((2, 2, 2, 3), 3, mode="enumeration")
    assert (report.pr, report.fd, report.ud) == (9072, 10584, 12744)
    # one code per set of three length-2 words, completed by each length-3 word
    assert 0 < len(calls) <= math.comb(9, 3) * 27


def _brute_orbits(v, r, n):
    """Orbit sizes of the r-sets of words of length v, keyed by the least
    image over all n! letter permutations."""
    sizes = collections.Counter()
    for block in itertools.combinations(itertools.product(range(n), repeat=v), r):
        sizes[_least_image(block, n)] += 1
    return sizes


def _least_image(block, n):
    return min(
        tuple(sorted(tuple(image[a] for a in w) for w in block))
        for image in itertools.permutations(range(n))
    )


@pytest.mark.parametrize(
    "profile,n", CENSUS_DIFFERENTIAL, ids=[f"{p}-{n}" for p, n in CENSUS_DIFFERENTIAL]
)
def test_first_block_orbits(profile, n):
    """One representative per orbit of the first block, with the orbit's size."""
    census_module = importlib.import_module("udcodes.census")
    v, r = min(profile), profile.count(min(profile))
    orbits = census_module._orbits(v, r, n)
    assert sum(size for _, size in orbits) == math.comb(n**v, r)
    expected = _brute_orbits(v, r, n)
    assert {_least_image(block, n): size for block, size in orbits} == expected
    assert len(orbits) == len(expected)


@pytest.mark.parametrize(
    "profile,n,calls",
    [((3, 3, 4, 5), 2, 8032), ((2, 2, 3, 3, 4), 2, 944), ((2, 2, 2, 3), 3, 459)],
    ids=["3345-2", "22334-2", "2223-3"],
)
def test_census_kernel_calls(monkeypatch, profile, n, calls):
    """One code per orbit of the first block is extended (the benchmark's
    census profiles made 14,080, 1,448 and 2,268 calls without the fold)."""
    census_module = importlib.import_module("udcodes.census")
    seen = []
    kernel = census_module._classes

    def counted(words, with_delay):
        seen.append(words)
        return kernel(words, with_delay)

    monkeypatch.setattr(census_module, "_classes", counted)
    census(profile, n, mode="enumeration")
    assert len(seen) == calls


@pytest.mark.parametrize("profile,n", [((2,) * 6, 3), ((1, 1), 1000)], ids=["222222-3", "11-1000"])
def test_orbit_key_tries_at_most_min_r_k_factorial_relabellings(monkeypatch, profile, n):
    census_module = importlib.import_module("udcodes.census")
    tries = collections.Counter()
    for name in ("_first_occurrence", "_renamed"):

        def counted(words, *rest, relabel=getattr(census_module, name)):
            tries[frozenset(words)] += 1
            return relabel(words, *rest)

        monkeypatch.setattr(census_module, name, counted)
    report = census(profile, n, mode="enumeration")
    assert report.pr == report.fd == report.ud == math.perm(n ** profile[0], len(profile))
    assert tries
    r = len(profile)
    for block, count in tries.items():
        k = len({a for w in block for a in w})
        assert count <= min(math.factorial(r), math.factorial(k)), (block, count)


@pytest.mark.parametrize("mode", ("enumeration", "both"))
def test_census_refuses_large_universe(mode):
    with pytest.raises(UniverseTooLarge) as exc:
        census((2, 3, 3), 3, mode=mode, cap=3**8 - 1)
    assert exc.value.total == 3 ** (2 + 3 + 3)
    assert exc.value.cap == 3**8 - 1


def test_census_rejects_one_letter_alphabet():
    with pytest.raises(CodesError, match="alphabet size must be an integer >= 2, got 1"):
        census((1, 2), 1, mode="enumeration")


def test_census_counts_are_nested():
    for profile in BUILTIN_SUITE:
        report = census(profile, 2, mode="enumeration")
        assert 0 <= report.pr <= report.fd <= report.ud <= report.total


def test_census_formula_mode_leaves_gaps():
    report = census((2, 2, 3), 2, mode="formula")
    assert report.pr == 48
    assert report.fd is None
    assert report.ud is None
    assert report.source == "formula"


def test_census_formula_mode_constant_profile():
    report = census((2, 2), 2, mode="formula")
    assert (report.pr, report.fd, report.ud) == (12, 12, 12)


def test_census_rejects_unknown_mode():
    with pytest.raises(CodesError):
        census((1, 2), 2, mode="guess")


def test_census_infeasible_profile_is_all_zero():
    report = census((1, 1, 1), 2, mode="formula")
    assert (report.pr, report.fd, report.ud) == (0, 0, 0)


def test_suite_profiles_are_sorted_tuples():
    assert (2, 3, 3) in BUILTIN_SUITE
    for profile in BUILTIN_SUITE:
        assert profile == tuple(sorted(profile))


def test_safe_bound():
    assert safe_bound(code("10", "100", "000")) == 9
    assert safe_bound(code("00", "000", "001")) == 15


def test_two_factorization_search():
    stream, first, second = two_factorization_search(code("0", "01", "10"), 8)
    assert stream == Word((0, 1, 0))
    assert (first, second) == ((0, 2), (1, 0))


def test_search_finds_duplicate_words_immediately():
    stream, first, second = two_factorization_search(code("0", "00"), 10)
    assert stream == Word((0, 0))
    assert (first, second) == ((0, 0), (1,))


def test_search_returns_none_for_ud_code():
    c = code("10", "100", "000")
    assert two_factorization_search(c, safe_bound(c)) is None


def test_search_requires_positive_bound():
    with pytest.raises(CodesError):
        two_factorization_search(code("0", "1"), 0)


def test_probe_finite_cases():
    result = bounded_delay_probe(code("0", "10", "11"), 10)
    assert result.verdict == "finite"
    assert result.delay == 2
    assert tuple(w.text() for w in result.witness) == ("10", "11")

    assert bounded_delay_probe(code("10"), 10).delay == 0
    assert bounded_delay_probe(code("01", "001", "000"), 10).delay == 3
    assert bounded_delay_probe(code("11", "1101", "010"), 10).delay == 7

    # two states share the greatest depth; the least pair of first words wins
    result = bounded_delay_probe(Code.from_texts(["1", "0", "02", "12"], 3), 10)
    assert result.delay == 2
    assert tuple(w.text() for w in result.witness) == ("0", "02")


def test_probe_infinite_case():
    result = bounded_delay_probe(code("10", "100", "000"), 10)
    assert result.verdict == "infinite"
    assert result.delay is None
    assert tuple(w.text() for w in result.witness) == ("10", "100")


def test_probe_unknown_when_bound_too_small():
    result = bounded_delay_probe(code("01", "001", "000"), 2)
    assert result.verdict == "unknown"
    assert result.delay is None
    assert result.witness is None


def test_probe_rejects_duplicate_words():
    with pytest.raises(CodesError):
        bounded_delay_probe(code("0", "0"), 5)


def test_ud_count_is_reversal_invariant():
    for profile in ((1, 2, 2), (2, 2, 3), (1, 2, 4)):
        forward = sum(1 for c in enumerate_codes(profile, 2) if classify(c).ud)
        backward = sum(
            1 for c in enumerate_codes(profile, 2) if classify(c.reverse()).ud
        )
        assert forward == backward == census(profile, 2, mode="enumeration").ud


GOLDEN_CSV = """\
code,injective,prefix,ud,finite_delay,delay
0;00,true,false,false,false,
0;01,true,false,true,true,2
0;10,true,true,true,true,1
0;11,true,true,true,true,1
1;00,true,true,true,true,1
1;01,true,true,true,true,1
1;10,true,false,true,true,2
1;11,true,false,false,false,
"""


def test_classification_csv_golden():
    buf = io.StringIO()
    rows = write_classification_csv((1, 2), 2, buf)
    assert rows == 8
    assert buf.getvalue().replace("\r\n", "\n") == GOLDEN_CSV


def test_classification_csv_refuses_before_writing():
    buf = io.StringIO()
    with pytest.raises(UniverseTooLarge):
        write_classification_csv((2, 3, 3), 2, buf, cap=10)
    assert buf.getvalue() == ""


def test_classification_csv_refuses_alphabet_without_text_form():
    buf = io.StringIO()
    with pytest.raises(CodesError, match="alphabet of size 40 exceeds the 36-letter text form"):
        write_classification_csv((1, 1), 40, buf)
    assert buf.getvalue() == ""


small_codes = st.lists(
    st.lists(st.integers(0, 1), min_size=1, max_size=3).map(tuple).map(Word),
    min_size=1,
    max_size=3,
    unique=True,
).map(lambda ws: Code.from_texts([w.text() for w in ws], 2))


@settings(max_examples=200, deadline=None)
@given(small_codes)
def test_probe_agrees_with_exact_delay(c):
    probed = bounded_delay_probe(c, 12)
    assume(probed.verdict != "unknown")
    report = delay_analysis(c)
    if probed.verdict == "finite":
        assert report.finite
        assert report.delay == probed.delay
    else:
        assert not report.finite


@settings(max_examples=200, deadline=None)
@given(small_codes)
def test_probe_verdict_stable_as_bound_grows(c):
    low = bounded_delay_probe(c, 3)
    high = bounded_delay_probe(c, 9)
    if low.verdict != "unknown":
        assert high.verdict == low.verdict
        assert high.delay == low.delay


@settings(max_examples=150, deadline=None)
@given(small_codes)
def test_classify_is_consistent(c):
    result = classify(c)
    assert result.ud == sardinas_patterson(c).unique
    assert result.prefix == is_prefix_code(c)
    if result.injective:
        report = delay_analysis(c)
        assert (result.finite_delay, result.delay) == (report.finite, report.delay)
    if result.prefix:
        assert result.finite_delay
    if result.finite_delay:
        assert result.ud
        assert result.delay is not None
    else:
        assert result.delay is None


def _reference_classification(c):
    injective = len(set(c.words)) == len(c.words)
    report = delay_analysis(c) if injective else None
    return Classification(
        injective=injective,
        prefix=is_prefix_code(c),
        ud=sardinas_patterson(c).unique,
        finite_delay=report is not None and report.finite,
        delay=None if report is None else report.delay,
    )


@pytest.mark.parametrize("n", (2, 3))
def test_classify_matches_reference_deciders_suitewide(n):
    """Every field of classify against the prefix test, Sardinas-Patterson
    and the delay analysis, on every code of every suite profile."""
    checked = 0
    for profile in BUILTIN_SUITE:
        for c in enumerate_codes(profile, n):
            assert classify(c) == _reference_classification(c), c.texts()
            checked += 1
    assert checked == sum(universe_size(p, n) for p in BUILTIN_SUITE)
