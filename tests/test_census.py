import contextlib
import functools
import importlib
import io
import json
import tracemalloc
from fractions import Fraction

import pytest

from udcodes import cli
from udcodes.census import (
    BoundReport,
    CodeCounts,
    UniverseTooLarge,
    census,
    closed_form_counts,
    count_233,
    count_all_a_then_b,
    count_pr_pair,
    fd_matches_ud_condition,
    is_fd_eq_ud,
    is_pr_eq_ud,
    theorem1_bound,
    universe_size,
)
from udcodes.enumeration import enumerate_codes, write_classification_csv
from udcodes.kraft import (
    MAX_POWER_BITS,
    anchored_prefix_code,
    canonical_prefix_code,
    count_anchored_prefix_codes,
    count_prefix_codes,
    infinite_delay_witness,
    is_feasible,
    kraft_sum,
    ud_nonprefix_witness,
)
from udcodes.words import CodesError, LengthProfile, as_profile


def test_count_pr_pair():
    assert count_pr_pair(2, 3, 2) == 24
    assert count_pr_pair(1, 2, 2) == 4
    assert count_pr_pair(1, 1, 2) == 2
    assert count_pr_pair(1, 1, 3) == 6


def test_count_pr_pair_refuses_a_length_below_1():
    with pytest.raises(CodesError, match="length values must be positive integers, got 0"):
        count_pr_pair(0, 2, 2)


def test_count_pr_pair_order_agnostic():
    assert count_pr_pair(2, 3, 2) == count_pr_pair(3, 2, 2)
    assert count_pr_pair(1, 4, 3) == count_pr_pair(4, 1, 3)


def test_count_233():
    assert count_233(2) == CodeCounts(ud=180, pr=120)
    assert count_233(3) == CodeCounts(ud=6102, pr=4968)
    assert count_233(4) == CodeCounts(ud=63864, pr=56640)
    assert count_233(5) == CodeCounts(ud=385980, pr=357000)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_count_233_matches_enumeration(n):
    report = census((2, 3, 3), n, mode="enumeration")
    assert count_233(n) == CodeCounts(ud=report.ud, pr=report.pr)


def test_count_233_prefix_part_matches_recurrence():
    for n in (2, 3, 4, 5, 7):
        assert count_233(n).pr == count_prefix_codes((2, 3, 3), n).count


def test_count_233_ud_dominates_pr():
    for n in (2, 3, 4, 5, 10):
        counts = count_233(n)
        assert counts.ud > counts.pr


def test_count_all_a_then_b():
    assert count_all_a_then_b(2, 3, 2, 4) == CodeCounts(ud=144, pr=96)
    assert count_all_a_then_b(3, 3, 2, 4) == CodeCounts(ud=5544, pr=4536)
    assert count_all_a_then_b(2, 2, 1, 2) == CodeCounts(ud=6, pr=4)
    assert count_all_a_then_b(3, 2, 1, 2) == CodeCounts(ud=24, pr=18)


def test_count_all_a_then_b_equal_lengths_is_constant_count():
    # with b == a this is just an injective choice of m words of length a
    assert count_all_a_then_b(2, 3, 2, 2) == CodeCounts(ud=24, pr=24)
    assert count_all_a_then_b(2, 3, 2, 2).pr == count_prefix_codes((2, 2, 2), 2).count


def test_count_all_a_then_b_requires_divisibility():
    with pytest.raises(CodesError):
        count_all_a_then_b(2, 2, 2, 3)
    with pytest.raises(CodesError):
        count_all_a_then_b(2, 1, 1, 2)


def test_count_all_a_then_b_clamps_to_zero():
    # more short words than the alphabet can supply
    assert count_all_a_then_b(2, 4, 1, 2) == CodeCounts(ud=0, pr=0)


def test_closed_form_dispatch():
    assert closed_form_counts((2, 3, 3), 2) == CodeCounts(ud=180, pr=120)
    assert closed_form_counts((1, 2), 2) == CodeCounts(ud=6, pr=4)
    assert closed_form_counts((2, 2), 2) == CodeCounts(ud=12, pr=12)
    assert closed_form_counts((2, 2, 4), 3) == CodeCounts(ud=5544, pr=4536)
    assert closed_form_counts((1, 2, 2), 2) is None
    assert closed_form_counts((3, 6, 6), 2) is None
    assert closed_form_counts((2, 2, 3), 2) is None


def test_closed_form_accepts_profile_objects():
    p = LengthProfile.from_lengths((2, 3, 3))
    assert closed_form_counts(p, 2) == CodeCounts(ud=180, pr=120)


def test_theorem1_bound_233():
    report = theorem1_bound((2, 3, 3), 2, 2, 3)
    assert isinstance(report, BoundReport)
    assert report.lower_bound == Fraction(13, 12)
    assert report.pr_count == 120
    assert report.ud_count == 180
    assert report.ratio == Fraction(3, 2)
    assert report.satisfied


def test_theorem1_bound_233_ternary():
    report = theorem1_bound((2, 3, 3), 3, 2, 3)
    assert report.lower_bound == Fraction(109, 108)
    assert report.ratio == Fraction(113, 92)
    assert report.satisfied


def test_theorem1_bound_enumerated_profile():
    report = theorem1_bound((2, 2, 3), 2, 2, 3, ud_count=census((2, 2, 3), 2).ud)
    assert report.lower_bound == Fraction(13, 12)
    assert report.pr_count == 48
    assert report.ud_count == 80
    assert report.ratio == Fraction(5, 3)
    assert report.satisfied


def test_theorem1_bound_takes_a_known_ud_count():
    ud = census((2, 2, 3), 2, mode="enumeration").ud
    report = theorem1_bound((2, 2, 3), 2, 2, 3, ud_count=ud)
    assert (report.ud_count, report.ratio, report.satisfied) == (80, Fraction(5, 3), True)


def test_theorem1_bound_reaches_no_census(monkeypatch):
    """|UD| comes from the caller's ud_count or a closed form, never from an
    enumeration of its own; with neither it is left unknown."""
    census_module = importlib.import_module("udcodes.census")

    def forbidden(*args, **kwargs):
        raise AssertionError("theorem1_bound ran a census")

    monkeypatch.setattr(census_module, "census", forbidden)
    monkeypatch.setattr(census_module, "_enumerated_counts", forbidden)
    unknown = theorem1_bound((2, 2, 3), 2, 2, 3)  # no closed form
    assert unknown.lower_bound == Fraction(13, 12)
    assert unknown.pr_count == 48
    assert (unknown.ud_count, unknown.ratio, unknown.satisfied) == (None, None, None)
    assert theorem1_bound((2, 3, 3), 2, 2, 3).ud_count == 180  # count_233
    given = theorem1_bound((2, 2, 3), 2, 2, 3, ud_count=80)
    assert (given.ud_count, given.ratio, given.satisfied) == (80, Fraction(5, 3), True)


def test_a_cross_check_discrepancy_fails_the_census_and_the_cli(monkeypatch, capsys):
    census_module = importlib.import_module("udcodes.census")
    true_count = census_module.count_233

    def one_ud_too_many(n):
        counts = true_count(n)
        return counts._replace(ud=counts.ud + 1)

    monkeypatch.setattr(census_module, "count_233", one_ud_too_many)
    message = "ud: formula 181 != enumeration 180"
    assert census((2, 3, 3), 2).discrepancies == (message,)
    assert cli.main(["count", "--lengths", "2,3,3", "--alphabet", "2"]) == 1
    assert json.loads(capsys.readouterr().out)["results"]["census"]["discrepancies"] == [message]


def test_theorem1_bound_is_symmetric_in_the_pair():
    forward = theorem1_bound((2, 3, 3), 2, 2, 3)
    backward = theorem1_bound((2, 3, 3), 2, 3, 2)
    assert backward.lower_bound == forward.lower_bound
    assert backward.ratio == forward.ratio


def test_theorem1_bound_errors():
    with pytest.raises(CodesError):
        theorem1_bound((2, 2), 2, 2, 2)
    with pytest.raises(CodesError):
        theorem1_bound((2, 3, 3), 2, 3, 3)
    with pytest.raises(CodesError):
        theorem1_bound((2, 3, 3), 2, 2, 4)
    with pytest.raises(CodesError):
        theorem1_bound((1, 1, 2), 2, 1, 2)


def test_powers_past_the_bit_bound_are_refused_without_allocating():
    many_twos = LengthProfile((2,), (10**6,))
    tracemalloc.start()
    try:
        for call in (
            lambda: universe_size((10**11, 1), 2),
            lambda: kraft_sum((10**11, 1), 2),
            lambda: count_prefix_codes((10**11, 1), 2),
            lambda: universe_size(many_twos, 3),
            lambda: count_pr_pair(1, 2**21, 2),
            lambda: count_all_a_then_b(2, 2, 1, 2**21),
            lambda: closed_form_counts((1, 2**21), 2),
        ):
            with pytest.raises(CodesError, match=f"more than {MAX_POWER_BITS} bits"):
                call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10**6


ONES = LengthProfile((1,), (10**6,))


@pytest.mark.parametrize(
    "call, limit",
    [
        pytest.param(lambda: kraft_sum(ONES, 2), 10**6, id="kraft_sum"),
        pytest.param(lambda: is_feasible(ONES, 2), 10**6, id="is_feasible"),
        pytest.param(lambda: count_prefix_codes(ONES, 2), 10**6, id="count_prefix_codes"),
        pytest.param(lambda: closed_form_counts(ONES, 2), 10**6, id="closed_form_counts"),
        pytest.param(lambda: census(ONES, 2, mode="formula"), 10**6, id="census-formula"),
        pytest.param(lambda: universe_size(ONES, 2), 10**6, id="universe_size"),
        pytest.param(lambda: is_pr_eq_ud(ONES, 2), 10**6, id="is_pr_eq_ud"),
        pytest.param(lambda: is_fd_eq_ud(ONES, 2), 10**6, id="is_fd_eq_ud"),
        # refused by the cap, whose message renders the 301,030-digit universe
        pytest.param(
            lambda: census(ONES, 2, mode="enumeration"), 2 * 10**6, id="census-enumeration"
        ),
        pytest.param(lambda: enumerate_codes(ONES, 2), 2 * 10**6, id="enumerate_codes"),
    ],
)
def test_a_profile_is_counted_without_expanding_it(call, limit):
    """A million words of length 1 at n = 2: the counts read the profile's
    values and multiplicities, never a tuple of a million lengths."""
    tracemalloc.start()
    try:
        with contextlib.suppress(CodesError):
            call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < limit


# Every public entry point that takes lengths and an alphabet size, with
# its other arguments valid for the lengths (1, 2, 2) at n = 2.
LENGTHS_AND_N = {
    "kraft_sum": kraft_sum,
    "is_feasible": is_feasible,
    "count_prefix_codes": count_prefix_codes,
    "count_anchored_prefix_codes": lambda lengths, n: count_anchored_prefix_codes(
        lengths, n, 1, 2
    ),
    "canonical_prefix_code": canonical_prefix_code,
    "anchored_prefix_code": lambda lengths, n: anchored_prefix_code(lengths, n, 1, 2),
    "ud_nonprefix_witness": ud_nonprefix_witness,
    "infinite_delay_witness": infinite_delay_witness,
    "universe_size": universe_size,
    "census-formula": lambda lengths, n: census(lengths, n, mode="formula"),
    "census-enumeration": lambda lengths, n: census(lengths, n, mode="enumeration"),
    "census-both": census,
    "closed_form_counts": closed_form_counts,
    "theorem1_bound": lambda lengths, n: theorem1_bound(lengths, n, 1, 2),
    "is_pr_eq_ud": is_pr_eq_ud,
    "is_fd_eq_ud": is_fd_eq_ud,
    "enumerate_codes": enumerate_codes,
    "write_classification_csv": lambda lengths, n: write_classification_csv(
        lengths, n, io.StringIO()
    ),
}


@pytest.mark.parametrize("n", (1, 2.0, True, "2", None))
@pytest.mark.parametrize(
    "call",
    [
        pytest.param(functools.partial(call, (1, 2, 2)), id=name)
        for name, call in LENGTHS_AND_N.items()
    ]
    + [
        pytest.param(lambda n: count_pr_pair(1, 2, n), id="count_pr_pair"),
        pytest.param(lambda n: count_all_a_then_b(n, 3, 1, 2), id="count_all_a_then_b"),
    ],
)
def test_every_entry_point_refuses_a_bad_alphabet(call, n):
    call(2)
    with pytest.raises(CodesError) as info:
        call(n)
    assert str(info.value) == f"alphabet size must be an integer >= 2, got {n!r}"


@pytest.mark.parametrize(
    "lengths, message",
    [
        pytest.param(None, "a length profile needs at least one length"),
        pytest.param(5, "lengths must be an iterable of positive integers, got 5", id="int"),
        pytest.param((1, "2"), "length values must be positive integers, got '2'", id="str"),
        pytest.param((1, None), "length values must be positive integers, got None", id="a-None"),
        pytest.param(([1],), "length values must be positive integers, got [1]", id="list"),
        # a bool or a float equal to a length would count as that length
        pytest.param((1, True), "length values must be positive integers, got True", id="bool"),
        pytest.param((1, 1.0), "length values must be positive integers, got 1.0", id="float"),
    ],
)
@pytest.mark.parametrize(
    "call",
    [pytest.param(call, id=name) for name, call in LENGTHS_AND_N.items()]
    + [
        pytest.param(
            lambda lengths, n: fd_matches_ud_condition(lengths), id="fd_matches_ud_condition"
        ),
        pytest.param(lambda lengths, n: as_profile(lengths), id="as_profile"),
        pytest.param(lambda lengths, n: LengthProfile.from_lengths(lengths), id="from_lengths"),
    ],
)
def test_every_entry_point_refuses_malformed_lengths(call, lengths, message):
    call((1, 2, 2), 2)
    with pytest.raises(CodesError) as info:
        call(lengths, 2)
    assert str(info.value) == message


@pytest.mark.parametrize("cap", (1.5, None, True, "10"))
@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda cap: census((2, 3), 2, cap=cap), id="census"),
        pytest.param(lambda cap: enumerate_codes((2, 3), 2, cap=cap), id="enumerate_codes"),
        pytest.param(
            lambda cap: write_classification_csv((2, 3), 2, io.StringIO(), cap=cap),
            id="write_classification_csv",
        ),
    ],
)
def test_a_cap_that_is_not_an_int_is_refused(call, cap):
    with pytest.raises(CodesError) as info:
        call(cap)
    assert str(info.value) == f"the universe cap must be an integer, got {cap!r}"


@pytest.mark.parametrize(
    "call,error,message",
    [
        pytest.param(
            lambda: census((20000,), 2),
            UniverseTooLarge,
            r"holds \d{6021} codes, above the cap of 1000000$",
            id="census-universe",
        ),
        pytest.param(
            lambda: census((1,), 10**5000),
            UniverseTooLarge,
            r"holds 10{5000} codes",
            id="census-universe-of-a-huge-alphabet",
        ),
        pytest.param(
            lambda: census((10**5000,), 2),
            CodesError,
            r"^lengths summing to 10{5000} are refused at alphabet size 2: 2\^10{5000} ",
            id="census-huge-length",
        ),
        pytest.param(
            lambda: theorem1_bound((1, 1, 1, 20000), 2, 1, 20000),
            CodesError,
            r"\(Kraft sum \d{6021}/\d{6021} exceeds 1\)$",
            id="theorem1-bound-infeasible",
        ),
        pytest.param(
            lambda: is_pr_eq_ud((1, 1, 1, 20000), 2),
            CodesError,
            r"\(Kraft sum \d{6021}/\d{6021} exceeds 1\)$",
            id="is-pr-eq-ud-infeasible",
        ),
    ],
)
def test_refusals_render_numbers_of_any_length(default_digit_limit, call, error, message):
    """A refusal names its huge numbers in full under Python's default
    int-to-str digit limit, and raises its own error type."""
    with pytest.raises(error, match=message):
        call()


@pytest.mark.parametrize("ud_count,ratio", [(240, Fraction(1)), (512, Fraction(32, 15))])
def test_a_ud_count_from_the_prefix_count_to_the_universe_is_accepted(ud_count, ratio):
    # (2, 3, 4) at n = 2 has 240 prefix codes in a universe of 2^9 = 512
    assert theorem1_bound((2, 3, 4), 2, 2, 3, ud_count=ud_count).ratio == ratio


def test_bound_without_an_enumerable_universe_has_no_ud_count(default_digit_limit):
    report = theorem1_bound((2, 3, 3, 20000), 2, 2, 3)
    assert (report.ud_count, report.ratio, report.satisfied) == (None, None, None)


def test_power_bit_bound_is_sum_times_ceil_log2_n():
    assert MAX_POWER_BITS == 2**20
    assert universe_size((MAX_POWER_BITS - 1, 1), 2) == 2**MAX_POWER_BITS
    with pytest.raises(CodesError):
        universe_size((MAX_POWER_BITS, 1), 2)
    # a million-letter word is still counted (2^1000001 has 1000002 bits)
    report = census((1000000, 1), 2, mode="formula")
    assert report.ud == 2**1000001 - 2
    # ceil(log2 3) = 2 bits per letter
    assert kraft_sum((MAX_POWER_BITS // 2,), 3) == Fraction(1, 3 ** (MAX_POWER_BITS // 2))
    with pytest.raises(CodesError):
        kraft_sum((MAX_POWER_BITS // 2, 1), 3)


def test_is_pr_eq_ud():
    assert is_pr_eq_ud((1, 1), 2)
    assert is_pr_eq_ud((2, 2), 2)
    assert not is_pr_eq_ud((1, 2), 2)
    assert not is_pr_eq_ud((2, 3, 3), 2)
    assert not is_pr_eq_ud((1, 1, 2), 3)


def test_is_fd_eq_ud():
    assert is_fd_eq_ud((2, 2, 4), 2)
    assert is_fd_eq_ud((1, 2), 2)
    assert is_fd_eq_ud((1, 1, 2), 3)
    assert not is_fd_eq_ud((2, 2, 3), 2)
    assert not is_fd_eq_ud((2, 3, 3), 2)


def test_equality_questions_vacuous_when_infeasible():
    # with no uniquely decodable code there is no class to compare: refused
    with pytest.raises(CodesError, match=r"\(Kraft sum 5/4 exceeds 1\)$"):
        is_pr_eq_ud((1, 1, 2), 2)
    with pytest.raises(CodesError, match=r"\(Kraft sum 3/2 exceeds 1\)$"):
        is_fd_eq_ud((1, 1, 1), 2)


@pytest.mark.parametrize(
    "lengths,expected",
    [
        ((1, 2), True),
        ((2, 2), True),
        ((1, 1, 1), True),
        ((1, 2, 2), False),
        ((2, 2, 3), False),
        ((2, 2, 4), True),
        ((2, 3, 3), False),
        ((1, 2, 4), False),
        ((3, 6, 6), False),
        ((2, 2, 2, 6), True),
        ((5,), True),
    ],
)
def test_fd_matches_ud_condition(lengths, expected):
    assert fd_matches_ud_condition(lengths) is expected


def test_fd_condition_is_alphabet_free():
    # the structural test never consults an alphabet size
    for lengths in ((2, 2, 4), (2, 2, 3), (1, 2, 2)):
        assert fd_matches_ud_condition(lengths) == fd_matches_ud_condition(
            LengthProfile.from_lengths(lengths)
        )


def _small_profiles(total: int, least: int = 1):
    """Every non-decreasing length sequence with lengths >= least and sum <= total."""
    yield ()
    for first in range(least, total + 1):
        for rest in _small_profiles(total - first, first):
            yield (first,) + rest


# Each alphabet size goes up to the largest sum whose census stays fast.
CHARACTERISED = [
    (lengths, n)
    for n, total in ((2, 12), (3, 9), (4, 7), (5, 6))
    for lengths in _small_profiles(total)
    if len(lengths) >= 2 and is_feasible(lengths, n)
]


def test_characterised_profiles_are_the_expected_ones():
    assert len(CHARACTERISED) == 213


@pytest.mark.parametrize(
    "lengths,n", CHARACTERISED, ids=[f"{l}-{n}" for l, n in CHARACTERISED]
)
def test_the_paper_characterisations_on_small_profiles(lengths, n):
    report = census(lengths, n, mode="enumeration")
    assert (report.pr == report.ud) == (len(set(lengths)) == 1)
    assert (report.fd == report.ud) == fd_matches_ud_condition(lengths)
    assert report.pr == count_prefix_codes(lengths, n).count
    values = sorted(set(lengths))
    for i, a in enumerate(values):
        for b in values[i + 1 :]:
            assert theorem1_bound(lengths, n, a, b, ud_count=report.ud).satisfied
