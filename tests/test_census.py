import importlib
import tracemalloc
from fractions import Fraction

import pytest

from udcodes.census import (
    BoundReport,
    CodeCounts,
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
from udcodes.kraft import MAX_POWER_BITS, count_prefix_codes, kraft_sum
from udcodes.words import CodesError, LengthProfile


def test_count_pr_pair():
    assert count_pr_pair(2, 3, 2) == 24
    assert count_pr_pair(1, 2, 2) == 4
    assert count_pr_pair(1, 1, 2) == 2
    assert count_pr_pair(1, 1, 3) == 6


def test_count_pr_pair_order_agnostic():
    assert count_pr_pair(2, 3, 2) == count_pr_pair(3, 2, 2)
    assert count_pr_pair(1, 4, 3) == count_pr_pair(4, 1, 3)


def test_count_233():
    assert count_233(2) == CodeCounts(ud=180, pr=120)
    assert count_233(3) == CodeCounts(ud=6102, pr=4968)


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
    report = theorem1_bound((2, 2, 3), 2, 2, 3)
    assert report.lower_bound == Fraction(13, 12)
    assert report.pr_count == 48
    assert report.ud_count == 80
    assert report.ratio == Fraction(5, 3)
    assert report.satisfied


def test_theorem1_bound_cap_leaves_ud_unknown():
    report = theorem1_bound((2, 2, 3), 2, 2, 3, enumeration_cap=10)
    assert report.lower_bound == Fraction(13, 12)
    assert report.pr_count == 48
    assert report.ud_count is None
    assert report.ratio is None
    assert report.satisfied is None


def test_theorem1_bound_takes_a_known_ud_count(monkeypatch):
    census_module = importlib.import_module("udcodes.census")

    def forbidden(*args, **kwargs):
        raise AssertionError("a known UD count needs no census")

    computed = theorem1_bound((2, 2, 3), 2, 2, 3)
    monkeypatch.setattr(census_module, "census", forbidden)
    given = theorem1_bound((2, 2, 3), 2, 2, 3, ud_count=80)
    assert given == computed
    assert theorem1_bound((2, 2, 3), 2, 2, 3, enumeration_cap=10, ud_count=80) == computed


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
        ):
            with pytest.raises(CodesError, match=f"more than {MAX_POWER_BITS} bits"):
                call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10**6


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
    with pytest.raises(CodesError, match="vacuous"):
        is_pr_eq_ud((1, 1, 2), 2)
    with pytest.raises(CodesError, match="vacuous"):
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
