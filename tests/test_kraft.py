import hashlib
import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from udcodes.decide import delay_analysis, is_prefix_code, sardinas_patterson
from udcodes.kraft import (
    ConstructionError,
    InfiniteDelayWitnessSpec,
    _lengths_at,
    anchored_prefix_code,
    canonical_prefix_code,
    count_anchored_prefix_codes,
    count_prefix_codes,
    infinite_delay_witness,
    is_feasible,
    kraft_sum,
    ud_nonprefix_witness,
)
from udcodes.enumeration import enumerate_codes
from udcodes.words import CodesError, LengthProfile, Word, as_profile


def test_kraft_sum():
    assert kraft_sum((1, 2, 2), 2) == 1
    assert kraft_sum((1, 1, 2), 2) == Fraction(5, 4)
    assert kraft_sum((2, 3, 3), 2) == Fraction(1, 2)
    assert kraft_sum((1, 1, 1), 3) == 1


def test_is_feasible():
    assert is_feasible((2, 3, 3), 2)
    assert is_feasible((1, 2, 2), 2)
    assert not is_feasible((1, 1, 2), 2)
    assert is_feasible((1, 1, 2), 3)


def test_no_prefix_code_exactly_when_kraft_fails():
    """|PR_n(L)| = 0 iff the Kraft sum exceeds 1, which the census reads off
    the prefix count."""
    for m in range(1, 7):
        for lengths in itertools.combinations_with_replacement(range(1, 7), m):
            for n in (2, 3, 4):
                assert (count_prefix_codes(lengths, n).count == 0) == (
                    not is_feasible(lengths, n)
                ), (lengths, n)


def test_kraft_rejects_bad_alphabet():
    with pytest.raises(CodesError):
        kraft_sum((1, 2), 1)
    with pytest.raises(CodesError):
        kraft_sum((1, 2), 0)


def test_count_prefix_codes():
    trace = count_prefix_codes((2, 3, 3), 2)
    assert trace.count == 120
    assert trace.available == (4, 6)
    assert trace.n == 2
    assert count_prefix_codes((1, 2), 2).count == 4
    assert count_prefix_codes((1, 1), 2).count == 2


def test_count_zero_iff_infeasible():
    for lengths in ((1, 1, 2), (1, 1, 1), (1, 1, 1, 1)):
        assert count_prefix_codes(lengths, 2).count == 0
        assert not is_feasible(lengths, 2)
    assert count_prefix_codes((1, 1, 1), 3).count == 6


def test_canonical_prefix_code():
    assert canonical_prefix_code((2, 3, 3), 2).texts() == ("00", "010", "011")
    assert canonical_prefix_code((1, 1), 2).texts() == ("0", "1")
    assert canonical_prefix_code((1, 2), 2).texts() == ("0", "10")


def test_canonical_keeps_raw_order():
    # lengths are honored position by position, not sorted
    assert canonical_prefix_code((3, 2, 3), 2).texts() == ("010", "00", "011")


def test_lengths_at_keeps_raw_order():
    """A sequence keeps its order, a profile comes back as itself and lays
    out its words sorted, and an iterator is read once."""
    profile = LengthProfile.from_lengths((3, 2, 3))
    assert _lengths_at((3, 2, 3), 2) == ((3, 2, 3), profile, 8)
    assert _lengths_at(profile, 2)[0] is profile
    assert canonical_prefix_code(profile, 2) == canonical_prefix_code((2, 3, 3), 2)
    assert _lengths_at(iter((3, 2, 3)), 2) == ((3, 2, 3), profile, 8)
    assert as_profile((3, 2, 3)) == as_profile((2, 3, 3))


def test_canonical_is_a_prefix_code():
    for lengths in ((2, 3, 3), (1, 2, 4), (2, 2, 4), (3, 2, 3)):
        c = canonical_prefix_code(lengths, 2)
        assert is_prefix_code(c)
        assert c.lengths == lengths


def test_canonical_infeasible_cites_kraft_sum():
    with pytest.raises(ConstructionError, match="5/4"):
        canonical_prefix_code((1, 1, 2), 2)


def test_canonical_infeasible_cites_a_kraft_sum_of_any_length(default_digit_limit):
    with pytest.raises(ConstructionError, match=r"Kraft sum \d{6021}/\d{6021} exceeds 1$"):
        canonical_prefix_code((1, 1, 1, 20000), 2)


def test_anchored_family_count():
    fam = count_anchored_prefix_codes((2, 3, 3), 2, 2, 3)
    assert fam.count == 10
    assert fam.anchor_a == Word((0, 1))
    assert fam.anchor_b == Word((0, 0, 1))
    assert (fam.index_a, fam.index_b) == (0, 1)
    assert count_anchored_prefix_codes((1, 2), 2, 1, 2).count == 1
    assert count_anchored_prefix_codes((2, 2, 3), 2, 2, 3).count == 4


def test_anchored_family_infeasible_is_zero():
    assert count_anchored_prefix_codes((1, 1, 2), 2, 1, 2).count == 0


def test_anchored_family_bad_arguments():
    with pytest.raises(CodesError):
        count_anchored_prefix_codes((2, 3, 3), 2, 3, 2)
    with pytest.raises(CodesError):
        count_anchored_prefix_codes((2, 3, 3), 2, 2, 4)
    with pytest.raises(CodesError):
        count_anchored_prefix_codes((2, 2), 2, 2, 2)


@pytest.mark.parametrize("lengths,n", [((2, 3, 3), 2), ((2, 2, 3), 2), ((1, 2, 4), 2), ((2, 3, 3), 3)])
def test_anchored_count_matches_enumeration(lengths, n):
    fam = count_anchored_prefix_codes(lengths, n, min(lengths), max(lengths))
    hits = sum(
        1
        for c in enumerate_codes(lengths, n)
        if is_prefix_code(c) and fam.anchor_a in c.words and fam.anchor_b in c.words
    )
    assert fam.count == hits


def test_anchored_prefix_code():
    plain = anchored_prefix_code((2, 3, 3), 2, 2, 3)
    assert plain.texts() == ("01", "001", "000")
    assert is_prefix_code(plain)
    zeroed = anchored_prefix_code((2, 3, 3), 2, 2, 3, zero_word_length=3)
    assert zeroed.texts() == ("01", "001", "000")
    assert Word((0, 0, 0)) in zeroed.words


def test_anchored_prefix_code_zero_word_validation():
    with pytest.raises(CodesError):
        anchored_prefix_code((2, 3, 3), 2, 2, 3, zero_word_length=2)
    with pytest.raises(CodesError):
        anchored_prefix_code((2, 3, 3), 2, 2, 3, zero_word_length=5)


def test_anchored_prefix_code_names_the_stage_that_runs_out():
    # length 2 has one slot, wanted by both the anchor 01 and the zero word 00
    with pytest.raises(ConstructionError) as info:
        anchored_prefix_code((1, 2), 2, 1, 2, zero_word_length=2)
    assert info.value.stage == 2


def test_ud_nonprefix_witness():
    w = ud_nonprefix_witness((2, 3, 3), 2)
    assert w.texts() == ("10", "100", "000")
    assert not is_prefix_code(w)
    assert sardinas_patterson(w).unique
    small = ud_nonprefix_witness((1, 2), 2)
    assert small.texts() == ("1", "10")
    assert sardinas_patterson(small).unique


def test_ud_nonprefix_witness_needs_two_lengths():
    with pytest.raises(CodesError):
        ud_nonprefix_witness((2, 2, 2), 2)


def test_infinite_delay_witness_cases():
    cases = {
        (2, 3, 3): ("rb-many", ("10", "100", "000")),
        (1, 2, 2): ("rb-many", ("1", "10", "00")),
        (1, 2, 4): ("three-values", ("1", "10", "0000")),
        (2, 2, 3): ("two-values", ("11", "00", "110")),
    }
    for lengths, (case, texts) in cases.items():
        c, spec = infinite_delay_witness(lengths, 2)
        assert spec.case == case
        assert c.texts() == texts
        assert sardinas_patterson(c).unique
        assert not delay_analysis(c).finite


def test_infinite_delay_witness_condition_errors():
    # profiles where every uniquely decodable code has finite delay
    for lengths in ((1, 1, 2), (1, 2), (2, 2), (2, 2, 4)):
        with pytest.raises(CodesError, match="finite delay"):
            infinite_delay_witness(lengths, 2)


def test_infinite_delay_witness_checks_condition_before_kraft():
    # (1,1,2) is infeasible at n=2, but the structural answer comes first
    with pytest.raises(CodesError, match="finite delay"):
        infinite_delay_witness((1, 1, 2), 2)


def test_infinite_delay_witness_infeasible():
    with pytest.raises(CodesError, match="Kraft sum 11/8"):
        infinite_delay_witness((1, 1, 2, 3), 2)


def test_infinite_delay_witness_infeasible_cites_a_kraft_sum_of_any_length(default_digit_limit):
    with pytest.raises(CodesError, match=r"Kraft sum \d{6021}/\d{6021} exceeds 1$"):
        infinite_delay_witness((1, 1, 2, 20000), 2)


def test_witness_spec_validation():
    with pytest.raises(CodesError):
        InfiniteDelayWitnessSpec(case="bogus", a=2, b=3, remainder=1, quotient=1)
    with pytest.raises(CodesError):
        InfiniteDelayWitnessSpec(case="two-values", a=2, b=3, remainder=0, quotient=1)
    with pytest.raises(CodesError):
        InfiniteDelayWitnessSpec(case="two-values", a=2, b=3, remainder=2, quotient=1)


profiles = st.lists(st.integers(1, 4), min_size=1, max_size=4)


@settings(max_examples=200, deadline=None)
@given(profiles, st.integers(2, 4))
def test_count_positive_iff_feasible(lengths, n):
    positive = count_prefix_codes(lengths, n).count > 0
    assert positive == is_feasible(lengths, n)


@settings(max_examples=100, deadline=None)
@given(profiles, st.integers(2, 3))
def test_canonical_matches_count(lengths, n):
    if is_feasible(lengths, n):
        c = canonical_prefix_code(lengths, n)
        assert is_prefix_code(c)
        assert c.lengths == tuple(lengths)
    else:
        with pytest.raises(ConstructionError):
            canonical_prefix_code(lengths, n)


def test_profile_arguments_accepted():
    p = LengthProfile.from_lengths((2, 3, 3))
    assert count_prefix_codes(p, 2).count == 120
    assert kraft_sum(p, 2) == Fraction(1, 2)


# SHA-256 of every construction's outcome, recorded before the prefix
# constructions shared one builder.  The sweep covers every ordered length
# sequence of 1 to 4 words of lengths 1..5; `anchored_prefix_code` runs on
# every pair a < b of its length values with every zero_word_length, valid
# or not.  An outcome is the code's texts (and the witness spec), or the
# error's type, message and stage.
CONSTRUCTION_SHA256 = {
    ("canonical", 2): "855f9ed8db3dd72d4c50488b095756c8f270aea49801a628993c8e84a066afb5",
    ("canonical", 3): "a3f1414bba80af1bced6f390255c5985808b38aa74a0f31ab57fd099e670b428",
    ("anchored", 2): "47766b941ac5f091886d98e3c1f8499ed322f1621cee21f7fb223f468465e438",
    ("anchored", 3): "06a574b6631efe82520884579ef3f969dcec5e75b7e2b1497cc8bad8e4afe854",
    ("nonprefix", 2): "c1d38dbd2e946dc8801e45ddf9cc2b3e47ba5cf88b5293257d4e69051dfb1330",
    ("nonprefix", 3): "4cb183842246d9b0bee425533247def36afc2a9ced5d7c7da26983e8db4c6c8e",
    ("infinite", 2): "1f9c790d0f15a15e9f11f44ab3e256687dceaf4761ea120a4822bac7df737b81",
    ("infinite", 3): "30ca65531eac8a8e09ac606ce918fc2e8f3b7e0c57e12396915d3146bba20c1c",
}


def construction_outcome(build, *args, **kwargs):
    try:
        result = build(*args, **kwargs)
    except CodesError as exc:
        return f"{type(exc).__name__}|{exc}|{getattr(exc, 'stage', None)}"
    if isinstance(result, tuple):
        code, spec = result
        return ",".join(code.texts()) + f"|{spec!r}"
    return ",".join(result.texts())


SEQUENCE_CONSTRUCTIONS = {
    "canonical": canonical_prefix_code,
    "nonprefix": ud_nonprefix_witness,
    "infinite": infinite_delay_witness,
}


def construction_outcomes(name, n):
    for m in range(1, 5):
        for lengths in itertools.product(range(1, 6), repeat=m):
            if name in SEQUENCE_CONSTRUCTIONS:
                yield f"{lengths}:{construction_outcome(SEQUENCE_CONSTRUCTIONS[name], lengths, n)}\n"
                continue
            for a, b in itertools.combinations(sorted(set(lengths)), 2):
                for z in (None, 1, 2, 3, 4, 5):
                    built = construction_outcome(anchored_prefix_code, lengths, n, a, b, zero_word_length=z)
                    yield f"{lengths},{a},{b},{z}:{built}\n"


@pytest.mark.parametrize("name,n", sorted(CONSTRUCTION_SHA256))
def test_constructions_pinned(name, n):
    digest = hashlib.sha256("".join(construction_outcomes(name, n)).encode()).hexdigest()
    assert digest == CONSTRUCTION_SHA256[name, n]
