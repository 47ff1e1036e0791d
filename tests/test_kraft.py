import hashlib
import itertools
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from udcodes.census import (
    CodeCounts,
    census,
    closed_form_counts,
    is_fd_eq_ud,
    is_pr_eq_ud,
    theorem1_bound,
)
from udcodes.decide import classify, delay_analysis, is_prefix_code, sardinas_patterson
from udcodes.kraft import (
    ConstructionError,
    InfiniteDelayWitnessSpec,
    _free_numerals,
    _lengths_at,
    anchored_prefix_code,
    canonical_prefix_code,
    count_anchored_prefix_codes,
    count_prefix_codes,
    fd_matches_ud_condition,
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
    with pytest.raises(CodesError, match=r"\(Kraft sum 5/4 exceeds 1\)$"):
        canonical_prefix_code((1, 1, 2), 2)


def test_canonical_infeasible_cites_a_kraft_sum_of_any_length(default_digit_limit):
    with pytest.raises(CodesError, match=r"\(Kraft sum \d{6021}/\d{6021} exceeds 1\)$"):
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


def test_infinite_delay_witness_infeasible_cites_a_kraft_sum_of_any_length(default_digit_limit):
    with pytest.raises(CodesError, match=r"\(Kraft sum \d{6021}/\d{6021} exceeds 1\)$"):
        infinite_delay_witness((1, 1, 2, 20000), 2)


# Every entry point that refuses lengths with no uniquely decodable code,
# called with the length values 1 and 2 where it takes two.
KRAFT_REFUSING = {
    "canonical_prefix_code": canonical_prefix_code,
    "anchored_prefix_code": lambda lengths, n: anchored_prefix_code(lengths, n, 1, 2),
    "ud_nonprefix_witness": ud_nonprefix_witness,
    "infinite_delay_witness": infinite_delay_witness,
    "theorem1_bound": lambda lengths, n: theorem1_bound(lengths, n, 1, 2),
    "is_pr_eq_ud": is_pr_eq_ud,
    "is_fd_eq_ud": is_fd_eq_ud,
}
CENSUS_MODES = ("formula", "enumeration", "both")


@pytest.mark.parametrize(
    "lengths,kraft,closed,modes",
    [
        # infinite_delay_witness refuses this shape before it reads the Kraft sum
        pytest.param((1, 1, 2), "5/4", CodeCounts(0, 0), CENSUS_MODES, id="5/4"),
        pytest.param((1, 1, 2, 3), "11/8", None, CENSUS_MODES, id="11/8"),
        pytest.param(
            (1, 1, 2, 20000), r"\d{6021}/\d{6021}", None, ("formula",), id="any-length"
        ),
    ],
)
def test_one_kraft_refusal(default_digit_limit, lengths, kraft, closed, modes):
    """Lengths with a Kraft sum above 1 are refused with one message and a
    plain CodesError by every entry point that asks for a code of them, while
    the counts of the empty classes are 0."""
    messages = set()
    for name, call in KRAFT_REFUSING.items():
        if name == "infinite_delay_witness" and fd_matches_ud_condition(lengths):
            continue
        with pytest.raises(CodesError) as info:
            call(lengths, 2)
        assert type(info.value) is CodesError, name
        messages.add(str(info.value))
    (message,) = messages
    assert re.fullmatch(
        "no uniquely decodable code with these lengths exists at alphabet size 2 "
        rf"\(Kraft sum {kraft} exceeds 1\)",
        message,
    )
    assert count_prefix_codes(lengths, 2).count == 0
    assert count_anchored_prefix_codes(lengths, 2, 1, 2).count == 0
    assert closed_form_counts(lengths, 2) == closed
    for mode in modes:
        report = census(lengths, 2, mode=mode)
        assert (report.pr, report.fd, report.ud) == (0, 0, 0), mode


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
        with pytest.raises(CodesError, match=r"exceeds 1\)$"):
            canonical_prefix_code(lengths, n)


def test_profile_arguments_accepted():
    p = LengthProfile.from_lengths((2, 3, 3))
    assert count_prefix_codes(p, 2).count == 120
    assert kraft_sum(p, 2) == Fraction(1, 2)


def test_free_numerals_match_a_brute_force():
    """Random chosen words (overlapping blocks among them) and excluded
    numerals (some already shadowed), against a filter over every numeral."""
    # 0 shadows 00 and 01, 01 overlaps it, and the excluded 01 is shadowed
    cases = [(2, 2, [(1, 0), (2, 1)], {1, 3})]
    rng = random.Random(31)
    for n in (2, 3):
        for length in range(1, 5):
            for _ in range(150):
                lengths = [rng.randint(1, length) for _ in range(rng.randrange(4))]
                chosen = [(l, rng.randrange(n**l)) for l in lengths]
                excluded = {rng.randrange(n**length) for _ in range(rng.randrange(4))}
                cases.append((n, length, chosen, excluded))
    for n, length, chosen, excluded in cases:
        expected = [
            x
            for x in range(n**length)
            if x not in excluded and not any(x // n ** (length - l) == v for l, v in chosen)
        ]
        assert list(_free_numerals(n, length, chosen, excluded)) == expected, (
            n, length, chosen, excluded
        )


def test_the_staged_builder_never_runs_short():
    """Every feasible profile of at most 5 words of lengths at most 6, at
    n = 2..4, through every construction that applies: each builds its
    lengths with the classes it promises, and the only refusal is a zero
    word forced at b beside the one word of length b.  The anchored family
    is nonempty exactly when the profile is feasible, so exactly when the
    anchored builder succeeds."""
    for m in range(1, 6):
        for lengths in itertools.combinations_with_replacement(range(1, 7), m):
            for n in (2, 3, 4):
                p = as_profile(lengths)
                feasible = is_feasible(lengths, n)
                pairs = list(itertools.combinations(p.values, 2))
                for a, b in pairs:
                    assert (count_anchored_prefix_codes(lengths, n, a, b).count > 0) == feasible
                if not feasible:
                    continue
                code = canonical_prefix_code(lengths, n)
                assert code.lengths == lengths and classify(code).prefix
                for a, b in pairs:
                    for z in (None,) + tuple(v for v in p.values if v >= b):
                        where = (lengths, n, a, b, z)
                        if z == b and p.multiplicity(b) == 1:
                            with pytest.raises(ConstructionError, match="forced words but only 1 slots"):
                                anchored_prefix_code(lengths, n, a, b, zero_word_length=z)
                            continue
                        code = anchored_prefix_code(lengths, n, a, b, zero_word_length=z)
                        forced = {Word((0,) * (a - 1) + (1,)), Word((0,) * (b - 1) + (1,))}
                        if z is not None:
                            forced.add(Word((0,) * z))
                        assert code.lengths == lengths and classify(code).prefix, where
                        assert forced <= set(code.words), where
                if not p.is_constant:
                    code = ud_nonprefix_witness(lengths, n)
                    verdict = classify(code)
                    assert code.lengths == lengths and verdict.ud and not verdict.prefix
                if not fd_matches_ud_condition(p):
                    code, _ = infinite_delay_witness(lengths, n)
                    verdict = classify(code)
                    assert code.lengths == lengths and verdict.ud and not verdict.finite_delay


# SHA-256 of every construction's outcome, recorded before the prefix
# constructions shared one builder, and again when the Kraft refusal took one
# wording (every other line of the sweep kept its bytes).  The sweep covers
# every ordered length sequence of 1 to 4 words of lengths 1..5;
# `anchored_prefix_code` runs on every pair a < b of its length values with
# every zero_word_length, valid or not.  An outcome is the code's texts (and the witness spec), or the
# error's type, message and stage.
CONSTRUCTION_SHA256 = {
    ("canonical", 2): "c83e8e77d98101fdeb311330ea8b611703b5dd83da8f2c31d43790c2c9bb206f",
    ("canonical", 3): "227b743edffaa8c50ac935c58a330e98953fa0d377c81f12c6eb84dcba665e21",
    ("anchored", 2): "9355d33aa813e9c1497c612bad7d67176f6c29975f7c166c5afbb95746141ba2",
    ("anchored", 3): "bfb3893ad3f425995b0c3f8774a557d3a17709099797f3d0b67cf04f8a38862d",
    ("nonprefix", 2): "585153a57c98477fe3925c1a07c5ff64d20ad59636230658175c1515ba11e21d",
    ("nonprefix", 3): "57f4d572b5042446c0c623031d88a795992156deb031bde39804c88b47275a69",
    ("infinite", 2): "92c8c42c852ed93a10e6e9864e77c523730ccb26d605fb840846117600019f2d",
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
