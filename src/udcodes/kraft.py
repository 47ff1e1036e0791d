"""Kraft feasibility, exact prefix-code counts, and deterministic
constructions: canonical prefix codes, anchored prefix codes (which force
the two words 0^(a-1)1 and 0^(b-1)1), uniquely decodable non-prefix
witnesses, and infinite-delay witnesses.

All counting is exact big-integer / rational arithmetic; nothing here ever
touches floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial
from typing import Optional

from .words import (
    Alphabet,
    Code,
    CodesError,
    LengthProfile,
    ProfileLike,
    Word,
    as_length_sequence,
    as_profile,
)


class ConstructionError(CodesError):
    """A staged construction ran out of eligible words; names the stage."""

    def __init__(self, message: str, stage: int | None = None):
        super().__init__(message)
        self.stage = stage


# Every power and count built for a profile (the universe n^(sum of
# lengths), the Kraft sum's denominators, the prefix-code count) is at most
# n^(sum of lengths), so one bound on its size keeps them all in memory.
MAX_POWER_BITS = 2**20


def check_power_bits(profile: ProfileLike, n: int) -> None:
    """Refuse a profile whose n^(sum of lengths) may need more than
    MAX_POWER_BITS bits, that is, whose sum of lengths times ceil(log2 n)
    exceeds it, before any power is built."""
    p = as_profile(profile)
    total = sum(v * r for v, r in zip(p.values, p.multiplicities))
    if total * (n - 1).bit_length() > MAX_POWER_BITS:
        raise CodesError(
            f"lengths summing to {total} are refused at alphabet size {n}: "
            f"{n}^{total} may need more than {MAX_POWER_BITS} bits"
        )


def kraft_sum(profile: ProfileLike, n: int) -> Fraction:
    """Sum of r * n^-value over the profile, as an exact rational."""
    Alphabet(n)
    p = as_profile(profile)
    check_power_bits(p, n)
    return sum(
        (Fraction(r, n**v) for v, r in zip(p.values, p.multiplicities)), Fraction(0)
    )


def is_feasible(profile: ProfileLike, n: int) -> bool:
    """True iff some uniquely decodable code has these lengths (sum <= 1)."""
    return kraft_sum(profile, n) <= 1


@dataclass(frozen=True)
class KraftTrace:
    """Available-word counts per length stage and the exact prefix-code count.

    ``available[i]`` is the number of words of the i-th length value not
    shadowed by shorter chosen words, following the recurrence
    N[0] = n^v[0],  N[i+1] = n^(v[i+1]-v[i]) * (N[i] - r[i]).
    """

    profile: LengthProfile
    n: int
    available: tuple[int, ...]
    count: int


def count_prefix_codes(profile: ProfileLike, n: int) -> KraftTrace:
    """Exact number of prefix codes (as ordered sequences) with this profile."""
    Alphabet(n)
    p = as_profile(profile)
    check_power_bits(p, n)
    available = []
    count = 1
    previous_n = None
    previous_v = None
    for v, r in zip(p.values, p.multiplicities):
        if previous_n is None:
            n_i = n**v
        else:
            n_i = n ** (v - previous_v) * previous_n
        available.append(n_i)
        if n_i < r:
            count = 0
        else:
            count *= comb(n_i, r) * factorial(r)
        previous_n = n_i - r
        previous_v = v
    return KraftTrace(p, n, tuple(available), count)


# ---------------------------------------------------------------------------
# Interval arithmetic over the words of one length.
#
# A word of length l is its base-n numeral; a chosen word w of length k <= l
# shadows the contiguous block [w*n^(l-k), (w+1)*n^(l-k)).  Picking the
# lexicographically smallest eligible words is then a walk over the gaps
# between merged blocks, which stays cheap no matter how large n^l is.

Chosen = list[tuple[int, int]]  # (length, numeral value)


def _blocked(chosen: Chosen, length: int, n: int) -> list[tuple[int, int]]:
    spans = []
    for l, v in chosen:
        if l <= length:
            scale = n ** (length - l)
            spans.append((v * scale, (v + 1) * scale))
    spans.sort()
    merged: list[tuple[int, int]] = []
    for lo, hi in spans:
        if merged and lo <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(hi, merged[-1][1]))
        else:
            merged.append((lo, hi))
    return merged


def _is_blocked(chosen: Chosen, length: int, n: int, value: int) -> bool:
    return any(lo <= value < hi for lo, hi in _blocked(chosen, length, n))


def _eligible_ascending(
    n: int, length: int, chosen: Chosen, excluded: set[int], needed: int
) -> list[int]:
    """First `needed` unshadowed numerals of this length, ascending; may run
    short, which callers treat as an infeasible stage."""
    merged = _blocked(chosen + [(length, v) for v in sorted(excluded)], length, n)
    out: list[int] = []
    cursor = 0
    top = n**length
    for lo, hi in merged + [(top, top)]:
        while cursor < lo and len(out) < needed:
            out.append(cursor)
            cursor += 1
        if len(out) >= needed:
            break
        cursor = max(cursor, hi)
    return out


def _numeral_to_word(value: int, length: int, n: int) -> Word:
    digits = []
    for _ in range(length):
        digits.append(value % n)
        value //= n
    return Word(tuple(reversed(digits)))


def _arrange(raw_lengths: tuple[int, ...], words_at: dict[int, list[Word]], n: int) -> Code:
    """Fill the raw positions: each length's word list feeds its positions in
    order of appearance."""
    iters = {length: iter(ws) for length, ws in words_at.items()}
    return Code(Alphabet(n), tuple(next(iters[length]) for length in raw_lengths))


def canonical_prefix_code(lengths: ProfileLike, n: int) -> Code:
    """The lexicographically smallest prefix code with the given lengths.

    At each length value, the construction takes the smallest words not
    shadowed by shorter ones; positions sharing a length are filled in
    ascending order.
    """
    Alphabet(n)
    raw = as_length_sequence(lengths)
    profile = LengthProfile.from_lengths(raw)
    s = kraft_sum(profile, n)
    if s > 1:
        raise ConstructionError(f"no prefix code exists: Kraft sum {s} exceeds 1")
    chosen: Chosen = []
    words_at: dict[int, list[Word]] = {}
    for value, mult in zip(profile.values, profile.multiplicities):
        picks = _eligible_ascending(n, value, chosen, set(), mult)
        if len(picks) < mult:
            raise ConstructionError(
                f"length {value}: only {len(picks)} words available, need {mult}",
                stage=value,
            )
        words_at[value] = [_numeral_to_word(v, value, n) for v in picks]
        chosen.extend((value, v) for v in picks)
    return _arrange(raw, words_at, n)


# ---------------------------------------------------------------------------
# Anchored constructions


@dataclass(frozen=True)
class AnchoredFamily:
    """The family of prefix codes with a given profile that contain both
    anchor words 0^(a-1)1 and 0^(b-1)1, together with its exact size.

    Containing the anchors forces every shorter code word away from the
    all-zero words 0^v for v < b, since those are exactly the words that
    would shadow an anchor.
    """

    profile: LengthProfile
    n: int
    a: int
    b: int
    index_a: int
    index_b: int
    anchor_a: Word
    anchor_b: Word
    count: int


def _anchor(length: int) -> Word:
    return Word((0,) * (length - 1) + (1,))


def _check_anchor_args(profile: LengthProfile, a: int, b: int) -> None:
    if a >= b:
        raise CodesError(f"anchored family needs a < b, got a={a}, b={b}")
    if profile.multiplicity(a) == 0 or profile.multiplicity(b) == 0:
        raise CodesError(f"both {a} and {b} must be length values of the profile")


def count_anchored_prefix_codes(profile: ProfileLike, n: int, a: int, b: int) -> AnchoredFamily:
    """Exact size of the anchored family; 0 for infeasible profiles."""
    Alphabet(n)
    p = as_profile(profile)
    _check_anchor_args(p, a, b)
    index_a = p.values.index(a)
    index_b = p.values.index(b)
    trace = count_prefix_codes(p, n)
    if trace.count == 0:
        count = 0
    else:
        r_a = p.multiplicities[index_a]
        r_b = p.multiplicities[index_b]
        scaled = Fraction(r_a * r_b, n**b * (trace.available[index_a] - 1)) * trace.count
        if scaled.denominator != 1:
            raise AssertionError(f"anchored count is not an integer: {scaled}")
        count = int(scaled)
    return AnchoredFamily(p, n, a, b, index_a, index_b, _anchor(a), _anchor(b), count)


def anchored_prefix_code(
    lengths: ProfileLike,
    n: int,
    a: int,
    b: int,
    zero_word_length: Optional[int] = None,
) -> Code:
    """A canonical member of the anchored family.

    Stage by stage over increasing length values: all-zero words are excluded
    below b (they would shadow an anchor); the anchors are forced at lengths
    a and b; when ``zero_word_length`` is given, the all-zero word of that
    length is forced as well and all-zero words below it stay excluded so it
    remains available.  Every remaining slot takes the smallest eligible
    words.  Forced words occupy the earliest slots of their length (anchor
    first, then the forced zero word), extras follow in ascending order.
    """
    Alphabet(n)
    raw = as_length_sequence(lengths)
    profile = LengthProfile.from_lengths(raw)
    _check_anchor_args(profile, a, b)
    if zero_word_length is not None:
        if profile.multiplicity(zero_word_length) == 0 or zero_word_length < b:
            raise CodesError(
                f"zero_word_length must be a length value >= {b}, got {zero_word_length}"
            )
    s = kraft_sum(profile, n)
    if s > 1:
        raise ConstructionError(f"no prefix code exists: Kraft sum {s} exceeds 1")

    chosen: Chosen = []
    words_at: dict[int, list[Word]] = {}
    for value, mult in zip(profile.values, profile.multiplicities):
        forced: list[int] = []
        excluded: set[int] = set()
        if value < b:
            excluded.add(0)
        if value == a:
            forced.append(1)  # numeral of 0^(a-1) 1
        if value == b:
            forced.append(1)
            if zero_word_length == b:
                forced.append(0)
            elif zero_word_length is not None:
                excluded.add(0)
        elif b < value and zero_word_length is not None and value < zero_word_length:
            excluded.add(0)
        elif zero_word_length is not None and value == zero_word_length and value > b:
            forced.append(0)

        for v in forced:
            if _is_blocked(chosen, value, n, v):
                raise ConstructionError(
                    f"length {value}: forced word is shadowed by an earlier choice",
                    stage=value,
                )
        extras_needed = mult - len(forced)
        if extras_needed < 0:
            raise ConstructionError(
                f"length {value}: {len(forced)} forced words but only {mult} slots",
                stage=value,
            )
        picks = _eligible_ascending(n, value, chosen, excluded | set(forced), extras_needed)
        if len(picks) < extras_needed:
            raise ConstructionError(
                f"length {value}: only {len(forced) + len(picks)} words available, need {mult}",
                stage=value,
            )
        words_at[value] = [_numeral_to_word(v, value, n) for v in forced + picks]
        chosen.extend((value, v) for v in forced + picks)
    return _arrange(raw, words_at, n)


def ud_nonprefix_witness(lengths: ProfileLike, n: int) -> Code:
    """A uniquely decodable code with these lengths that is not a prefix code.

    Built as the letter-reverse of an anchored prefix code on the two
    smallest length values; reversal preserves unique decodability, and the
    reversed anchors make the short word a prefix of the longer one.
    """
    Alphabet(n)
    raw = as_length_sequence(lengths)
    profile = LengthProfile.from_lengths(raw)
    if profile.is_constant:
        raise CodesError(
            "all lengths are equal: every uniquely decodable code with a "
            "constant profile is a prefix code, so no witness exists"
        )
    a, b = profile.values[0], profile.values[1]
    return anchored_prefix_code(raw, n, a, b).reverse()


@dataclass(frozen=True)
class InfiniteDelayWitnessSpec:
    """Which construction produced an infinite-delay witness.

    cases: "rb-many" (the second length value repeats, so the all-zero word
    of that length joins the anchors), "three-values" (the profile has a
    third length value, whose all-zero word is forced), "two-values" (exactly
    two length values whose shorter does not divide the longer; the code is
    built directly from runs of ones and zeros).
    """

    case: str
    a: int
    b: int
    remainder: Optional[int]  # (b - a) mod a, two-values case only
    quotient: Optional[int]   # (b - a - remainder) // a

    def __post_init__(self) -> None:
        if self.case not in ("rb-many", "three-values", "two-values"):
            raise CodesError(f"unknown witness case {self.case!r}")
        if self.case == "two-values":
            if self.remainder is None or not 0 < self.remainder < self.a:
                raise CodesError("two-values witness needs 0 < remainder < a")
        elif self.remainder is not None or self.quotient is not None:
            raise CodesError("remainder/quotient only apply to the two-values case")


def fd_matches_ud_condition(profile: ProfileLike) -> bool:
    """The alphabet-independent condition under which finite-delay codes
    exhaust the uniquely decodable ones: at most two words, all lengths
    equal, or all but one words sharing a length that divides the length of
    the remaining one."""
    p = as_profile(profile)
    if p.total <= 2 or p.is_constant:
        return True
    if len(p.values) == 2:
        for odd, common in ((0, 1), (1, 0)):
            if (
                p.multiplicities[odd] == 1
                and p.values[odd] % p.values[common] == 0
            ):
                return True
    return False


def infinite_delay_witness(lengths: ProfileLike, n: int) -> tuple[Code, InfiniteDelayWitnessSpec]:
    """A uniquely decodable code with these lengths and infinite delay.

    The structural condition is checked first: if the lengths are constant,
    number at most two, or all but one share a value dividing the odd one,
    every uniquely decodable code has finite delay and no witness exists.
    """
    Alphabet(n)
    raw = as_length_sequence(lengths)
    profile = LengthProfile.from_lengths(raw)
    if fd_matches_ud_condition(profile):
        raise CodesError(
            "every uniquely decodable code with these lengths has finite "
            "delay (the lengths are constant, number at most two, or all but "
            "one share a value that divides the remaining one); no witness exists"
        )
    s = kraft_sum(profile, n)
    if s > 1:
        raise CodesError(f"no uniquely decodable code exists: Kraft sum {s} exceeds 1")

    a, b = profile.values[0], profile.values[1]
    r_b = profile.multiplicities[1]
    if r_b > 1:
        code = anchored_prefix_code(raw, n, a, b, zero_word_length=b).reverse()
        return code, InfiniteDelayWitnessSpec("rb-many", a, b, None, None)
    if len(profile.values) >= 3:
        code = anchored_prefix_code(raw, n, a, b, zero_word_length=profile.values[2]).reverse()
        return code, InfiniteDelayWitnessSpec("three-values", a, b, None, None)

    # exactly two values, the longer unique and not a multiple of the shorter
    remainder = (b - a) % a
    quotient = (b - a - remainder) // a
    r_a = profile.multiplicities[0]
    if not 2 <= r_a < n**a:
        raise ConstructionError(
            f"length {a}: need between 2 and {n ** a - 1} short words, have {r_a}", stage=a
        )
    ones = Word((1,) * a)
    zeros = Word((0,) * a)
    long_word = Word((1,) * a + (0,) * (b - a))
    banned = Word((1,) * (a - remainder) + (0,) * remainder)
    extras: list[Word] = []
    numeral = 0
    while len(extras) < r_a - 2:
        if numeral >= n**a:
            raise ConstructionError(f"length {a}: ran out of distinct words", stage=a)
        w = _numeral_to_word(numeral, a, n)
        if w not in (ones, zeros, banned):
            extras.append(w)
        numeral += 1
    words_at = {a: [ones, zeros] + extras, b: [long_word]}
    code = _arrange(raw, words_at, n)
    return code, InfiniteDelayWitnessSpec("two-values", a, b, remainder, quotient)
