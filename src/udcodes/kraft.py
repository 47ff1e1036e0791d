"""Kraft feasibility, exact prefix-code counts, and deterministic
constructions: canonical prefix codes, anchored prefix codes (which force
the two words 0^(a-1)1 and 0^(b-1)1), uniquely decodable non-prefix
witnesses, and infinite-delay witnesses.

One staged builder fills every prefix construction: for each length value
in increasing order it places the forced words and then the smallest words
neither shadowed by earlier choices nor excluded.  One rule excludes: a
word is never picked when it is forced or is a prefix of a longer forced
word.  So no pick shadows a forced word, and once the Kraft sum is at most 1
the builder cannot run short: it refuses only a length with more forced
words than slots.

Every function of the package that takes lengths and an alphabet size
checks them through _lengths_at: the alphabet, then the lengths, then the
MAX_POWER_BITS bound on n^(sum of lengths), before any power is built.  Only
the layout of words (_arrange, census._within_cap) expands a LengthProfile.
A Kraft sum above 1 leaves no uniquely decodable code: _require_feasible then
refuses each construction, theorem1_bound and both equality predicates.

All counting is exact big-integer / rational arithmetic; nothing here ever
touches floating point.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice
from math import perm
from numbers import Real
from typing import Iterator, NamedTuple, Optional

from .words import (
    Alphabet,
    Code,
    CodesError,
    LengthProfile,
    ProfileLike,
    Word,
    _int_at_least,
    _length_tuple,
    as_profile,
    decimal_str,
    decimal_text,
)


class ConstructionError(CodesError):
    """A length of a staged construction has more forced words than slots;
    `stage` names that length."""

    def __init__(self, message: str, stage: int | None = None):
        super().__init__(message)
        self.stage = stage


# Every power and count built for a profile (the universe n^(sum of
# lengths), the Kraft sum's denominators, the prefix-code count) is at most
# n^(sum of lengths), so one bound on its size keeps them all in memory.
MAX_POWER_BITS = 2**20


def _lengths_at(lengths: ProfileLike, n: int) -> tuple[ProfileLike, LengthProfile, int]:
    """The one check of a (lengths, n) argument pair.  In order: the
    alphabet, the lengths (read once, by LengthProfile.from_lengths), and
    the refusal of lengths whose n^(sum of lengths) may need more than
    MAX_POWER_BITS bits, that is, whose sum times ceil(log2 n) exceeds it.
    Returns the lengths as read (a tuple in the caller's order, or the
    LengthProfile itself, never expanded), the profile and the sum of the
    lengths."""
    Alphabet(n)
    raw = lengths if isinstance(lengths, LengthProfile) else _length_tuple(lengths)
    profile = as_profile(raw)
    total = sum(v * r for v, r in zip(profile.values, profile.multiplicities))
    if total * (n - 1).bit_length() > MAX_POWER_BITS:
        total_text, n_text = decimal_text(total), decimal_text(n)
        raise CodesError(
            f"lengths summing to {total_text} are refused at alphabet size {n_text}: "
            f"{n_text}^{total_text} may need more than {MAX_POWER_BITS} bits"
        )
    return raw, profile, total


def kraft_sum(profile: ProfileLike, n: int) -> Fraction:
    """Sum of r * n^-value over the profile, as an exact rational."""
    _, p, _ = _lengths_at(profile, n)
    return sum(
        (Fraction(r, n**v) for v, r in zip(p.values, p.multiplicities)), Fraction(0)
    )


def is_feasible(profile: ProfileLike, n: int) -> bool:
    """True iff some uniquely decodable code has these lengths (sum <= 1)."""
    return kraft_sum(profile, n) <= 1


def _require_feasible(profile: LengthProfile, n: int) -> None:
    s = kraft_sum(profile, n)
    if s > 1:
        raise CodesError(
            f"no uniquely decodable code with these lengths exists at alphabet "
            f"size {decimal_text(n)} (Kraft sum {decimal_text(s)} exceeds 1)"
        )


class KraftTrace(NamedTuple):
    """Available-word counts per length stage and the exact prefix-code count.

    ``available[i]`` is the number of words of the i-th length value not
    shadowed by shorter chosen words, following the recurrence
    N[0] = n^v[0],  N[i+1] = n^(v[i+1]-v[i]) * (N[i] - r[i]).  Each stage
    picks its r[i] words in order from the N[i] free numerals, so
    count = prod N[i]! / (N[i] - r[i])!, and 0 once some N[i] < r[i].
    """

    profile: LengthProfile
    n: int
    available: tuple[int, ...]
    count: int


def count_prefix_codes(profile: ProfileLike, n: int) -> KraftTrace:
    """Exact number of prefix codes (as ordered sequences) with this profile."""
    _, p, _ = _lengths_at(profile, n)
    available = []
    count = 1
    free = 1  # the empty word is the one numeral of length 0
    for v, shorter, r in zip(p.values, (0,) + p.values, p.multiplicities):
        free *= n ** (v - shorter)
        available.append(free)
        # after an infeasible stage, free may be negative, which perm refuses
        if count:
            count *= perm(free, r)
        free -= r
    return KraftTrace(p, n, tuple(available), count)


# ---------------------------------------------------------------------------
# Interval arithmetic over the words of one length.
#
# A word of length l is its base-n numeral; a chosen word w of length k <= l
# shadows the contiguous block [w*n^(l-k), (w+1)*n^(l-k)).  Picking the
# lexicographically smallest eligible words is then a walk over the gaps
# between the blocks, sorted by their start and possibly overlapping, which
# stays cheap no matter how large n^l is.

Chosen = list[tuple[int, int]]  # (length, numeral value)


def _free_numerals(n: int, length: int, chosen: Chosen, excluded: set[int]) -> Iterator[int]:
    """The numerals of this length, ascending, that no chosen word (each no
    longer than `length`) shadows and that are not excluded."""
    blocks = sorted(
        [(v * n ** (length - l), (v + 1) * n ** (length - l)) for l, v in chosen]
        + [(v, v + 1) for v in excluded]
    )
    cursor = 0
    for lo, hi in blocks:
        yield from range(cursor, lo)
        cursor = max(cursor, hi)
    yield from range(cursor, n**length)


def _numeral_to_word(value: int, length: int, n: int) -> Word:
    digits = []
    for _ in range(length):
        digits.append(value % n)
        value //= n
    return Word(tuple(reversed(digits)))


def _arrange(raw: ProfileLike, words_at: dict[int, list[Word]], n: int) -> Code:
    """Fill the positions of the raw lengths, a profile's in increasing
    order: each length's word list feeds its positions in order of appearance."""
    iters = {length: iter(ws) for length, ws in words_at.items()}
    lengths = raw.lengths if isinstance(raw, LengthProfile) else raw
    return Code(Alphabet(n), tuple(next(iters[length]) for length in lengths))


def _staged_prefix_code(
    raw: ProfileLike, profile: LengthProfile, n: int, forced: dict[int, list[int]]
) -> Code:
    """The staged prefix construction.  After the Kraft check, each length
    value v in increasing order takes its `forced` numerals first, then the
    smallest numerals neither shadowed by earlier choices nor excluded.  At
    v, the forced numerals of v are excluded, and so is the length-v prefix
    of every forced numeral of a longer length.  No forced word may be a
    prefix of another.

    Only a length with more forced words than slots is refused: once the
    Kraft sum K is at most 1, no stage runs short.  Callers force only words
    0^(l-1)1 and 0^l, so the one excluded numeral of length v that is not
    forced is 0^v, the length-v prefix of every longer forced word, and it
    is excluded only when such a word exists.  No pick shadows a forced
    word, so the words chosen below v form a prefix code of Kraft sum K_<v,
    and n^v (1 - K_<v) numerals of length v are unshadowed, the forced ones
    of v among them.  When 0^v is excluded for a forced word of length
    l > v, that word's own term in K gives
    n^v (1 - K_<v) >= r_v + n^(v-l) > r_v, so the r_v words of length v
    still fit beside the exclusion.
    """
    _require_feasible(profile, n)
    chosen: Chosen = []
    words_at: dict[int, list[Word]] = {}
    for value, mult in zip(profile.values, profile.multiplicities):
        pinned = forced.get(value, [])
        if len(pinned) > mult:
            raise ConstructionError(
                f"length {value}: {len(pinned)} forced words but only {mult} slots",
                stage=value,
            )
        excluded = set(pinned) | {
            f // n ** (length - value)
            for length, numerals in forced.items()
            if length > value
            for f in numerals
        }
        free = _free_numerals(n, value, chosen, excluded)
        numerals = pinned + list(islice(free, mult - len(pinned)))
        words_at[value] = [_numeral_to_word(v, value, n) for v in numerals]
        chosen.extend((value, v) for v in numerals)
    return _arrange(raw, words_at, n)


def canonical_prefix_code(lengths: ProfileLike, n: int) -> Code:
    """The lexicographically smallest prefix code with the given lengths.

    At each length value, the construction takes the smallest words not
    shadowed by shorter ones; positions sharing a length are filled in
    ascending order.
    """
    raw, profile, _ = _lengths_at(lengths, n)
    return _staged_prefix_code(raw, profile, n, {})


# ---------------------------------------------------------------------------
# Anchored constructions


class AnchoredFamily(NamedTuple):
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


def _is_length_value(profile: LengthProfile, x: object) -> bool:
    """True iff x is an int, not a bool, held by some word of the profile."""
    return _int_at_least(x, 1) and profile.multiplicity(x) > 0


def _check_anchor_args(profile: LengthProfile, a: int, b: int) -> None:
    if isinstance(a, Real) and isinstance(b, Real) and a >= b:
        raise CodesError(
            f"anchored family needs a < b, got a={decimal_str(a)}, b={decimal_str(b)}"
        )
    if not (_is_length_value(profile, a) and _is_length_value(profile, b)):
        raise CodesError(
            f"both {decimal_str(a)} and {decimal_str(b)} must be length values of the profile"
        )


def count_anchored_prefix_codes(profile: ProfileLike, n: int, a: int, b: int) -> AnchoredFamily:
    """Exact size of the anchored family; 0 for infeasible profiles."""
    _, p, _ = _lengths_at(profile, n)
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

    The staged builder forces the anchors at lengths a and b and, with z the
    given ``zero_word_length``, the all-zero word 0^z.  Every remaining slot
    takes the smallest word that is neither shadowed nor a prefix of a
    forced word; for the anchors and 0^z those prefixes are the all-zero
    words shorter than b, or than z when it is given.  Forced words occupy
    the earliest slots of their length (anchor first, then the forced zero
    word), extras follow in ascending order.
    """
    raw, profile, _ = _lengths_at(lengths, n)
    _check_anchor_args(profile, a, b)
    if zero_word_length is not None:
        if not _is_length_value(profile, zero_word_length) or zero_word_length < b:
            raise CodesError(
                f"zero_word_length must be a length value >= {decimal_str(b)}, "
                f"got {decimal_str(zero_word_length)}"
            )
    forced = {a: [1], b: [1]}  # 1 is the numeral of 0^(v-1) 1
    if zero_word_length is not None:
        forced.setdefault(zero_word_length, []).append(0)
    return _staged_prefix_code(raw, profile, n, forced)


def ud_nonprefix_witness(lengths: ProfileLike, n: int) -> Code:
    """A uniquely decodable code with these lengths that is not a prefix code.

    Built as the letter-reverse of an anchored prefix code on the two
    smallest length values; reversal preserves unique decodability, and the
    reversed anchors make the short word a prefix of the longer one.
    """
    raw, profile, _ = _lengths_at(lengths, n)
    if profile.is_constant:
        raise CodesError(
            "all lengths are equal: every uniquely decodable code with a "
            "constant profile is a prefix code, so no witness exists"
        )
    a, b = profile.values[0], profile.values[1]
    return anchored_prefix_code(raw, n, a, b).reverse()


class _WitnessCase(NamedTuple):
    case: str
    a: int
    b: int
    remainder: Optional[int]  # (b - a) mod a, two-values case only
    quotient: Optional[int]   # (b - a - remainder) // a


class InfiniteDelayWitnessSpec(_WitnessCase):
    """Which construction produced an infinite-delay witness.

    cases: "rb-many" (the second length value repeats, so the all-zero word
    of that length joins the anchors), "three-values" (the profile has a
    third length value, whose all-zero word is forced), "two-values" (exactly
    two length values whose shorter does not divide the longer; the code is
    built directly from runs of ones and zeros).
    """

    __slots__ = ()

    def __new__(cls, case: str, a: int, b: int, remainder: Optional[int], quotient: Optional[int]):
        if case not in ("rb-many", "three-values", "two-values"):
            raise CodesError(f"unknown witness case {case!r}")
        if not (_int_at_least(a, 1) and _int_at_least(b, a + 1)):
            raise CodesError(
                f"witness needs 0 < a < b, got a={decimal_str(a)}, b={decimal_str(b)}"
            )
        if case == "two-values":
            if not (_int_at_least(remainder, 1) and remainder < a):
                raise CodesError("two-values witness needs 0 < remainder < a")
            if not _int_at_least(quotient, 0) or (quotient, remainder) != divmod(b - a, a):
                raise CodesError(
                    "two-values witness needs remainder = (b - a) mod a and quotient = (b - a) // a"
                )
        elif remainder is not None or quotient is not None:
            raise CodesError("remainder/quotient only apply to the two-values case")
        return super().__new__(cls, case, a, b, remainder, quotient)

    @classmethod
    def _make(cls, iterable) -> "InfiniteDelayWitnessSpec":
        # _replace builds through _make, so a replaced field is checked too
        return cls(*iterable)


def _one_long_multiple(p: LengthProfile) -> bool:
    """Two length values, the longer held by one word and a multiple of the
    shorter."""
    return len(p.values) == 2 and p.multiplicities[1] == 1 and p.values[1] % p.values[0] == 0


def fd_matches_ud_condition(profile: ProfileLike) -> bool:
    """The alphabet-independent condition under which finite-delay codes
    exhaust the uniquely decodable ones: at most two words, all lengths
    equal, or all but one words sharing a length that divides the length of
    the remaining one, which is then the longer one."""
    p = as_profile(profile)
    return p.total <= 2 or p.is_constant or _one_long_multiple(p)


def infinite_delay_witness(lengths: ProfileLike, n: int) -> tuple[Code, InfiniteDelayWitnessSpec]:
    """A uniquely decodable code with these lengths and infinite delay.

    The structural condition is checked first: if the lengths are constant,
    number at most two, or all but one share a value dividing the odd one,
    every uniquely decodable code has finite delay and no witness exists.
    """
    raw, profile, _ = _lengths_at(lengths, n)
    if fd_matches_ud_condition(profile):
        raise CodesError(
            "every uniquely decodable code with these lengths has finite "
            "delay (the lengths are constant, number at most two, or all but "
            "one share a value that divides the remaining one); no witness exists"
        )
    _require_feasible(profile, n)

    a, b = profile.values[0], profile.values[1]
    r_b = profile.multiplicities[1]
    if r_b > 1 or len(profile.values) >= 3:
        case, z = ("rb-many", b) if r_b > 1 else ("three-values", profile.values[2])
        code = anchored_prefix_code(raw, n, a, b, zero_word_length=z).reverse()
        return code, InfiniteDelayWitnessSpec(case, a, b, None, None)

    # exactly two values, the longer unique and not a multiple of the shorter
    remainder = (b - a) % a
    quotient = (b - a - remainder) // a
    # the FD condition fails with r_b = 1, so r_a >= 2; Kraft gives
    # r_a <= n^a - 1, so r_a - 2 numerals remain for the extras besides the
    # three distinct 1^a, 0^a and the banned word 1^(a-remainder) 0^remainder
    r_a = profile.multiplicities[0]
    ones = (n**a - 1) // (n - 1)
    banned = (n ** (a - remainder) - 1) // (n - 1) * n**remainder
    extras = list(islice(_free_numerals(n, a, [], {ones, 0, banned}), r_a - 2))
    long_word = Word((1,) * a + (0,) * (b - a))
    words_at = {a: [_numeral_to_word(v, a, n) for v in [ones, 0] + extras], b: [long_word]}
    code = _arrange(raw, words_at, n)
    return code, InfiniteDelayWitnessSpec("two-values", a, b, remainder, quotient)
