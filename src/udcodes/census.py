"""Class sizes: closed-form code counts, the exhaustive census (on raw word
tuples, never a Code), the quotient lower bound on |UD|/|PR|, and the
predicates for when the prefix / finite-delay classes exhaust the UD ones.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Optional

from .decide import RawWord, _classes
from .kraft import (
    check_power_bits,
    count_prefix_codes,
    fd_matches_ud_condition,
    is_feasible,
    kraft_sum,
)
from .words import Alphabet, CodesError, LengthProfile, ProfileLike, as_length_sequence, as_profile

DEFAULT_UNIVERSE_CAP = 10**6


class CodeCounts(NamedTuple):
    ud: int
    pr: int


def count_pr_pair(a: int, b: int, n: int) -> int:
    """Number of two-word prefix codes with lengths (a, b): n^(a+b) - n^max(a,b)."""
    if a < 1 or b < 1:
        raise CodesError(f"lengths must be >= 1, got a={a}, b={b}")
    Alphabet(n)
    return n ** (a + b) - n ** max(a, b)


def count_233(n: int) -> CodeCounts:
    """Exact |UD| and |PR| for the length sequence (2,3,3) at alphabet size n.

    The UD count splits by the shape of the length-2 word: with two distinct
    letters x,y there are n^3(n^3-1) - 2(n+1) decodable completions (the bad
    pairs are (xyx, yxy) and (xyz, zxy) up to reversal), with a repeated
    letter there are (n^3-1)(n^3-2) - 2(n-1).  Both counts agree with
    exhaustive enumeration at n = 2 and n = 3.
    """
    Alphabet(n)
    distinct_pair = n**3 * (n**3 - 1) - 2 * (n + 1)
    repeated_pair = (n**3 - 1) * (n**3 - 2) - 2 * (n - 1)
    ud = n * (n - 1) * distinct_pair + n * repeated_pair
    pr = n * (n - 1) * (n**6 + n**5 - n**4 - 2 * n**3 - n**2)
    return CodeCounts(ud, pr)


def count_all_a_then_b(n: int, m: int, a: int, b: int) -> CodeCounts:
    """Exact |UD| and |PR| for m-1 words of length a plus one of length b,
    where a divides b.  Negative factors clamp to zero (empty set)."""
    Alphabet(n)
    if m < 2:
        raise CodesError(f"need at least two words, got m={m}")
    if b % a != 0:
        raise CodesError(
            f"the closed form requires the short length to divide the long "
            f"one; {a} does not divide {b}"
        )
    falling = 1
    for k in range(m - 1):
        falling *= max(n**a - k, 0)
    ud = falling * max(n**b - (m - 1) ** (b // a), 0)
    pr = falling * max(n**b - (m - 1) * n ** (b - a), 0)
    return CodeCounts(ud, pr)


def closed_form_counts(profile: ProfileLike, n: int) -> Optional[CodeCounts]:
    """(ud, pr) when the profile matches a known closed form, else None.

    Covered shapes: constant profiles (where UD = PR), the profile with one
    word of length 2 and two of length 3, and profiles with all words but
    one sharing a length that divides the odd one out.
    """
    p = as_profile(profile)
    if p.is_constant:
        pr = count_prefix_codes(p, n).count
        return CodeCounts(pr, pr)
    if p.values == (2, 3) and p.multiplicities == (1, 2):
        return count_233(n)
    if (
        len(p.values) == 2
        and p.multiplicities[1] == 1
        and p.values[1] % p.values[0] == 0
    ):
        return count_all_a_then_b(n, p.total, p.values[0], p.values[1])
    return None


class UniverseTooLarge(CodesError):
    def __init__(self, total: int, cap: int):
        super().__init__(
            f"enumeration universe holds {total} codes, above the cap of {cap}"
        )
        self.total = total
        self.cap = cap


def universe_size(profile: ProfileLike, n: int) -> int:
    """Number of ordered word sequences with the given lengths; refused
    (CodesError) when it may need more than MAX_POWER_BITS bits."""
    check_power_bits(profile, n)
    return n ** sum(as_length_sequence(profile))


def _checked_alphabet(lengths: tuple[int, ...], n: int, cap: int) -> Alphabet:
    """The cap on the whole universe, then the alphabet, before any code."""
    total = universe_size(lengths, n)
    if total > cap:
        raise UniverseTooLarge(total, cap)
    return Alphabet(n)


def _raw_pool(length: int, n: int) -> tuple[RawWord, ...]:
    return tuple(itertools.product(range(n), repeat=length))


@dataclass(frozen=True)
class CensusReport:
    """Counts of the prefix / finite-delay / uniquely decodable codes with a
    given length profile.  A count is None when the requested source cannot
    produce it (formula mode with no applicable closed form).  discrepancies
    is non-empty only in both mode, when formula and enumeration disagree."""

    profile: LengthProfile
    n: int
    total: int
    pr: Optional[int]
    fd: Optional[int]
    ud: Optional[int]
    source: str
    discrepancies: tuple[str, ...]


def _formula_counts(p: LengthProfile, n: int) -> tuple[int, Optional[int], Optional[int]]:
    pr = count_prefix_codes(p, n).count
    if not is_feasible(p, n):
        return 0, 0, 0
    closed = closed_form_counts(p, n)
    ud = closed.ud if closed is not None else None
    if p.is_constant:
        fd: Optional[int] = pr
    elif fd_matches_ud_condition(p):
        fd = ud
    else:
        fd = None
    return pr, fd, ud


def _first_occurrence(words: tuple[RawWord, ...]) -> tuple[int, ...]:
    """The concatenated words with their letters renamed 0, 1, ... in order
    of first occurrence."""
    flat = tuple(itertools.chain.from_iterable(words))
    names = dict(zip(dict.fromkeys(flat), itertools.count()))
    return tuple(map(names.__getitem__, flat))


def _renamed(words: tuple[RawWord, ...], bits: dict[RawWord, int]) -> int:
    """The set of words, renamed, as a bit set: the sum of bits[w]."""
    return sum(map(bits.__getitem__, words))


def _letter_maps(pool: tuple[RawWord, ...], k: int) -> list[dict[RawWord, int]]:
    """For every permutation of the letters 0..k-1, identity first, the bit
    1 << j of the pool position j it renames each word to."""
    position = {w: j for j, w in enumerate(pool)}
    return [
        {w: 1 << position[tuple(map(image.__getitem__, w))] for w in pool}
        for image in itertools.permutations(range(k))
    ]


def _orbits(v: int, r: int, n: int) -> list[list]:
    """[representative, size] of every orbit of the r-sets of words of length
    v under permutations of the n letters.

    The blocks of one orbit all use some k letters, and each k-set of letters
    is used by equally many of them.  So each orbit is counted among the
    blocks over the letters 0..k-1 that use all k of them, and its size is
    that count times C(n, k): neither n! nor a permutation of the whole
    alphabet is ever formed.

    A block is matched to its orbit by at most min(r!, k!) relabellings.
    When r <= k its key is the least first-occurrence relabelling over the r!
    orders of its words.  Otherwise its key is its own set of words (as a bit
    set of pool positions), and the first block of each orbit also enters
    the sets of its images under the other k! - 1 permutations of the
    letters.  Blocks of one orbit have the same r and k, hence the same form.
    """
    orbits: list[list] = []
    for k in range(1, min(n, v * r) + 1):
        pool = _raw_pool(v, k)
        letter_bits = {w: functools.reduce(operator.or_, (1 << a for a in w)) for w in pool}
        maps = _letter_maps(pool, k) if r > k else []
        sets_of_k_letters = math.comb(n, k)
        orbit_of: dict[object, list] = {}
        for block in itertools.combinations(pool, r):
            if functools.reduce(operator.or_, map(letter_bits.__getitem__, block)) != (1 << k) - 1:
                continue  # counted with fewer letters
            if maps:
                key = _renamed(block, maps[0])
            else:
                key = min(map(_first_occurrence, itertools.permutations(block)))
            entry = orbit_of.get(key)
            if entry is None:
                entry = [block, 0]
                orbits.append(entry)
                orbit_of[key] = entry
                for bits in maps[1:]:
                    orbit_of[_renamed(block, bits)] = entry
            entry[1] += sets_of_k_letters
    return orbits


def _enumerated_counts(p: LengthProfile, n: int, cap: int) -> tuple[int, int, int]:
    _checked_alphabet(p.lengths, n, cap)
    later = [(_raw_pool(v, n), r) for v, r in zip(p.values[1:], p.multiplicities[1:])]
    counts = [0, 0, 0]

    def visit(depth: int, code: tuple[RawWord, ...], weight: int) -> None:
        """Count `code`, one set of words from each of the first depth + 1
        blocks, if it is complete, else its completions if it is UD (a set
        of equal length words always is)."""
        if depth == len(later):
            prefix, ud, finite, _ = _classes(code, with_delay=False)
            counts[0] += weight * prefix
            counts[1] += weight * finite
            counts[2] += weight * ud
        elif depth == 0 or _classes(code, with_delay=False)[1]:
            pool, r = later[depth]
            for block in itertools.combinations(pool, r):
                visit(depth + 1, code + block, weight)

    for first, size in _orbits(p.values[0], p.multiplicities[0], n):
        visit(0, first, size)
    weight = math.prod(map(math.factorial, p.multiplicities))
    return tuple(weight * count for count in counts)


def census(
    profile: ProfileLike, n: int, mode: str = "both", cap: int = DEFAULT_UNIVERSE_CAP
) -> CensusReport:
    """Count prefix / finite-delay / uniquely decodable codes by closed
    formulas, exhaustive enumeration, or both (cross-checking).

    Enumeration classifies one code per set of equal-length words, weighted
    by prod(r!) (reordering them keeps every class; a repeated word is in no
    class).  Renaming letters keeps every class too, so of the sets of
    shortest words it extends one per orbit under letter permutations,
    weighted by the orbit's size.  It skips every completion of a partial
    code that is not UD: every class is closed under subcodes, while a
    partial code that is not prefix, or has infinite delay, can still
    complete to a UD code.  Each code is classified by one depth-first walk
    of its ambiguity graph that stops at the first catch-up."""
    if mode not in ("formula", "enumeration", "both"):
        raise CodesError(f"mode must be formula, enumeration or both, got {mode!r}")
    p = as_profile(profile)
    total = universe_size(p, n)
    if mode == "formula":
        pr, fd, ud = _formula_counts(p, n)
        return CensusReport(p, n, total, pr, fd, ud, mode, ())
    e_pr, e_fd, e_ud = _enumerated_counts(p, n, cap)
    if mode == "enumeration":
        return CensusReport(p, n, total, e_pr, e_fd, e_ud, mode, ())
    f_pr, f_fd, f_ud = _formula_counts(p, n)
    discrepancies = tuple(
        f"{name}: formula {formula} != enumeration {enumerated}"
        for name, formula, enumerated in (
            ("pr", f_pr, e_pr),
            ("fd", f_fd, e_fd),
            ("ud", f_ud, e_ud),
        )
        if formula is not None and formula != enumerated
    )
    return CensusReport(p, n, total, e_pr, e_fd, e_ud, mode, discrepancies)


@dataclass(frozen=True)
class BoundReport:
    """Lower bound on the ratio |UD| / |PR| obtained from two length values
    a and b: 1 + r_a * r_b / count_pr_pair(a, b, n).

    ud_count, ratio and satisfied are None when |UD| is not computable
    (no closed form and the enumeration universe exceeds the cap).
    """

    profile: LengthProfile
    n: int
    a: int
    b: int
    lower_bound: Fraction
    pr_count: int
    ud_count: Optional[int]
    ratio: Optional[Fraction]
    satisfied: Optional[bool]


def theorem1_bound(
    profile: ProfileLike,
    n: int,
    a: int,
    b: int,
    enumeration_cap: int = DEFAULT_UNIVERSE_CAP,
    ud_count: Optional[int] = None,
) -> BoundReport:
    """Evaluate the quotient lower bound for two distinct length values.

    The true ratio is reported alongside when |UD| is available: given as
    ``ud_count`` (say, by a census the caller already ran), or else from a
    closed form or a desk-scale enumeration; it is never estimated.
    """
    p = as_profile(profile)
    if p.is_constant:
        raise CodesError("the bound needs two distinct length values; profile is constant")
    if a == b or p.multiplicity(a) == 0 or p.multiplicity(b) == 0:
        raise CodesError(f"a={a} and b={b} must be two different length values of the profile")
    if not is_feasible(p, n):
        raise CodesError(
            f"no uniquely decodable code with these lengths exists at alphabet "
            f"size {n} (Kraft sum {kraft_sum(p, n)} exceeds 1)"
        )
    r_a = p.multiplicity(a)
    r_b = p.multiplicity(b)
    lower = 1 + Fraction(r_a * r_b, count_pr_pair(a, b, n))
    pr = count_prefix_codes(p, n).count

    ud = ud_count
    if ud is None:
        counts = closed_form_counts(p, n)
        if counts is not None:
            ud = counts.ud
        else:
            try:
                ud = census(p, n, mode="enumeration", cap=enumeration_cap).ud
            except UniverseTooLarge:
                pass

    ratio = Fraction(ud, pr) if ud is not None else None
    satisfied = (ratio >= lower) if ratio is not None else None
    return BoundReport(p, n, a, b, lower, pr, ud, ratio, satisfied)


def _require_feasible(p: LengthProfile, n: int) -> None:
    if not is_feasible(p, n):
        raise CodesError(
            f"no uniquely decodable code with these lengths exists at alphabet "
            f"size {n} (Kraft sum {kraft_sum(p, n)} exceeds 1), so the "
            f"equality question is vacuous"
        )


def is_pr_eq_ud(profile: ProfileLike, n: int) -> bool:
    """True iff every uniquely decodable code with these lengths is a prefix
    code; holds exactly for constant profiles.  The criterion itself does not
    depend on n, but feasibility at n is required for the question to be
    about a non-empty class."""
    p = as_profile(profile)
    _require_feasible(p, n)
    return p.is_constant


def is_fd_eq_ud(profile: ProfileLike, n: int) -> bool:
    """True iff every uniquely decodable code with these lengths has finite
    delay; see fd_matches_ud_condition for the structural criterion."""
    p = as_profile(profile)
    _require_feasible(p, n)
    return fd_matches_ud_condition(p)
