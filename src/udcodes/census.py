"""Class sizes: closed-form code counts, the exhaustive census (on packed
words, never a Code), the quotient lower bound on |UD|/|PR|, and the
predicates for when the prefix / finite-delay classes exhaust the UD ones.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from fractions import Fraction
from numbers import Real
from typing import NamedTuple, Optional

from .decide import RawWord, _classes, _letter_width, _pack, _packed_pool
from .kraft import (
    _is_length_value,
    _lengths_at,
    _one_long_multiple,
    _require_feasible,
    count_prefix_codes,
    fd_matches_ud_condition,
)
from .words import (
    Alphabet,
    CodesError,
    LengthProfile,
    ProfileLike,
    _int_at_least,
    as_profile,
    decimal_repr,
    decimal_str,
    decimal_text,
)

DEFAULT_UNIVERSE_CAP = 10**6


class CodeCounts(NamedTuple):
    ud: int
    pr: int


def count_pr_pair(a: int, b: int, n: int) -> int:
    """Number of two-word prefix codes with lengths (a, b): n^(a+b) - n^max(a,b)."""
    _lengths_at((a, b), n)
    return n ** (a + b) - n ** max(a, b)


def count_233(n: int) -> CodeCounts:
    """Exact |UD| and |PR| for the length sequence (2,3,3) at alphabet size n.

    The UD count splits by the shape of the length-2 word: with two distinct
    letters x,y there are n^3(n^3-1) - 2(n+1) decodable completions (the bad
    pairs are (xyx, yxy) and (xyz, zxy) up to reversal), with a repeated
    letter there are (n^3-1)(n^3-2) - 2(n-1).  Both counts agree with
    exhaustive enumeration at n = 2, 3, 4 and 5.
    """
    Alphabet(n)
    distinct_pair = n**3 * (n**3 - 1) - 2 * (n + 1)
    repeated_pair = (n**3 - 1) * (n**3 - 2) - 2 * (n - 1)
    ud = n * (n - 1) * distinct_pair + n * repeated_pair
    pr = n * (n - 1) * (n**6 + n**5 - n**4 - 2 * n**3 - n**2)
    return CodeCounts(ud, pr)


def count_all_a_then_b(n: int, m: int, a: int, b: int) -> CodeCounts:
    """Exact |UD| and |PR| for m-1 words of length a plus one of length b,
    where a divides b.  With more short words than n^a, the falling
    factorial and so both counts are zero."""
    Alphabet(n)
    if isinstance(m, Real) and m < 2:
        raise CodesError(f"need at least two words, got m={decimal_str(m)}")
    if not _int_at_least(m, 2):
        raise CodesError(f"the number of words must be an integer, got m={decimal_str(m)}")
    as_profile((a, b))
    if b % a != 0:
        raise CodesError(
            f"the closed form requires the short length to divide the long "
            f"one; {decimal_str(a)} does not divide {decimal_str(b)}"
        )
    # the power-bits refusal, on m-1 lengths a and one length b
    lengths = LengthProfile((a, b), (m - 1, 1)) if a < b else LengthProfile((a,), (m,))
    _lengths_at(lengths, n)
    falling = math.perm(n**a, m - 1)
    ud = falling * (n**b - (m - 1) ** (b // a))
    pr = falling * (n**b - (m - 1) * n ** (b - a))
    return CodeCounts(ud, pr)


def closed_form_counts(profile: ProfileLike, n: int) -> Optional[CodeCounts]:
    """(ud, pr) when the profile matches a known closed form, else None.

    Covered shapes: constant profiles (where UD = PR), the profile with one
    word of length 2 and two of length 3, and profiles with all words but
    one sharing a length that divides the odd one out.
    """
    _, p, _ = _lengths_at(profile, n)
    if p.is_constant:
        pr = count_prefix_codes(p, n).count
        return CodeCounts(pr, pr)
    if p.values == (2, 3) and p.multiplicities == (1, 2):
        return count_233(n)
    if _one_long_multiple(p):
        return count_all_a_then_b(n, p.total, p.values[0], p.values[1])
    return None


class UniverseTooLarge(CodesError):
    def __init__(self, total: int, cap: int):
        super().__init__(
            f"enumeration universe holds {decimal_text(total)} codes, "
            f"above the cap of {decimal_text(cap)}"
        )
        self.total = total
        self.cap = cap


def universe_size(profile: ProfileLike, n: int) -> int:
    """Number of ordered word sequences with the given lengths; refused
    (CodesError) when it may need more than MAX_POWER_BITS bits."""
    return n ** _lengths_at(profile, n)[2]


def _within_cap(
    lengths: ProfileLike, n: int, cap: int
) -> tuple[tuple[int, ...], LengthProfile, int]:
    """The (lengths, n) check, then the cap on the whole universe, before
    any code: the raw lengths (sorted for a profile), profile, universe size."""
    raw, profile, length_sum = _lengths_at(lengths, n)
    if isinstance(cap, bool) or not isinstance(cap, int):
        raise CodesError(f"the universe cap must be an integer, got {decimal_repr(cap)}")
    total = n**length_sum
    if total > cap:
        raise UniverseTooLarge(total, cap)
    return (raw.lengths if isinstance(raw, LengthProfile) else raw), profile, total


def _raw_pool(length: int, n: int) -> tuple[RawWord, ...]:
    return tuple(itertools.product(range(n), repeat=length))


class CensusReport(NamedTuple):
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
    if pr == 0:  # no prefix code, so by Kraft no UD code either
        return 0, 0, 0
    closed = closed_form_counts(p, n)
    ud = closed.ud if closed is not None else None
    fd = ud if fd_matches_ud_condition(p) else None
    return pr, fd, ud


def _renamed(words: tuple[RawWord, ...], image: tuple[int, ...], bit: dict[RawWord, int]) -> int:
    """The set of words with each letter a renamed image[a], as a bit set:
    the sum of bit[w] over the renamed words."""
    return sum(bit[tuple(map(image.__getitem__, w))] for w in words)


def _orbits(v: int, r: int, n: int) -> list[list]:
    """[representative, size] of every orbit of the r-sets of words of length
    v under permutations of the n letters.

    The blocks of one orbit all use some k letters, and each k-set of letters
    is used by equally many of them.  So each orbit is counted among the
    blocks over the letters 0..k-1 that use all k of them, and its size is
    that count times C(n, k): neither n! nor a permutation of the whole
    alphabet is ever formed.

    A block is keyed by the bit set of its words' pool positions.  The first
    block of an orbit that the walk meets marks the keys of its images under
    the other k! - 1 permutations of its letters, taken one at a time, and
    each later block of the orbit pops its mark.  An orbit's k! renamings
    equal its size times its stabilizer, which permutes the block's r words
    faithfully, so the renamings total less than min(r!, k!) per block,
    summed over the blocks.
    """
    orbits: list[list] = []
    for k in range(1, min(n, v * r) + 1):
        pool = _raw_pool(v, k)
        bit = {w: 1 << j for j, w in enumerate(pool)}
        letter_bits = {w: functools.reduce(operator.or_, (1 << a for a in w)) for w in pool}
        sets_of_k_letters = math.comb(n, k)
        marks: dict[int, list] = {}
        for block in itertools.combinations(pool, r):
            if functools.reduce(operator.or_, map(letter_bits.__getitem__, block)) != (1 << k) - 1:
                continue  # counted with fewer letters
            key = sum(map(bit.__getitem__, block))
            entry = marks.pop(key, None)
            if entry is None:
                entry = [block, 0]
                orbits.append(entry)
                for image in itertools.islice(itertools.permutations(range(k)), 1, None):
                    marks[_renamed(block, image, bit)] = entry
                marks.pop(key, None)  # its own key, if its stabilizer is not trivial
            entry[1] += sets_of_k_letters
    return orbits


def _enumerated_counts(p: LengthProfile, n: int) -> tuple[int, int, int]:
    width = _letter_width(n)
    later = [(_packed_pool(v, n), r) for v, r in zip(p.values[1:], p.multiplicities[1:])]
    counts = [0, 0, 0]

    def visit(depth: int, code: tuple[int, ...], weight: int) -> None:
        """Count `code`, one set of words from each of the first depth + 1
        blocks, if it is complete, else its completions if it is UD (a set
        of equal length words always is)."""
        if depth == len(later):
            prefix, ud, finite, _ = _classes(code, None)
            counts[0] += weight * prefix
            counts[1] += weight * finite
            counts[2] += weight * ud
        elif depth == 0 or _classes(code, None)[1]:
            pool, r = later[depth]
            for block in itertools.combinations(pool, r):
                visit(depth + 1, code + block, weight)

    for first, size in _orbits(p.values[0], p.multiplicities[0], n):
        visit(0, tuple(_pack(w, width) for w in first), size)
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
    if mode == "formula":
        _, p, length_sum = _lengths_at(profile, n)
        pr, fd, ud = _formula_counts(p, n)
        return CensusReport(p, n, n**length_sum, pr, fd, ud, mode, ())
    _, p, total = _within_cap(profile, n, cap)
    e_pr, e_fd, e_ud = _enumerated_counts(p, n)
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


class BoundReport(NamedTuple):
    """Lower bound on the ratio |UD| / |PR| obtained from two length values
    a and b: 1 + r_a * r_b / count_pr_pair(a, b, n).

    ud_count, ratio and satisfied are None when |UD| is not known: no
    ud_count was given and no closed form applies.
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
    ud_count: Optional[int] = None,
) -> BoundReport:
    """Evaluate the quotient lower bound for two distinct length values.

    The true ratio is reported alongside when |UD| is known: given as
    ``ud_count`` (say, by the census the caller ran, in the mode it chose),
    or else from a closed form.  It never enumerates and never estimates.
    """
    _, p, length_sum = _lengths_at(profile, n)
    if p.is_constant:
        raise CodesError("the bound needs two distinct length values; profile is constant")
    if a == b or not (_is_length_value(p, a) and _is_length_value(p, b)):
        raise CodesError(
            f"a={decimal_str(a)} and b={decimal_str(b)} must be two different length values "
            f"of the profile"
        )
    _require_feasible(p, n)
    if ud_count is not None and not _int_at_least(ud_count, 0):
        raise CodesError(f"ud_count must be an integer >= 0, got {decimal_repr(ud_count)}")
    pr = count_prefix_codes(p, n).count
    if ud_count is not None and not pr <= ud_count <= n**length_sum:  # PR <= UD <= all
        raise CodesError(
            f"ud_count must lie between the prefix count {decimal_text(pr)} and the "
            f"universe size {decimal_text(n**length_sum)}, got {decimal_text(ud_count)}"
        )
    r_a = p.multiplicity(a)
    r_b = p.multiplicity(b)
    lower = 1 + Fraction(r_a * r_b, count_pr_pair(a, b, n))

    ud = ud_count
    if ud is None:
        counts = closed_form_counts(p, n)
        ud = counts.ud if counts is not None else None

    ratio = Fraction(ud, pr) if ud is not None else None
    satisfied = (ratio >= lower) if ratio is not None else None
    return BoundReport(p, n, a, b, lower, pr, ud, ratio, satisfied)


def is_pr_eq_ud(profile: ProfileLike, n: int) -> bool:
    """True iff every uniquely decodable code with these lengths is a prefix
    code; holds exactly for constant profiles.  The criterion itself does not
    depend on n, but feasibility at n is required for the question to be
    about a non-empty class."""
    _, p, _ = _lengths_at(profile, n)
    _require_feasible(p, n)
    return p.is_constant


def is_fd_eq_ud(profile: ProfileLike, n: int) -> bool:
    """True iff every uniquely decodable code with these lengths has finite
    delay; see fd_matches_ud_condition for the structural criterion."""
    _, p, _ = _lengths_at(profile, n)
    _require_feasible(p, n)
    return fd_matches_ud_condition(p)
