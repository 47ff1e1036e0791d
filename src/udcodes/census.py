"""Closed-form code counts, the quotient lower bound on |UD|/|PR|, and the
predicates for when the prefix / finite-delay classes exhaust the uniquely
decodable ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Optional

from .kraft import count_prefix_codes, fd_matches_ud_condition, is_feasible, kraft_sum
from .words import CodesError, LengthProfile, ProfileLike, as_profile


class CodeCounts(NamedTuple):
    ud: int
    pr: int


def count_pr_pair(a: int, b: int, n: int) -> int:
    """Number of two-word prefix codes with lengths (a, b): n^(a+b) - n^max(a,b)."""
    if a < 1 or b < 1:
        raise CodesError(f"lengths must be >= 1, got a={a}, b={b}")
    if n < 2:
        raise CodesError(f"alphabet size must be >= 2, got {n}")
    return n ** (a + b) - n ** max(a, b)


def count_233(n: int) -> CodeCounts:
    """Exact |UD| and |PR| for the length sequence (2,3,3) at alphabet size n.

    The UD count splits by the shape of the length-2 word: with two distinct
    letters x,y there are n^3(n^3-1) - 2(n+1) decodable completions (the bad
    pairs are (xyx, yxy) and (xyz, zxy) up to reversal), with a repeated
    letter there are (n^3-1)(n^3-2) - 2(n-1).  Both counts agree with
    exhaustive enumeration at n = 2 and n = 3.
    """
    if n < 2:
        raise CodesError(f"alphabet size must be >= 2, got {n}")
    distinct_pair = n**3 * (n**3 - 1) - 2 * (n + 1)
    repeated_pair = (n**3 - 1) * (n**3 - 2) - 2 * (n - 1)
    ud = n * (n - 1) * distinct_pair + n * repeated_pair
    pr = n * (n - 1) * (n**6 + n**5 - n**4 - 2 * n**3 - n**2)
    return CodeCounts(ud, pr)


def count_all_a_then_b(n: int, m: int, a: int, b: int) -> CodeCounts:
    """Exact |UD| and |PR| for m-1 words of length a plus one of length b,
    where a divides b.  Negative factors clamp to zero (empty set)."""
    if n < 2:
        raise CodesError(f"alphabet size must be >= 2, got {n}")
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


DEFAULT_BOUND_CAP = 10**6


def theorem1_bound(
    profile: ProfileLike, n: int, a: int, b: int, enumeration_cap: int = DEFAULT_BOUND_CAP
) -> BoundReport:
    """Evaluate the quotient lower bound for two distinct length values.

    The true ratio is reported alongside when |UD| is available from a
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

    counts = closed_form_counts(p, n)
    if counts is not None:
        ud: Optional[int] = counts.ud
    else:
        from .enumeration import UniverseTooLarge, census

        try:
            ud = census(p, n, mode="enumeration", cap=enumeration_cap).ud
        except UniverseTooLarge:
            ud = None

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
