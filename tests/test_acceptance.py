"""Acceptance gate: ten checks against pinned reference values.

Each test prints one PASS line when it succeeds.

The (2,3,3) constants in tests 01, 02 and 05 were once pinned at ud = 132
(n=2), ud = 5202 (n=3) and the ratios 11/10 and 5202/4968.  Those values
were wrong: they came from a closed form that mis-factors the case analysis
it summarizes, and the sum of its own cases gives 180 and 6102.  A count by
hand for n = 2 shows it.  Of the 256 codes (a, b, c) with |a| = 2 and
|b| = |c| = 3, exactly 76 are not UD:

* 32 have b = c;
* a = xy with x != y (2 choices): the unordered pairs {xyx, yxy} and
  {xyz, zxy} for each letter z are not UD, n + 1 = 3 pairs, 6 ordered,
  so 12 codes;
* a = xx (2 choices): a code holding xxx is not UD (xx.xx.xx = xxx.xxx),
  14 per choice with b != c, so 28; the pairs {xxz, zxx} with z != x
  add 4 more.

So ud = 256 - 76 = 180, and the same split at n = 3 gives 6102, as does
``count_233``.  The pinned 132 would need 48 more codes with a double
factorization; the complete Sardinas-Patterson procedure finds none, and
test 01 checks the count with a search that uses nothing from udcodes.
"""

import itertools
import time
from fractions import Fraction

from udcodes.census import (
    census,
    count_all_a_then_b,
    is_fd_eq_ud,
    fd_matches_ud_condition,
    theorem1_bound,
    universe_size,
)
from udcodes.decide import (
    classify,
    delay_analysis,
    sardinas_patterson,
)
from udcodes.enumeration import (
    BUILTIN_SUITE,
    bounded_delay_probe,
    enumerate_codes,
    safe_bound,
    two_factorization_search,
)
from udcodes.kraft import (
    count_anchored_prefix_codes,
    count_prefix_codes,
    infinite_delay_witness,
    is_feasible,
    kraft_sum,
    ud_nonprefix_witness,
)
from udcodes.words import Code


def _has_double_factorization(words, max_words):
    """True if two different sequences of at most ``max_words`` words spell
    the same string.  Plain string concatenation, independent of udcodes."""
    spelled = set()
    for k in range(1, max_words + 1):
        for indices in itertools.product(range(len(words)), repeat=k):
            text = "".join(words[i] for i in indices)
            if text in spelled:
                return True
            spelled.add(text)
    return False


def _count_without_double_factorization(lengths, alphabet, max_words):
    pools = [
        ["".join(letters) for letters in itertools.product(alphabet, repeat=length)]
        for length in lengths
    ]
    return sum(
        not _has_double_factorization(words, max_words)
        for words in itertools.product(*pools)
    )


def test_01_binary_census_of_one_short_two_long_lengths():
    start = time.perf_counter()
    report = census((2, 3, 3), 2, mode="enumeration")
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"census took {elapsed:.2f}s, budget 1s"
    assert report.total == 256
    assert report.pr == 120
    assert count_prefix_codes((2, 3, 3), 2).count == report.pr
    assert report.ud == 180
    assert _count_without_double_factorization((2, 3, 3), "01", 5) == report.ud
    print("PASS 01: (2,3,3) n=2 census pr=120 ud=180 in {:.2f}s".format(elapsed))


def test_02_ternary_census_of_one_short_two_long_lengths():
    start = time.perf_counter()
    report = census((2, 3, 3), 3, mode="enumeration")
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"census took {elapsed:.2f}s, budget 30s"
    assert report.total == 6561
    assert report.pr == 4968
    assert count_prefix_codes((2, 3, 3), 3).count == report.pr
    assert report.ud == 6102
    print("PASS 02: (2,3,3) n=3 census pr=4968 ud=6102 in {:.2f}s".format(elapsed))


def test_03_short_words_plus_one_long_word_family():
    # (n, m, a, b): m-1 words of length a and one word of length b
    instances = [
        ((2, 2, 1, 2), {"ud": 6, "pr": 4}),
        ((3, 3, 1, 2), {"ud": 30}),
        ((2, 3, 2, 4), {"ud": 144}),
        ((2, 3, 1, 2), {"ud": 0}),
    ]
    for (n, m, a, b), expected in instances:
        lengths = (a,) * (m - 1) + (b,)
        start = time.perf_counter()
        counts = count_all_a_then_b(n, m, a, b)
        report = census(lengths, n, mode="enumeration")
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"instance {(n, m, a, b)} took {elapsed:.2f}s"
        assert counts.ud == report.ud == expected["ud"], (n, m, a, b)
        assert counts.pr == report.pr
        if "pr" in expected:
            assert counts.pr == expected["pr"]
        if expected["ud"] == 0:
            assert kraft_sum(lengths, n) == Fraction(5, 4)
            assert not is_feasible(lengths, n)
    print("PASS 03: closed form matches enumeration on all 4 family instances")


def test_04_prefix_count_recurrence_matches_enumeration_suitewide():
    checked = 0
    for profile in BUILTIN_SUITE:
        for n in (2, 3):
            if universe_size(profile, n) > 10**6:
                continue
            report = census(profile, n, mode="enumeration")
            assert count_prefix_codes(profile, n).count == report.pr, (profile, n)
            checked += 1
    assert checked == 20
    print(f"PASS 04: prefix recurrence exact on {checked} profile/alphabet pairs")


def test_05_ratio_lower_bound_for_one_short_two_long_lengths():
    binary = theorem1_bound((2, 3, 3), 2, 2, 3)
    assert binary.lower_bound == Fraction(13, 12)
    assert binary.satisfied
    ternary = theorem1_bound((2, 3, 3), 3, 2, 3)
    assert ternary.lower_bound == Fraction(109, 108)
    assert ternary.satisfied
    anchored = count_anchored_prefix_codes((2, 3, 3), 2, 2, 3)
    assert binary.pr_count + anchored.count <= binary.ud_count
    assert binary.ratio == Fraction(3, 2)
    assert ternary.ratio == Fraction(6102, 4968)
    print(
        f"PASS 05: ratios {binary.ud_count}/{binary.pr_count} and "
        f"{ternary.ud_count}/{ternary.pr_count} meet bounds 13/12 and 109/108; "
        "pr+anchored <= ud"
    )


def test_06_prefix_equals_ud_exactly_for_constant_lengths():
    witnesses = 0
    for profile in BUILTIN_SUITE:
        for n in (2, 3):
            if not is_feasible(profile, n):
                continue
            report = census(profile, n, mode="enumeration")
            constant = len(set(profile)) == 1
            assert (report.pr == report.ud) == constant, (profile, n)
            if not constant:
                witness = ud_nonprefix_witness(profile, n)
                result = classify(witness)
                assert result.ud and not result.prefix, (profile, n)
                witnesses += 1
    print(f"PASS 06: pr==ud iff constant lengths; {witnesses} UD-not-prefix witnesses")


def test_07_finite_delay_equals_ud_exactly_when_condition_holds():
    suite = [(1, 2), (1, 1), (2, 2, 4), (2, 2, 3), (1, 2, 2), (2, 3, 3), (1, 1, 1), (1, 2, 4)]
    witnesses = 0
    for profile in suite:
        if not is_feasible(profile, 2):
            continue
        report = census(profile, 2, mode="enumeration")
        predicted = is_fd_eq_ud(profile, 2)
        assert (report.fd == report.ud) is predicted, profile
        if not fd_matches_ud_condition(profile):
            code, _spec = infinite_delay_witness(profile, 2)
            result = classify(code)
            assert result.ud and not result.finite_delay, profile
            witnesses += 1
    print(f"PASS 07: fd==ud iff predicate; {witnesses} infinite-delay witnesses")


def test_08_oracle_agreement_on_every_small_universe_code():
    checked = 0
    for profile in BUILTIN_SUITE:
        if universe_size(profile, 2) > 10**4:
            continue
        for code in enumerate_codes(profile, 2):
            trace = sardinas_patterson(code)
            found = two_factorization_search(code, safe_bound(code))
            assert trace.unique == (found is None), code.texts()
            if len(set(code.words)) == len(code.words):
                analysis = delay_analysis(code)
                probe = bounded_delay_probe(code, safe_bound(code))
                assert analysis.finite == (probe.verdict == "finite"), code.texts()
                assert analysis.delay == probe.delay, code.texts()
            checked += 1
    assert checked == 852
    print(f"PASS 08: independent oracles agree on all {checked} codes")


def test_09_regression_flagship_example_and_its_reverse():
    code = Code.from_texts(["10", "100", "000"], 2)
    result = classify(code)
    assert result.ud and not result.prefix and not result.finite_delay
    witness = delay_analysis(code).witness
    assert witness.preamble.text() == "1"
    assert witness.period.text() == "0"
    assert witness.rendered() == "1(0)^inf"
    reverse = classify(code.reverse())
    assert reverse.prefix and reverse.finite_delay
    print("PASS 09: (10,100,000) UD, not prefix, infinite delay; reverse is prefix")


def test_10_inclusion_chain_and_two_word_codes_have_finite_delay():
    for profile in BUILTIN_SUITE:
        for code in enumerate_codes(profile, 2):
            result = classify(code)
            if result.prefix:
                assert result.finite_delay, code.texts()
            if result.finite_delay:
                assert result.ud, code.texts()
    pairs = 0
    for a in range(1, 5):
        for b in range(1, 5):
            for code in enumerate_codes((a, b), 2):
                result = classify(code)
                if result.ud:
                    assert result.finite_delay, code.texts()
                pairs += 1
    assert pairs == 900
    print(f"PASS 10: prefix=>fd=>ud suitewide; all {pairs} two-word codes checked")
