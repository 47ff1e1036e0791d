import collections
import hashlib
import importlib
import io
import itertools
import math
import tracemalloc

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from udcodes import enumeration
from udcodes._graph import cyclic_nodes, topological_order
from udcodes.census import UniverseTooLarge, census, universe_size
from udcodes.decide import (
    Classification,
    classify,
    delay_analysis,
    is_prefix_code,
    sardinas_patterson,
)
from udcodes.enumeration import (
    BUILTIN_SUITE,
    ProbeResult,
    ProbeStateCapExceeded,
    bounded_delay_probe,
    enumerate_codes,
    safe_bound,
    two_factorization_search,
    write_classification_csv,
)
from udcodes.kraft import canonical_prefix_code
from udcodes.words import Code, CodesError, Word


def code(*texts, n=2):
    return Code.from_texts(list(texts), n)


def test_universe_size():
    assert universe_size((1, 1), 2) == 4
    assert universe_size((2, 3, 3), 2) == 256
    assert universe_size((2, 3, 3), 3) == 6561
    assert universe_size((1, 2), 2) == 8


def test_enumeration_order():
    codes = list(enumerate_codes((1, 2), 2))
    assert len(codes) == 8
    assert codes[0].texts() == ("0", "00")
    assert codes[1].texts() == ("0", "01")
    assert codes[-1].texts() == ("1", "11")


def test_enumeration_refuses_large_universe():
    with pytest.raises(UniverseTooLarge) as exc:
        list(enumerate_codes((2, 3, 3), 2, cap=10))
    assert exc.value.total == 256
    assert exc.value.cap == 10


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda: enumerate_codes((20000,), 2), id="enumerate-codes"),
        pytest.param(
            lambda: write_classification_csv((20000,), 2, io.StringIO()), id="classification-csv"
        ),
    ],
)
def test_refusal_renders_a_universe_of_any_length(default_digit_limit, call):
    with pytest.raises(UniverseTooLarge, match=r"holds \d{6021} codes, above the cap of 1000000$"):
        call()


def test_classify():
    assert classify(code("10", "100", "000")) == Classification(
        injective=True, prefix=False, ud=True, finite_delay=False, delay=None
    )
    assert classify(code("01", "001", "000")) == Classification(
        injective=True, prefix=True, ud=True, finite_delay=True, delay=3
    )
    assert classify(code("0", "0")) == Classification(
        injective=False, prefix=False, ud=False, finite_delay=False, delay=None
    )
    assert classify(code("0", "01", "10")).ud is False


def test_classify_explores_each_injective_code_once(monkeypatch):
    import udcodes.decide as decide
    import udcodes.enumeration as enumeration

    calls = []
    explore = decide._explore

    def counted(words, **kwargs):
        calls.append(words)
        return explore(words, **kwargs)

    def forbidden(*args):
        raise AssertionError("classify must not call the reference deciders")

    monkeypatch.setattr(decide, "_explore", counted)
    for name in ("is_prefix_code", "sardinas_patterson", "delay_analysis", "_assemble_witness"):
        for module in (decide, enumeration):
            monkeypatch.setattr(module, name, forbidden, raising=False)
    for texts in (("10", "100", "000"), ("01", "001", "000"), ("0", "01", "10"), ("0", "0")):
        classify(code(*texts))
    assert len(calls) == 3


CENSUS_TABLE = {
    ((1, 1), 2): (2, 2, 2),
    ((1, 1), 3): (6, 6, 6),
    ((1, 2), 2): (4, 6, 6),
    ((1, 2), 3): (18, 24, 24),
    ((2, 2), 2): (12, 12, 12),
    ((2, 2), 3): (72, 72, 72),
    ((1, 1, 1), 2): (0, 0, 0),
    ((1, 1, 1), 3): (6, 6, 6),
    ((1, 1, 2), 2): (0, 0, 0),
    ((1, 1, 2), 3): (18, 30, 30),
    ((1, 2, 2), 2): (4, 4, 8),
    ((1, 2, 2), 3): (90, 144, 156),
    ((1, 2, 4), 2): (16, 44, 54),
    ((1, 2, 4), 3): (810, 1758, 1788),
    ((2, 2, 3), 2): (48, 56, 80),
    ((2, 2, 3), 3): (1512, 1800, 1884),
    ((2, 2, 4), 2): (96, 144, 144),
    ((2, 2, 4), 3): (4536, 5544, 5544),
    ((2, 3, 3), 2): (120, 160, 180),
    ((2, 3, 3), 3): (4968, 6030, 6102),
    ((3, 4, 5, 5), 2): (72800, 107824, 117048),
    ((2, 3, 3, 4), 3): (327888, 461112, 478728),
}


@pytest.mark.parametrize("profile,n", sorted(CENSUS_TABLE))
def test_census_table(profile, n):
    pr, fd, ud = CENSUS_TABLE[(profile, n)]
    report = census(profile, n, mode="both")
    assert (report.pr, report.fd, report.ud) == (pr, fd, ud)
    assert report.discrepancies == ()
    assert report.total == universe_size(profile, n)


CENSUS_DIFFERENTIAL = [(p, n) for p in BUILTIN_SUITE for n in (2, 3)] + [
    ((2, 2, 3, 4), 2),
    ((1, 1, 2, 2), 3),
    ((2, 3, 4), 3),
    ((2, 2, 3, 3, 4), 2),
    ((2, 2, 2, 3), 3),
    ((3, 3, 4, 5), 2),
    ((1, 2, 2), 4),
]


@pytest.mark.parametrize(
    "profile,n", CENSUS_DIFFERENTIAL, ids=[f"{p}-{n}" for p, n in CENSUS_DIFFERENTIAL]
)
def test_census_matches_plain_enumeration(profile, n):
    """The census, which classifies one code per set of equal-length words
    and prunes non-UD partial codes, against classifying every ordered code."""
    pr = fd = ud = 0
    for c in enumerate_codes(profile, n):
        result = classify(c)
        pr += result.prefix
        fd += result.finite_delay
        ud += result.ud
    report = census(profile, n, mode="enumeration")
    assert (report.pr, report.fd, report.ud) == (pr, fd, ud)


def test_census_builds_no_code(monkeypatch):
    import udcodes.decide as decide
    import udcodes.enumeration as enumeration

    # the package binds the name udcodes.census to the function
    census_module = importlib.import_module("udcodes.census")

    def forbidden(*args, **kwargs):
        raise AssertionError("the census must not build or classify Code objects")

    for name in ("enumerate_codes", "classify"):
        monkeypatch.setattr(enumeration, name, forbidden)
    monkeypatch.setattr(decide, "classify", forbidden)
    monkeypatch.setattr(Code, "__init__", forbidden)
    monkeypatch.setattr(Word, "__init__", forbidden)
    monkeypatch.setattr(decide, "_finite_delay", forbidden)
    calls = []
    kernel = decide._classes

    def counted(words, with_delay):
        calls.append(words)
        return kernel(words, with_delay)

    monkeypatch.setattr(census_module, "_classes", counted)
    report = census((2, 2, 2, 3), 3, mode="enumeration")
    assert (report.pr, report.fd, report.ud) == (9072, 10584, 12744)
    # one code per set of three length-2 words, completed by each length-3 word
    assert 0 < len(calls) <= math.comb(9, 3) * 27


def _brute_orbits(v, r, n):
    """Orbit sizes of the r-sets of words of length v, keyed by the least
    image over all n! letter permutations."""
    sizes = collections.Counter()
    for block in itertools.combinations(itertools.product(range(n), repeat=v), r):
        sizes[_least_image(block, n)] += 1
    return sizes


def _least_image(block, n):
    return min(
        tuple(sorted(tuple(image[a] for a in w) for w in block))
        for image in itertools.permutations(range(n))
    )


# first blocks with fewer words than letters, or a large stabilizer
ORBIT_EXTRAS = [((2, 2, 2, 2), 4), ((1,) * 5, 5), ((3, 3), 4)]


@pytest.mark.parametrize(
    "profile,n",
    CENSUS_DIFFERENTIAL + ORBIT_EXTRAS,
    ids=[f"{p}-{n}" for p, n in CENSUS_DIFFERENTIAL + ORBIT_EXTRAS],
)
def test_first_block_orbits(profile, n):
    """One representative per orbit of the first block, with the orbit's size."""
    census_module = importlib.import_module("udcodes.census")
    v, r = min(profile), profile.count(min(profile))
    orbits = census_module._orbits(v, r, n)
    assert sum(size for _, size in orbits) == math.comb(n**v, r)
    expected = _brute_orbits(v, r, n)
    assert {_least_image(block, n): size for block, size in orbits} == expected
    assert len(orbits) == len(expected)


@pytest.mark.parametrize(
    "profile,n,calls",
    [((3, 3, 4, 5), 2, 8032), ((2, 2, 3, 3, 4), 2, 944), ((2, 2, 2, 3), 3, 459)],
    ids=["3345-2", "22334-2", "2223-3"],
)
def test_census_kernel_calls(monkeypatch, profile, n, calls):
    """One code per orbit of the first block is extended (the benchmark's
    census profiles made 14,080, 1,448 and 2,268 calls without the fold)."""
    census_module = importlib.import_module("udcodes.census")
    seen = []
    kernel = census_module._classes

    def counted(words, with_delay):
        seen.append(words)
        return kernel(words, with_delay)

    monkeypatch.setattr(census_module, "_classes", counted)
    census(profile, n, mode="enumeration")
    assert len(seen) == calls


@pytest.mark.parametrize("profile,n", [((2,) * 6, 3), ((1, 1), 1000)], ids=["222222-3", "11-1000"])
def test_orbit_key_tries_at_most_min_r_k_factorial_relabellings(monkeypatch, profile, n):
    census_module = importlib.import_module("udcodes.census")
    tries = collections.Counter()
    relabel = census_module._renamed

    def counted(words, *rest):
        tries[frozenset(words)] += 1
        return relabel(words, *rest)

    monkeypatch.setattr(census_module, "_renamed", counted)
    report = census(profile, n, mode="enumeration")
    assert report.pr == report.fd == report.ud == math.perm(n ** profile[0], len(profile))
    assert tries
    r = len(profile)
    for block, count in tries.items():
        k = len({a for w in block for a in w})
        assert count <= min(math.factorial(r), math.factorial(k)), (block, count)


@pytest.mark.parametrize(
    "v,r,n", [(3, 2, 10), (2, 4, 4), (1, 5, 5)], ids=["33-10", "2222-4", "11111-5"]
)
def test_orbit_renamings_total_below_min_r_k_factorial_per_block(monkeypatch, v, r, n):
    """An orbit's first block renames itself k! - 1 times, which can exceed
    min(r!, k!) for that block alone when r < k, but the orbit's k!
    renamings are its size times a stabilizer of at most r! elements."""
    census_module = importlib.import_module("udcodes.census")
    calls = 0
    relabel = census_module._renamed

    def counted(*args):
        nonlocal calls
        calls += 1
        return relabel(*args)

    monkeypatch.setattr(census_module, "_renamed", counted)
    orbits = census_module._orbits(v, r, n)
    bound = 0
    for k in range(1, min(n, v * r) + 1):
        for block in itertools.combinations(itertools.product(range(k), repeat=v), r):
            if len({a for w in block for a in w}) == k:
                bound += min(math.factorial(r), math.factorial(k))
    assert sum(size for _, size in orbits) == math.comb(n**v, r)
    assert 0 < calls < bound


@pytest.mark.parametrize("mode", ("enumeration", "both"))
def test_census_refuses_large_universe(mode):
    with pytest.raises(UniverseTooLarge) as exc:
        census((2, 3, 3), 3, mode=mode, cap=3**8 - 1)
    assert exc.value.total == 3 ** (2 + 3 + 3)
    assert exc.value.cap == 3**8 - 1


def test_census_rejects_one_letter_alphabet():
    with pytest.raises(CodesError, match="alphabet size must be an integer >= 2, got 1"):
        census((1, 2), 1, mode="enumeration")


def test_census_counts_are_nested():
    for profile in BUILTIN_SUITE:
        report = census(profile, 2, mode="enumeration")
        assert 0 <= report.pr <= report.fd <= report.ud <= report.total


def test_census_formula_mode_leaves_gaps():
    report = census((2, 2, 3), 2, mode="formula")
    assert report.pr == 48
    assert report.fd is None
    assert report.ud is None
    assert report.source == "formula"


def test_census_formula_mode_constant_profile():
    report = census((2, 2), 2, mode="formula")
    assert (report.pr, report.fd, report.ud) == (12, 12, 12)


def test_census_rejects_unknown_mode():
    with pytest.raises(CodesError):
        census((1, 2), 2, mode="guess")


def test_census_infeasible_profile_is_all_zero():
    report = census((1, 1, 1), 2, mode="formula")
    assert (report.pr, report.fd, report.ud) == (0, 0, 0)


def test_suite_profiles_are_sorted_tuples():
    assert (2, 3, 3) in BUILTIN_SUITE
    for profile in BUILTIN_SUITE:
        assert profile == tuple(sorted(profile))


def test_safe_bound():
    assert safe_bound(code("10", "100", "000")) == 9
    assert safe_bound(code("00", "000", "001")) == 15


def test_safe_bound_matches_word_suffix_definition():
    """The horizon from symbol tuples equals the one from Word suffixes."""
    for profile in BUILTIN_SUITE:
        for c in enumerate_codes(profile, 2):
            suffixes = {w[k:] for w in c.words for k in range(1, len(w))}
            assert safe_bound(c) == (len(suffixes) + 1) * max(map(len, c.words)), c.texts()


def test_two_factorization_search():
    stream, first, second = two_factorization_search(code("0", "01", "10"), 8)
    assert stream == Word((0, 1, 0))
    assert (first, second) == ((0, 2), (1, 0))


def test_search_stops_at_its_length_bound():
    c = code("0", "01", "10")
    assert two_factorization_search(c, 2) is None
    stream, _, _ = two_factorization_search(c, 3)
    assert stream == Word((0, 1, 0))


def test_search_finds_duplicate_words_immediately():
    stream, first, second = two_factorization_search(code("0", "00"), 10)
    assert stream == Word((0, 0))
    assert (first, second) == ((0, 0), (1,))


def test_search_returns_none_for_ud_code():
    c = code("10", "100", "000")
    assert two_factorization_search(c, safe_bound(c)) is None


def test_search_requires_positive_bound():
    with pytest.raises(CodesError):
        two_factorization_search(code("0", "1"), 0)


# SHA-256 of the reprs of every search below, in order, as the search
# returned them before it ran on one heap
SEARCH_SHA256 = "958fe05a6a58e4fac2233a6556ee5a8bc2c8c254ac0a9cae9e99ad626ca0fd84"


def test_search_results_are_pinned_suitewide():
    digest = hashlib.sha256()
    calls = 0
    for profile in BUILTIN_SUITE:
        for n in (2, 3):
            for c in enumerate_codes(profile, n):
                for bound in (1, 2, 3, 5, safe_bound(c)):
                    digest.update(repr(two_factorization_search(c, bound)).encode())
                    calls += 1
    assert calls == 5 * sum(universe_size(p, n) for p in BUILTIN_SUITE for n in (2, 3))
    assert digest.hexdigest() == SEARCH_SHA256


@pytest.mark.parametrize(
    "texts, bound, found",
    [
        (("0", "0", "0"), 1, (Word((0,)), (0,), (1,))),
        (("0", "00", "00"), None, (Word((0, 0)), (1,), (2,))),
        (("1", "10", "101", "01"), None, (Word((1, 0, 1)), (0, 3), (2,))),
    ],
    ids=["three-equal-words", "repeat-and-square", "two-finishes"],
)
def test_search_ties(texts, bound, found):
    """Among the pairs of one shortest stream the search returns the first
    pair it finishes, which need not be the least: ("0", "00", "00") has
    (0, 0) < (1,) on "00"."""
    c = code(*texts)
    assert two_factorization_search(c, bound or safe_bound(c)) == found


def _factorizations(c, longest):
    """Every stream of at most `longest` letters, to the index tuples of the
    code words that spell it, by listing the word sequences themselves."""
    spelled = collections.defaultdict(set)
    frontier = [((), ())]
    while frontier:
        grown = []
        for stream, indices in frontier:
            for i, word in enumerate(c.words):
                if len(stream) + len(word) <= longest:
                    step = (stream + word.symbols, indices + (i,))
                    spelled[step[0]].add(step[1])
                    grown.append(step)
        frontier = grown
    return spelled


BRUTE_FORCE_SEARCHES = [
    ((1, 1, 2), 2),
    ((1, 2, 2), 2),
    ((2, 2, 3), 2),
    ((1, 1, 1), 2),
    ((1, 1, 1), 3),
]


@pytest.mark.parametrize(
    "profile, n", BRUTE_FORCE_SEARCHES, ids=[f"{p}-{n}" for p, n in BRUTE_FORCE_SEARCHES]
)
def test_search_matches_brute_force(profile, n):
    """The stream found is the shortest with two factorizations, ties broken
    lexicographically, and None means none fits the bound; the two index
    tuples are distinct factorizations of it."""
    for c in enumerate_codes(profile, n):
        top = min(safe_bound(c), 8)
        spelled = _factorizations(c, top)
        ambiguous = sorted((len(s), s) for s, ways in spelled.items() if len(ways) > 1)
        for bound in range(1, top + 1):
            found = two_factorization_search(c, bound)
            fitting = [s for length, s in ambiguous if length <= bound]
            if not fitting:
                assert found is None, (c.texts(), bound)
                continue
            stream, first, second = found
            assert stream.symbols == fitting[0], (c.texts(), bound)
            assert first != second
            assert {first, second} <= spelled[stream.symbols]


@pytest.mark.parametrize(
    "oracle,bound",
    [
        (bounded_delay_probe, -1),
        (bounded_delay_probe, 2.5),
        (bounded_delay_probe, True),
        (two_factorization_search, 2.5),
        (two_factorization_search, True),
    ],
    ids=["probe-negative", "probe-float", "probe-bool", "search-float", "search-bool"],
)
def test_oracles_refuse_a_bound_that_is_not_a_count(oracle, bound):
    with pytest.raises(CodesError, match="bound must be an integer"):
        oracle(code("0", "10", "11"), bound)


def test_probe_accepts_a_zero_bound():
    assert bounded_delay_probe(code("10"), 0) == ProbeResult("finite", 0, None)
    assert bounded_delay_probe(code("0", "10", "11"), 0) == ProbeResult("unknown", None, None)


def test_probe_finite_cases():
    result = bounded_delay_probe(code("0", "10", "11"), 10)
    assert result.verdict == "finite"
    assert result.delay == 2
    assert tuple(w.text() for w in result.witness) == ("10", "11")

    assert bounded_delay_probe(code("10"), 10).delay == 0
    assert bounded_delay_probe(code("01", "001", "000"), 10).delay == 3
    assert bounded_delay_probe(code("11", "1101", "010"), 10).delay == 7
    # acyclic state graphs in which the walk meets an already finished state
    # again from a later branch: that edge must not join their components
    assert bounded_delay_probe(code("011", "011101", "10", "1100"), 20).delay == 13
    ternary = Code.from_texts(["0", "02", "021112", "022120", "10102", "20010", "210"], 3)
    assert bounded_delay_probe(ternary, 20).delay == 9

    # two states share the greatest depth; the least pair of first words wins
    result = bounded_delay_probe(Code.from_texts(["1", "0", "02", "12"], 3), 10)
    assert result.delay == 2
    assert tuple(w.text() for w in result.witness) == ("0", "02")


def test_probe_infinite_case():
    result = bounded_delay_probe(code("10", "100", "000"), 10)
    assert result.verdict == "infinite"
    assert result.delay is None
    assert tuple(w.text() for w in result.witness) == ("10", "100")


def test_probe_unknown_when_bound_too_small():
    result = bounded_delay_probe(code("01", "001", "000"), 2)
    assert result.verdict == "unknown"
    assert result.delay is None
    assert result.witness is None


def test_probe_rejects_duplicate_words():
    with pytest.raises(CodesError):
        bounded_delay_probe(code("0", "0"), 5)


def test_probe_state_cap(monkeypatch):
    c = code("0", "10", "11")
    monkeypatch.setattr(enumeration, "_PROBE_STATE_CAP", _reference_probe(c, 10)[1])
    assert bounded_delay_probe(c, 10).delay == 2
    monkeypatch.setattr(enumeration, "_PROBE_STATE_CAP", 1)
    with pytest.raises(ProbeStateCapExceeded) as info:
        bounded_delay_probe(c, 10)
    assert isinstance(info.value, CodesError)
    assert str(info.value) == "delay probe state space exceeded the safety cap"
    assert info.value.cap == 1
    # refused as the second ambiguous state is built, the start being the first
    assert info.value.states == 2


def _reference_probe(c, t_max):
    """The probe over sets of per-word entries (first word, word, offset),
    where a word that ends adds one entry per code word: its ProbeResult,
    its number of ambiguous states and its number of states."""
    words = c.words
    raw = [w.symbols for w in words]

    def successor(state, letter):
        nxt = set()
        for tag, idx, offset in state:
            if raw[idx][offset] == letter:
                if offset + 1 == len(raw[idx]):
                    nxt.update((tag, k, 0) for k in range(len(raw)))
                else:
                    nxt.add((tag, idx, offset + 1))
        return frozenset(nxt)

    start = frozenset((i, i, 0) for i in range(len(raw)))
    adjacency = {}
    queue = [start]
    while queue:
        state = queue.pop()
        if state not in adjacency:
            targets = (successor(state, a) for a in range(c.alphabet.size))
            adjacency[state] = [t for t in targets if t]
            queue.extend(adjacency[state])

    def first_pair(state):
        first, second = sorted({tag for tag, _, _ in state})[:2]
        return words[first], words[second]

    ambiguous = {s for s in adjacency if len({tag for tag, _, _ in s}) >= 2}
    sub = {s: [t for t in adjacency[s] if t in ambiguous] for s in ambiguous}
    order = topological_order(sub)
    if order is None:
        witness = min(map(first_pair, cyclic_nodes(sub)))
        return ProbeResult("infinite", None, witness), len(ambiguous), len(adjacency)
    depth = {start: 0} if ambiguous else {}
    for state in order:
        for nxt in sub[state] if state in depth else ():
            depth[nxt] = max(depth.get(nxt, -1), depth[state] + 1)
    delay = max(depth.values(), default=-1) + 1
    if delay > t_max:
        return ProbeResult("unknown", None, None), len(ambiguous), len(adjacency)
    witness = min((first_pair(s) for s, d in depth.items() if d + 1 == delay), default=None)
    return ProbeResult("finite", delay, witness), len(ambiguous), len(adjacency)


def _assert_probe_matches_reference(c, t_max, count_states):
    """An equal ProbeResult; with count_states also an equal number of
    ambiguous states: the probe stays within a cap of the reference's count
    and exceeds a cap of one less, unless it builds none (a one-word code)."""
    expected, states, _ = _reference_probe(c, t_max)
    with pytest.MonkeyPatch.context() as patch:
        if count_states:
            patch.setattr(enumeration, "_PROBE_STATE_CAP", states)
        assert bounded_delay_probe(c, t_max) == expected, c.texts()
        if count_states and states:
            patch.setattr(enumeration, "_PROBE_STATE_CAP", states - 1)
            with pytest.raises(ProbeStateCapExceeded):
                bounded_delay_probe(c, t_max)


# Ambiguous-state counts are compared on the suite's profiles at n=2 and 3 and on (2,2,3,4).
PROBE_DIFFERENTIAL = [
    (p, n, True) for n in (2, 3) for p in BUILTIN_SUITE if universe_size(p, n) <= 7000
] + [(p, 2, p == (2, 2, 3, 4)) for p in sorted(set(itertools.permutations((2, 2, 3, 4))))]


@pytest.mark.parametrize(
    "profile,n,count_states",
    PROBE_DIFFERENTIAL,
    ids=[f"{p}-{n}" for p, n, _ in PROBE_DIFFERENTIAL],
)
def test_probe_matches_per_word_reference(profile, n, count_states):
    """Result, and on some profiles the state count, on every injective
    code of the profile."""
    for c in enumerate_codes(profile, n):
        if len(set(c.words)) == len(c.words):
            _assert_probe_matches_reference(c, safe_bound(c), count_states)


@pytest.mark.parametrize("texts", [("10", "100", "000"), ("01", "001", "000"), ("0", "01", "10")])
def test_probe_makes_one_graph_pass(monkeypatch, texts):
    """The order (finite) and the cycle set (infinite) come off the one walk
    that builds the states: the probe makes no call into the decider's
    graph helpers."""
    c = Code.from_texts(list(texts), 2)
    expected = _reference_probe(c, safe_bound(c))[0]
    graph = importlib.import_module("udcodes._graph")
    calls = []
    components = graph._components

    def counted(adjacency):
        calls.append(len(adjacency))
        return components(adjacency)

    monkeypatch.setattr(graph, "_components", counted)
    assert bounded_delay_probe(c, safe_bound(c)) == expected
    assert calls == []


@pytest.mark.parametrize("texts", [("11", "1101", "010"), ("10", "100", "000")])
def test_probe_builds_no_unambiguous_state(monkeypatch, texts):
    """A state with one first word left is never built: the probe gives its
    verdict under a cap of the full automaton's ambiguous states alone."""
    c = code(*texts)
    expected, ambiguous, states = _reference_probe(c, 20)
    assert ambiguous < states
    monkeypatch.setattr(enumeration, "_PROBE_STATE_CAP", ambiguous)
    assert bounded_delay_probe(c, 20) == expected
    monkeypatch.setattr(enumeration, "_PROBE_STATE_CAP", 0)
    assert bounded_delay_probe(code(texts[0]), 20) == ProbeResult("finite", 0, None)


def test_probe_witness_rules():
    """The infinite witness is the least first-word pair, in word order, of
    the ambiguous states on a cycle, as the finite one is of the deepest."""
    result = bounded_delay_probe(code("00", "10", "100", "1000"), 20)
    assert result.verdict == "infinite"
    assert tuple(w.text() for w in result.witness) == ("10", "100")


def _probe_peak(c):
    """The probe's result and its traced peak memory in bytes."""
    tracemalloc.start()
    try:
        result = bounded_delay_probe(c, safe_bound(c))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def test_probe_memory_on_a_reversed_canonical_code():
    """The reversed canonical code 4^12 5^8: about 0.3 MB of traced peak
    memory with flat state keys and one walk, 1.2 MB with a frozenset per
    state and a separate graph pass, 2.9 MB building every state, 23.9 MB
    with one entry per word per surviving first word."""
    result, peak = _probe_peak(canonical_prefix_code((4,) * 12 + (5,) * 8, 2).reverse())
    assert result.verdict == "infinite"
    assert peak < 5 * 10**5


def test_probe_memory_on_the_bench_code():
    """The 56-word reversed canonical code 6^28 8^28 of the benchmark's probe
    worker, 4,987 ambiguous states: about 1.0 MB of traced peak memory with
    a position set per first word, 1.1 MB with a first-word mask per
    position, and 3.9 MB with a frozenset of (position, mask) pairs per
    state and a separate graph pass."""
    result, peak = _probe_peak(canonical_prefix_code((6,) * 28 + (8,) * 28, 2).reverse())
    assert result.verdict == "infinite"
    assert peak < 1.5 * 10**6


def test_ud_count_is_reversal_invariant():
    for profile in ((1, 2, 2), (2, 2, 3), (1, 2, 4)):
        forward = sum(1 for c in enumerate_codes(profile, 2) if classify(c).ud)
        backward = sum(
            1 for c in enumerate_codes(profile, 2) if classify(c.reverse()).ud
        )
        assert forward == backward == census(profile, 2, mode="enumeration").ud


GOLDEN_CSV = """\
code,injective,prefix,ud,finite_delay,delay
0;00,true,false,false,false,
0;01,true,false,true,true,2
0;10,true,true,true,true,1
0;11,true,true,true,true,1
1;00,true,true,true,true,1
1;01,true,true,true,true,1
1;10,true,false,true,true,2
1;11,true,false,false,false,
"""


def test_classification_csv_golden():
    buf = io.StringIO()
    rows = write_classification_csv((1, 2), 2, buf)
    assert rows == 8
    assert buf.getvalue().replace("\r\n", "\n") == GOLDEN_CSV


# SHA-256 of `classify-all` output, recorded before words were packed: n = 3
# and n = 5 take 2 and 3 bits per letter, and (3,1,2) lists a longer word
# first.
CSV_SHA256 = {
    ((2, 2, 3), 3): "3de83164fc1dc5130e1947ae98724679ec7d8d1d760ac204187aff7a12659759",
    ((3, 1, 2), 2): "6ce80f35d98cb8a5c42fcaa3ceabbaee53129872d386fd57b9a80d928e21daaf",
    ((1, 2, 2), 5): "5956623cfe943f90f5ce3fb01b5441548262112fb44dd40aa8ec8de0c503dd18",
}


@pytest.mark.parametrize("lengths,n", sorted(CSV_SHA256), ids=["223-3", "312-2", "122-5"])
def test_classification_csv_pinned(lengths, n):
    buf = io.StringIO()
    rows = write_classification_csv(lengths, n, buf)
    assert rows == n ** sum(lengths)
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == CSV_SHA256[lengths, n]


def _length_orders(profile):
    return sorted(set(itertools.permutations(profile)))


def test_classification_csv_rows_span_several_chunks():
    """(2,3,3) over 3 letters has 6561 codes, more than one chunk of rows;
    each row is its code's text and classify's verdict.  So it is in every
    order of profiles with repeated lengths, where most rows are read back
    from an earlier code's orbit under word reordering and letter reversal."""
    assert 6561 > enumeration._CSV_CHUNK
    cases = [((2, 3, 3), 3)] + [
        (lengths, n)
        for profile, n in [
            ((2, 2, 3, 3), 2),
            ((2, 2, 3), 3),
            ((1, 2, 2), 4),
            ((1, 1, 2), 5),
            ((1, 1, 1, 2), 3),
        ]
        for lengths in _length_orders(profile)
    ]
    for lengths, n in cases:
        buf = io.StringIO()
        rows = write_classification_csv(lengths, n, buf)
        lines = buf.getvalue().splitlines()
        assert rows == len(lines) - 1 == n ** sum(lengths), lengths
        assert lines[0] == "code,injective,prefix,ud,finite_delay,delay"
        expected = []
        for c in enumerate_codes(lengths, n):
            verdict = classify(c)
            flags = (verdict.injective, verdict.prefix, verdict.ud, verdict.finite_delay)
            delay = "" if verdict.delay is None else str(verdict.delay)
            expected.append(";".join(c.texts()) + "," + ",".join(map(str, flags)).lower() + "," + delay)
        assert lines[1:] == expected, (lengths, n)


@pytest.mark.parametrize(
    "profile,n,calls",
    [
        ((3, 3, 4, 5), 2, 7168),
        ((2, 2, 3, 3, 4), 2, 1344),
        ((2, 3, 3), 3, 1586),
        ((1, 1, 2), 10, 2250),
        ((1, 1, 1, 2), 3, 5),
        ((2, 2, 2, 3), 2, 16),
        ((1, 1, 1, 1), 4, 1),
    ],
    ids=["3345-2", "22334-2", "233-3", "112-10", "1112-3", "2223-2", "1111-4"],
)
def test_classification_csv_kernel_calls(monkeypatch, profile, n, calls):
    """One kernel call per orbit of word reordering and letter reversal
    among the codes without a repeated word, in every order of the lengths;
    without the fold there was one per code (32,768, 16,384, 6,561 and
    10,000 calls on the first four).  Each count equals the number of
    orbits found by a brute force that keys every such code by the least of
    it and its reversal with each group of equal-length words sorted."""
    assert _injective_orbits(profile, n) == calls
    kernel = enumeration._classes

    for lengths in _length_orders(profile):
        seen = []

        def counted(words, width):
            seen.append(words)
            return kernel(words, width)

        monkeypatch.setattr(enumeration, "_classes", counted)
        write_classification_csv(lengths, n, io.StringIO())
        assert len(seen) == calls, lengths


def _injective_orbits(profile, n):
    """The number of orbits of the codes without a repeated word under
    reordering equal-length words and the letter reversal a -> n-1-a."""
    lengths = sorted(set(profile))

    def sorted_groups(words):
        return tuple(tuple(sorted(w for w in words if len(w) == v)) for v in lengths)

    keys = set()
    for c in enumerate_codes(profile, n):
        words = [w.symbols for w in c.words]
        if len(set(words)) == len(words):
            reversed_words = [tuple(n - 1 - a for a in w) for w in words]
            keys.add(min(sorted_groups(words), sorted_groups(reversed_words)))
    return len(keys)


def test_classification_csv_refuses_before_writing():
    buf = io.StringIO()
    with pytest.raises(UniverseTooLarge):
        write_classification_csv((2, 3, 3), 2, buf, cap=10)
    assert buf.getvalue() == ""


def test_classification_csv_refuses_alphabet_without_text_form():
    buf = io.StringIO()
    with pytest.raises(CodesError, match="alphabet of size 40 exceeds the 36-letter text form"):
        write_classification_csv((1, 1), 40, buf)
    assert buf.getvalue() == ""


small_codes = st.lists(
    st.lists(st.integers(0, 1), min_size=1, max_size=3).map(tuple).map(Word),
    min_size=1,
    max_size=3,
    unique=True,
).map(lambda ws: Code.from_texts([w.text() for w in ws], 2))


@settings(max_examples=200, deadline=None)
@given(small_codes)
def test_probe_agrees_with_exact_delay(c):
    probed = bounded_delay_probe(c, 12)
    assume(probed.verdict != "unknown")
    report = delay_analysis(c)
    if probed.verdict == "finite":
        assert report.finite
        assert report.delay == probed.delay
    else:
        assert not report.finite


@settings(max_examples=200, deadline=None)
@given(small_codes, st.integers(1, 12))
def test_probe_matches_per_word_reference_on_random_codes(c, t_max):
    _assert_probe_matches_reference(c, t_max, count_states=True)


@settings(max_examples=200, deadline=None)
@given(small_codes)
def test_probe_verdict_stable_as_bound_grows(c):
    low = bounded_delay_probe(c, 3)
    high = bounded_delay_probe(c, 9)
    if low.verdict != "unknown":
        assert high.verdict == low.verdict
        assert high.delay == low.delay


@settings(max_examples=150, deadline=None)
@given(small_codes)
def test_classify_is_consistent(c):
    result = classify(c)
    assert result.ud == sardinas_patterson(c).unique
    assert result.prefix == is_prefix_code(c)
    if result.injective:
        report = delay_analysis(c)
        assert (result.finite_delay, result.delay) == (report.finite, report.delay)
    if result.prefix:
        assert result.finite_delay
    if result.finite_delay:
        assert result.ud
        assert result.delay is not None
    else:
        assert result.delay is None


def _reference_classification(c):
    injective = len(set(c.words)) == len(c.words)
    report = delay_analysis(c) if injective else None
    return Classification(
        injective=injective,
        prefix=is_prefix_code(c),
        ud=sardinas_patterson(c).unique,
        finite_delay=report is not None and report.finite,
        delay=None if report is None else report.delay,
    )


@pytest.mark.parametrize("n", (2, 3))
def test_classify_matches_reference_deciders_suitewide(n):
    """Every field of classify against the prefix test, Sardinas-Patterson
    and the delay analysis, on every code of every suite profile."""
    checked = 0
    for profile in BUILTIN_SUITE:
        for c in enumerate_codes(profile, n):
            assert classify(c) == _reference_classification(c), c.texts()
            checked += 1
    assert checked == sum(universe_size(p, n) for p in BUILTIN_SUITE)
