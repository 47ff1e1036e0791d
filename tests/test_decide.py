import itertools
import time
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from udcodes._graph import cyclic_nodes
from udcodes.decide import (
    _explore,
    _pack,
    _packed,
    _packed_pool,
    _unpack,
    ambiguity_graph,
    classify,
    delay_analysis,
    factorize,
    is_prefix_code,
    sardinas_patterson,
)
from udcodes.enumeration import (
    bounded_delay_probe,
    enumerate_codes,
    safe_bound,
    two_factorization_search,
)
from udcodes.words import Alphabet, Code, CodesError, Word, parse_word


def code(*texts, n=2):
    return Code.from_texts(list(texts), n)


def rounds_of(trace):
    return [frozenset(w.text() for w in r) for r in trace.rounds]


def test_is_prefix_code():
    assert is_prefix_code(code("01", "001", "000"))
    assert not is_prefix_code(code("10", "100", "000"))
    assert is_prefix_code(code("10"))
    assert not is_prefix_code(code("0", "0"))


def test_sp_terminates_empty_set():
    trace = sardinas_patterson(code("01", "010", "201", n=3))
    assert rounds_of(trace) == [{"01", "010", "201"}, {"0"}, {"1", "10"}, set()]
    assert trace.unique
    assert trace.verdict == "unique"
    assert trace.termination == "empty-set"
    assert trace.violation is None


def test_sp_terminates_on_repeated_round():
    trace = sardinas_patterson(code("10", "100", "000"))
    assert rounds_of(trace) == [{"10", "100", "000"}, {"0"}, {"00"}, {"0"}]
    assert trace.unique
    assert trace.termination == "cycle"
    assert trace.repeated_index == 1


def test_sp_violation():
    trace = sardinas_patterson(code("0", "01", "10"))
    assert not trace.unique
    assert trace.verdict == "not-unique"
    assert trace.violation == (2, Word((0,)))


def test_sp_runs_to_termination_after_violation():
    """The trace keeps recording rounds past the first collision."""
    trace = sardinas_patterson(code("00", "000", "001"))
    assert not trace.unique
    assert trace.violation == (2, Word((0, 0)))
    assert trace.termination in ("empty-set", "cycle")
    assert len(trace.rounds) >= 3


def test_sp_rejects_duplicates():
    trace = sardinas_patterson(code("0", "0"))
    assert not trace.unique
    assert trace.collision == (0, 1)


def test_sp_rounds_are_proper_suffixes():
    for c in (code("10", "100", "000"), code("0", "01", "10"), code("11", "00", "110")):
        suffixes = {w[k:] for w in c.words for k in range(1, len(w))}
        for round_ in sardinas_patterson(c).rounds[1:]:
            assert round_ <= suffixes


def test_factorize():
    c = code("10", "100", "000")
    u = parse_word("10000000", c.alphabet)
    assert factorize(c, u) == (0, 2, 2)
    assert factorize(c, Word(())) == ()
    assert factorize(c, Word((1,))) is None


def test_factorize_refuses_non_ud():
    with pytest.raises(CodesError):
        factorize(code("0", "01", "10"), Word((0,)))


def texts_of(state):
    return state.dangling.text(), state.leader


def test_ambiguity_graph_cycle():
    g = ambiguity_graph(code("10", "100", "000"))
    assert not g.is_empty
    danglings = {s.dangling.text() for s, _pair in g.initials}
    assert danglings == {"0"}
    reachable = {s.dangling.text() for s, _w, _t in g.transitions}
    assert "00" in reachable
    assert [texts_of(s) for s in g.states] == [("0", 1), ("00", 0)]
    assert len(g.transitions) == 2
    assert g.catch_ups == ()


def test_ambiguity_graph_catch_up():
    # 0|10 and 01|0 both spell 010: the trailing side catches up with "0"
    g = ambiguity_graph(code("0", "01", "10"))
    assert [(texts_of(s), pair) for s, pair in g.initials] == [(("1", 1), (0, 1))]
    assert [(texts_of(s), idx, texts_of(t)) for s, idx, t in g.transitions] == [
        (("0", 0), 1, ("1", 1)),
        (("1", 1), 2, ("0", 0)),
    ]
    assert [(texts_of(s), idx) for s, idx in g.catch_ups] == [(("0", 0), 0)]


def test_ambiguity_graph_empty_without_prefix_pair():
    g = ambiguity_graph(code("0", "10", "11"))
    assert g.is_empty
    assert g.initials == ()
    assert g.transitions == g.catch_ups == ()


def test_ambiguity_graph_rejects_duplicates():
    with pytest.raises(CodesError):
        ambiguity_graph(code("0", "0"))


@pytest.mark.parametrize(
    "words,expected",
    [
        (("0", "10", "11"), 2),
        (("10",), 0),
        (("01", "001", "000"), 3),
        (("0", "1"), 1),
        (("11", "1101", "010"), 7),
    ],
)
def test_exact_delay(words, expected):
    report = delay_analysis(code(*words))
    assert report.finite
    assert report.delay == expected
    assert report.witness is None


def test_infinite_delay_witness_stream():
    report = delay_analysis(code("10", "100", "000"))
    assert not report.finite
    assert report.delay is None
    w = report.witness
    assert (w.preamble.text(), w.period.text()) == ("1", "0")
    assert w.rendered() == "1(0)^inf"
    assert tuple(x.text() for x in w.first_words) == ("10", "100")


def test_infinite_delay_two_values_witness():
    report = delay_analysis(code("11", "00", "110"))
    assert not report.finite
    assert report.witness is not None


def test_non_ud_code_has_infinite_delay():
    report = delay_analysis(code("0", "01", "10"))
    assert not report.finite


def test_has_finite_delay():
    assert delay_analysis(code("01", "001", "000")).finite
    assert not delay_analysis(code("10", "100", "000")).finite
    assert not delay_analysis(code("11", "00", "110")).finite


def test_reversal_preserves_ud():
    for words in (("10", "100", "000"), ("0", "01", "10"), ("01", "010", "11")):
        c = code(*words)
        assert sardinas_patterson(c).unique == sardinas_patterson(c.reverse()).unique


small_codes = st.lists(
    st.lists(st.integers(0, 1), min_size=1, max_size=4).map(tuple).map(Word),
    min_size=1,
    max_size=3,
).map(lambda ws: Code.from_texts([w.text() for w in ws], 2))


@settings(max_examples=300, deadline=None)
@given(small_codes)
def test_inclusion_chain(c):
    """prefix implies finite delay implies uniquely decodable."""
    trace = sardinas_patterson(c)
    if is_prefix_code(c):
        assert delay_analysis(c).finite
    if len(set(c.words)) == len(c.words) and delay_analysis(c).finite:
        assert trace.unique


@settings(max_examples=300, deadline=None)
@given(small_codes)
def test_sp_agrees_with_search(c):
    found = two_factorization_search(c, safe_bound(c))
    assert sardinas_patterson(c).unique == (found is None)


@settings(max_examples=300, deadline=None)
@given(small_codes)
def test_sp_reversal_symmetry(c):
    assert sardinas_patterson(c).unique == sardinas_patterson(c.reverse()).unique


def decoded(state, width=1):
    """A packed state as (dangling suffix letters, leader)."""
    return _unpack(state >> 1, width), state & 1


def test_explore_stops_at_the_first_catch_up():
    # 0|10 and 01|0 both spell 010: the walk ends on reaching the catch-up
    _, words, width = _packed(code("0", "01", "10"))
    initials, adj, catch, _post, _cyclic = _explore(words, stop_at_catch_up=True)
    assert [decoded(state) for state, _pair in initials] == [((1,), 1)]
    assert list(map(decoded, adj)) == [((1,), 1), ((0,), 0)]
    assert [decoded(state) for state, plays in catch.items() if plays] == [((0,), 0)]


@pytest.mark.parametrize("lengths", [(1, 2, 3), (2, 2, 3), (2, 3, 3), (1, 3, 4)])
def test_explore_depth_first_against_graph_helpers(lengths):
    """The walk's back edges and post-order against the linear SCC pass, and
    the early stop against the full walk, on every injective binary code."""
    for c in enumerate_codes(lengths, 2):
        _, words, _ = _packed(c)
        if len(set(words)) < len(words):
            continue
        initials, adj, catch, post, cyclic = _explore(words)
        successors = {state: [nxt for _, nxt in moves] for state, moves in adj.items()}
        assert cyclic == bool(cyclic_nodes(successors))
        assert sorted(post) == sorted(adj)
        if not cyclic:
            rank = {state: i for i, state in enumerate(reversed(post))}
            assert all(rank[s] < rank[t] for s, ts in successors.items() for t in ts)
        ud = not any(catch.values())
        stopped = _explore(words, stop_at_catch_up=True)
        assert (not any(stopped[2].values())) == ud
        if ud:
            assert stopped == (initials, adj, catch, post, cyclic)


# Packed words: n = 3 and n = 5 take 2 and 3 bits per letter, so some bit
# patterns are not letters; n = 36 takes 6, and a word of 11 letters packs
# past 64 bits.


def assert_matches_oracles(c):
    """classify against the reference prefix test, the two-factorization
    search (UD) and the delay probe (finite, delay), none of which packs."""
    result = classify(c)
    bound = safe_bound(c)
    probe = bounded_delay_probe(c, bound)
    assert result.prefix == is_prefix_code(c)
    assert result.ud == (two_factorization_search(c, bound) is None)
    assert result.finite_delay == (probe.verdict == "finite")
    assert result.delay == probe.delay
    report = delay_analysis(c) if result.injective else None
    if report is not None:
        assert (report.finite, report.delay) == (result.finite_delay, result.delay)
        assert (report.witness is None) == report.finite


@pytest.mark.parametrize(
    "lengths,n",
    [((1, 2, 2), 3), ((2, 2, 3), 3), ((1, 2, 3), 3), ((1, 1, 2), 5), ((1, 2, 2), 5), ((1, 3), 5)],
)
def test_classify_matches_oracles_on_wider_alphabets(lengths, n):
    for c in enumerate_codes(lengths, n):
        if len(set(c.words)) == len(c.words):
            assert_matches_oracles(c)


@st.composite
def wide_codes(draw):
    """Codes over up to 36 letters whose words use few of them, so that the
    words overlap, and up to 14 letters long."""
    n = draw(st.integers(2, 36))
    letters = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3, unique=True))
    words = draw(
        st.lists(
            st.lists(st.sampled_from(letters), min_size=1, max_size=14).map(tuple),
            min_size=1,
            max_size=3,
            unique=True,
        )
    )
    return Code(Alphabet(n), tuple(map(Word, words)))


@settings(max_examples=80, deadline=None)
@given(wide_codes())
@example(Code.from_texts(["zyzyzyzyzyzy", "zyzyzyzyzyzyz", "z" * 11 + "y", "yz"], 36))
@example(Code.from_texts(["wx" * 7, "wxw", "xwx" * 4, "x"], 36))
@example(Code.from_texts(["4" * 12 + "3", "44", "3" + "4" * 11], 5))
@example(Code.from_texts(["z" + "y" * 10, "z" + "y" * 11, "y" * 12], 36))
def test_classify_matches_oracles_on_long_packed_words(c):
    assert_matches_oracles(c)


@st.composite
def letter_sequences(draw):
    n = draw(st.integers(2, 1000))
    return n, draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=40))


@settings(max_examples=100, deadline=None)
@given(letter_sequences())
def test_pack_round_trip(case):
    n, letters = case
    width = (n - 1).bit_length()
    packed = _pack(tuple(letters), width)
    assert packed.bit_length() == 1 + width * len(letters)
    assert _unpack(packed, width) == tuple(letters)


@pytest.mark.parametrize("n", [2, 3, 5, 36])
def test_packed_pool_is_the_lexicographic_pool_packed(n):
    width = (n - 1).bit_length()
    for length in range(3):
        words = itertools.product(range(n), repeat=length)
        assert _packed_pool(length, n) == [_pack(w, width) for w in words]


def test_pack_is_linear_in_the_word_length():
    # shifting a million letters in one at a time takes minutes
    word = tuple(i % 3 for i in range(10**6))
    start = time.perf_counter()
    assert _unpack(_pack(word, 2), 2) == word
    assert time.perf_counter() - start < 10


def test_long_word_memory():
    """A dangling suffix is one int: classify on (0^L 1, 0, 1) at L = 3000
    peaks near 2 MB, where one tuple per suffix took about 36 MB."""
    c = Code.from_texts(["0" * 3000 + "1", "0", "1"], 2)
    tracemalloc.start()
    try:
        assert not classify(c).ud
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
