import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from udcodes._graph import cyclic_nodes
from udcodes.decide import (
    _explore,
    ambiguity_graph,
    delay_analysis,
    factorize,
    is_prefix_code,
    sardinas_patterson,
)
from udcodes.enumeration import enumerate_codes, safe_bound, two_factorization_search
from udcodes.words import Code, CodesError, Word, parse_word


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


def test_explore_stops_at_the_first_catch_up():
    # 0|10 and 01|0 both spell 010: the walk ends on reaching the catch-up
    words = tuple(w.symbols for w in code("0", "01", "10").words)
    initials, adj, catch, _post, _cyclic = _explore(words, stop_at_catch_up=True)
    assert [state for state, _pair in initials] == [((1,), 1)]
    assert list(adj) == [((1,), 1), ((0,), 0)]
    assert [state for state, plays in catch.items() if plays] == [((0,), 0)]


@pytest.mark.parametrize("lengths", [(1, 2, 3), (2, 2, 3), (2, 3, 3), (1, 3, 4)])
def test_explore_depth_first_against_graph_helpers(lengths):
    """The walk's back edges and post-order against the linear SCC pass, and
    the early stop against the full walk, on every injective binary code."""
    for c in enumerate_codes(lengths, 2):
        words = tuple(w.symbols for w in c.words)
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
