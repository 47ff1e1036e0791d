"""Decision procedures on a single code.

Covers the prefix-code test, the Sardinas-Patterson unique-decodability
test with a full round trace, factorization of a word into code words,
deciphering-delay analysis built on an ambiguity graph of dangling suffixes,
and ``classify``, which reads injectivity, the prefix property, unique
decodability and the delay off one exploration of that graph.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional

from ._graph import cyclic_nodes, topological_order
from .words import Code, CodesError, Word

RawWord = tuple[int, ...]


def _raw(code: Code) -> tuple[RawWord, ...]:
    return tuple(w.symbols for w in code.words)


def _lcp(u: RawWord, v: RawWord) -> int:
    k = 0
    for a, b in zip(u, v):
        if a != b:
            break
        k += 1
    return k


def is_prefix_code(code: Code) -> bool:
    """True iff no word is an initial segment of the word at another position.

    Repeated words fail the test (a word prefixes its duplicate), so a prefix
    code is automatically injective.
    """
    words = _raw(code)
    for i, u in enumerate(words):
        for j, v in enumerate(words):
            if i != j and v[: len(u)] == u:
                return False
    return True


# ---------------------------------------------------------------------------
# Sardinas-Patterson


@dataclass(frozen=True)
class SPTrace:
    """Full run of the Sardinas-Patterson test.

    ``rounds[0]`` is the set of code words; ``rounds[i]`` for i >= 1 holds the
    dangling suffixes after i steps.  The run always continues to its natural
    end (an empty round or a repeat of an earlier round) even when a violation
    is found earlier, so the whole evolution is recorded.
    """

    rounds: tuple[frozenset[Word], ...]
    unique: bool
    violation: Optional[tuple[int, Word]]
    termination: str  # "empty-set" or "cycle"
    repeated_index: Optional[int]
    collision: Optional[tuple[int, int]]  # positions of a repeated code word

    @property
    def verdict(self) -> str:
        return "unique" if self.unique else "not-unique"


def _sp_successors(current: frozenset[RawWord], d0: frozenset[RawWord]) -> frozenset[RawWord]:
    nxt = set()
    for v in current:
        for u in d0:
            if len(u) > len(v) and u[: len(v)] == v:
                nxt.add(u[len(v):])
    for v in d0:
        for u in current:
            if len(u) > len(v) and u[: len(v)] == v:
                nxt.add(u[len(v):])
    return frozenset(nxt)


def sardinas_patterson(code: Code) -> SPTrace:
    """Decide unique decodability, recording every round until termination.

    Termination is by the empty-round or repeated-round criterion only; the
    rounds live inside the finite set of proper suffixes of code words, so a
    repeat is guaranteed and no iteration cap is needed.
    """
    words = _raw(code)
    collision = None
    seen_at: dict[RawWord, int] = {}
    for pos, w in enumerate(words):
        if w in seen_at and collision is None:
            collision = (seen_at[w], pos)
        seen_at.setdefault(w, pos)

    d0 = frozenset(words)
    rounds = [d0]
    seen = {d0: 0}
    violation: Optional[tuple[int, Word]] = None
    termination = "empty-set"
    repeated_index = None
    current = d0
    while True:
        current = _sp_successors(current, d0)
        index = len(rounds)
        rounds.append(current)
        overlap = current & d0
        if violation is None and overlap:
            witness = min(overlap, key=lambda w: (len(w), w))
            violation = (index, Word(witness))
        if not current:
            termination = "empty-set"
            break
        if current in seen:
            termination = "cycle"
            repeated_index = seen[current]
            break
        seen[current] = index

    unique = collision is None and violation is None
    return SPTrace(
        rounds=tuple(frozenset(Word(w) for w in r) for r in rounds),
        unique=unique,
        violation=violation,
        termination=termination,
        repeated_index=repeated_index,
        collision=collision,
    )


def factorize(code: Code, u: Word) -> Optional[tuple[int, ...]]:
    """The unique index sequence whose words concatenate to u, or None.

    Only defined for uniquely decodable codes; anything else is a contract
    violation.  Indices are 0-based positions into the code sequence.
    """
    if not classify(code).ud:
        raise CodesError("factorize needs a uniquely decodable code")
    words = _raw(code)
    target = u.symbols
    length = len(target)
    # count the parses of every prefix; unique decodability forces the
    # count at `length` to be 0 or 1, and the backward walk is then forced
    counts = [0] * (length + 1)
    counts[0] = 1
    preds: list[list[tuple[int, int]]] = [[] for _ in range(length + 1)]
    for end in range(1, length + 1):
        for idx, w in enumerate(words):
            start = end - len(w)
            if start >= 0 and counts[start] and target[start:end] == w:
                counts[end] += counts[start]
                preds[end].append((start, idx))
    if counts[length] == 0:
        return None
    result = []
    end = length
    while end > 0:
        start, idx = next((s, i) for (s, i) in preds[end] if counts[s])
        result.append(idx)
        end = start
    return tuple(reversed(result))


# ---------------------------------------------------------------------------
# Ambiguity graph and deciphering delay


@dataclass(frozen=True, order=True)
class AmbState:
    """A dangling suffix plus which side of the two factorizations is ahead.

    ``leader`` is 1 while the side that played the longer initial word is
    still ahead; it flips every time the trailing side overshoots.
    """

    dangling: Word
    leader: int


@dataclass(frozen=True)
class AmbiguityGraph:
    """Reachable dangling-suffix configurations of two competing parses."""

    states: tuple[AmbState, ...]
    initials: tuple[tuple[AmbState, tuple[int, int]], ...]
    transitions: tuple[tuple[AmbState, int, AmbState], ...]
    catch_ups: tuple[tuple[AmbState, int], ...]

    @property
    def is_empty(self) -> bool:
        return not self.states


@dataclass(frozen=True)
class InfiniteWitness:
    """Eventually periodic word preamble.period^inf with two factorizations
    whose first code words differ.  Preamble and period are normalized: the
    period is primitive and the preamble is as short as possible."""

    preamble: Word
    period: Word
    first_words: tuple[Word, Word]

    def rendered(self) -> str:
        return f"{self.preamble.text()}({self.period.text()})^inf"


@dataclass(frozen=True)
class DelayReport:
    finite: bool
    delay: Optional[int]
    witness: Optional[InfiniteWitness]


_RawState = tuple[RawWord, int]


def _require_distinct(words: tuple[RawWord, ...]) -> None:
    if len(set(words)) != len(words):
        raise CodesError("delay analysis needs pairwise distinct code words")


def _initial_configs(words: tuple[RawWord, ...]) -> list[tuple[_RawState, tuple[int, int]]]:
    out = []
    for i, u in enumerate(words):
        for j, v in enumerate(words):
            if i != j and len(u) < len(v) and v[: len(u)] == u:
                out.append(((v[len(u):], 1), (i, j)))
    return out


def _moves(words: tuple[RawWord, ...], state: _RawState):
    """Transitions and catch-up plays available to the trailing side."""
    dangling, leader = state
    moves: list[tuple[int, _RawState]] = []
    catches: list[int] = []
    for idx, w in enumerate(words):
        if w == dangling:
            catches.append(idx)
        elif len(w) > len(dangling) and w[: len(dangling)] == dangling:
            moves.append((idx, (w[len(dangling):], 1 - leader)))
        elif len(w) < len(dangling) and dangling[: len(w)] == w:
            moves.append((idx, (dangling[len(w):], leader)))
    return moves, catches


def _explore(words: tuple[RawWord, ...]):
    initials = _initial_configs(words)
    adj: dict[_RawState, list[tuple[int, _RawState]]] = {}
    catch: dict[_RawState, list[int]] = {}
    queue = deque(state for state, _ in initials)
    seen = set(queue)
    while queue:
        state = queue.popleft()
        if state in adj:
            continue
        moves, catches = _moves(words, state)
        adj[state] = moves
        catch[state] = catches
        for _, nxt in moves:
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return initials, adj, catch


def _successors(adj: dict[_RawState, list[tuple[int, _RawState]]]):
    return {state: [nxt for _, nxt in moves] for state, moves in adj.items()}


def ambiguity_graph(code: Code) -> AmbiguityGraph:
    """Materialize the reachable parse-ambiguity configurations."""
    words = _raw(code)
    _require_distinct(words)
    initials, adj, catch = _explore(words)

    def wrap(state: _RawState) -> AmbState:
        return AmbState(Word(state[0]), state[1])

    states = tuple(sorted(wrap(s) for s in adj))
    initial_out = tuple(sorted(((wrap(s), pair) for s, pair in initials), key=lambda t: t[1]))
    transitions = tuple(
        sorted((wrap(s), idx, wrap(nxt)) for s, moves in adj.items() for idx, nxt in moves)
    )
    catch_ups = tuple(sorted((wrap(s), idx) for s, idxs in catch.items() for idx in idxs))
    return AmbiguityGraph(states, initial_out, transitions, catch_ups)


def _normalize_periodic(preamble: tuple[int, ...], period: tuple[int, ...]):
    """Reduce to the primitive period and pull the boundary back as far as it
    goes, giving one canonical description per eventually periodic word."""
    k = len(period)
    for d in range(1, k + 1):
        if k % d == 0 and period[:d] * (k // d) == period:
            period = period[:d]
            break
    pre = list(preamble)
    per = list(period)
    while pre and pre[-1] == per[-1]:
        pre.pop()
        per.insert(0, per.pop())
    return tuple(pre), tuple(per)


def _finite_delay(
    words: tuple[RawWord, ...],
    initials: list[tuple[_RawState, tuple[int, int]]],
    adj: dict[_RawState, list[tuple[int, _RawState]]],
    order: list[_RawState],
) -> int:
    """Deciphering delay of a code whose ambiguity graph has no catch-up and
    no cycle (topological `order`): 1 + the longest common prefix of two
    factorizable words whose first code words differ.  Three sources compete:
      (a) two code words that diverge immediately,
      (b) the trailing side stopping at a reachable configuration,
      (c) a divergent continuation played against a dangling suffix.
    """
    m = len(words)
    best = -1
    for i in range(m):
        for j in range(i + 1, m):
            u, v = words[i], words[j]
            if u[: len(v)] != v and v[: len(u)] != u:
                best = max(best, _lcp(u, v))
    # longest-path letters consumed by the trailing side on arrival at each
    # configuration
    consumed: dict[_RawState, int] = {}
    for state, (i, _) in initials:
        consumed[state] = max(consumed.get(state, -1), len(words[i]))
    for state in order:
        if state not in consumed:
            continue
        dangling = state[0]
        for idx, nxt in adj[state]:
            w = words[idx]
            # overshoot hands the lead over: the new trailing side is the old
            # leader, which had consumed the dangling suffix past our total
            step = len(dangling) if len(w) > len(dangling) else len(w)
            candidate = consumed[state] + step
            if candidate > consumed.get(nxt, -1):
                consumed[nxt] = candidate
    for state, t_len in consumed.items():
        best = max(best, t_len)
        dangling = state[0]
        for w in words:
            if w != dangling and w[: len(dangling)] != dangling and dangling[: len(w)] != w:
                best = max(best, t_len + _lcp(w, dangling))
    return best + 1


def _finish_catch(words, stream, pair):
    period = min(words)
    pre, per = _normalize_periodic(stream, period)
    i, j = pair
    return InfiniteWitness(Word(pre), Word(per), (Word(words[i]), Word(words[j])))


def _finish_cycle(words, entry, info, adj, on_cycle):
    stream, _t_fact, _l_fact, pair = info
    added: list[int] = []
    seen_at = {entry: 0}
    pos = entry
    while True:
        idx, nxt = min(
            (idx, nxt) for idx, nxt in adj[pos] if nxt in on_cycle
        )
        dangling = pos[0]
        w = words[idx]
        if len(w) > len(dangling):
            added.extend(w[len(dangling):])
        if nxt in seen_at:
            cut = seen_at[nxt]
            pre = stream + tuple(added[:cut])
            per = tuple(added[cut:])
            break
        seen_at[nxt] = len(added)
        pos = nxt
    pre, per = _normalize_periodic(pre, per)
    i, j = pair
    return InfiniteWitness(Word(pre), Word(per), (Word(words[i]), Word(words[j])))


def _assemble_witness(words, initials, adj, catch, on_cycle):
    """Deterministic witness: initial states in pair order, transitions in
    word order, breadth first, so the nearest catch-up or cycle entry wins.
    At a state offering both, the catch-up (a concrete finite double
    factorization) is preferred."""
    info: dict[_RawState, tuple] = {}
    order = []
    for state, (i, j) in sorted(initials, key=lambda t: t[1]):
        if state not in info:
            # leader stream letters, trailing fact, leader fact, first pair
            info[state] = (words[j], (i,), (j,), (i, j))
            order.append(state)
    queue = deque(order)
    while queue:
        state = queue.popleft()
        stream, t_fact, l_fact, pair = info[state]
        if catch[state]:
            return _finish_catch(words, stream, pair)
        if state in on_cycle:
            return _finish_cycle(words, state, info[state], adj, on_cycle)
        for idx, nxt in sorted(adj[state]):
            if nxt in info:
                continue
            dangling = state[0]
            w = words[idx]
            if len(w) > len(dangling):
                info[nxt] = (stream + w[len(dangling):], l_fact, t_fact + (idx,), pair)
            else:
                info[nxt] = (stream, t_fact + (idx,), l_fact, pair)
            queue.append(nxt)
    raise AssertionError("witness requested for a finite-delay code")


def delay_analysis(code: Code) -> DelayReport:
    """Exact deciphering delay, or an eventually periodic counterexample.

    The delay is 1 + the longest common prefix over pairs of factorizable
    words whose first code words differ (no such pair: delay 0).  It is
    infinite exactly when the ambiguity graph has a reachable cycle or
    catch-up state; a catch-up doubles as a finite double factorization,
    i.e. the code is not uniquely decodable.
    """
    words = _raw(code)
    _require_distinct(words)
    initials, adj, catch = _explore(words)
    plain = _successors(adj)
    on_cycle = cyclic_nodes(plain)
    if on_cycle or any(catch.values()):
        witness = _assemble_witness(words, initials, adj, catch, on_cycle)
        return DelayReport(finite=False, delay=None, witness=witness)
    delay = _finite_delay(words, initials, adj, topological_order(plain))
    return DelayReport(finite=True, delay=delay, witness=None)


# ---------------------------------------------------------------------------
# Classification


@dataclass(frozen=True)
class Classification:
    injective: bool
    prefix: bool
    ud: bool
    finite_delay: bool
    delay: Optional[int]


def classify(code: Code) -> Classification:
    """Every class of the code from one exploration of its ambiguity graph.

    A code with a repeated word is in none of the classes.  Otherwise it is
    prefix iff no word starts another (no initial configuration), uniquely
    decodable iff no configuration is a catch-up, and of finite delay iff it
    is uniquely decodable and the graph has no cycle.
    """
    words = _raw(code)
    if len(set(words)) != len(words):
        return Classification(False, False, False, False, None)
    return Classification(True, *_classes(words, with_delay=True))


def _classes(words: tuple[RawWord, ...], with_delay: bool) -> tuple[bool, bool, bool, Optional[int]]:
    """(prefix, ud, finite_delay, delay) of pairwise distinct raw words, read
    off one exploration; the delay is None unless asked for and finite."""
    initials, adj, catch = _explore(words)
    ud = not any(catch.values())
    order = topological_order(_successors(adj)) if ud else None
    finite = order is not None
    delay = _finite_delay(words, initials, adj, order) if with_delay and finite else None
    return not initials, ud, finite, delay
