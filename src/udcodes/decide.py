"""Decision procedures on a single code.

Covers the prefix-code test, the Sardinas-Patterson unique-decodability
test with a full round trace, factorization of a word into code words,
deciphering-delay analysis built on an ambiguity graph of dangling suffixes,
and ``classify``, which reads injectivity, the prefix property, unique
decodability and the delay off one exploration of that graph.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, NamedTuple, Optional

from ._graph import cyclic_nodes
from .words import Code, CodesError, Word

RawWord = tuple[int, ...]


def _raw(code: Code) -> tuple[RawWord, ...]:
    return tuple(w.symbols for w in code.words)


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


class SPTrace(NamedTuple):
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
    # a uniquely decodable code parses each prefix of u in at most one way,
    # so the first word that ends a parsed prefix is its only last word;
    # parsed maps each parsed end to (start, word index)
    parsed: dict[int, Optional[tuple[int, int]]] = {0: None}
    for end in range(1, length + 1):
        for idx, w in enumerate(words):
            start = end - len(w)
            if start in parsed and target[start:end] == w:
                parsed[end] = (start, idx)
                break
    if length not in parsed:
        return None
    result = []
    end = length
    while end > 0:
        end, idx = parsed[end]
        result.append(idx)
    return tuple(reversed(result))


# ---------------------------------------------------------------------------
# Ambiguity graph and deciphering delay


class AmbState(NamedTuple):
    """A dangling suffix plus which side of the two factorizations is ahead.

    ``leader`` is 1 while the side that played the longer initial word is
    still ahead; it flips every time the trailing side overshoots.
    """

    dangling: Word
    leader: int


class AmbiguityGraph(NamedTuple):
    """Reachable dangling-suffix configurations of two competing parses."""

    states: tuple[AmbState, ...]
    initials: tuple[tuple[AmbState, tuple[int, int]], ...]
    transitions: tuple[tuple[AmbState, int, AmbState], ...]
    catch_ups: tuple[tuple[AmbState, int], ...]

    @property
    def is_empty(self) -> bool:
        return not self.states


class InfiniteWitness(NamedTuple):
    """Eventually periodic word preamble.period^inf with two factorizations
    whose first code words differ.  Preamble and period are normalized: the
    period is primitive and the preamble is as short as possible."""

    preamble: Word
    period: Word
    first_words: tuple[Word, Word]

    def rendered(self) -> str:
        return f"{self.preamble.text()}({self.period.text()})^inf"


class DelayReport(NamedTuple):
    finite: bool
    delay: Optional[int]
    witness: Optional[InfiniteWitness]


# The ambiguity graph is explored on packed words: a word of k letters is the
# int with a leading 1 bit and then `width` bits per letter, first letter
# highest, so that bits(w) = w.bit_length() - 1 = k * width.  Then u starts v
# iff v >> (bits(v) - bits(u)) == u, and the rest of v is the packed word
# v - ((u - 1) << (bits(v) - bits(u))).  A state is one int too: its dangling
# suffix << 1 | its leader.


def _letter_width(n: int) -> int:
    """Bits per letter of a packed word over an alphabet of n letters."""
    return (n - 1).bit_length()


def _pack(word: RawWord, width: int) -> int:
    """The packed form of a word, read from one binary string: linear in the
    word's length, where shifting the letters in one at a time is quadratic."""
    spec = f"0{width}b"
    return int("1" + "".join([format(a, spec) for a in word]), 2)


def _packed_pool(length: int, n: int) -> list[int]:
    """Every word of the given length over n letters, packed, in
    lexicographic order: each word one letter shorter, extended by every
    letter in turn."""
    width = _letter_width(n)
    pool = [1]
    for _ in range(length):
        pool = [word << width | a for word in pool for a in range(n)]
    return pool


def _unpack(packed: int, width: int) -> RawWord:
    bits = bin(packed)[3:]
    return tuple(int(bits[k : k + width], 2) for k in range(0, len(bits), width))


def _packed(code: Code) -> tuple[tuple[RawWord, ...], tuple[int, ...], int]:
    """The code's raw words, the same words packed, and the letter width."""
    width = _letter_width(code.alphabet.size)
    raw = _raw(code)
    return raw, tuple([_pack(w, width) for w in raw]), width


def _require_distinct(words: tuple[RawWord, ...]) -> None:
    if len(set(words)) != len(words):
        raise CodesError("the ambiguity graph needs pairwise distinct code words")


def _explore(words: tuple[int, ...], stop_at_catch_up: bool = False):
    """Depth-first walk of the ambiguity graph of distinct packed words from
    every initial configuration.

    Returns (initials, adj, catch, post, cyclic): the initial configurations
    with the (shorter, longer) word pair of each, the moves (word index,
    next state) and catch-up plays (word indices) of every visited state, the
    visited states in post-order (reversed, a topological order when the
    graph is acyclic), and whether some edge closes a cycle (a back edge).
    The trailing side plays a word against the dangling suffix: a longer word
    that starts with it overshoots, and its rest dangles with the lead
    changing sides; a shorter word that starts it leaves the rest of the
    suffix; an equal word is a catch-up.  With ``stop_at_catch_up`` the walk
    ends at the first state offering a catch-up: the code is then not
    uniquely decodable, and ``post`` and ``cyclic`` describe only the part
    walked so far.
    """
    sized = [(idx, w, w.bit_length() - 1) for idx, w in enumerate(words)]
    initials = [
        ((v - ((u - 1) << (bv - bu))) << 1 | 1, (i, j))
        for i, u, bu in sized
        for j, v, bv in sized
        if bu < bv and v >> (bv - bu) == u
    ]
    adj: dict[int, list[tuple[int, int]]] = {}
    catch: dict[int, list[int]] = {}
    post: list[int] = []
    cyclic = False
    on_path: set[int] = set()
    for root, _ in initials:
        if root in adj:
            continue
        state: Optional[int] = root
        stack = []
        while state is not None or stack:
            if state is not None:
                dangling = state >> 1
                bits = dangling.bit_length() - 1
                flipped = (state & 1) ^ 1
                moves: list[tuple[int, int]] = []
                catches: list[int] = []
                for idx, w, bw in sized:
                    if bw > bits:
                        if w >> (bw - bits) == dangling:
                            rest = w - ((dangling - 1) << (bw - bits))
                            moves.append((idx, rest << 1 | flipped))
                    elif bw < bits:
                        if dangling >> (bits - bw) == w:
                            moves.append((idx, state - ((w - 1) << (bits - bw + 1))))
                    elif w == dangling:
                        catches.append(idx)
                adj[state] = moves
                catch[state] = catches
                if catches and stop_at_catch_up:
                    return initials, adj, catch, post, cyclic
                on_path.add(state)
                stack.append((state, iter(moves)))
            top, successors = stack[-1]
            state = None
            for _, nxt in successors:
                if nxt not in adj:
                    state = nxt
                    break
                if nxt in on_path:
                    cyclic = True
            else:
                stack.pop()
                on_path.discard(top)
                post.append(top)
    return initials, adj, catch, post, cyclic


def ambiguity_graph(code: Code) -> AmbiguityGraph:
    """Materialize the reachable parse-ambiguity configurations."""
    raw, words, width = _packed(code)
    _require_distinct(raw)
    initials, adj, catch, _, _ = _explore(words)

    def wrap(state: int) -> AmbState:
        return AmbState(Word(_unpack(state >> 1, width)), state & 1)

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


def _most_agreed(u: int, bu: int, others: list[tuple[int, int]]) -> int:
    """The most leading bits on which packed word u (of bu bits) agrees with
    one of `others`, (word, bits) pairs, that neither starts u nor is
    started by it; -1 when there is none.  Aligned on the shorter length,
    two such words agree above the highest bit of their XOR."""
    best = -1
    for w, bw in others:
        if bw <= bu:
            x = w ^ (u >> (bu - bw))
            agreed = bw - x.bit_length()
        else:
            x = u ^ (w >> (bw - bu))
            agreed = bu - x.bit_length()
        if x and agreed > best:
            best = agreed
    return best


def _finite_delay(
    words: tuple[int, ...],
    initials: list[tuple[int, tuple[int, int]]],
    adj: dict[int, list[tuple[int, int]]],
    order: Iterable[int],
    width: int,
) -> int:
    """Deciphering delay of a code of packed words whose ambiguity graph has
    no catch-up and no cycle (`order` lists its states, each before its
    successors): 1 + the longest common prefix of two factorizable words
    whose first code words differ.  Three sources compete:
      (a) two code words that diverge immediately,
      (b) the trailing side stopping at a reachable configuration,
      (c) a divergent continuation played against a dangling suffix.
    Lengths are counted in bits, `width` to a letter; a common prefix counts
    only whole letters, so the bits are floored to letters once, at the end.
    """
    sized = [(w, w.bit_length() - 1) for w in words]
    best = -1
    for i, (u, bu) in enumerate(sized):
        best = max(best, _most_agreed(u, bu, sized[i + 1 :]))
    # longest-path bits consumed by the trailing side on arrival at each
    # configuration
    consumed: dict[int, int] = {}
    for state, (i, _) in initials:
        consumed[state] = max(consumed.get(state, -1), sized[i][1])
    for state in order:
        bits = state.bit_length() - 2
        for idx, nxt in adj[state]:
            # overshoot hands the lead over: the new trailing side is the old
            # leader, which had consumed the dangling suffix past our total
            candidate = consumed[state] + min(bits, sized[idx][1])
            if candidate > consumed.get(nxt, -1):
                consumed[nxt] = candidate
    for state, t_bits in consumed.items():
        agreed = _most_agreed(state >> 1, state.bit_length() - 2, sized)
        best = max(best, t_bits, t_bits + agreed)
    return best // width + 1


def _witness(words, pair, preamble, period):
    """preamble.period^inf, normalized, with the first words of `pair`."""
    pre, per = _normalize_periodic(preamble, period)
    i, j = pair
    return InfiniteWitness(Word(pre), Word(per), (Word(words[i]), Word(words[j])))


def _finish_cycle(words, entry, stream, pair, adj, on_cycle, width):
    added: list[int] = []
    seen_at = {entry: 0}
    pos = entry
    while True:
        idx, nxt = min(
            (idx, nxt) for idx, nxt in adj[pos] if nxt in on_cycle
        )
        if (nxt ^ pos) & 1:  # an overshoot: its dangling rest joins the stream
            added.extend(_unpack(nxt >> 1, width))
        if nxt in seen_at:
            cut = seen_at[nxt]
            return _witness(words, pair, stream + tuple(added[:cut]), tuple(added[cut:]))
        seen_at[nxt] = len(added)
        pos = nxt


def _assemble_witness(words, initials, adj, catch, on_cycle, width):
    """Deterministic witness: initial states in pair order, transitions in
    word order, breadth first, so the nearest catch-up or cycle entry wins.
    At a state offering both, the catch-up (a concrete finite double
    factorization) is preferred.  `words` are the raw words; the states are
    packed, and decoded only where an overshoot adds letters to the stream."""
    info: dict[int, tuple] = {}
    order = []
    for state, (i, j) in sorted(initials, key=lambda t: t[1]):
        if state not in info:
            # leader stream letters, first pair
            info[state] = (words[j], (i, j))
            order.append(state)
    queue = deque(order)
    while queue:
        state = queue.popleft()
        stream, pair = info[state]
        if catch[state]:
            return _witness(words, pair, stream, min(words))
        if state in on_cycle:
            return _finish_cycle(words, state, stream, pair, adj, on_cycle, width)
        for _, nxt in sorted(adj[state]):
            if nxt in info:
                continue
            if (nxt ^ state) & 1:
                info[nxt] = (stream + _unpack(nxt >> 1, width), pair)
            else:
                info[nxt] = (stream, pair)
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
    raw, words, width = _packed(code)
    _require_distinct(raw)
    initials, adj, catch, post, cyclic = _explore(words)
    if cyclic or any(catch.values()):
        successors = {state: [nxt for _, nxt in moves] for state, moves in adj.items()}
        witness = _assemble_witness(raw, initials, adj, catch, cyclic_nodes(successors), width)
        return DelayReport(finite=False, delay=None, witness=witness)
    delay = _finite_delay(words, initials, adj, reversed(post), width)
    return DelayReport(finite=True, delay=delay, witness=None)


# ---------------------------------------------------------------------------
# Classification


class Classification(NamedTuple):
    injective: bool
    prefix: bool
    ud: bool
    finite_delay: bool
    delay: Optional[int]


# (injective, prefix, ud, finite_delay, delay) of a code with a repeated word
_IN_NO_CLASS = (False, False, False, False, None)


def classify(code: Code) -> Classification:
    """Every class of the code from one exploration of its ambiguity graph.

    A code with a repeated word is in none of the classes.  Otherwise it is
    prefix iff no word starts another (no initial configuration), uniquely
    decodable iff no configuration is a catch-up, and of finite delay iff it
    is uniquely decodable and the graph has no cycle.
    """
    _, words, width = _packed(code)
    if len(set(words)) != len(words):
        return Classification(*_IN_NO_CLASS)
    return Classification(True, *_classes(words, width))


def _classes(
    words: tuple[int, ...], delay_width: Optional[int]
) -> tuple[bool, bool, bool, Optional[int]]:
    """(prefix, ud, finite_delay, delay) of pairwise distinct packed words,
    read off one depth-first exploration that stops at the first catch-up
    (such a code is neither UD nor of finite delay): prefix iff no initial
    configuration, UD iff no catch-up, finite delay iff also no back edge.
    The delay is asked for by giving the letter width it is counted in,
    `delay_width`; it is None unless asked for and finite."""
    initials, adj, catch, post, cyclic = _explore(words, stop_at_catch_up=True)
    ud = not any(catch.values())
    finite = ud and not cyclic
    delay = None
    if delay_width is not None and finite:
        delay = _finite_delay(words, initials, adj, reversed(post), delay_width)
    return not initials, ud, finite, delay
