"""Per-code work at desk scale: enumerate every code with a given length
sequence, write one classification per code, and provide brute-force
deciders (a two-factorization search and a bounded delay probe) that are
independent of the decision module's algorithms.
"""

from __future__ import annotations

import csv
import heapq
import itertools
from dataclasses import dataclass
from typing import IO, Iterator, Optional

from ._graph import cyclic_nodes, topological_order
# census, classify and universe_size are re-exported: callers reach them here.
from .census import DEFAULT_UNIVERSE_CAP, _checked_alphabet, _raw_pool, census, universe_size
from .decide import _classes, classify
from .words import GLYPHS, Code, CodesError, ProfileLike, Word, as_length_sequence

# Length sequences exercised by the verify command; all enumerable at n <= 3.
BUILTIN_SUITE: tuple[tuple[int, ...], ...] = (
    (1, 1),
    (1, 2),
    (2, 2),
    (1, 1, 1),
    (1, 1, 2),
    (1, 2, 2),
    (1, 2, 4),
    (2, 2, 3),
    (2, 2, 4),
    (2, 3, 3),
)


def enumerate_codes(
    profile: ProfileLike, n: int, cap: int = DEFAULT_UNIVERSE_CAP
) -> Iterator[Code]:
    """Every code with the given lengths exactly once, in lexicographic
    order of the concatenated symbol sequence.  Non-injective sequences are
    included; classification filters them.  The cap is checked on the call,
    before any code is produced."""
    lengths = as_length_sequence(profile)
    alphabet = _checked_alphabet(lengths, n, cap)
    pools = [tuple(map(Word, _raw_pool(length, n))) for length in lengths]
    return (Code(alphabet, combo) for combo in itertools.product(*pools))


def write_classification_csv(
    profile: ProfileLike, n: int, out: IO[str], cap: int = DEFAULT_UNIVERSE_CAP
) -> int:
    """Classify every code with the given lengths and write one CSV row per
    code, in the order of enumerate_codes; returns the number of rows.
    Nothing is written unless the alphabet has a text form."""
    lengths = as_length_sequence(profile)
    _checked_alphabet(lengths, n, cap)
    if n > len(GLYPHS):
        raise CodesError(f"alphabet of size {n} exceeds the {len(GLYPHS)}-letter text form")
    pools = [_raw_pool(length, n) for length in lengths]
    texts = {w: "".join(GLYPHS[s] for s in w) for pool in pools for w in pool}
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["code", "injective", "prefix", "ud", "finite_delay", "delay"])
    rows = 0
    for words in itertools.product(*pools):
        injective = len(set(words)) == len(words)
        prefix, ud, finite, delay = (
            _classes(words, with_delay=True) if injective else (False, False, False, None)
        )
        flags = map(_csv_bool, (injective, prefix, ud, finite))
        text = ";".join(map(texts.__getitem__, words))
        writer.writerow([text, *flags, "" if delay is None else str(delay)])
        rows += 1
    return rows


def _csv_bool(flag: bool) -> str:
    return "true" if flag else "false"


# ---------------------------------------------------------------------------
# Brute-force oracles


def safe_bound(code: Code) -> int:
    """Search horizon that makes the brute-force deciders complete.

    Any two-factorization counterexample longer than this revisits a dangling
    suffix state: there are |S| distinct non-empty proper suffixes of code
    words, a boundary of the shorter factorization falls inside (or at the
    start of) every leader word, and between two boundaries with the same
    dangling suffix the stream can be cut out, shortening the counterexample.
    The pigeonhole grid is (|S| + 1) states wide and advances at least one
    leader word, hence at most max-word-length letters, per step.
    """
    suffixes = {
        word[k:] for word in code.words for k in range(1, len(word))
    }
    longest = max(len(word) for word in code.words)
    return (len(suffixes) + 1) * longest


_Search = tuple[Word, tuple[int, ...], tuple[int, ...]]


def two_factorization_search(code: Code, length_bound: int) -> Optional[_Search]:
    """Breadth-first search for the earliest word admitting two distinct
    code-word factorizations, scanning candidate streams up to length_bound
    letters; None when there is none.  Earliest means shortest, ties broken
    lexicographically.  With length_bound >= safe_bound(code), None is a
    proof of unique decodability."""
    if length_bound < 1:
        raise CodesError(f"length bound must be >= 1, got {length_bound}")
    words = code.words
    best: Optional[_Search] = None
    for i, j in itertools.combinations(range(len(words)), 2):
        if words[i] == words[j] and len(words[i]) <= length_bound:
            candidate = (words[i], (i,), (j,))
            if best is None or _search_key(candidate) < _search_key(best):
                best = candidate

    # Heap states: the leader side has emitted `stream`, of which the final
    # `dangling` letters are not yet matched by the trailing side.  Keys are
    # (length, stream) so the first completion popped is the earliest.
    heap: list[tuple[int, Word, Word, tuple[int, ...], tuple[int, ...]]] = []
    for i, leader in enumerate(words):
        for j, trailer in enumerate(words):
            if i != j and trailer.is_prefix_of(leader) and len(trailer) < len(leader):
                heapq.heappush(
                    heap, (len(leader), leader, leader[len(trailer):], (j,), (i,))
                )
    seen: set[Word] = set()
    while heap:
        stream_len, stream, dangling, trailing_fact, leading_fact = heapq.heappop(heap)
        if best is not None and (stream_len, stream) >= _search_key(best)[:2]:
            break
        if stream_len > length_bound:
            break
        if dangling in seen:
            continue
        seen.add(dangling)
        for idx, word in enumerate(words):
            if word == dangling:
                found = (stream, trailing_fact + (idx,), leading_fact)
                a, b = sorted(found[1:])
                candidate = (stream, a, b)
                if best is None or _search_key(candidate) < _search_key(best):
                    best = candidate
                continue
            if dangling.is_prefix_of(word):
                extension = word[len(dangling):]
                heapq.heappush(
                    heap,
                    (
                        stream_len + len(extension),
                        stream + extension,
                        extension,
                        leading_fact,
                        trailing_fact + (idx,),
                    ),
                )
            elif word.is_prefix_of(dangling):
                heapq.heappush(
                    heap,
                    (
                        stream_len,
                        stream,
                        dangling[len(word):],
                        trailing_fact + (idx,),
                        leading_fact,
                    ),
                )
    if best is not None and len(best[0]) > length_bound:
        return None
    return best


def _search_key(found: _Search):
    word, first, second = found
    return (len(word), word, first, second)


@dataclass(frozen=True)
class ProbeResult:
    verdict: str  # finite | infinite | unknown
    delay: Optional[int]
    witness: Optional[tuple[Word, Word]]


# Entries of a probe state are (tag, word index, offset): some factorization
# of the consumed stream starts with code word `tag` and is `offset` letters
# into the word at `word index`.  Offset 0 means the word is about to start.
_Entry = tuple[int, int, int]
_ProbeState = frozenset[_Entry]

_PROBE_STATE_CAP = 200_000


def bounded_delay_probe(code: Code, t_max: int) -> ProbeResult:
    """Decide the deciphering delay by direct stream simulation.

    Runs the deterministic automaton over sets of (first word, position)
    alternatives and measures how long two different first code words can
    stay consistent with the same consumed stream.  The verdict is exact;
    `unknown` is returned only when the exact delay exceeds t_max, which
    cannot happen once t_max reaches safe_bound(code).  Because the set of
    surviving first words only shrinks along a run, unbounded ambiguity
    always shows up as a cycle among ambiguous states.  The finite witness is
    the least first-word pair, in word order, of a deepest ambiguous state.
    """
    words = code.words
    if len(set(words)) != len(words):
        raise CodesError("delay probe needs pairwise distinct words")
    n = code.alphabet.size
    raw = [tuple(word) for word in words]

    def successor(state: _ProbeState, letter: int) -> _ProbeState:
        nxt: set[_Entry] = set()
        for tag, idx, offset in state:
            if raw[idx][offset] != letter:
                continue
            if offset + 1 == len(raw[idx]):
                nxt.update((tag, k, 0) for k in range(len(raw)))
            else:
                nxt.add((tag, idx, offset + 1))
        return frozenset(nxt)

    start: _ProbeState = frozenset((i, i, 0) for i in range(len(raw)))
    adjacency: dict[_ProbeState, list[_ProbeState]] = {}
    queue = [start]
    while queue:
        state = queue.pop()
        if state in adjacency:
            continue
        targets = []
        for letter in range(n):
            nxt = successor(state, letter)
            if nxt:
                targets.append(nxt)
        adjacency[state] = targets
        queue.extend(t for t in targets if t not in adjacency)
        if len(adjacency) > _PROBE_STATE_CAP:
            raise CodesError("delay probe state space exceeded the safety cap")

    def tags(state: _ProbeState) -> set[int]:
        return {entry[0] for entry in state}

    def first_pair(state: _ProbeState) -> tuple[Word, Word]:
        first, second = sorted(tags(state))[:2]
        return words[first], words[second]

    ambiguous = {s for s in adjacency if len(tags(s)) >= 2}
    sub = {s: [t for t in adjacency[s] if t in ambiguous] for s in ambiguous}
    order = topological_order(sub)
    if order is None:
        return ProbeResult("infinite", None, first_pair(min(cyclic_nodes(sub), key=sorted)))
    if not ambiguous:
        return ProbeResult("finite", 0, None)

    depth = {start: 0}
    for state in order:
        if state not in depth:
            continue
        for nxt in sub[state]:
            depth[nxt] = max(depth.get(nxt, -1), depth[state] + 1)
    delay = max(depth.values()) + 1
    if delay > t_max:
        return ProbeResult("unknown", None, None)
    witness = min(first_pair(s) for s, d in depth.items() if d + 1 == delay)
    return ProbeResult("finite", delay, witness)
