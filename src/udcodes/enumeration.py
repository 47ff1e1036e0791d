"""Per-code work at desk scale: enumerate every code with a given length
sequence, write one classification per code, and provide brute-force
deciders (a two-factorization search and a bounded delay probe) that are
independent of the decision module's algorithms.
"""

from __future__ import annotations

import array
import collections
import heapq
import itertools
import operator
from dataclasses import dataclass
from typing import IO, Iterator, Optional

from ._graph import order_and_cycles
# census, classify and universe_size are re-exported: callers reach them here.
from .census import (
    DEFAULT_UNIVERSE_CAP,
    _checked_alphabet,
    _raw_pool,
    census,
    universe_size,
)
from .decide import RawWord, _classification, _letter_width, _packed_pool, classify
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


# Rows written to the output at once.
_CSV_CHUNK = 4096


def write_classification_csv(
    profile: ProfileLike, n: int, out: IO[str], cap: int = DEFAULT_UNIVERSE_CAP
) -> int:
    """Classify every code with the given lengths and write one CSV row per
    code, in the order of enumerate_codes; returns the number of rows.
    Nothing is written unless the alphabet has a text form.

    The kernel runs once per orbit of two moves, each of which keeps every
    class: reordering the words of equal length, since each class depends
    only on the set of words (a repeated word stays repeated), and the
    letter reversal a -> n-1-a, since a renaming of the letters maps each
    factorization to a factorization letter for letter.  The first code of
    an orbit in the walk is classified and its class id stored at every
    code of the orbit; the later ones read it back.  A code's index in the
    walk is the base-n value of its letters, so the reversal maps index k to
    total-1-k.  The two moves make up every renaming only at n = 2; at
    n >= 3 an orbit of renamings splits into several, each classified once.
    The ids take 2 bytes per code (0: not yet classified), and nothing else
    kept grows with the universe.

    No field needs quoting (glyphs, ';', true/false and digits), so a row is
    the code's text and one cached string per classification, and rows are
    written in chunks."""
    lengths = as_length_sequence(profile)
    _checked_alphabet(lengths, n, cap)
    if n > len(GLYPHS):
        raise CodesError(f"alphabet of size {n} exceeds the {len(GLYPHS)}-letter text form")
    # tuples, which itertools.product keeps without a copy
    pools = [tuple(_packed_pool(length, n)) for length in lengths]
    texts = {
        packed: "".join(GLYPHS[s] for s in w)
        for length, pool in zip(lengths, pools)
        for packed, w in zip(pool, _raw_pool(length, n))
    }
    # The index of a code is a mixed-radix number whose digits are the ranks
    # of its words in their pools; per length shared by several words, the
    # radix of that length and the place value of each of its positions.
    groups = [
        (n**v, [n ** sum(lengths[j + 1 :]) for j in range(len(lengths)) if lengths[j] == v])
        for v in sorted(set(lengths))
        if lengths.count(v) > 1
    ]
    width = _letter_width(n)
    total = universe_size(lengths, n)
    ids = array.array("H", [0]) * total
    out.write("code,injective,prefix,ud,finite_delay,delay\n")
    id_of: dict[tuple, int] = {}
    tails = [""]
    chunk: list[str] = []
    for k, words in enumerate(itertools.product(*pools)):
        class_id = ids[k]
        if not class_id:
            classes = _classification(words, width)
            class_id = id_of.get(classes)
            if class_id is None:
                # a class is four flags and a delay of O((sum of lengths)^2)
                # letters, so ids stay far below 2^16 on any universe that
                # fits in memory
                class_id = id_of[classes] = len(tails)
                *flags, delay = classes
                fields = [*map(_csv_bool, flags), "" if delay is None else str(delay)]
                tails.append("," + ",".join(fields) + "\n")
            for image in _reorderings(k, groups):
                ids[image] = ids[total - 1 - image] = class_id
        chunk.append(";".join(map(texts.__getitem__, words)) + tails[class_id])
        if len(chunk) == _CSV_CHUNK:
            out.write("".join(chunk))
            chunk.clear()
    out.write("".join(chunk))
    return total


def _reorderings(k: int, groups: list[tuple[int, list[int]]]) -> Iterator[int]:
    """The index of every distinct code made from the code at index k by
    reordering its words within each group of positions, given as the radix
    of the group's rank digits and their place values."""
    if not groups:
        yield k
        return
    (radix, weights), *others = groups
    ranks = [k // weight % radix for weight in weights]
    own = sum(map(operator.mul, ranks, weights))
    for ordered in _orders(ranks, weights):
        yield from _reorderings(k - own + ordered, others)


def _orders(values: list[int], weights: list[int]) -> Iterator[int]:
    """sum of order[j] * weights[j] over the distinct orders of values, each
    once: every next order is made in place as the lexicographic successor
    of the last (repeated values give no repeated order), so the work is
    bounded by the orbit's size, not by the number of permutations, and the
    memory by the number of values."""
    order = sorted(values)
    last = len(order) - 1
    while True:
        yield sum(map(operator.mul, order, weights))
        i = last - 1
        while i >= 0 and order[i] >= order[i + 1]:
            i -= 1
        if i < 0:
            return
        j = last
        while order[j] <= order[i]:
            j -= 1
        order[i], order[j] = order[j], order[i]
        order[i + 1 :] = reversed(order[i + 1 :])


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
    suffixes = {word.symbols[k:] for word in code.words for k in range(1, len(word))}
    longest = max(len(word) for word in code.words)
    return (len(suffixes) + 1) * longest


_Search = tuple[Word, tuple[int, ...], tuple[int, ...]]
_RawSearch = tuple[RawWord, tuple[int, ...], tuple[int, ...]]


def two_factorization_search(code: Code, length_bound: int) -> Optional[_Search]:
    """Breadth-first search for the earliest word admitting two distinct
    code-word factorizations, scanning candidate streams up to length_bound
    letters; None when there is none.  Earliest means shortest, ties broken
    lexicographically.  With length_bound >= safe_bound(code), None is a
    proof of unique decodability.  The search runs on symbol tuples, which
    order as their Words do; only the word returned is made a Word."""
    if length_bound < 1:
        raise CodesError(f"length bound must be >= 1, got {length_bound}")
    words = [word.symbols for word in code.words]
    best: Optional[_RawSearch] = None
    for i, j in itertools.combinations(range(len(words)), 2):
        if words[i] == words[j] and len(words[i]) <= length_bound:
            candidate = (words[i], (i,), (j,))
            if best is None or _search_key(candidate) < _search_key(best):
                best = candidate

    # Heap states: the leader side has emitted `stream`, of which the final
    # `dangling` letters are not yet matched by the trailing side.  Keys are
    # (length, stream) so the first completion popped is the earliest.
    heap: list[tuple[int, RawWord, RawWord, tuple[int, ...], tuple[int, ...]]] = []
    for i, leader in enumerate(words):
        for j, trailer in enumerate(words):
            if i != j and len(trailer) < len(leader) and leader[: len(trailer)] == trailer:
                heapq.heappush(
                    heap, (len(leader), leader, leader[len(trailer):], (j,), (i,))
                )
    seen: set[RawWord] = set()
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
            if word[: len(dangling)] == dangling:
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
            elif dangling[: len(word)] == word:
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
    if best is None or len(best[0]) > length_bound:
        return None
    stream, first, second = best
    return Word(stream), first, second


def _search_key(found: _RawSearch):
    word, first, second = found
    return (len(word), word, first, second)


@dataclass(frozen=True)
class ProbeResult:
    verdict: str  # finite | infinite | unknown
    delay: Optional[int]
    witness: Optional[tuple[Word, Word]]


# The most ambiguous states (two or more first words) the delay probe may
# build; the states with one first word left are never built.
_PROBE_STATE_CAP = 200_000


class ProbeStateCapExceeded(CodesError):
    """The delay probe's automaton has more states than its cap allows."""

    def __init__(self, states: int, cap: int):
        super().__init__("delay probe state space exceeded the safety cap")
        self.states = states
        self.cap = cap


# A probe state is a set of (position, tag mask) pairs: the factorizations
# whose first word is one of the bits of `tag mask` can stand at `position`
# in the consumed stream.  Positions are small ints numbered by _probe_moves.
_ProbeState = frozenset[tuple[int, int]]


def _probe_moves(raw: list[tuple[int, ...]]) -> tuple[list[list[tuple[int, int]]], list[int]]:
    """The probe's moves, moves[position] -> [(letter, next position)], and
    the position of each first word before its first letter.

    Position 0 is a boundary, the root of the trie of proper prefixes of the
    code words; the other trie nodes are the letters read since the last
    boundary.  Before the first boundary a factorization is inside its first
    word i at offset k.  Where word i alone has i[:k] as a proper prefix,
    that position and the trie node i[:k] accept the same streams and share
    a number, so the states correspond one to one with sets of (first word,
    word, offset) entries and the state graph does not depend on the
    encoding."""
    nodes = {(): 0}
    for word in raw:
        for k in range(1, len(word)):
            nodes.setdefault(word[:k], len(nodes))
    edges: list[set[tuple[int, int]]] = [set() for _ in nodes]
    for word in raw:
        for k in range(len(word)):
            edges[nodes[word[:k]]].add((word[k], nodes[word[: k + 1]] if k + 1 < len(word) else 0))
    moves = [sorted(out) for out in edges]
    sharing = collections.Counter(word[:k] for word in raw for k in range(len(word)))
    starts = []
    for word in raw:
        # inside this first word, from its end back to its start
        position = 0
        for k in reversed(range(len(word))):
            if sharing[word[:k]] == 1:
                position = nodes[word[:k]]
            else:
                moves.append([(word[k], position)])
                position = len(moves) - 1
        starts.append(position)
    return moves, starts


def bounded_delay_probe(code: Code, t_max: int) -> ProbeResult:
    """Decide the deciphering delay by direct stream simulation.

    Runs the deterministic automaton over sets of alternatives and measures
    how long two different first code words can stay consistent with the
    same consumed stream.  An alternative is a position, either inside the
    first word before its end or a node of the trie of proper prefixes of
    the code words read since the last word boundary, with the bit set of
    first words that reach it; each state holds one entry per position.  A
    state is ambiguous when its entries carry at least two first words.
    Because the set of surviving first words only shrinks along a run, a
    successor with one first word left leads only to such states and bears
    on neither the verdict, the delay nor a witness: it is dropped as it is
    met, and only ambiguous states are built.  Unbounded ambiguity shows up
    as a cycle among them.  The verdict is exact; `unknown` is returned
    only when the exact delay exceeds t_max, which cannot happen once t_max
    reaches safe_bound(code).
    A state's first-word pair is its two lowest-indexed first words; the
    finite witness is the least pair, in word order, of a deepest ambiguous
    state, and the infinite witness the least pair of an ambiguous state on
    a cycle.  Raises ProbeStateCapExceeded when the automaton has more than
    _PROBE_STATE_CAP ambiguous states.
    """
    words = code.words
    if len(set(words)) != len(words):
        raise CodesError("delay probe needs pairwise distinct words")
    if len(words) < 2:
        return ProbeResult("finite", 0, None)
    moves, starts = _probe_moves([word.symbols for word in words])

    start: _ProbeState = frozenset((position, 1 << i) for i, position in enumerate(starts))
    states = [start]
    tags = [(1 << len(words)) - 1]
    ids = {start: 0}
    sub: dict[int, list[int]] = {}
    for s, state in enumerate(states):
        if len(states) > _PROBE_STATE_CAP:
            raise ProbeStateCapExceeded(len(states), _PROBE_STATE_CAP)
        by_letter: dict[int, dict[int, int]] = {}
        for position, mask in state:
            for letter, nxt in moves[position]:
                moved = by_letter.get(letter)
                if moved is None:
                    moved = by_letter[letter] = {}
                moved[nxt] = moved.get(nxt, 0) | mask
        targets = []
        for moved in by_letter.values():
            tag = 0
            for mask in moved.values():
                tag |= mask
            if not tag & (tag - 1):
                continue
            nxt_state = frozenset(moved.items())
            target = ids.get(nxt_state)
            if target is None:
                target = ids[nxt_state] = len(states)
                states.append(nxt_state)
                tags.append(tag)
            targets.append(target)
        sub[s] = targets

    def first_pair(s: int) -> tuple[Word, Word]:
        mask = tags[s]
        first = mask & -mask
        second = mask ^ first
        second &= -second
        return words[first.bit_length() - 1], words[second.bit_length() - 1]

    order, cyclic = order_and_cycles(sub)
    if order is None:
        return ProbeResult("infinite", None, min(map(first_pair, cyclic)))

    # every state is reached from the start, which comes first in `order`
    depth = [0] * len(states)
    for s in order:
        for nxt in sub[s]:
            depth[nxt] = max(depth[nxt], depth[s] + 1)
    delay = max(depth) + 1
    if delay > t_max:
        return ProbeResult("unknown", None, None)
    witness = min(first_pair(s) for s, d in enumerate(depth) if d + 1 == delay)
    return ProbeResult("finite", delay, witness)
