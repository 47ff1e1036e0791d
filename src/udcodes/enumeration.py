"""Per-code work at desk scale: enumerate every code with a given length
sequence, write one classification per code, and provide brute-force
deciders (a two-factorization search and a bounded delay probe) that are
independent of the decision module's algorithms.
"""

from __future__ import annotations

import array
import heapq
import itertools
import operator
from typing import IO, Iterator, NamedTuple, Optional

# census and classify are re-exported: perfbench/tracer.py times them here.
from .census import DEFAULT_UNIVERSE_CAP, _raw_pool, _within_cap, census
from .decide import _IN_NO_CLASS, RawWord, _classes, _letter_width, _packed_pool, classify
from .words import (
    Alphabet,
    Code,
    CodesError,
    ProfileLike,
    Word,
    _int_at_least,
    _require_text_form,
    decimal_repr,
)

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
    lengths, _, _ = _within_cap(profile, n, cap)
    alphabet = Alphabet(n)
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

    A code with a repeated word is in no class, which a set test tells
    without the kernel.  The kernel runs once per orbit of the other codes
    under two moves, each of which keeps every class: reordering the words
    of equal length, since each class depends only on the set of words, and
    the letter reversal a -> n-1-a, since a renaming of the letters maps
    each factorization to a factorization letter for letter.  The first
    code of an orbit in the walk is classified and its class id stored at
    every code of the orbit; the later ones read it back.  A code's index in the
    walk is the base-n value of its letters, so the reversal maps index k to
    total-1-k.  The two moves make up every renaming only at n = 2; at
    n >= 3 an orbit of renamings splits into several, each classified once.
    The ids take 2 bytes per code (0: not yet classified), and nothing else
    kept grows with the universe.

    No field needs quoting (glyphs, ';', true/false and digits), so a row is
    the code's text and one cached string per classification, and rows are
    written in chunks."""
    lengths, p, total = _within_cap(profile, n, cap)
    _require_text_form(n)
    # tuples, which itertools.product keeps without a copy
    pools = [tuple(_packed_pool(length, n)) for length in lengths]
    texts = {
        packed: Word(w).text()
        for length, pool in zip(lengths, pools)
        for packed, w in zip(pool, _raw_pool(length, n))
    }
    # The index of a code is a mixed-radix number whose digits are the ranks
    # of its words in their pools; per length shared by several words, the
    # radix of that length and the place value of each of its positions.
    groups = [
        (n**v, [n ** sum(lengths[j + 1 :]) for j in range(len(lengths)) if lengths[j] == v])
        for v, r in zip(p.values, p.multiplicities)
        if r > 1
    ]
    width = _letter_width(n)
    ids = array.array("H", [0]) * total
    out.write("code,injective,prefix,ud,finite_delay,delay\n")
    # a class is four flags and a delay of O((sum of lengths)^2) letters, so
    # ids stay far below 2^16 on any universe that fits in memory
    id_of: dict[tuple, int] = {}
    tails = ["", _csv_tail(_IN_NO_CLASS)]  # id 1: a repeated word
    chunk: list[str] = []
    for k, words in enumerate(itertools.product(*pools)):
        class_id = ids[k]
        if not class_id:
            if len(set(words)) != len(words):
                # as has every code of its orbit: the set test tells that
                # sooner than a spread of the id would
                class_id = 1
            else:
                classes = (True, *_classes(words, width))
                class_id = id_of.get(classes)
                if class_id is None:
                    class_id = id_of[classes] = len(tails)
                    tails.append(_csv_tail(classes))
                for image in _reorderings(k, groups):
                    ids[image] = ids[total - 1 - image] = class_id
        chunk.append(";".join(map(texts.__getitem__, words)) + tails[class_id])
        if len(chunk) == _CSV_CHUNK:
            out.write("".join(chunk))
            chunk.clear()
    out.write("".join(chunk))
    return total


def _reorderings(k: int, groups: list[tuple[int, list[int]]]) -> Iterator[int]:
    """The index of every code made from the code at index k by reordering
    its words within each group of positions, given as the radix of the
    group's rank digits and their place values.  The code has no repeated
    word, so the ranks within a group are distinct, every order of them is
    a distinct code, and the work is the orbit's size."""
    if not groups:
        yield k
        return
    (radix, weights), *others = groups
    ranks = [k // weight % radix for weight in weights]
    own = sum(map(operator.mul, ranks, weights))
    for order in itertools.permutations(ranks):
        yield from _reorderings(k - own + sum(map(operator.mul, order, weights)), others)


def _csv_tail(classes: tuple[bool, bool, bool, bool, Optional[int]]) -> str:
    """The fields of a row after the code's text, with the line's end."""
    *flags, delay = classes
    fields = ["true" if flag else "false" for flag in flags]
    return "," + ",".join([*fields, "" if delay is None else str(delay)]) + "\n"


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


def _check_bound(name: str, bound: int, least: int) -> None:
    """Refuse an oracle's bound unless it is an int (not a bool) >= least."""
    if not _int_at_least(bound, least):
        raise CodesError(
            f"{name} bound must be an integer >= {least}, got {decimal_repr(bound)}"
        )


def two_factorization_search(
    code: Code, length_bound: int
) -> Optional[tuple[Word, tuple[int, ...], tuple[int, ...]]]:
    """Best-first search for the earliest word admitting two distinct
    code-word factorizations, scanning candidate streams up to length_bound
    letters; None when there is none.  Earliest means shortest, ties broken
    lexicographically.  The pair returned is the first pair the search
    finishes for that stream, which need not be the least.  With
    length_bound >= safe_bound(code), None is a proof of unique
    decodability.  The search runs on symbol tuples, which order as their
    Words do; only the word returned is made a Word.

    One heap holds (length, stream, dangling, trailing, leading): the
    leading factorization has emitted `stream`, of which the trailing one
    has yet to match the final `dangling` letters.  An entry with nothing
    dangling is a finished pair, its two factorizations in sorted order, and
    sorts before every unfinished entry of its stream, so the first one
    popped is the answer."""
    _check_bound("length", length_bound, 1)
    words = [word.symbols for word in code.words]
    heap: list[tuple[int, RawWord, RawWord, tuple[int, ...], tuple[int, ...]]] = []
    for i, leader in enumerate(words):
        for j, trailer in enumerate(words):
            if i < j and leader == trailer:
                heap.append((len(leader), leader, (), (i,), (j,)))
            elif len(trailer) < len(leader) and leader[: len(trailer)] == trailer:
                heap.append((len(leader), leader, leader[len(trailer):], (j,), (i,)))
    heapq.heapify(heap)
    seen: set[RawWord] = set()
    while heap:
        stream_len, stream, dangling, trailing, leading = heapq.heappop(heap)
        if stream_len > length_bound:
            return None
        if not dangling:
            return Word(stream), trailing, leading
        if dangling in seen:
            continue
        seen.add(dangling)
        for idx, word in enumerate(words):
            if word == dangling:
                first, second = sorted((trailing + (idx,), leading))
                heapq.heappush(heap, (stream_len, stream, (), first, second))
            elif word[: len(dangling)] == dangling:
                extension = word[len(dangling):]
                heapq.heappush(
                    heap,
                    (
                        stream_len + len(extension),
                        stream + extension,
                        extension,
                        leading,
                        trailing + (idx,),
                    ),
                )
            elif dangling[: len(word)] == word:
                heapq.heappush(
                    heap, (stream_len, stream, dangling[len(word):], trailing + (idx,), leading)
                )
    return None


class ProbeResult(NamedTuple):
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


# A probe state is keyed by a flat tuple (i0, P0, i1, P1, ...) in increasing
# first word: the factorizations whose first word is i can stand at each
# position of the bit set P in the consumed stream.  Positions are small
# ints numbered by _probe_moves.
_ProbeKey = tuple[int, ...]


def _probe_moves(raw: list[tuple[int, ...]]) -> tuple[list[list[int]], list[int]]:
    """The probe's moves as one table per letter of the code,
    table[position] -> the bit set of the positions that letter leads to,
    and the position of each first word before its first letter, from one
    walk over each word.

    Position 0 is a boundary, the root of the trie of proper prefixes of the
    code words; the other trie nodes are the letters read since the last
    boundary.  A trie node and a letter lead to its child and, where a word
    ends there, to the boundary.  Before the first boundary a factorization
    is inside its first word i at offset k.  Where word i alone has i[:k] as
    a proper prefix, that position and the trie node i[:k] accept the same
    streams and share a number, so the states correspond one to one with
    sets of (first word, word, offset) entries and the state graph does not
    depend on the encoding."""
    child: dict[tuple[int, int], int] = {}  # (node, letter) -> trie node
    moves: list[list[tuple[int, int]]] = [[]]  # per position, (letter, next position)
    through = [len(raw)]  # per trie node, the words it is a proper prefix of
    paths = []
    for word in raw:
        path = [0]
        for letter in word[:-1]:
            node = child.get((path[-1], letter))
            if node is None:
                node = child[path[-1], letter] = len(moves)
                moves[path[-1]].append((letter, node))
                moves.append([])
                through.append(0)
            through[node] += 1
            path.append(node)
        moves[path[-1]].append((word[-1], 0))
        paths.append(path)
    starts = []
    for word, path in zip(raw, paths):
        # inside this first word, from its end back to its start
        position = 0
        for letter, node in zip(reversed(word), reversed(path)):
            if through[node] == 1:
                position = node
            else:
                moves.append([(letter, position)])
                position = len(moves) - 1
        starts.append(position)
    tables: dict[int, list[int]] = {}
    for position, out in enumerate(moves):
        for letter, nxt in out:
            table = tables.get(letter)
            if table is None:
                table = tables[letter] = [0] * len(moves)
            table[position] |= 1 << nxt
    return list(tables.values()), starts


def bounded_delay_probe(code: Code, t_max: int) -> ProbeResult:
    """Decide the deciphering delay by direct stream simulation.

    Runs the deterministic automaton over sets of alternatives and measures
    how long two different first code words can stay consistent with the
    same consumed stream.  An alternative is a first word with a position,
    either inside the first word before its end or a node of the trie of
    proper prefixes of the code words read since the last word boundary;
    each state holds, per first word still alive, the bit set of the
    positions it reaches.  A state is ambiguous when it holds at least two
    first words.  Because the set of surviving first words only shrinks
    along a run, a successor with one first word left leads only to such
    states and bears on neither the verdict, the delay nor a witness: it is
    dropped as it is met, and only ambiguous states are built.  Unbounded
    ambiguity shows up as a cycle among them.  The verdict is exact;
    `unknown` is returned only when the exact delay exceeds t_max, which
    cannot happen once t_max reaches safe_bound(code).
    A state's first-word pair is its two lowest-indexed first words; the
    finite witness is the least pair, in word order, of a deepest ambiguous
    state, and the infinite witness the least pair of an ambiguous state on
    a cycle.

    One depth-first walk builds the states and finds the strongly connected
    components of their graph as it goes (Tarjan's algorithm, on an explicit
    stack).  A state is keyed by a flat tuple of its first words and their
    position sets.  A letter's image of a position set is the union of the
    positions each of its members leads to; it is computed once per letter
    and set in a call and stored, and the keys hold the stored sets.  A
    state's id is the order in which the walk reached it, which is
    also its depth-first index.  The components come out each after every
    one it reaches: a cyclic one gives the infinite verdict, and when there
    is none, the reverse of that order gives each state's depth.
    ProbeStateCapExceeded is raised as the (_PROBE_STATE_CAP + 1)-th
    ambiguous state is built, the start included, so its `.states` is the
    cap plus one.  t_max must be an int >= 0.
    """
    _check_bound("delay", t_max, 0)
    words = code.words
    if len(set(words)) != len(words):
        raise CodesError("delay probe needs pairwise distinct words")
    if len(words) < 2:
        return ProbeResult("finite", 0, None)
    tables, starts = _probe_moves([word.symbols for word in words])
    cap = _PROBE_STATE_CAP
    # per letter, its table and the images of the position sets met so far
    letters: list[tuple[list[int], dict[int, int]]] = [(table, {}) for table in tables]

    def successors(key: _ProbeKey) -> list[_ProbeKey]:
        """The keys of the ambiguous successors of a state."""
        found = []
        for table, images in letters:
            flat: list[int] = []
            entries = iter(key)
            for first, positions in zip(entries, entries):
                image = images.get(positions)
                if image is None:
                    image = 0
                    rest = positions
                    while rest:
                        low = rest & -rest
                        image |= table[low.bit_length() - 1]
                        rest ^= low
                    images[positions] = image
                if image:
                    flat += first, image
            if len(flat) > 2:
                found.append(tuple(flat))
        return found

    keys: list[_ProbeKey] = []  # by id
    ids: dict[_ProbeKey, int] = {}
    low: list[int] = []
    on_stack = bytearray()
    sub: list[tuple[int, ...]] = []  # each state's ambiguous successors, once it finishes
    stack: list[int] = []
    finished: list[int] = []  # components' roots, each after every one it reaches
    cyclic: list[int] = []
    # (state, its successors' keys still to walk, their ids so far, its place on `stack`)
    work: list[tuple[int, Iterator[_ProbeKey], list[int], int]] = []

    def build(key: _ProbeKey) -> int:
        s = len(keys)
        if s >= cap:
            raise ProbeStateCapExceeded(s + 1, cap)
        ids[key] = s
        keys.append(key)
        low.append(s)
        on_stack.append(1)
        sub.append(())
        work.append((s, iter(successors(key)), [], len(stack)))
        stack.append(s)
        return s

    build(tuple(itertools.chain.from_iterable((i, 1 << p) for i, p in enumerate(starts))))
    while work:
        s, pending, targets, height = work[-1]
        for key in pending:
            t = ids.get(key)
            if t is None:
                targets.append(build(key))
                break
            targets.append(t)
            if on_stack[t] and t < low[s]:
                low[s] = t
        else:
            work.pop()
            sub[s] = tuple(targets)
            if low[s] < s:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[s])
                continue
            component = stack[height:]
            del stack[height:]
            for t in component:
                on_stack[t] = 0
            if len(component) > 1 or s in sub[s]:
                cyclic += component
            finished.append(s)

    def first_pair(s: int) -> tuple[Word, Word]:
        key = keys[s]
        return words[key[0]], words[key[2]]

    if cyclic:
        return ProbeResult("infinite", None, min(map(first_pair, cyclic)))

    # every component is one state, and the start comes first in this order
    depth = [0] * len(keys)
    for s in reversed(finished):
        d = depth[s] + 1
        for t in sub[s]:
            if depth[t] < d:
                depth[t] = d
    delay = max(depth) + 1
    if delay > t_max:
        return ProbeResult("unknown", None, None)
    witness = min(first_pair(s) for s, d in enumerate(depth) if d + 1 == delay)
    return ProbeResult("finite", delay, witness)
