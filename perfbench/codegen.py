"""Codes for the probe-large library calls of the per-code workload: fixed
large codes plus codes drawn from the workload seed.  Imported only by the
worker process, after udcodes."""

from __future__ import annotations

import random

from udcodes import Alphabet, Code, Word, canonical_prefix_code

# name -> (lengths of the canonical prefix code that is reversed, alphabet)
FIXED = {
    "full": {"reversed-canonical-6^28-8^28": ((6,) * 28 + (8,) * 28, 2)},
    "small": {"reversed-canonical-3^4-4^4": ((3,) * 4 + (4,) * 4, 2)},
}

# family -> (codes per seed, words per code, alphabet, longest word).  Sizes
# keep every probe far below its 200k-state cap and each code under ~0.1 s.
FAMILIES = {
    "full": {"suffix": (16, 10, 2, 8), "prefix": (8, 25, 3, 6), "random": (16, 7, 2, 6)},
    "small": {"suffix": (3, 6, 2, 5), "prefix": (3, 7, 3, 4), "random": (3, 5, 2, 4)},
}


def _tree_leaves(rng: random.Random, m: int, n: int, longest: int) -> list[tuple[int, ...]]:
    """Leaves of a random complete n-ary tree with m leaves: a prefix code."""
    leaves: list[tuple[int, ...]] = [()]
    while len(leaves) + n - 1 <= m:
        open_leaves = [leaf for leaf in leaves if len(leaf) < longest]
        leaf = rng.choice(open_leaves)
        leaves.remove(leaf)
        leaves.extend(leaf + (a,) for a in range(n))
    rng.shuffle(leaves)
    return leaves


def _random_words(rng: random.Random, m: int, n: int, longest: int) -> list[tuple[int, ...]]:
    words: list[tuple[int, ...]] = []
    while len(words) < m:
        word = tuple(rng.randrange(n) for _ in range(rng.randint(2, longest)))
        if word not in words:
            words.append(word)
    return words


def _code(words, n: int) -> Code:
    return Code(Alphabet(n), tuple(Word(w) for w in words))


def generate(size: str, seed: int) -> list[tuple[str, str, Code]]:
    """(name, family, code) triples; the same seed gives the same codes."""
    out = [
        (name, "fixed", canonical_prefix_code(lengths, n).reverse())
        for name, (lengths, n) in FIXED[size].items()
    ]
    rng = random.Random(f"probe-large:{seed}")
    for family, (count, m, n, longest) in FAMILIES[size].items():
        for k in range(count):
            if family == "random":
                words = _random_words(rng, m, n, longest)
            else:
                words = _tree_leaves(rng, m, n, longest)
                if family == "suffix":
                    words = [tuple(reversed(w)) for w in words]
            out.append((f"{family}-{k}", family, _code(words, n)))
    return out
