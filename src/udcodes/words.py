"""Alphabets, words, codes, and length profiles, and their text formats.

Words are sequences of letter indices drawn from an alphabet of size n >= 2.
For text I/O the letters 0..n-1 render as the glyphs '0'-'9' then 'a'-'z',
which caps the *parseable* alphabets at 36 letters; the in-memory
representation has no such limit.  A code file is a header and one word per
line, a suite file one comma-separated length sequence per line.

A code is an ordered sequence of non-empty words.  Order matters: two codes
with the same words in a different order are different codes.
"""

from __future__ import annotations

import decimal
import functools
from collections import Counter
from fractions import Fraction
from typing import Iterable, Iterator, Sequence, Union

GLYPHS = "0123456789abcdefghijklmnopqrstuvwxyz"
_GLYPH_INDEX = {ch: i for i, ch in enumerate(GLYPHS)}


class CodesError(ValueError):
    """Invalid code, profile, or argument."""


class WordParseError(CodesError):
    """A word string contains a character that is not a letter of the alphabet."""

    def __init__(self, message: str, position: int | None = None, char: str | None = None):
        super().__init__(message)
        self.position = position
        self.char = char


class CodeFileError(CodesError):
    """A code or suite file is malformed; carries a 1-based line (and column) when known."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        super().__init__(message)
        self.line = line
        self.column = column


def _int_at_least(value: object, least: int) -> bool:
    """True iff value is an int, not a bool, and at least `least`."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= least


class _Frozen:
    """Base of the immutable value types.  Equality, hash and repr run over
    the fields named in ``__slots__``: an instance equals only an instance of
    the same class with equal fields, and hashes as the tuple of its fields.
    Assignment is refused; pickling and copying rebuild through __init__."""

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(
            f"{name}={decimal_repr(getattr(self, name))}" for name in self.__slots__
        )
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._fields()


class Alphabet(_Frozen):
    """An abstract alphabet whose letters are the indices 0..size-1."""

    __slots__ = ("size",)

    def __init__(self, size: int) -> None:
        if not _int_at_least(size, 2):
            raise CodesError(f"alphabet size must be an integer >= 2, got {decimal_repr(size)}")
        object.__setattr__(self, "size", size)


@functools.total_ordering
class Word(_Frozen):
    """An immutable word: a tuple of letter indices.

    Words compare lexicographically by symbol index (with a proper prefix
    ordering before its extensions), which is the canonical order used by
    every deterministic construction in this package.
    """

    __slots__ = ("symbols",)

    def __init__(self, symbols: Sequence[int] = ()) -> None:
        symbols = tuple(symbols)
        for s in symbols:
            if not _int_at_least(s, 0):
                raise CodesError(
                    f"word symbols must be non-negative integers, got {decimal_repr(s)}"
                )
        object.__setattr__(self, "symbols", symbols)

    def _fields(self) -> tuple:
        # words are hashed and compared in bulk (the SP rounds are sets of
        # them), so their one field is read directly
        return (self.symbols,)

    def __lt__(self, other):
        if other.__class__ is self.__class__:
            return self.symbols < other.symbols
        return NotImplemented

    def __len__(self) -> int:
        return len(self.symbols)

    def __iter__(self) -> Iterator[int]:
        return iter(self.symbols)

    def __getitem__(self, item):
        if isinstance(item, slice):
            return Word(self.symbols[item])
        return self.symbols[item]

    def __add__(self, other: "Word") -> "Word":
        return Word(self.symbols + other.symbols)

    def reverse(self) -> "Word":
        return Word(self.symbols[::-1])

    def is_prefix_of(self, other: "Word") -> bool:
        return self.symbols == other.symbols[: len(self.symbols)]

    def text(self) -> str:
        """Glyph form of the word; defined for letters below 36 only."""
        try:
            return "".join(GLYPHS[s] for s in self.symbols)
        except IndexError:
            raise CodesError(
                f"word {decimal_repr(self.symbols)} has letters with no glyph form"
            ) from None

    def __repr__(self) -> str:
        if all(s < len(GLYPHS) for s in self.symbols):
            return f"Word({self.text()!r})"
        return f"Word({decimal_repr(self.symbols)})"


class Code(_Frozen):
    """An ordered sequence of non-empty words over a common alphabet."""

    __slots__ = ("alphabet", "words")

    def __init__(self, alphabet: Alphabet, words: Sequence[Word]) -> None:
        if not isinstance(alphabet, Alphabet):
            raise CodesError(f"code alphabet is not an Alphabet: {decimal_repr(alphabet)}")
        words = tuple(words)
        if len(words) == 0:
            raise CodesError("a code needs at least one word")
        for pos, w in enumerate(words):
            if not isinstance(w, Word):
                raise CodesError(f"code word at position {pos} is not a Word: {decimal_repr(w)}")
            if len(w) == 0:
                raise CodesError(f"code word at position {pos} is empty")
            for s in w.symbols:
                if s >= alphabet.size:
                    raise CodesError(
                        f"code word at position {pos} uses letter {decimal_text(s)}, "
                        f"but the alphabet has size {decimal_text(alphabet.size)}"
                    )
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "words", words)

    @classmethod
    def from_texts(cls, texts: Sequence[str], n: int) -> "Code":
        alphabet = Alphabet(n)
        return cls(alphabet, tuple(parse_word(t, alphabet) for t in texts))

    def __len__(self) -> int:
        return len(self.words)

    def __iter__(self) -> Iterator[Word]:
        return iter(self.words)

    @property
    def lengths(self) -> tuple[int, ...]:
        return tuple(len(w) for w in self.words)

    def profile(self) -> "LengthProfile":
        return LengthProfile.from_lengths(self.lengths)

    def reverse(self) -> "Code":
        return Code(self.alphabet, tuple(w.reverse() for w in self.words))

    def texts(self) -> tuple[str, ...]:
        return tuple(w.text() for w in self.words)


class LengthProfile(_Frozen):
    """The distinct word lengths of a code, increasing, with multiplicities."""

    __slots__ = ("values", "multiplicities")

    def __init__(self, values: Sequence[int], multiplicities: Sequence[int]) -> None:
        values = tuple(values)
        multiplicities = tuple(multiplicities)
        if not values:
            raise CodesError("a length profile needs at least one value")
        if len(values) != len(multiplicities):
            raise CodesError("values and multiplicities differ in length")
        for v in values:
            if not _int_at_least(v, 1):
                raise CodesError(f"length values must be positive integers, got {decimal_repr(v)}")
        for r in multiplicities:
            if not _int_at_least(r, 1):
                raise CodesError(
                    f"multiplicities must be positive integers, got {decimal_repr(r)}"
                )
        if any(a >= b for a, b in zip(values, values[1:])):
            raise CodesError(
                f"length values must be strictly increasing, got {decimal_repr(values)}"
            )
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "multiplicities", multiplicities)

    @classmethod
    def from_lengths(cls, lengths: Iterable[int]) -> "LengthProfile":
        """The profile of the lengths, read once.  Each must be an int >= 1,
        not a bool; the smallest that is not is refused (the first if unordered)."""
        lengths = _length_tuple(lengths)
        if not lengths:
            raise CodesError("a length profile needs at least one length")
        try:  # the constructor refuses the smallest value
            counts = Counter(lengths)
            values = tuple(sorted(counts))
            profile = cls(values, tuple(counts[v] for v in values))
        except TypeError:  # a length that cannot be hashed or ordered, named below
            profile = None
        for length in lengths:  # a bool or float equal to an int counts as that int
            if not _int_at_least(length, 1):
                raise CodesError(
                    f"length values must be positive integers, got {decimal_repr(length)}"
                )
        return profile

    @property
    def total(self) -> int:
        """Number of code words, counted with multiplicity."""
        return sum(self.multiplicities)

    @property
    def lengths(self) -> tuple[int, ...]:
        """All lengths expanded, in increasing order."""
        out: list[int] = []
        for v, r in zip(self.values, self.multiplicities):
            out.extend([v] * r)
        return tuple(out)

    @property
    def is_constant(self) -> bool:
        return len(self.values) == 1

    def multiplicity(self, value: int) -> int:
        for v, r in zip(self.values, self.multiplicities):
            if v == value:
                return r
        return 0


ProfileLike = Union[LengthProfile, Iterable[int]]


def _length_tuple(lengths: Iterable[int]) -> tuple:
    """The lengths as a tuple: a tuple as itself, None as empty."""
    try:
        return tuple(lengths or ())
    except TypeError:
        raise CodesError(
            f"lengths must be an iterable of positive integers, got {decimal_repr(lengths)}"
        ) from None


def as_profile(profile: ProfileLike) -> LengthProfile:
    if isinstance(profile, LengthProfile):
        return profile
    return LengthProfile.from_lengths(profile)


def _require_text_form(n: int) -> None:
    """Refuse an alphabet size with more letters than glyphs."""
    if n > len(GLYPHS):
        raise CodesError(
            f"alphabet of size {decimal_text(n)} exceeds the {len(GLYPHS)}-letter text form"
        )


def parse_word(text: str, alphabet: Alphabet) -> Word:
    _require_text_form(alphabet.size)
    symbols = []
    for pos, ch in enumerate(text):
        idx = _GLYPH_INDEX.get(ch)
        if idx is None:
            raise WordParseError(
                f"invalid character {ch!r} at position {pos}", position=pos, char=ch
            )
        if idx >= alphabet.size:
            raise WordParseError(
                f"letter {ch!r} at position {pos} is outside the alphabet of size "
                f"{decimal_text(alphabet.size)}",
                position=pos,
                char=ch,
            )
        symbols.append(idx)
    return Word(tuple(symbols))


# int() reads at most this many digits at once: fewer than 640, the least
# int-to-str digit limit Python accepts, so no limit refuses it.
_INT_DIGITS = 600


def parse_decimal(text: str) -> int:
    """The int that `text` writes in ASCII decimal digits after an optional
    minus sign, of any length and under any int-to-str digit limit.

    int() would also take '1_0', '+3', blanks around the number and
    non-ASCII digits (say Arabic-Indic '\u0663' or fullwidth '\uff12'); each
    of those raises ValueError here.
    """
    negative = text.startswith("-")
    digits = text[negative:]
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"{text!r} is not a decimal number")

    def value(part: str) -> int:
        if len(part) <= _INT_DIGITS:
            return int(part)
        low = len(part) // 2
        return value(part[:-low]) * 10**low + value(part[-low:])

    return -value(digits) if negative else value(digits)


# Ints up to this many bits are rendered by str().  It is quadratic in the
# length and may refuse as few as 640 digits (2^11 bits are 617 digits), so
# longer ones are split in halves and rebuilt as a Decimal.
_STR_BITS = 2**11


def decimal_text(value: int | Fraction) -> str:
    """str(value) of an int or a Fraction, in time near-linear in its length
    and under any int-to-str digit limit."""
    if isinstance(value, Fraction):
        numerator = decimal_text(value.numerator)
        if value.denominator == 1:
            return numerator
        return f"{numerator}/{decimal_text(value.denominator)}"
    if value.bit_length() <= _STR_BITS:
        return str(value)
    powers: dict[int, decimal.Decimal] = {}

    def power(bits: int) -> decimal.Decimal:  # 2 ** bits
        result = powers.get(bits)
        if result is None:
            if bits <= _STR_BITS:
                result = decimal.Decimal(1 << bits)
            else:
                result = power(bits >> 1) * power(bits - (bits >> 1))
            powers[bits] = result
        return result

    def convert(n: int, bits: int) -> decimal.Decimal:
        if bits <= _STR_BITS:
            return decimal.Decimal(n)
        low = bits >> 1
        high = n >> low
        return convert(n - (high << low), low) + convert(high, bits - low) * power(low)

    with decimal.localcontext() as ctx:
        ctx.prec = decimal.MAX_PREC
        ctx.Emax = decimal.MAX_EMAX
        ctx.traps[decimal.Inexact] = True
        text = str(convert(abs(value), value.bit_length()))
    return "-" + text if value < 0 else text


def decimal_str(value: object) -> str:
    """str(value), with an int or a Fraction rendered by decimal_text: a
    message shows a number of any length under any digit limit."""
    return decimal_text(value) if isinstance(value, (int, Fraction)) else str(value)


def decimal_repr(value: object) -> str:
    """repr(value), with an int, or each int of a tuple, rendered by
    decimal_text."""
    if type(value) is int:
        return decimal_text(value)
    if type(value) is tuple:
        items = [decimal_repr(item) for item in value]
        return f"({items[0]},)" if len(items) == 1 else f"({', '.join(items)})"
    return repr(value)


def _strip_comment(line: str) -> str:
    return line.split("#", 1)[0]


def _content_lines(lines: list[str], start: int) -> Iterator[tuple[int, str, str]]:
    """(number, line, stripped text before any comment) of each line with such text."""
    for lineno, raw in enumerate(lines, start):
        content = _strip_comment(raw).strip()
        if content:
            yield lineno, raw, content


def parse_code_file(text: str) -> Code:
    """Parse the code file format.

    Line 1 is ``alphabet <n>``; every other non-empty, non-comment line is one
    word in glyph form.  ``#`` starts a comment.  Word order in the file is
    the code's sequence order.
    """
    lines = text.splitlines()
    if not lines or not _strip_comment(lines[0]).strip():
        raise CodeFileError("line 1 must be 'alphabet <n>'", line=1)
    parts = _strip_comment(lines[0]).split()
    if len(parts) != 2 or parts[0] != "alphabet":
        raise CodeFileError(f"line 1 must be 'alphabet <n>', got {lines[0]!r}", line=1)
    size = parts[1]
    try:
        n = parse_decimal(size)
    except ValueError:
        raise CodeFileError(
            f"line 1: alphabet size {size!r} is not a decimal number", line=1
        ) from None
    try:
        alphabet = Alphabet(n)
        _require_text_form(n)
    except CodesError as exc:
        raise CodeFileError(f"line 1: {exc}", line=1) from None
    words = []
    for lineno, raw, token in _content_lines(lines[1:], 2):
        try:
            words.append(parse_word(token, alphabet))
        except WordParseError as exc:
            column = raw.index(token) + (exc.position or 0) + 1
            raise CodeFileError(
                f"line {lineno}, column {column}: {exc}", line=lineno, column=column
            ) from exc
    if not words:
        raise CodeFileError("no code words in file")
    return Code(alphabet, tuple(words))


def code_to_text(code: Code) -> str:
    """Serialize in the code file format (no trailing whitespace)."""
    lines = [f"alphabet {decimal_text(code.alphabet.size)}"]
    lines.extend(w.text() for w in code.words)
    return "\n".join(lines)


def _decimal_list(text: str) -> tuple[int, ...]:
    """The numbers of a comma-separated list, read by parse_decimal; blanks may surround each."""
    return tuple(parse_decimal(part.strip(" \t")) for part in text.split(","))


def _parse_suite(text: str) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """Parse the suite file format: one comma-separated length sequence per
    line, each read as (its line number, its lengths)."""
    rows = []
    for lineno, _, content in _content_lines(text.splitlines(), 1):
        try:
            rows.append((lineno, _decimal_list(content)))
        except ValueError:
            raise CodeFileError(
                f"line {lineno}: expected comma-separated integers, got {content!r}", line=lineno
            ) from None
    return tuple(rows)
