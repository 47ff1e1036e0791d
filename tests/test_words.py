import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from udcodes import words
from udcodes.words import (
    Alphabet,
    Code,
    CodeFileError,
    CodesError,
    LengthProfile,
    Word,
    WordParseError,
    code_to_text,
    decimal_text,
    parse_code_file,
    parse_decimal,
    parse_word,
)


def test_parse_word_transliterates():
    w = parse_word("100", Alphabet(2))
    assert w.symbols == (1, 0, 0)
    assert len(w) == 3


def test_parse_word_empty():
    assert parse_word("", Alphabet(2)) == Word(())


def test_parse_word_larger_alphabet():
    assert parse_word("201", Alphabet(3)).symbols == (2, 0, 1)


def test_parse_word_out_of_alphabet():
    with pytest.raises(WordParseError) as info:
        parse_word("120", Alphabet(2))
    assert info.value.position == 1
    assert info.value.char == "2"


def test_parse_word_invalid_glyph():
    with pytest.raises(WordParseError) as info:
        parse_word("0!1", Alphabet(2))
    assert info.value.position == 1
    assert info.value.char == "!"


def test_alphabet_size_bounds():
    with pytest.raises(CodesError):
        Alphabet(1)
    with pytest.raises(CodesError):
        Alphabet(0)


def test_word_ordering_is_lexicographic():
    a = Word((0, 1))
    b = Word((0, 1, 0))
    c = Word((1,))
    assert a < b < c
    assert sorted([c, b, a]) == [a, b, c]


def test_word_slice_and_concat():
    w = Word((1, 0, 0))
    assert w[1:] == Word((0, 0))
    assert w[:2] == Word((1, 0))
    assert w[0] == 1
    assert Word((1,)) + Word((0, 0)) == w


def test_reverse_word_involution():
    w = Word((1, 0, 0))
    assert w.reverse() == Word((0, 0, 1))
    assert w.reverse().reverse() == w
    assert Word(()).reverse() == Word(())


def test_reverse_code_positionwise():
    c = Code.from_texts(["10", "100", "000"], 2)
    r = c.reverse()
    assert r.texts() == ("01", "001", "000")
    assert r.reverse() == c


def test_is_prefix():
    assert parse_word("10", Alphabet(2)).is_prefix_of(parse_word("100", Alphabet(2)))
    assert Word((1, 0)).is_prefix_of(Word((1, 0)))
    assert not Word((0, 1)).is_prefix_of(Word((0, 0, 1)))
    assert Word(()).is_prefix_of(Word((1,)))


def test_word_iterates_over_its_letters():
    assert list(Word((1, 0, 2))) == [1, 0, 2]


def test_word_text_refuses_a_letter_with_no_glyph():
    with pytest.raises(CodesError, match="no glyph form"):
        Word((0, 36)).text()


def test_parse_word_refuses_an_alphabet_past_the_glyphs():
    with pytest.raises(CodesError, match="exceeds the 36-letter text form"):
        Code.from_texts(["0"], 37)


def test_code_is_a_sized_iterable_of_its_words():
    c = Code.from_texts(["0", "10"], 2)
    assert len(c) == 2
    assert list(c) == [Word((0,)), Word((1, 0))]


def test_code_rejects_empty_word():
    with pytest.raises(CodesError):
        Code(Alphabet(2), (Word(()),))


def test_code_rejects_out_of_range_symbol():
    with pytest.raises(CodesError):
        Code(Alphabet(2), (Word((0, 2)),))


def test_code_is_a_sequence_not_a_set():
    """Duplicate words are representable; order matters for equality."""
    c = Code.from_texts(["0", "0"], 2)
    assert c.lengths == (1, 1)
    a = Code.from_texts(["0", "10"], 2)
    b = Code.from_texts(["10", "0"], 2)
    assert a != b


def test_length_profile_of_code():
    c = Code.from_texts(["10", "100", "000"], 2)
    p = c.profile()
    assert p.values == (2, 3)
    assert p.multiplicities == (1, 2)
    assert p.total == 3
    assert p.lengths == (2, 3, 3)


def test_length_profile_from_lengths_sorts():
    p = LengthProfile.from_lengths((3, 1, 3))
    assert p.values == (1, 3)
    assert p.multiplicities == (1, 2)
    assert not p.is_constant
    assert p.multiplicity(3) == 2
    assert p.multiplicity(7) == 0
    assert LengthProfile.from_lengths((2, 2)).is_constant


def test_length_profile_validation():
    with pytest.raises(CodesError):
        LengthProfile.from_lengths(())
    with pytest.raises(CodesError):
        LengthProfile.from_lengths((0, 1))
    with pytest.raises(CodesError):
        LengthProfile(values=(2, 1), multiplicities=(1, 1))


FILE_TEXT = """alphabet 2
# a comment line
10
100  # trailing comment
000
"""


def test_parse_code_file():
    code = parse_code_file(FILE_TEXT)
    assert code.alphabet.size == 2
    assert code.texts() == ("10", "100", "000")


def test_code_file_round_trip():
    code = parse_code_file(FILE_TEXT)
    text = code_to_text(code)
    assert text == "alphabet 2\n10\n100\n000"
    assert not text.endswith("\n")
    assert parse_code_file(text) == code


def test_code_file_bad_header():
    for text in ("", "alpha 2\n0", "alphabet x\n0", "alphabet 1\n0", "alphabet 40\n0"):
        with pytest.raises(CodeFileError) as info:
            parse_code_file(text)
        assert info.value.line == 1


def test_code_file_bad_word_position():
    with pytest.raises(CodeFileError) as info:
        parse_code_file("alphabet 2\n00\n  012\n")
    assert info.value.line == 3
    assert info.value.column == 5  # two leading spaces, then '2' at word offset 2


def test_code_file_no_words():
    with pytest.raises(CodeFileError):
        parse_code_file("alphabet 2\n# nothing\n")


@pytest.mark.parametrize("size", ("1_0", "\u0663", "+3"))
def test_code_file_alphabet_size_is_ascii_decimal(size):
    with pytest.raises(CodeFileError) as info:
        parse_code_file(f"alphabet {size}\n0\n")
    assert info.value.line == 1


def test_code_file_alphabet_size_range():
    assert parse_code_file("alphabet 03\n2\n").alphabet.size == 3
    for size in ("0040", "9" * 5000):
        with pytest.raises(CodeFileError, match=r"alphabet size 9*4?0* exceeds the 36-letter"):
            parse_code_file(f"alphabet {size}\n0\n")
    for size, shown in (("-3", "-3"), ("-0", "0"), ("1", "1"), ("-" + "9" * 5000, "-9+")):
        with pytest.raises(CodeFileError, match=f"alphabet size must be >= 2, got {shown}$"):
            parse_code_file(f"alphabet {size}\n0\n")
    with pytest.raises(CodeFileError, match="alphabet size '-' is not a decimal number"):
        parse_code_file("alphabet -\n0\n")


# Text near the file format: a header with an arbitrary size token, then
# lines of glyphs, comments, blanks and stray characters.
_near_code_files = st.builds(
    lambda head, size, body: f"{head} {size}\n" + "\n".join(body),
    st.sampled_from(["alphabet", "alphabet ", "alpha", ""]),
    st.one_of(st.integers(-5, 60).map(str), st.text(max_size=6)),
    st.lists(st.text(alphabet="0123abz #\t\u0663\u2028_", max_size=8), max_size=6),
)


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.text(), _near_code_files))
def test_code_file_parser_gives_a_code_or_a_code_file_error(text):
    try:
        code = parse_code_file(text)
    except CodeFileError:
        return
    assert isinstance(code, Code)
    assert parse_code_file(code_to_text(code)) == code


def test_decimal_text_matches_str(default_digit_limit):
    """Large ints are rendered by halves through decimal, digit for digit
    as str() renders them."""
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)  # for str(); the fixture puts the limit back
    values = [0, 1, 7, 10**9]
    limit = words._STR_BITS
    for bits in (100, limit - 1, limit, limit + 1, 3 * limit + 5, 200_000):
        values += [(1 << bits) - 1, 1 << bits, (1 << bits) + 12345, 3**bits]
    values += [10**k for k in (4931, 4932, 4933, 10_000, 12_345, 60_206)]
    values += [10**k - 1 for k in (10_000, 60_206)]
    for value in values:
        assert decimal_text(value) == str(value)
        assert decimal_text(-value) == str(-value)
    ratio = Fraction(-(3**40_000), 2**40_000)
    assert decimal_text(ratio) == str(ratio)
    assert decimal_text(Fraction(10**20_000)) == str(10**20_000)


@pytest.mark.parametrize("k", (2466, 4300, 4301, 4933, 6000))
def test_decimal_text_under_the_default_digit_limit(default_digit_limit, k):
    assert decimal_text(10**k) == "1" + "0" * k
    assert decimal_text(1 - 10**k) == "-" + "9" * k
    assert decimal_text(Fraction(1, 10**k)) == "1/1" + "0" * k


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no digit limit")
def test_numbers_convert_under_the_least_digit_limit(default_digit_limit):
    """decimal_text and parse_decimal work under 640 digits, the least limit
    Python accepts (the fixture puts the limit back), on both sides of
    parse_decimal's 600-digit chunks and of decimal_text's 617-digit leaves."""
    sys.set_int_max_str_digits(640)
    for k in (599, 600, 601, 617, 640, 1000, 1201, 2467, 5000):
        texts = {
            10**k: "1" + "0" * k,
            10**k - 1: "9" * k,
            10**k + 12345: "1" + "0" * (k - 5) + "12345",
        }
        for value, text in texts.items():
            assert decimal_text(value) == text
            assert decimal_text(-value) == "-" + text
            assert parse_decimal(text) == value
            assert parse_decimal("-00" + text) == -value
