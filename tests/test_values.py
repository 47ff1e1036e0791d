"""Value semantics of the package's word types and result records: repr,
hash, equality, ordering, refused assignment, pickling and copying, and the
messages of refused constructions, which show numbers of any length.

The word types (Alphabet, Word, Code, LengthProfile) are plain immutable
classes; the result records are NamedTuples.  Every type hashes as the tuple
of its fields, so set iteration order and every output are fixed by the
field values alone."""

import copy
import pickle

import pytest

from udcodes import (
    Alphabet,
    Code,
    CodesError,
    InfiniteDelayWitnessSpec,
    LengthProfile,
    Word,
    ambiguity_graph,
    anchored_prefix_code,
    bounded_delay_probe,
    census,
    classify,
    count_all_a_then_b,
    count_anchored_prefix_codes,
    count_pr_pair,
    count_prefix_codes,
    delay_analysis,
    infinite_delay_witness,
    parse_word,
    sardinas_patterson,
    theorem1_bound,
    two_factorization_search,
)
from udcodes.decide import AmbState

CODE = Code.from_texts(["0", "01", "11"], 2)
PROFILE_122 = "LengthProfile(values=(1, 2), multiplicities=(1, 2))"
PROFILE_233 = "LengthProfile(values=(2, 3), multiplicities=(1, 2))"

# name -> (build one instance, its field names, its repr)
CASES = {
    "Alphabet": (lambda: Alphabet(2), ("size",), "Alphabet(size=2)"),
    "Word": (lambda: Word((0, 1)), ("symbols",), "Word('01')"),
    "Word-no-glyph": (lambda: Word((40, 1)), ("symbols",), "Word((40, 1))"),
    "Code": (
        lambda: CODE,
        ("alphabet", "words"),
        "Code(alphabet=Alphabet(size=2), words=(Word('0'), Word('01'), Word('11')))",
    ),
    "LengthProfile": (
        lambda: LengthProfile((1, 2), (1, 2)),
        ("values", "multiplicities"),
        PROFILE_122,
    ),
    "CensusReport": (
        lambda: census((1, 2, 2), 2),
        ("profile", "n", "total", "pr", "fd", "ud", "source", "discrepancies"),
        f"CensusReport(profile={PROFILE_122}, n=2, total=32, pr=4, fd=4, ud=8, "
        "source='both', discrepancies=())",
    ),
    "BoundReport": (
        lambda: theorem1_bound((2, 3, 3), 2, 2, 3),
        ("profile", "n", "a", "b", "lower_bound", "pr_count", "ud_count", "ratio", "satisfied"),
        f"BoundReport(profile={PROFILE_233}, n=2, a=2, b=3, lower_bound=Fraction(13, 12), "
        "pr_count=120, ud_count=180, ratio=Fraction(3, 2), satisfied=True)",
    ),
    "SPTrace": (
        lambda: sardinas_patterson(CODE),
        ("rounds", "unique", "violation", "termination", "repeated_index", "collision"),
        "SPTrace(rounds=(frozenset({Word('01'), Word('11'), Word('0')}), "
        "frozenset({Word('1')}), frozenset({Word('1')})), unique=True, violation=None, "
        "termination='cycle', repeated_index=1, collision=None)",
    ),
    "AmbState": (
        lambda: AmbState(Word((1,)), 0),
        ("dangling", "leader"),
        "AmbState(dangling=Word('1'), leader=0)",
    ),
    "AmbiguityGraph": (
        lambda: ambiguity_graph(CODE),
        ("states", "initials", "transitions", "catch_ups"),
        "AmbiguityGraph(states=(AmbState(dangling=Word('1'), leader=0), "
        "AmbState(dangling=Word('1'), leader=1)), "
        "initials=((AmbState(dangling=Word('1'), leader=1), (0, 1)),), "
        "transitions=((AmbState(dangling=Word('1'), leader=0), 2, "
        "AmbState(dangling=Word('1'), leader=1)), (AmbState(dangling=Word('1'), leader=1), 2, "
        "AmbState(dangling=Word('1'), leader=0))), catch_ups=())",
    ),
    "InfiniteWitness": (
        lambda: delay_analysis(CODE).witness,
        ("preamble", "period", "first_words"),
        "InfiniteWitness(preamble=Word('0'), period=Word('1'), "
        "first_words=(Word('0'), Word('01')))",
    ),
    "DelayReport": (
        lambda: delay_analysis(Code.from_texts(["0", "01", "10"], 2)),
        ("finite", "delay", "witness"),
        "DelayReport(finite=False, delay=None, witness=InfiniteWitness(preamble=Word(''), "
        "period=Word('01'), first_words=(Word('0'), Word('01'))))",
    ),
    "Classification": (
        lambda: classify(CODE),
        ("injective", "prefix", "ud", "finite_delay", "delay"),
        "Classification(injective=True, prefix=False, ud=True, finite_delay=False, delay=None)",
    ),
    "ProbeResult": (
        lambda: bounded_delay_probe(CODE, 6),
        ("verdict", "delay", "witness"),
        "ProbeResult(verdict='infinite', delay=None, witness=(Word('0'), Word('01')))",
    ),
    "KraftTrace": (
        lambda: count_prefix_codes((1, 2, 2), 2),
        ("profile", "n", "available", "count"),
        f"KraftTrace(profile={PROFILE_122}, n=2, available=(2, 2), count=4)",
    ),
    "AnchoredFamily": (
        lambda: count_anchored_prefix_codes((2, 3, 3), 2, 2, 3),
        ("profile", "n", "a", "b", "index_a", "index_b", "anchor_a", "anchor_b", "count"),
        f"AnchoredFamily(profile={PROFILE_233}, n=2, a=2, b=3, index_a=0, index_b=1, "
        "anchor_a=Word('01'), anchor_b=Word('001'), count=10)",
    ),
    "InfiniteDelayWitnessSpec": (
        lambda: infinite_delay_witness((2, 3, 3, 4), 2)[1],
        ("case", "a", "b", "remainder", "quotient"),
        "InfiniteDelayWitnessSpec(case='rb-many', a=2, b=3, remainder=None, quotient=None)",
    ),
}
WORD_TYPES = ("Alphabet", "Word", "Word-no-glyph", "Code", "LengthProfile")
RECORDS = tuple(name for name in CASES if name not in WORD_TYPES)


@pytest.mark.parametrize("name", CASES)
def test_repr(name):
    build, _, expected = CASES[name]
    assert repr(build()) == expected


@pytest.mark.parametrize("name", CASES)
def test_hash_is_the_hash_of_the_field_tuple(name):
    build, fields, _ = CASES[name]
    value = build()
    assert hash(value) == hash(tuple(getattr(value, field) for field in fields))


@pytest.mark.parametrize("name", CASES)
def test_assigning_or_deleting_a_field_is_refused(name):
    build, fields, _ = CASES[name]
    value = build()
    before = repr(value)
    with pytest.raises(AttributeError):
        setattr(value, fields[0], None)
    with pytest.raises(AttributeError):
        delattr(value, fields[0])
    assert repr(value) == before


@pytest.mark.parametrize("name", CASES)
@pytest.mark.parametrize(
    "round_trip",
    (lambda v: pickle.loads(pickle.dumps(v)), copy.deepcopy, copy.copy),
    ids=("pickle", "deepcopy", "copy"),
)
def test_round_trip(name, round_trip):
    build, _, expected = CASES[name]
    value = build()
    again = round_trip(value)
    assert type(again) is type(value)
    assert again == value
    assert hash(again) == hash(value)
    assert repr(again) == expected


@pytest.mark.parametrize("name", WORD_TYPES)
def test_word_types_equal_only_their_own_type(name):
    build, fields, _ = CASES[name]
    value = build()
    assert value == build()
    assert value != tuple(getattr(value, field) for field in fields)


@pytest.mark.parametrize("name", RECORDS)
def test_records_are_named_tuples(name):
    build, fields, _ = CASES[name]
    value = build()
    assert value._fields == fields
    assert value == tuple(getattr(value, field) for field in fields)
    assert value._asdict() == {field: getattr(value, field) for field in fields}
    assert value._replace() == value


def test_word_hash_and_equality():
    assert hash(Word((0, 1))) == hash(((0, 1),))
    assert Word((0, 1)) == Word([0, 1])
    assert Word([0, 1]).symbols == (0, 1)
    assert Word((0, 1)) != (0, 1)
    assert {Word((0,)): 1}.get((0,)) is None


def test_empty_word():
    assert Word() == Word(()) == Word([])
    assert Word().symbols == ()
    assert repr(Word()) == "Word('')"


def test_word_ordering_by_symbols():
    words = [Word((1,)), Word((0, 1)), Word(()), Word((0,)), Word((0, 0))]
    assert sorted(words) == [Word(()), Word((0,)), Word((0, 0)), Word((0, 1)), Word((1,))]
    assert Word((0,)) < Word((0, 1)) <= Word((0, 1)) < Word((1,))
    assert Word((1,)) > Word((0, 1)) >= Word((0, 1)) > Word((0,))
    assert AmbState(Word((0,)), 1) < AmbState(Word((1,)), 0)
    for compare in ("__lt__", "__le__", "__gt__", "__ge__"):
        assert getattr(Word((0,)), compare)((0,)) is NotImplemented
    with pytest.raises(TypeError):
        Word((0,)) < (0,)


@pytest.mark.parametrize(
    "build, message",
    (
        (lambda: Alphabet(1), "alphabet size must be an integer >= 2, got 1"),
        (lambda: Alphabet(True), "alphabet size must be an integer >= 2, got True"),
        (lambda: Alphabet(2.0), "alphabet size must be an integer >= 2, got 2.0"),
        (lambda: Word((-1,)), "word symbols must be non-negative integers, got -1"),
        (lambda: Word((True,)), "word symbols must be non-negative integers, got True"),
        (lambda: Code(Alphabet(2), ()), "a code needs at least one word"),
        (lambda: Code(Alphabet(2), ((0,),)), "code word at position 0 is not a Word: (0,)"),
        (lambda: Code(Alphabet(2), (Word(()),)), "code word at position 0 is empty"),
        (
            lambda: Code(Alphabet(2), (Word((0,)), Word((2,)))),
            "code word at position 1 uses letter 2, but the alphabet has size 2",
        ),
        (lambda: LengthProfile((), ()), "a length profile needs at least one value"),
        (lambda: LengthProfile((1,), (1, 2)), "values and multiplicities differ in length"),
        (lambda: LengthProfile((0,), (1,)), "length values must be positive integers, got 0"),
        (lambda: LengthProfile((1,), (0,)), "multiplicities must be positive integers, got 0"),
        (
            lambda: LengthProfile((2, 1), (1, 1)),
            "length values must be strictly increasing, got (2, 1)",
        ),
        (lambda: InfiniteDelayWitnessSpec("x", 1, 2, None, None), "unknown witness case 'x'"),
        (
            lambda: InfiniteDelayWitnessSpec("two-values", 2, 3, None, None),
            "two-values witness needs 0 < remainder < a",
        ),
        (
            lambda: InfiniteDelayWitnessSpec("rb-many", 2, 3, 1, None),
            "remainder/quotient only apply to the two-values case",
        ),
        (
            lambda: InfiniteDelayWitnessSpec("two-values", 2, 5, 1, None),
            "two-values witness needs remainder = (b - a) mod a and quotient = (b - a) // a",
        ),
        (
            lambda: InfiniteDelayWitnessSpec("rb-many", 3, 2, None, None),
            "witness needs 0 < a < b, got a=3, b=2",
        ),
        (
            lambda: InfiniteDelayWitnessSpec("rb-many", True, 2, None, None),
            "witness needs 0 < a < b, got a=True, b=2",
        ),
        (
            lambda: InfiniteDelayWitnessSpec("three-values", 1, 2.0, None, None),
            "witness needs 0 < a < b, got a=1, b=2.0",
        ),
        (
            lambda: InfiniteDelayWitnessSpec("two-values", 2.0, 5.0, 1.0, 1.0),
            "witness needs 0 < a < b, got a=2.0, b=5.0",
        ),
        pytest.param(
            lambda: InfiniteDelayWitnessSpec("two-values", 2, 5, 1.0, 1),
            "two-values witness needs 0 < remainder < a",
            id="witness-remainder=1.0",
        ),
        pytest.param(
            lambda: InfiniteDelayWitnessSpec("two-values", 2, 5, True, 1),
            "two-values witness needs 0 < remainder < a",
            id="witness-remainder=True",
        ),
        pytest.param(
            lambda: InfiniteDelayWitnessSpec("two-values", 2, 5, 1, 1.0),
            "two-values witness needs remainder = (b - a) mod a and quotient = (b - a) // a",
            id="witness-quotient=1.0",
        ),
        pytest.param(
            lambda: count_pr_pair(1.5, 2, 2),
            "length values must be positive integers, got 1.5",
            id="count_pr_pair-a=1.5",
        ),
        pytest.param(
            lambda: count_pr_pair(True, 2, 2),
            "length values must be positive integers, got True",
            id="count_pr_pair-a=True",
        ),
        pytest.param(  # the alphabet is checked before the lengths
            lambda: count_pr_pair(0, 1, 1),
            "alphabet size must be an integer >= 2, got 1",
            id="count_pr_pair-a=0-n=1",
        ),
        pytest.param(
            lambda: count_all_a_then_b(2, 3, 2, -2),
            "length values must be positive integers, got -2",
            id="count_all_a_then_b-b=-2",
        ),
        pytest.param(
            lambda: count_all_a_then_b(2, 3, 0, 2),
            "length values must be positive integers, got 0",
            id="count_all_a_then_b-a=0",
        ),
        pytest.param(
            lambda: count_all_a_then_b(2, 3, 1.0, 2),
            "length values must be positive integers, got 1.0",
            id="count_all_a_then_b-a=1.0",
        ),
        (
            lambda: count_all_a_then_b(2, 2.0, 1, 2),
            "the number of words must be an integer, got m=2.0",
        ),
        (
            lambda: theorem1_bound((2, 3, 3), 2, 2.0, 3),
            "a=2.0 and b=3 must be two different length values of the profile",
        ),
        (
            lambda: theorem1_bound((1, 2, 2), 2, True, 2),
            "a=True and b=2 must be two different length values of the profile",
        ),
        (
            lambda: count_anchored_prefix_codes((1, 2, 2), 2, 1.0, 2),
            "both 1.0 and 2 must be length values of the profile",
        ),
        (
            lambda: anchored_prefix_code((1, 2, 2), 2, True, 2),
            "both True and 2 must be length values of the profile",
        ),
        (
            lambda: anchored_prefix_code((1, 2, 3), 2, 1, 2, 3.0),
            "zero_word_length must be a length value >= 2, got 3.0",
        ),
        pytest.param(
            lambda: count_pr_pair("x", 2, 2),
            "length values must be positive integers, got 'x'",
            id="count_pr_pair-a=x",
        ),
        (
            lambda: count_all_a_then_b(2, None, 1, 2),
            "the number of words must be an integer, got m=None",
        ),
        (
            lambda: anchored_prefix_code((1, 2, 2), 2, "1", 2),
            "both 1 and 2 must be length values of the profile",
        ),
        (
            lambda: count_anchored_prefix_codes((1, 2, 2), 2, None, 2),
            "both None and 2 must be length values of the profile",
        ),
        (
            lambda: theorem1_bound((2, 3, 3), 2, 2, 3, ud_count=True),
            "ud_count must be an integer >= 0, got True",
        ),
        (
            lambda: theorem1_bound((2, 3, 3), 2, 2, 3, ud_count=-5),
            "ud_count must be an integer >= 0, got -5",
        ),
        (
            lambda: theorem1_bound((2, 3, 3), 2, 2, 3, ud_count=1.5),
            "ud_count must be an integer >= 0, got 1.5",
        ),
        (
            lambda: theorem1_bound((2, 3, 3), 2, 2, 3, ud_count="180"),
            "ud_count must be an integer >= 0, got '180'",
        ),
        (
            lambda: theorem1_bound((2, 3, 4), 2, 2, 3, ud_count=5),
            "ud_count must lie between the prefix count 240 and the universe size 512, got 5",
        ),
        (
            lambda: theorem1_bound((2, 3, 4), 2, 2, 3, ud_count=10**9),
            "ud_count must lie between the prefix count 240 and the universe size 512, "
            "got 1000000000",
        ),
    ),
)
def test_refused_construction_messages(build, message):
    with pytest.raises(CodesError) as info:
        build()
    assert str(info.value) == message


HUGE = 10**5000
HUGE_TEXT = "1" + "0" * 5000  # HUGE written out, with no int-to-str conversion


@pytest.mark.parametrize(
    "build, message",
    (
        pytest.param(
            lambda: count_pr_pair(1, HUGE, 2),
            f"lengths summing to {HUGE_TEXT[:-1]}1 are refused at alphabet size 2: "
            f"2^{HUGE_TEXT[:-1]}1 may need more than 1048576 bits",
            id="count_pr_pair",
        ),
        pytest.param(
            lambda: count_all_a_then_b(2, 2, 3, HUGE + 1),
            "the closed form requires the short length to divide the long one; "
            f"3 does not divide {HUGE_TEXT[:-1]}1",
            id="count_all_a_then_b-b",
        ),
        pytest.param(
            lambda: count_all_a_then_b(2, -HUGE, 1, 2),
            f"need at least two words, got m=-{HUGE_TEXT}",
            id="count_all_a_then_b-m",
        ),
        pytest.param(
            lambda: theorem1_bound((1, 2), 2, 1, HUGE),
            f"a=1 and b={HUGE_TEXT} must be two different length values of the profile",
            id="theorem1_bound",
        ),
        pytest.param(
            lambda: anchored_prefix_code((1, 2), 2, HUGE, 1),
            f"anchored family needs a < b, got a={HUGE_TEXT}, b=1",
            id="anchored_prefix_code-a",
        ),
        pytest.param(
            lambda: anchored_prefix_code((1, 2), 2, 1, 2, HUGE),
            f"zero_word_length must be a length value >= 2, got {HUGE_TEXT}",
            id="anchored_prefix_code-zero_word_length",
        ),
        pytest.param(
            lambda: count_anchored_prefix_codes((1, 2), 2, 1, HUGE),
            f"both 1 and {HUGE_TEXT} must be length values of the profile",
            id="count_anchored_prefix_codes",
        ),
        pytest.param(
            lambda: InfiniteDelayWitnessSpec("rb-many", HUGE, 1, None, None),
            f"witness needs 0 < a < b, got a={HUGE_TEXT}, b=1",
            id="InfiniteDelayWitnessSpec",
        ),
        pytest.param(
            lambda: Alphabet(-HUGE),
            f"alphabet size must be an integer >= 2, got -{HUGE_TEXT}",
            id="Alphabet",
        ),
        pytest.param(
            lambda: Word((-HUGE,)),
            f"word symbols must be non-negative integers, got -{HUGE_TEXT}",
            id="Word",
        ),
        pytest.param(
            lambda: Code(Alphabet(2), (Word((HUGE,)),)),
            f"code word at position 0 uses letter {HUGE_TEXT}, but the alphabet has size 2",
            id="Code",
        ),
        pytest.param(
            lambda: LengthProfile((-HUGE,), (1,)),
            f"length values must be positive integers, got -{HUGE_TEXT}",
            id="LengthProfile-value",
        ),
        pytest.param(
            lambda: LengthProfile((1,), (-HUGE,)),
            f"multiplicities must be positive integers, got -{HUGE_TEXT}",
            id="LengthProfile-multiplicity",
        ),
        pytest.param(
            lambda: LengthProfile((HUGE, 1), (1, 1)),
            f"length values must be strictly increasing, got ({HUGE_TEXT}, 1)",
            id="LengthProfile-order",
        ),
        pytest.param(
            lambda: parse_word("z", Alphabet(HUGE)),
            f"alphabet of size {HUGE_TEXT} exceeds the 36-letter text form",
            id="parse_word",
        ),
        pytest.param(
            lambda: bounded_delay_probe(CODE, -HUGE),
            f"delay bound must be an integer >= 0, got -{HUGE_TEXT}",
            id="bounded_delay_probe",
        ),
        pytest.param(
            lambda: two_factorization_search(CODE, -HUGE),
            f"length bound must be an integer >= 1, got -{HUGE_TEXT}",
            id="two_factorization_search",
        ),
    ),
)
def test_refusals_show_the_callers_numbers_of_any_length(default_digit_limit, build, message):
    """Under Python's default int-to-str digit limit, a refusal that shows a
    number the caller gave raises CodesError and shows the number in full."""
    with pytest.raises(CodesError) as info:
        build()
    assert str(info.value) == message


def test_reprs_show_numbers_of_any_length(default_digit_limit):
    """Under Python's default int-to-str digit limit, the word types' reprs
    show every number in full."""
    nines = "9" * 5000  # HUGE - 1
    assert repr(Alphabet(HUGE)) == f"Alphabet(size={HUGE_TEXT})"
    assert repr(Word((HUGE,))) == f"Word(({HUGE_TEXT},))"
    assert repr(Word((1, HUGE))) == f"Word((1, {HUGE_TEXT}))"
    assert repr(LengthProfile((HUGE,), (1,))) == (
        f"LengthProfile(values=({HUGE_TEXT},), multiplicities=(1,))"
    )
    assert repr(Code(Alphabet(HUGE), (Word((HUGE - 1,)),))) == (
        f"Code(alphabet=Alphabet(size={HUGE_TEXT}), words=(Word(({nines},)),))"
    )


def test_code_refuses_an_alphabet_that_is_not_an_alphabet():
    # used to fail with AttributeError: 'int' object has no attribute 'size'
    with pytest.raises(CodesError, match=r"^code alphabet is not an Alphabet: 2$"):
        Code(2, (Word((0,)),))


def test_witness_spec_checks_a_replaced_field():
    spec = InfiniteDelayWitnessSpec("two-values", 2, 5, 1, 1)
    with pytest.raises(CodesError, match=r"quotient = \(b - a\) // a"):
        spec._replace(quotient=2)
    with pytest.raises(CodesError, match="0 < remainder < a"):
        spec._replace(remainder=2)
    with pytest.raises(CodesError, match="only apply to the two-values case"):
        spec._replace(case="rb-many")
