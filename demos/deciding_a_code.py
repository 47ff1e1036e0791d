"""Walk through the decision machinery on one small binary code.

The code (10, 100, 000) is uniquely decodable but not prefix, and its
deciphering delay is infinite: a decoder that has seen 1 0 0 0 ... can
never commit to the first word.  Reversing every word turns it into a
prefix code with delay 3.
"""

from udcodes import (
    Code,
    delay_analysis,
    factorize,
    is_prefix_code,
    parse_word,
    sardinas_patterson,
)

code = Code.from_texts(["10", "100", "000"], 2)
print("code:", ", ".join(code.texts()), "over the alphabet {0, 1}")
print("prefix code?", is_prefix_code(code))

trace = sardinas_patterson(code)
print("\ndangling-suffix rounds:")
for i, round_ in enumerate(trace.rounds):
    print(f"  D{i}: {{{', '.join(sorted(w.text() for w in round_))}}}")
print(f"termination: {trace.termination} (repeats round {trace.repeated_index})")
print("uniquely decodable?", trace.unique)

stream = parse_word("10000000", code.alphabet)
print("\nfactorizing", stream.text(), "->", factorize(code, stream))

report = delay_analysis(code)
print("\nfinite delay?", report.finite)
w = report.witness
print("ambiguous stream:", w.rendered(), "- it may start with", " or ".join(x.text() for x in w.first_words))

mirrored = code.reverse()
print("\nreversed code:", ", ".join(mirrored.texts()))
print("prefix code?", is_prefix_code(mirrored))
print("delay:", delay_analysis(mirrored).delay)
