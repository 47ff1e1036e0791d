"""Cross-check the analytic decisions against brute-force oracles.

Over every binary code with lengths (2, 2, 3):
  * Sardinas-Patterson must agree with a best-first search for a
    doubly-factorizable stream, run out to the pigeonhole-safe bound;
  * the exact delay analysis must agree with a bounded probe of the
    ambiguity automaton, verdict and value alike.
"""

from udcodes import (
    bounded_delay_probe,
    delay_analysis,
    enumerate_codes,
    safe_bound,
    sardinas_patterson,
    two_factorization_search,
    universe_size,
)

PROFILE = (2, 2, 3)
N = 2
print(f"checking all {universe_size(PROFILE, N)} codes with lengths {PROFILE} at n={N}")

checked = disagreements = 0
for code in enumerate_codes(PROFILE, N):
    trace = sardinas_patterson(code)
    found = two_factorization_search(code, safe_bound(code))
    if trace.unique != (found is None):
        disagreements += 1
        print("  SP vs search disagree on", ",".join(code.texts()))
    if len(set(code.words)) == len(code.words):
        analysis = delay_analysis(code)
        probe = bounded_delay_probe(code, safe_bound(code))
        if analysis.finite != (probe.verdict == "finite") or analysis.delay != probe.delay:
            disagreements += 1
            print("  delay vs probe disagree on", ",".join(code.texts()))
    checked += 1

print(f"checked {checked} codes, {disagreements} disagreements")

example = next(c for c in enumerate_codes(PROFILE, N) if not sardinas_patterson(c).unique)
stream, first, second = two_factorization_search(example, safe_bound(example))
print("\nsample ambiguous code:", ",".join(example.texts()))
print(f"  stream {stream.text()} factors as {first} and as {second}")
