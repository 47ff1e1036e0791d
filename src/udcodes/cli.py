"""Command-line interface: decide properties of a code file, count code
classes, construct witness codes, run the verification suite, and export
per-code classifications as CSV.

Reports are emitted as a single JSON object (sorted keys, so byte-stable for
identical inputs); every numeric value is rendered as a decimal string so
arbitrary-precision integers and exact rationals survive any consumer.
Numbers of any length are read and printed through `words.parse_decimal`
and `words.decimal_text`, which work under any int-to-str digit limit, so
the interpreter's limit is left as the caller set it.
Exit status: 0 ok, 1 verification discrepancy, 2 usage or input error.
"""

from __future__ import annotations

import argparse
import itertools
import json
import marshal
import os
import sys
from fractions import Fraction
from typing import IO, Any, Iterable, Iterator, NoReturn, Optional

from .census import (
    DEFAULT_UNIVERSE_CAP,
    UniverseTooLarge,
    census,
    is_fd_eq_ud,
    is_pr_eq_ud,
    theorem1_bound,
    universe_size,
)
from .decide import DelayReport, SPTrace, classify, delay_analysis, sardinas_patterson
from .enumeration import (
    BUILTIN_SUITE,
    bounded_delay_probe,
    enumerate_codes,
    safe_bound,
    two_factorization_search,
    write_classification_csv,
)
from .kraft import (
    _require_feasible,
    canonical_prefix_code,
    count_anchored_prefix_codes,
    infinite_delay_witness,
    is_feasible,
    kraft_sum,
    ud_nonprefix_witness,
)
from .words import (
    CodeFileError,
    CodesError,
    _decimal_list,
    _parse_suite,
    code_to_text,
    decimal_text,
    parse_code_file,
    parse_decimal,
)

ENV_CAP = "CODES_UNIVERSE_CAP"


def _s(value: Any) -> Any:
    """Numbers to decimal strings, recursively; leaves bools/None/str alone."""
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return value
    if isinstance(value, (int, Fraction)):
        return decimal_text(value)
    if isinstance(value, dict):
        return {k: _s(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_s(v) for v in value]
    raise TypeError(f"unexpected report value {value!r}")


def _decimal_arg(text: str) -> int:
    """argparse type of the integer options."""
    try:
        return parse_decimal(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected decimal digits, got {text!r}") from None


def _parse_lengths(text: str) -> tuple[int, ...]:
    try:
        return _decimal_list(text)
    except ValueError:
        raise CodesError(f"--lengths expects comma-separated integers, got {text!r}") from None


def _parse_pair(text: str) -> tuple[int, int]:
    if text.count(",") != 1:
        raise CodesError(f"--anchored expects two comma-separated lengths, got {text!r}")
    try:
        a, b = _decimal_list(text)
    except ValueError:
        raise CodesError(f"--anchored expects integers, got {text!r}") from None
    return a, b


def _universe_cap() -> int:
    raw = os.environ.get(ENV_CAP)
    if raw is None:
        return DEFAULT_UNIVERSE_CAP
    try:
        cap = parse_decimal(raw)
    except ValueError:
        raise CodesError(f"{ENV_CAP} must be an integer, got {raw!r}") from None
    if cap < 1:
        raise CodesError(f"{ENV_CAP} must be positive, got {decimal_text(cap)}")
    return cap


def _trace_payload(trace: SPTrace) -> dict:
    rounds = [sorted(w.text() for w in round_) for round_ in trace.rounds]
    violation = None
    if trace.violation is not None:
        index, word = trace.violation
        violation = {"round": index, "word": word.text()}
    return {
        "rounds": rounds,
        "termination": trace.termination,
        "repeated_round": trace.repeated_index,
        "violation": violation,
    }


def _delay_payload(report: DelayReport) -> dict:
    witness = None
    if report.witness is not None:
        w = report.witness
        witness = {
            "preamble": w.preamble.text(),
            "period": w.period.text(),
            "rendered": w.rendered(),
            "first_words": [word.text() for word in w.first_words],
        }
    return {"finite": report.finite, "value": report.delay, "witness": witness}


def _read_ascii(path: str) -> str:
    """The text of an input file; a CodeFileError names the line and column
    of its first byte that is not ASCII."""
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        return data.decode("ascii")
    except UnicodeDecodeError as exc:
        # the offending byte stands where "x" is appended
        lines = (data[: exc.start].decode("ascii") + "x").splitlines()
        line, column = len(lines), len(lines[-1])
        raise CodeFileError(
            f"line {line}, column {column}: byte 0x{data[exc.start]:02x} is not ASCII",
            line=line,
            column=column,
        ) from None


def cmd_check(args: argparse.Namespace) -> tuple[dict, int]:
    text = _read_ascii(args.file)
    code = parse_code_file(text)
    c = classify(code)
    results: dict = {
        "alphabet": code.alphabet.size,
        "words": [w.text() for w in code.words],
        "injective": c.injective,
        "prefix": c.prefix,
        "ud": c.ud,
    }
    if not c.ud:
        found = two_factorization_search(code, safe_bound(code))
        if found is not None:
            word, first, second = found
            results["counterexample"] = {
                "word": word.text(),
                "factorizations": [list(first), list(second)],
            }
    if args.trace:
        results["sp_trace"] = _trace_payload(sardinas_patterson(code))
    if args.delay:
        # only an infinite delay of distinct words has a witness to build
        if c.injective and not c.finite_delay:
            report = delay_analysis(code)
        else:
            report = DelayReport(c.finite_delay, c.delay, None)
        results["delay"] = _delay_payload(report)
    return results, 0


def cmd_count(args: argparse.Namespace) -> tuple[dict, int]:
    cap = _universe_cap()
    lengths = _parse_lengths(args.lengths)
    n = args.alphabet
    mode = {"enumerate": "enumeration"}.get(args.method, args.method)
    # the (lengths, n) refusals, then the pair's and the bound's Kraft
    # refusal, before the census
    results: dict = {"kraft_sum": kraft_sum(lengths, n), "feasible": is_feasible(lengths, n)}
    family = None
    if args.anchored is not None:
        family = count_anchored_prefix_codes(lengths, n, *_parse_pair(args.anchored))
        _require_feasible(family.profile, n)
    report = census(lengths, n, mode=mode, cap=cap)
    results["census"] = {k: v for k, v in report._asdict().items() if k not in ("profile", "n")}
    if family is not None:
        a, b = family.a, family.b
        bound = theorem1_bound(lengths, n, a, b, ud_count=report.ud)
        results["anchored"] = {
            "a": a,
            "b": b,
            "anchor_words": [family.anchor_a.text(), family.anchor_b.text()],
            "count": family.count,
        }
        results["bound"] = {
            "lower_bound": bound.lower_bound,
            "pr": bound.pr_count,
            "ud": bound.ud_count,
            "ratio": bound.ratio,
            "satisfied": bound.satisfied,
        }
    return results, 1 if report.discrepancies else 0


def cmd_witness(args: argparse.Namespace) -> tuple[dict, int]:
    lengths = _parse_lengths(args.lengths)
    n = args.alphabet
    results: dict = {}
    if args.kind == "prefix":
        code = canonical_prefix_code(lengths, n)
    elif args.kind == "ud-nonprefix":
        code = ud_nonprefix_witness(lengths, n)
    else:
        code, spec = infinite_delay_witness(lengths, n)
        results["case"] = {
            "name": spec.case,
            "a": spec.a,
            "b": spec.b,
            "remainder": spec.remainder,
            "quotient": spec.quotient,
        }
    results["code_file"] = code_to_text(code)
    results["words"] = [w.text() for w in code.words]
    results["classification"] = classify(code)._asdict()
    return results, 0


ORACLE_UNIVERSE_LIMIT = 10**4


def _visits(
    suite: Iterable[tuple[Optional[int], tuple[int, ...]]], alphabet_max: int, cap: int
) -> Iterator:
    """(lengths, n, universe) for each (line, lengths) row at n = 2, 3, ...,
    alphabet_max, up to and including the first n whose universe is above
    the cap: the universe n^(sum of lengths) only grows with n.
    universe_size refuses a malformed row or an oversized power, and a row
    read from a file is refused with its line."""
    for line, lengths in suite:
        for n in range(2, alphabet_max + 1):
            try:
                universe = universe_size(lengths, n)
            except CodesError as exc:
                if line is None:
                    raise
                raise CodeFileError(f"line {line}: {exc}", line=line) from None
            yield lengths, n, universe
            if universe > cap:
                break


def _verify_profile(
    lengths: tuple[int, ...],
    n: int,
    universe: int,
    cap: int,
    agreement: Optional[tuple[int, str]],
) -> Iterator:
    """The checks of one profile at alphabet size n, as (check, ok, detail);
    only a skip record when its universe is above the cap.  agreement is
    the profile's oracle cross-check from _oracle_agreements, None where it
    does not run."""
    if universe > cap:
        yield "census-cross-check", True, f"skipped: universe {decimal_text(universe)} above cap"
        return
    report = census(lengths, n, mode="both", cap=cap)
    yield "census-cross-check", not report.discrepancies, "; ".join(report.discrepancies)

    if is_feasible(lengths, n):
        pr_eq = is_pr_eq_ud(lengths, n)
        yield (
            "pr-eq-ud-predicate",
            pr_eq == (report.pr == report.ud),
            f"predicate {pr_eq}, counts pr={report.pr} ud={report.ud}",
        )
        fd_eq = is_fd_eq_ud(lengths, n)
        yield (
            "fd-eq-ud-predicate",
            fd_eq == (report.fd == report.ud),
            f"predicate {fd_eq}, counts fd={report.fd} ud={report.ud}",
        )
        if not report.profile.is_constant:
            witness = ud_nonprefix_witness(lengths, n)
            c = classify(witness)
            yield (
                "ud-nonprefix-witness",
                c.ud and not c.prefix and witness.lengths == lengths,
                ",".join(witness.texts()),
            )
            for a, b in itertools.combinations(report.profile.values, 2):
                bound = theorem1_bound(lengths, n, a, b, ud_count=report.ud)
                yield (
                    "ratio-bound",
                    bound.satisfied is not False,
                    f"a={a} b={b} lower={bound.lower_bound} ratio={bound.ratio}",
                )
        if not fd_eq:
            code, spec = infinite_delay_witness(lengths, n)
            c = classify(code)
            yield (
                "infinite-delay-witness",
                c.ud and not c.finite_delay and code.lengths == lengths,
                f"case {spec.case}: " + ",".join(code.texts()),
            )

    if agreement is not None:
        disagreements, sample = agreement
        yield (
            "oracle-agreement",
            disagreements == 0,
            f"{disagreements} disagreements" + (f", first {sample}" if sample else ""),
        )


# The oracle cross-check runs in at most one process per CPU and per this
# many codes, so a process is not forked for a few milliseconds of work.
ORACLE_CODES_PER_PROCESS = 256

def _oracle_part(
    profiles: list[tuple[tuple[int, ...], int]], cap: int, part: int, parts: int
) -> list[tuple[int, int, str]]:
    """The oracle cross-check of each (lengths, n) profile on the codes whose
    enumeration index is part mod parts: classify against the
    two-factorization search, and the delay of an injective code against
    the bounded probe, both up to the code's safe bound.  Per profile, the
    disagreements, the index of the first and its text (-1 and "" when
    there is none)."""
    results = []
    for lengths, n in profiles:
        disagreements, first, sample = 0, -1, ""
        codes = itertools.islice(enumerate(enumerate_codes(lengths, n, cap)), part, None, parts)
        for index, code in codes:
            c = classify(code)
            bound = safe_bound(code)
            ok = c.ud == (two_factorization_search(code, bound) is None)
            if ok and c.injective:
                probe = bounded_delay_probe(code, bound)
                ok = (c.finite_delay, c.delay) == (probe.verdict == "finite", probe.delay)
            if not ok:
                if not disagreements:
                    first, sample = index, ",".join(code.texts())
                disagreements += 1
        results.append((disagreements, first, sample))
    return results


def _oracle_child(
    write: int, profiles: list[tuple[tuple[int, ...], int]], cap: int, part: int, parts: int
) -> NoReturn:
    """A forked child's whole life: its part's results, marshalled into the
    pipe, and exit status 0 only once they are all written."""
    status = 1
    try:
        data = marshal.dumps(_oracle_part(profiles, cap, part, parts))
        with open(write, "wb") as out:
            out.write(data)
        status = 0
    finally:
        # no exit handler, buffer flush or traceback of the parent's runs here
        os._exit(status)


def _oracle_agreements(
    profiles: list[tuple[tuple[int, ...], int, int]], cap: int
) -> list[tuple[int, str]]:
    """Per (lengths, n, universe) profile, the oracle cross-check's number of
    disagreements and the text of the first disagreeing code in enumeration
    order ("" when there is none).

    The codes are split into K parts by their enumeration index mod K, with
    K the CPUs this process may run on, but at most one per
    ORACLE_CODES_PER_PROCESS codes.  Part 0 runs here and the others in
    forked children, which send their results back through a pipe; a part
    whose child fails is run again here, so a refusal surfaces as it would
    in one process.  Every child is reaped before this returns or raises."""
    pairs = [(lengths, n) for lengths, n, _ in profiles]
    affinity = getattr(os, "sched_getaffinity", None)
    cpus = len(affinity(0)) if affinity is not None else 1
    parts = max(1, min(cpus, sum(u for _, _, u in profiles) // ORACLE_CODES_PER_PROCESS))
    children: list[tuple[int, int, int]] = []  # (pid, read end of its pipe, part)
    try:
        for part in range(1, parts):
            read, write = os.pipe()
            pid = os.fork()
            if pid == 0:
                _oracle_child(write, pairs, cap, part, parts)
            os.close(write)
            children.append((pid, read, part))
        found = [_oracle_part(pairs, cap, 0, parts)]
        while children:
            pid, read, part = children.pop()
            try:
                with open(read, "rb") as handle:
                    data = handle.read()
            finally:
                _, status = os.waitpid(pid, 0)
            found.append(_oracle_part(pairs, cap, part, parts) if status else marshal.loads(data))
    finally:
        for pid, read, _ in children:
            os.close(read)  # a child still writing stops at the closed pipe
            os.waitpid(pid, 0)
    agreements = []
    for per_part in zip(*found):
        disagreements = sum(d for d, _, _ in per_part)
        _, sample = min(((first, sample) for d, first, sample in per_part if d), default=(-1, ""))
        agreements.append((disagreements, sample))
    return agreements


def cmd_verify(args: argparse.Namespace) -> tuple[dict, int]:
    cap = _universe_cap()
    if args.suite:
        suite = _parse_suite(_read_ascii(args.suite))
    else:
        suite = tuple((None, lengths) for lengths in BUILTIN_SUITE)
    if args.alphabet_max < 2:
        raise CodesError(
            f"--alphabet-max must be at least 2, got {decimal_text(args.alphabet_max)}"
        )
    if not suite:
        raise CodesError(f"suite file {args.suite!r} holds no length sequence")
    visits = list(_visits(suite, args.alphabet_max, cap))  # every refusal before any check
    # the oracles run on the binary codes of each profile of at most
    # ORACLE_UNIVERSE_LIMIT codes, all in one split of the work
    oracle = [n == 2 and universe <= min(cap, ORACLE_UNIVERSE_LIMIT) for _, n, universe in visits]
    agreements = iter(_oracle_agreements(list(itertools.compress(visits, oracle)), cap))
    checks = [
        {"profile": ",".join(map(str, lengths)), "n": n, "check": name, "ok": ok, "detail": detail}
        for (lengths, n, universe), runs in zip(visits, oracle)
        for name, ok, detail in _verify_profile(
            lengths, n, universe, cap, next(agreements) if runs else None
        )
    ]
    failures = [c for c in checks if not c["ok"]]
    results = {
        "checks_run": len(checks),
        "failures": len(failures),
        "all_passed": not failures,
        "checks": checks,
    }
    return results, 1 if failures else 0


class _OpenOnWrite:
    """A text file opened, and so truncated, on the first write: a refused
    run writes nothing and so leaves an existing file alone."""

    handle: Optional[IO[str]] = None

    def __init__(self, path: str):
        self.path = path

    def write(self, text: str) -> int:
        if self.handle is None:
            self.handle = open(self.path, "w", encoding="ascii")
        return self.handle.write(text)


def cmd_classify_all(args: argparse.Namespace) -> tuple[Optional[dict], int]:
    cap = _universe_cap()
    lengths = _parse_lengths(args.lengths)
    if args.output in (None, "-"):
        write_classification_csv(lengths, args.alphabet, sys.stdout, cap=cap)
        return None, 0
    out = _OpenOnWrite(args.output)
    try:
        rows = write_classification_csv(lengths, args.alphabet, out, cap=cap)
    finally:
        if out.handle is not None:
            out.handle.close()
    return {"rows": rows, "path": args.output}, 0


def _render_pretty(value: dict | list, indent: int = 0) -> list[str]:
    pad = "  " * indent
    lines: list[str] = []
    if isinstance(value, dict):
        for key, item in value.items():
            if isinstance(item, (dict, list)):
                lines.append(f"{pad}{key}:")
                lines.extend(_render_pretty(item, indent + 1))
            else:
                lines.append(f"{pad}{key}: {item}")
    else:
        for item in value:
            if isinstance(item, (dict, list)):
                lines.append(f"{pad}-")
                lines.extend(_render_pretty(item, indent + 1))
            else:
                lines.append(f"{pad}- {item}")
    return lines


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="udcodes",
        description="Decide, count, construct and verify uniquely decodable "
        "codes with prescribed word lengths.",
    )
    parser.add_argument(
        "--pretty", action="store_true", help="human-readable output instead of JSON"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="decide properties of a code file")
    p_check.add_argument("file", help="code file (line 1: 'alphabet <n>', then one word per line)")
    p_check.add_argument("--trace", action="store_true", help="include the decision rounds")
    p_check.add_argument("--delay", action="store_true", help="include the delay analysis")
    p_check.set_defaults(handler=cmd_check)

    p_count = sub.add_parser("count", help="count code classes for a length sequence")
    p_count.add_argument("--lengths", required=True, help="comma-separated word lengths")
    p_count.add_argument("--alphabet", required=True, type=_decimal_arg, help="alphabet size n")
    p_count.add_argument(
        "--method",
        choices=("formula", "enumerate", "both"),
        default="both",
        help="closed formulas, exhaustive enumeration, or cross-checked both",
    )
    p_count.add_argument(
        "--anchored",
        metavar="a,b",
        help="also count the prefix codes anchored at two length values and "
        "report the ratio lower bound",
    )
    p_count.set_defaults(handler=cmd_count)

    p_witness = sub.add_parser("witness", help="construct a witness code")
    p_witness.add_argument(
        "--kind",
        required=True,
        choices=("prefix", "ud-nonprefix", "infinite-delay"),
        help="which kind of code to construct",
    )
    p_witness.add_argument("--lengths", required=True, help="comma-separated word lengths")
    p_witness.add_argument("--alphabet", required=True, type=_decimal_arg, help="alphabet size n")
    p_witness.set_defaults(handler=cmd_witness)

    p_verify = sub.add_parser("verify", help="run the cross-check suite")
    p_verify.add_argument(
        "--suite", help="file of length sequences, one comma-separated line each"
    )
    p_verify.add_argument(
        "--alphabet-max", type=_decimal_arg, default=3, help="check alphabet sizes 2..N"
    )
    p_verify.set_defaults(handler=cmd_verify)

    p_all = sub.add_parser("classify-all", help="CSV of every code's classification")
    p_all.add_argument("--lengths", required=True, help="comma-separated word lengths")
    p_all.add_argument("--alphabet", required=True, type=_decimal_arg, help="alphabet size n")
    p_all.add_argument("--output", help="CSV path ('-' or omitted: standard output)")
    p_all.set_defaults(handler=cmd_classify_all)
    return parser


def _emit(report: dict, pretty: bool) -> None:
    if pretty:
        print("\n".join(_render_pretty(report)))
    else:
        print(json.dumps(report, sort_keys=True, indent=2))


def main(argv: Optional[list[str]] = None) -> int:
    try:
        exit_code = _run(argv)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader of stdout has gone, so no report can reach it; stdout
        # is pointed at devnull, so the flush at exit does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 2
    return exit_code


def _run(argv: Optional[list[str]]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    # the subcommand's own arguments, in the order it declares them
    inputs = {k: v for k, v in vars(args).items() if k not in ("command", "handler", "pretty")}
    report: dict = {"command": args.command, "inputs": _s(inputs), "results": {}}
    try:
        # a handler returns (results, exit code), or results None when it
        # wrote its own output
        results, exit_code = args.handler(args)
        if results is None:
            return exit_code
        report.update(results=_s(results), status="ok")
    except BrokenPipeError:
        raise  # a closed stdout: main ends the run without a report
    except (CodesError, OSError) as exc:
        error: dict = {"message": str(exc)}
        if isinstance(exc, CodeFileError):
            error["line"] = _s(exc.line)
            error["column"] = _s(exc.column)
        if isinstance(exc, UniverseTooLarge):
            error["universe"] = _s(exc.total)
        report.update(status="error", error=error)
        exit_code = 2
    _emit(report, args.pretty)
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
