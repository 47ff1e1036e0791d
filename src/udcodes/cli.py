"""Command-line interface: decide properties of a code file, count code
classes, construct witness codes, run the verification suite, and export
per-code classifications as CSV.

Reports are emitted as a single JSON object (sorted keys, so byte-stable for
identical inputs); every numeric value is rendered as a decimal string so
arbitrary-precision integers and exact rationals survive any consumer.
Exit status: 0 ok, 1 verification discrepancy, 2 usage or input error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from pathlib import Path
from typing import IO, Any, Optional

from .census import (
    DEFAULT_UNIVERSE_CAP,
    UniverseTooLarge,
    census,
    is_fd_eq_ud,
    is_pr_eq_ud,
    theorem1_bound,
    universe_size,
)
from .decide import DelayReport, SPTrace, classify, delay_analysis, is_prefix_code, sardinas_patterson
from .enumeration import (
    BUILTIN_SUITE,
    bounded_delay_probe,
    enumerate_codes,
    safe_bound,
    two_factorization_search,
    write_classification_csv,
)
from .kraft import (
    anchored_prefix_code,
    canonical_prefix_code,
    count_anchored_prefix_codes,
    infinite_delay_witness,
    is_feasible,
    kraft_sum,
    ud_nonprefix_witness,
)
from .words import Code, CodeFileError, CodesError, code_to_text, parse_code_file

ENV_CAP = "CODES_UNIVERSE_CAP"


def _s(value: Any) -> Any:
    """Numbers to decimal strings, recursively; leaves bools/None/str alone."""
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return value
    if isinstance(value, (int, Fraction)):
        return str(value)
    if isinstance(value, dict):
        return {k: _s(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_s(v) for v in value]
    raise TypeError(f"unexpected report value {value!r}")


def _parse_lengths(text: str) -> tuple[int, ...]:
    try:
        lengths = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise CodesError(f"--lengths expects comma-separated integers, got {text!r}")
    if not lengths or any(a < 1 for a in lengths):
        raise CodesError(f"--lengths values must be positive, got {text!r}")
    return lengths


def _parse_pair(text: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise CodesError(f"--anchored expects two comma-separated lengths, got {text!r}")
    try:
        a, b = (int(p) for p in parts)
    except ValueError:
        raise CodesError(f"--anchored expects integers, got {text!r}")
    return a, b


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


def _classification_payload(code: Code) -> dict:
    c = classify(code)
    return {
        "injective": c.injective,
        "prefix": c.prefix,
        "ud": c.ud,
        "finite_delay": c.finite_delay,
        "delay": c.delay,
    }


def cmd_check(args: argparse.Namespace, cap: int) -> tuple[dict, dict, int]:
    inputs = {"file": args.file, "trace": args.trace, "delay": args.delay}
    text = Path(args.file).read_text(encoding="ascii")
    code = parse_code_file(text)
    trace = sardinas_patterson(code)
    results: dict = {
        "alphabet": code.alphabet.size,
        "words": [w.text() for w in code.words],
        "injective": len(set(code.words)) == len(code.words),
        "prefix": is_prefix_code(code),
        "ud": trace.unique,
    }
    if not trace.unique:
        found = two_factorization_search(code, safe_bound(code))
        if found is not None:
            word, first, second = found
            results["counterexample"] = {
                "word": word.text(),
                "factorizations": [list(first), list(second)],
            }
    if args.trace:
        results["sp_trace"] = _trace_payload(trace)
    if args.delay:
        results["delay"] = _delay_payload(delay_analysis(code))
    return inputs, results, 0


def cmd_count(args: argparse.Namespace, cap: int) -> tuple[dict, dict, int]:
    inputs = {
        "lengths": args.lengths,
        "alphabet": args.alphabet,
        "method": args.method,
        "anchored": args.anchored,
    }
    lengths = _parse_lengths(args.lengths)
    n = args.alphabet
    mode = {"enumerate": "enumeration"}.get(args.method, args.method)
    report = census(lengths, n, mode=mode, cap=cap)
    results: dict = {
        "kraft_sum": kraft_sum(lengths, n),
        "feasible": is_feasible(lengths, n),
        "census": {
            "total": report.total,
            "pr": report.pr,
            "fd": report.fd,
            "ud": report.ud,
            "source": report.source,
            "discrepancies": list(report.discrepancies),
        },
    }
    if args.anchored is not None:
        a, b = _parse_pair(args.anchored)
        family = count_anchored_prefix_codes(lengths, n, a, b)
        bound = theorem1_bound(lengths, n, a, b, enumeration_cap=cap, ud_count=report.ud)
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
    exit_code = 1 if report.discrepancies else 0
    return inputs, results, exit_code


def cmd_witness(args: argparse.Namespace, cap: int) -> tuple[dict, dict, int]:
    inputs = {"kind": args.kind, "lengths": args.lengths, "alphabet": args.alphabet}
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
    results["classification"] = _classification_payload(code)
    return inputs, results, 0


def _read_suite(path: str) -> tuple[tuple[int, ...], ...]:
    rows = []
    for raw in Path(path).read_text(encoding="ascii").splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            rows.append(_parse_lengths(line))
    return tuple(rows)


ORACLE_UNIVERSE_LIMIT = 10**4


def _verify_profile(lengths: tuple[int, ...], n: int, cap: int, checks: list) -> None:
    def record(name: str, ok: bool, detail: str = "") -> None:
        checks.append(
            {
                "profile": ",".join(str(a) for a in lengths),
                "n": n,
                "check": name,
                "ok": ok,
                "detail": detail,
            }
        )

    total = universe_size(lengths, n)
    if total > cap:
        record("census-cross-check", True, f"skipped: universe {total} above cap")
        return

    report = census(lengths, n, mode="both", cap=cap)
    record(
        "census-cross-check",
        not report.discrepancies,
        "; ".join(report.discrepancies),
    )

    if is_feasible(lengths, n):
        pr_eq = is_pr_eq_ud(lengths, n)
        record(
            "pr-eq-ud-predicate",
            pr_eq == (report.pr == report.ud),
            f"predicate {pr_eq}, counts pr={report.pr} ud={report.ud}",
        )
        fd_eq = is_fd_eq_ud(lengths, n)
        record(
            "fd-eq-ud-predicate",
            fd_eq == (report.fd == report.ud),
            f"predicate {fd_eq}, counts fd={report.fd} ud={report.ud}",
        )
        profile = set(lengths)
        if len(profile) > 1:
            witness = ud_nonprefix_witness(lengths, n)
            c = classify(witness)
            record(
                "ud-nonprefix-witness",
                c.ud and not c.prefix and witness.lengths == lengths,
                ",".join(witness.texts()),
            )
            values = sorted(profile)
            for i, a in enumerate(values):
                for b in values[i + 1 :]:
                    bound = theorem1_bound(
                        lengths, n, a, b, enumeration_cap=cap, ud_count=report.ud
                    )
                    record(
                        "ratio-bound",
                        bound.satisfied is not False,
                        f"a={a} b={b} lower={bound.lower_bound} ratio={bound.ratio}",
                    )
        if not fd_eq:
            code, spec = infinite_delay_witness(lengths, n)
            c = classify(code)
            record(
                "infinite-delay-witness",
                c.ud and not c.finite_delay and code.lengths == lengths,
                f"case {spec.case}: " + ",".join(code.texts()),
            )

    if n == 2 and total <= ORACLE_UNIVERSE_LIMIT:
        disagreements = 0
        sample = ""
        for code in enumerate_codes(lengths, n, cap):
            trace = sardinas_patterson(code)
            bound = safe_bound(code)
            found = two_factorization_search(code, bound)
            ok = trace.unique == (found is None)
            if ok and len(set(code.words)) == len(code.words):
                analysis = delay_analysis(code)
                probe = bounded_delay_probe(code, bound)
                ok = (
                    analysis.finite == (probe.verdict == "finite")
                    and analysis.delay == probe.delay
                )
            if not ok:
                disagreements += 1
                sample = sample or ",".join(code.texts())
        record(
            "oracle-agreement",
            disagreements == 0,
            f"{disagreements} disagreements" + (f", first {sample}" if sample else ""),
        )


def cmd_verify(args: argparse.Namespace, cap: int) -> tuple[dict, dict, int]:
    inputs = {"suite": args.suite, "alphabet_max": args.alphabet_max}
    suite = _read_suite(args.suite) if args.suite else BUILTIN_SUITE
    checks: list = []
    for lengths in suite:
        for n in range(2, args.alphabet_max + 1):
            _verify_profile(lengths, n, cap, checks)
    failures = [c for c in checks if not c["ok"]]
    results = {
        "checks_run": len(checks),
        "failures": len(failures),
        "all_passed": not failures,
        "checks": checks,
    }
    return inputs, results, 1 if failures else 0


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


def cmd_classify_all(args: argparse.Namespace, cap: int) -> tuple[dict, dict, int]:
    inputs = {
        "lengths": args.lengths,
        "alphabet": args.alphabet,
        "output": args.output,
    }
    lengths = _parse_lengths(args.lengths)
    if args.output in (None, "-"):
        write_classification_csv(lengths, args.alphabet, sys.stdout, cap=cap)
        return inputs, {}, 0
    out = _OpenOnWrite(args.output)
    try:
        rows = write_classification_csv(lengths, args.alphabet, out, cap=cap)
    finally:
        if out.handle is not None:
            out.handle.close()
    return inputs, {"rows": rows, "path": args.output}, 0


def _render_pretty(value: Any, indent: int = 0) -> list[str]:
    pad = "  " * indent
    lines: list[str] = []
    if isinstance(value, dict):
        for key, item in value.items():
            if isinstance(item, (dict, list)):
                lines.append(f"{pad}{key}:")
                lines.extend(_render_pretty(item, indent + 1))
            else:
                lines.append(f"{pad}{key}: {item}")
    elif isinstance(value, list):
        for item in value:
            if isinstance(item, (dict, list)):
                lines.append(f"{pad}-")
                lines.extend(_render_pretty(item, indent + 1))
            else:
                lines.append(f"{pad}- {item}")
    else:
        lines.append(f"{pad}{value}")
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
    p_count.add_argument("--alphabet", required=True, type=int, help="alphabet size n")
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
    p_witness.add_argument("--alphabet", required=True, type=int, help="alphabet size n")
    p_witness.set_defaults(handler=cmd_witness)

    p_verify = sub.add_parser("verify", help="run the cross-check suite")
    p_verify.add_argument(
        "--suite", help="file of length sequences, one comma-separated line each"
    )
    p_verify.add_argument(
        "--alphabet-max", type=int, default=3, help="check alphabet sizes 2..N"
    )
    p_verify.set_defaults(handler=cmd_verify)

    p_all = sub.add_parser("classify-all", help="CSV of every code's classification")
    p_all.add_argument("--lengths", required=True, help="comma-separated word lengths")
    p_all.add_argument("--alphabet", required=True, type=int, help="alphabet size n")
    p_all.add_argument("--output", help="CSV path ('-' or omitted: standard output)")
    p_all.set_defaults(handler=cmd_classify_all)
    return parser


def _universe_cap() -> int:
    raw = os.environ.get(ENV_CAP)
    if raw is None:
        return DEFAULT_UNIVERSE_CAP
    try:
        cap = int(raw)
    except ValueError:
        raise CodesError(f"{ENV_CAP} must be an integer, got {raw!r}")
    if cap < 1:
        raise CodesError(f"{ENV_CAP} must be positive, got {cap}")
    return cap


def _emit(report: dict, pretty: bool) -> None:
    if pretty:
        print("\n".join(_render_pretty(report)))
    else:
        print(json.dumps(report, sort_keys=True, indent=2))


def main(argv: Optional[list[str]] = None) -> int:
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)  # counts are printed in full, however long
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        cap = _universe_cap()
        inputs, results, exit_code = args.handler(args, cap)
        report = {
            "command": args.command,
            "inputs": _s(inputs),
            "results": _s(results),
            "status": "ok",
        }
    except (CodesError, OSError) as exc:
        error: dict = {"message": str(exc)}
        if isinstance(exc, CodeFileError):
            error["line"] = _s(exc.line)
            error["column"] = _s(exc.column)
        if isinstance(exc, UniverseTooLarge):
            error["universe"] = _s(exc.total)
        report = {
            "command": args.command,
            "inputs": {},
            "results": {},
            "status": "error",
            "error": error,
        }
        exit_code = 2
    if not (args.command == "classify-all" and args.output in (None, "-") and report["status"] == "ok"):
        _emit(report, args.pretty)
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
