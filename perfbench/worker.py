"""One benchmark unit in a fresh interpreter, started by run.py.

    python3 perfbench/worker.py probe --seed S --size Z [--trace 0|1] [--spans FILE]
        run the probe-large library calls on every generated code.
    python3 perfbench/worker.py cli --workload W --seed S --size Z --op I [--trace 0|1] [--spans FILE]
        run CLI command I of a workload in-process through udcodes.cli.main.

Each prints one JSON object: the outputs to check, the in-process
work time, and with --trace 1 the per-layer metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import time
from contextlib import redirect_stdout


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def verdicts(code) -> list:
    """[prefix, ud, finite delay, delay, two-factorization found, probe verdict,
    probe delay] from the decider and both oracles."""
    from udcodes import (
        bounded_delay_probe,
        delay_analysis,
        is_prefix_code,
        safe_bound,
        sardinas_patterson,
        two_factorization_search,
    )

    prefix = is_prefix_code(code)
    unique = sardinas_patterson(code).unique
    report = delay_analysis(code)
    bound = safe_bound(code)
    found = two_factorization_search(code, bound)
    probe = bounded_delay_probe(code, bound)
    return [prefix, unique, report.finite, report.delay, found is not None, probe.verdict, probe.delay]


def run_probe(args, tracer) -> dict:
    t0 = now()
    import codegen

    codes = codegen.generate(args.size, args.seed)
    results = []
    for name, family, code in codes:
        entry = {"name": name, "family": family, "words": list(code.texts())}
        try:
            entry["verdicts"] = verdicts(code)
        except Exception as exc:  # recorded and counted as a failed operation
            entry["error"] = f"{type(exc).__name__}: {exc}"
        results.append(entry)
    return {"codes": results, "work_s": now() - t0}


def run_cli(args, tracer) -> dict:
    import udcodes.cli
    import workloads

    op = workloads.cli_ops(args.workload, args.size, args.seed)[args.op]
    if op.suite is not None:
        with open(workloads.SUITE_FILE, "w", encoding="ascii") as handle:
            handle.write(op.suite)
    buffer = io.StringIO()
    if tracer is not None:
        tracer.install()
    t0 = now()
    with redirect_stdout(buffer):
        exit_code = udcodes.cli.main(list(op.argv))
    main_s = now() - t0
    return {
        "exit": exit_code,
        "stdout_sha256": hashlib.sha256(buffer.getvalue().encode()).hexdigest(),
        "work_s": main_s,
        "cli.main_s": main_s,
    }


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("probe", "cli"))
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", default="full")
    parser.add_argument("--op", type=int, default=0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--spans")
    args = parser.parse_args()

    tracer = None
    if args.trace:
        import udcodes.cli  # noqa: F401  (loads every module before patching)
        from tracer import Tracer

        tracer = Tracer()
        if args.mode == "probe":
            tracer.install()
    result = (run_probe if args.mode == "probe" else run_cli)(args, tracer)
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.layer_metrics()
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
