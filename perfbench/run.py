"""udcodes benchmark runner.

Run one workload (from the root of a checkout):

    python3 perfbench/run.py --workload census --seed 1 --seconds 60 --trace 0

--trace 0 times the workload from outside: every CLI command, and the
probe worker, runs as its own fresh interpreter, repeated in passes while
another fits in --seconds.  wall_s is the sum of each command's median
wall time over the run's passes, codes_per_s the codes a pass covers over
wall_s, setup_s and peak_rss_mb are medians.  --trace 1 runs
the same commands in-process in a worker, once untraced and then with spans
around every public udcodes function, and reports the per-layer metrics.
Every output is checked against perfbench/refs.json (outputs of the commit
that introduced the benchmark); the last stdout line is one JSON object with
correct / attempted / failed / metrics.  The exit code is 0 only when every
operation matched its reference.

Other modes:

    python3 perfbench/run.py --workload all --seed 1 --seconds 10   # every workload, both trace modes
    python3 perfbench/run.py ... --out results.jsonl                # append a full run record
    python3 perfbench/run.py --compare base.jsonl new.jsonl         # median/quartile/ratio table
    python3 perfbench/run.py --selftest                             # small sizes + a wrong reference
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import workloads as wl
from tracer import COUNTS, SPAN_NAMES

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_REFS = str(Path(__file__).resolve().parent / "refs.json")
CHILD_ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
# per runner process, so a nested run (the self-test) has its own files
CHILD_OUT = f"{wl.WORK_DIR}/child-{os.getpid()}.out"
CHILD_ERR = f"{wl.WORK_DIR}/child-{os.getpid()}.err"
RUN_LIMIT_S = 170  # every child is killed once a run has lasted this long
SETUP_SAMPLES_PER_PASS = 5  # before each pass and after the last
MIN_PASSES = 2  # end-to-end runs time at least two passes, even past --seconds


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def unit_of(name: str) -> str:
    for suffix, unit in (("_per_s", "1/s"), ("_s", "s"), ("_share", "share"), ("_mb", "MB")):
        if name.endswith(suffix):
            return unit
    return "count"


def summary(samples: list[float]) -> dict:
    """Median and quartiles (statistics.quantiles, n=4) of one metric's samples."""
    median = statistics.median(samples)
    q1, _, q3 = statistics.quantiles(samples, n=4) if len(samples) > 1 else (median,) * 3
    return {"value": median, "q1": q1, "q3": q3, "n": len(samples), "samples": samples}


# ---------------------------------------------------------------------------
# child processes


class RunTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise RunTimeout("run time limit reached")


@dataclass
class Child:
    """A finished child process."""

    t0: float  # monotonic clock just before the spawn
    wall: float
    exit: int
    rss_mb: float  # peak resident set size
    stdout: bytes
    stderr: str


def _reap(pid: int) -> None:
    try:
        os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    try:
        os.waitpid(pid, 0)
    except ChildProcessError:
        pass


def spawn(args: list[str], deadline: float) -> Child:
    """Run `python3 <args>` with the checkout's src on the path and wait for
    it; stdout and stderr go to files so no pipe can fill up."""
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, CHILD_OUT, flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, CHILD_ERR, flags, 0o644),
    ]
    remaining = deadline - now()
    if remaining <= 0:
        raise RunTimeout("run time limit reached")
    t0 = now()
    pid = os.posix_spawn(sys.executable, [sys.executable, *args], CHILD_ENV, file_actions=actions)
    signal.setitimer(signal.ITIMER_REAL, remaining)
    try:
        _, status, usage = os.wait4(pid, 0)
    except BaseException:
        _reap(pid)
        raise
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    wall = now() - t0
    stdout = Path(CHILD_OUT).read_bytes()
    stderr = Path(CHILD_ERR).read_text(errors="replace")
    return Child(t0, wall, os.waitstatus_to_exitcode(status), usage.ru_maxrss / 1024, stdout, stderr)


def last_json(stdout: bytes) -> dict:
    """The JSON object on the last line of a child's stdout."""
    lines = stdout.decode(errors="replace").strip().splitlines()
    if not lines:
        raise ValueError("no output")
    return json.loads(lines[-1])


def worker_result(child: Child) -> dict:
    if child.exit != 0:
        raise ValueError(f"exit {child.exit}: {child.stderr.strip()[-300:]}")
    return last_json(child.stdout)


# ---------------------------------------------------------------------------
# checking


class Tally:
    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def record(self, what: str, error) -> None:
        self.attempted += 1
        if error:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(f"{what}: {error}")


def check_probe(entry: dict, refs: dict):
    """None when the verdicts of one probe-large code are consistent and match
    the reference, else why not."""
    if "error" in entry:
        return entry["error"]
    prefix, ud, finite, delay, found, verdict, probe_delay = entry["verdicts"]
    if ud == found:
        return "Sardinas-Patterson and the two-factorization search disagree"
    if finite != (verdict == "finite") or delay != probe_delay:
        return "delay analysis and the bounded probe disagree"
    if finite and not ud:
        return "finite delay reported for a code that is not uniquely decodable"
    family = entry["family"]
    if family == "fixed":
        ref = refs["probe"].get(entry["name"])
        if ref is None or ref != {"words": entry["words"], "verdicts": entry["verdicts"]}:
            return "differs from the reference"
    if family == "prefix" and not (prefix and finite):
        return "a generated prefix code was not classified as prefix with finite delay"
    if family == "suffix" and not ud:
        return "a generated suffix code was classified as not uniquely decodable"
    return None


# ---------------------------------------------------------------------------
# one pass of a workload


def probe_checked(child: Child, opts, tally: Tally):
    """The probe worker's result with every probed code checked, or None when
    the worker failed."""
    try:
        result = worker_result(child)
    except ValueError as exc:
        tally.record("probe worker", str(exc))
        return None
    for entry in result["codes"]:
        tally.record(entry["name"], check_probe(entry, opts.refs_data))
    return result


def probe_args(opts) -> list[str]:
    return ["perfbench/worker.py", "probe", "--seed", str(opts.seed), "--size", opts.size]


def pass_labels(opts) -> list[str]:
    """What each command of a pass runs, in order."""
    labels = [op.key for op in wl.cli_ops(opts.workload, opts.size, opts.seed)]
    if opts.workload in wl.PROBE_WORKLOADS:
        labels.append(" ".join(probe_args(opts)))
    return labels


def one_pass(opts, ops, deadline: float, tally: Tally) -> dict:
    """The workload's CLI commands, then the probe worker where the workload
    has one; each command's wall time, the largest peak RSS and the codes
    covered."""
    walls = []
    rss = codes = 0.0
    for op in ops:
        if op.suite is not None:
            Path(wl.SUITE_FILE).write_text(op.suite, encoding="ascii")
        child = spawn(["-m", "udcodes.cli", *op.argv], deadline)
        stdout_sha256 = hashlib.sha256(child.stdout).hexdigest()
        tally.record(op.key, wl.check_cli(op, stdout_sha256, child.exit, opts.refs_data))
        walls.append(child.wall)
        rss = max(rss, child.rss_mb)
        codes += op.codes
    if opts.workload in wl.PROBE_WORKLOADS:
        child = spawn(probe_args(opts), deadline)
        result = probe_checked(child, opts, tally)
        walls.append(child.wall)
        rss = max(rss, child.rss_mb)
        codes += len(result["codes"]) if result else 0
    return {"walls": walls, "peak_rss_mb": rss, "codes": codes}


def setup_snippet(opts) -> str:
    """Start-up of a fresh interpreter until `import udcodes` returns; for a
    workload with the probe until the probe's seeded codes are generated as
    well."""
    snippet = "import udcodes, time\n"
    if opts.workload in wl.PROBE_WORKLOADS:
        snippet = (
            "import sys, time\nsys.path.insert(0, 'perfbench')\nimport udcodes, codegen\n"
            f"codegen.generate({opts.size!r}, {opts.seed})\n"
        )
    return snippet + "print(repr(time.clock_gettime(time.CLOCK_MONOTONIC)))\n"


def setup_times(snippet: str, count: int, deadline: float) -> list[float]:
    samples = []
    for _ in range(count):
        child = spawn(["-c", snippet], deadline)
        if child.exit != 0:
            raise RuntimeError(f"import failed: {child.stderr.strip()}")
        samples.append(float(child.stdout) - child.t0)
    return samples


def end_to_end(opts, deadline: float, tally: Tally) -> dict:
    snippet = setup_snippet(opts)
    setup_times(snippet, 1, deadline)  # warms the bytecode cache
    setup: list[float] = []
    ops = wl.cli_ops(opts.workload, opts.size, opts.seed)
    passes = []
    started = now()
    while True:
        # set-up samples spread over the run, so one slow phase of the
        # machine does not decide their median
        setup += setup_times(snippet, SETUP_SAMPLES_PER_PASS, deadline)
        passes.append(one_pass(opts, ops, deadline, tally))
        elapsed = now() - started
        if len(passes) >= MIN_PASSES and elapsed + elapsed / len(passes) > opts.seconds:
            break
    setup += setup_times(snippet, SETUP_SAMPLES_PER_PASS, deadline)
    commands = [summary(list(times)) for times in zip(*(p["walls"] for p in passes))]
    # wall_s adds up each command's median, so one slow sample of one
    # command does not make its whole pass the median pass
    wall = sum(c["value"] for c in commands)
    codes = max(p["codes"] for p in passes)
    totals = [sum(p["walls"]) for p in passes]
    out = {
        "setup_s": summary(setup),
        "wall_s": dict(summary(totals), value=wall, stat="sum of command medians"),
        "codes_per_s": dict(summary([codes / t for t in totals]), value=codes / wall, stat="codes / wall_s"),
        "peak_rss_mb": summary([p["peak_rss_mb"] for p in passes]),
    }
    for i, command in enumerate(commands, 1):
        out[f"cmd{i}.wall_s"] = command
    return out


def worker_units(opts) -> list[list[str]]:
    base = ["--seed", str(opts.seed), "--size", opts.size]
    ops = wl.cli_ops(opts.workload, opts.size, opts.seed)
    units = [["perfbench/worker.py", "cli", "--workload", opts.workload, "--op", str(i), *base] for i in range(len(ops))]
    if opts.workload in wl.PROBE_WORKLOADS:
        units.append(probe_args(opts))
    return units


def in_process_pass(opts, trace: int, deadline: float, tally: Tally) -> dict:
    """Every unit of the workload in its own worker; layer metrics summed."""
    ops = wl.cli_ops(opts.workload, opts.size, opts.seed)
    total: dict = {"work_s": 0.0, "cli.main_s": 0.0}
    for i, unit in enumerate(worker_units(opts)):
        args = unit + ["--trace", str(trace)]
        if trace:
            args += ["--spans", f"{wl.WORK_DIR}/spans-{opts.workload}-{i}.bin"]
        child = spawn(args, deadline)
        if i == len(ops):
            result = probe_checked(child, opts, tally)
            if result is None:
                continue
        else:
            try:
                result = worker_result(child)
            except ValueError as exc:
                tally.record(f"worker {' '.join(unit)}", str(exc))
                continue
            op = ops[i]
            tally.record(op.key, wl.check_cli(op, result["stdout_sha256"], result["exit"], opts.refs_data))
            total["cli.main_s"] += result["cli.main_s"]
        total["work_s"] += result["work_s"]
        for name, value in result.get("layers", {}).items():
            total[name] = total.get(name, 0) + value
    return total


def per_layer(opts, deadline: float, tally: Tally) -> dict:
    untraced = in_process_pass(opts, 0, deadline, tally)
    traced = []
    started = now()
    while True:
        traced.append(in_process_pass(opts, 1, deadline, tally))
        elapsed = now() - started
        if elapsed + elapsed / len(traced) > opts.seconds:
            break
    out = {}
    for name in SPAN_NAMES + list(COUNTS) + ["trace.spans"]:
        out[name] = summary([float(t.get(name, 0)) for t in traced])
    out["cli.main_s"] = summary([untraced["cli.main_s"]])
    first = traced[0]
    out["enumeration.nonud_share"] = summary([first["enumeration.nonud"] / max(first["enumeration.classified"], 1)])
    out["decide.delay_on_nonud_share"] = summary([first["decide.delay_on_nonud"] / max(first["decide.delay_calls"], 1)])
    out["trace.overhead_share"] = summary([t["work_s"] / untraced["work_s"] - 1 for t in traced])
    return out


# ---------------------------------------------------------------------------
# reporting


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": list(os.getloadavg()),
    }


def declared(section: str) -> dict:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m for m in bench[section]}


def fmt(x: float) -> str:
    return f"{x:.6g}"


def run_one(opts) -> dict:
    """One workload, one trace mode; prints the report and returns the record."""
    deadline = opts.started + RUN_LIMIT_S
    tally = Tally()
    env = environment()
    try:
        metrics = (per_layer if opts.trace else end_to_end)(opts, deadline, tally)
    except RunTimeout as exc:
        tally.record("run", str(exc))
        metrics = {}
    section = "per_layer" if opts.trace else "end_to_end"
    wanted = declared(section)
    print(
        f"# workload {opts.workload}  size {opts.size}  seed {opts.seed}  trace {opts.trace}  "
        f"python {env['python']}  nproc {env['nproc']}  loadavg {' '.join(f'{x:.2f}' for x in env['loadavg'])}"
    )
    if not opts.trace:
        for i, label in enumerate(pass_labels(opts), 1):
            print(f"# cmd{i}: {label}")
    for name, s in metrics.items():
        mark = "" if name in wanted else "  (printed only)"
        print(
            f"{name:32s} {fmt(s['value']):>12s} {unit_of(name):6s} {s.get('stat', 'median')}; "
            f"q1 {fmt(s['q1'])} q3 {fmt(s['q3'])} n={s['n']}{mark}"
        )
    failed_share = tally.failed / max(tally.attempted, 1)
    print(f"{'failed_share':32s} {fmt(failed_share):>12s} share  ({tally.failed} of {tally.attempted} operations)")
    for error in tally.errors:
        print(f"FAILED {error}")
    return {
        "workload": opts.workload,
        "size": opts.size,
        "seed": opts.seed,
        "trace": opts.trace,
        "env": env,
        "attempted": max(tally.attempted, 1),
        "failed": tally.failed if tally.attempted else 1,
        "errors": tally.errors,
        "metrics": {name: dict(s, unit=unit_of(name)) for name, s in metrics.items()},
        "result_metrics": {
            name: {"value": metrics[name]["value"], "unit": wanted[name]["unit"]}
            for name in wanted
            if name in metrics
        },
    }


def result_line(records: list[dict], prefix: bool) -> dict:
    failed = sum(r["failed"] for r in records)
    metrics = {}
    for r in records:
        for name, m in r["result_metrics"].items():
            metrics[f"{r['workload']}/{name}" if prefix else name] = m
    return {
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in records),
        "failed": failed,
        "metrics": metrics,
    }


# ---------------------------------------------------------------------------
# compare mode


def load_records(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def compare(base_path: str, new_path: str) -> int:
    """One row per workload and metric: each side's median and quartiles over
    its runs, the ratio new/base, and a status against the metric's bound."""
    bounds = {**declared("end_to_end"), **declared("per_layer")}
    sides = {}
    for label, path in (("base", base_path), ("new", new_path)):
        for record in load_records(path):
            for name, m in record["metrics"].items():
                key = (record["workload"], record["size"], name)
                sides.setdefault(key, {"base": [], "new": []})[label].append(m["value"])
    print(f"{'workload':16s} {'metric':30s} {'base median [q1, q3] n':38s} {'new median [q1, q3] n':38s} {'new/base':>9s}  status")
    for (workload, size, name), values in sorted(sides.items()):
        base, new = values["base"], values["new"]
        if not base or not new:
            continue
        sb, sn = summary(base), summary(new)
        ratio = sn["value"] / sb["value"] if sb["value"] else float("nan")
        meta = bounds.get(name, {})
        status = "-"
        if "bound" in meta and sb["value"] and sn["value"]:
            lower = meta["better"] == "lower"
            worse_by = (ratio - 1) if lower else (1 / ratio - 1)
            spread = max((s["q3"] - s["q1"]) / s["value"] for s in (sb, sn))
            separated = max(new) < min(base) or min(new) > max(base)
            if spread > meta["bound"] and not separated:
                status = "unresolved"
            elif worse_by > meta["bound"]:
                status = "worse"
            elif -worse_by > (sb["q3"] - sb["q1"]) / sb["value"] and separated:
                status = "better"
            else:
                status = "within bound"
        cell = lambda s: f"{fmt(s['value'])} [{fmt(s['q1'])}, {fmt(s['q3'])}] {s['n']}"
        label = workload if size == "full" else f"{workload}({size})"
        print(f"{label:16s} {name:30s} {cell(sb):38s} {cell(sn):38s} {ratio:9.4f}  {status}")
    return 0


# ---------------------------------------------------------------------------
# self-test


def selftest() -> int:
    """Small-size runs of every workload must pass; the same runs against a
    deliberately wrong reference must fail with a non-zero exit."""
    refs = json.loads(Path(DEFAULT_REFS).read_text())
    for entry in refs["cli"].values():
        entry["stdout_sha256"] = "0" * 64
    for entry in refs["probe"].values():
        entry["verdicts"] = [not v if isinstance(v, bool) else v for v in entry["verdicts"]]
    bad = f"{wl.WORK_DIR}/wrong-refs.json"
    Path(bad).write_text(json.dumps(refs))
    ok = True
    deadline = now() + 600
    for workload in wl.WORKLOADS:
        for trace in (0, 1):
            for refs_path, expect_ok in ((DEFAULT_REFS, True), (bad, False)):
                args = ["perfbench/run.py", "--workload", workload, "--size", "small", "--seed", "1",
                        "--seconds", "1", "--trace", str(trace), "--refs", refs_path]
                child = spawn(args, deadline)
                try:
                    result = last_json(child.stdout)
                except ValueError:  # includes json.JSONDecodeError
                    result = {}
                passed = (
                    (child.exit == 0) == expect_ok
                    and result.get("correct") is expect_ok
                    and (result.get("failed", 0) > 0) != expect_ok
                )
                ok &= passed
                what = "reference" if expect_ok else "wrong reference"
                print(f"{'PASS' if passed else 'FAIL'} {workload} trace {trace} with {what}: "
                      f"exit {child.exit}, failed {result.get('failed')} of {result.get('attempted')}, {child.wall:.1f} s")
    return 0 if ok else 1


# ---------------------------------------------------------------------------


def run_workloads(opts) -> int:
    opts.refs_data = json.loads(Path(opts.refs).read_text())
    records = []
    if opts.workload == "all":
        for workload in wl.WORKLOADS:
            for trace in (0, 1):
                opts.workload, opts.trace, opts.started = workload, trace, now()
                records.append(run_one(opts))
        opts.workload = "all"
    else:
        opts.started = now()
        records.append(run_one(opts))
    if opts.out:
        with open(opts.out, "a", encoding="utf-8") as handle:
            for record in records:
                handle.write(json.dumps(record) + "\n")
    line = result_line(records, prefix=opts.workload == "all")
    print(json.dumps(line))
    return 0 if line["correct"] else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=wl.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=60)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=wl.SIZES, default="full")
    parser.add_argument("--refs", default=DEFAULT_REFS, help="reference outputs (JSON)")
    parser.add_argument("--out", help="append the full run record to this JSON-lines file")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"), help="compare two --out files")
    parser.add_argument("--selftest", action="store_true")
    opts = parser.parse_args()

    if opts.compare:
        return compare(*opts.compare)
    opts.refs = os.path.abspath(opts.refs)
    opts.out = opts.out and os.path.abspath(opts.out)
    if not (ROOT / "src" / "udcodes" / "__init__.py").is_file():
        print(f"error: no udcodes sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    os.makedirs(wl.WORK_DIR, exist_ok=True)
    signal.signal(signal.SIGALRM, _on_alarm)
    try:
        if opts.selftest:
            return selftest()
        if opts.workload is None:
            parser.error("--workload is required")
        return run_workloads(opts)
    finally:
        for path in (CHILD_OUT, CHILD_ERR, wl.SUITE_FILE, wl.CSV_FILE):
            Path(path).unlink(missing_ok=True)


if __name__ == "__main__":
    sys.exit(main())
