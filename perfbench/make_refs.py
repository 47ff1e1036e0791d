"""Write perfbench/refs.json: the outputs every benchmark run is checked against.

Run from the root of a checkout of the commit whose outputs are the
reference (the benchmark's references come from the commit that introduced
it; regenerate only when an output is meant to change):

    python3 perfbench/make_refs.py

Every command any seed can pick is run once as a subprocess, so this takes
several minutes.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import workloads as wl

ROOT = Path(__file__).resolve().parent.parent
ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def summarize(op: wl.CliOp, report: dict) -> dict:
    results = report["results"]
    if op.argv[0] == "count":
        return {"census": results["census"]}
    if op.argv[0] == "verify":
        return {k: results[k] for k in ("all_passed", "checks_run", "failures")}
    return {"rows": results["rows"]}


def cli_reference(op: wl.CliOp) -> dict:
    if op.suite is not None:
        Path(wl.SUITE_FILE).write_text(op.suite, encoding="ascii")
    proc = subprocess.run(
        [sys.executable, "-m", "udcodes.cli", *op.argv], env=ENV, capture_output=True, check=False
    )
    ref = {
        "exit": proc.returncode,
        "stdout_sha256": hashlib.sha256(proc.stdout).hexdigest(),
        "summary": summarize(op, json.loads(proc.stdout)),
    }
    if op.csv:
        ref["csv_sha256"] = wl.sha256_file(wl.CSV_FILE)
    return ref


def probe_references(size: str) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/worker.py", "probe", "--seed", "0", "--size", size],
        env=ENV, capture_output=True, check=True,
    )
    codes = json.loads(proc.stdout.splitlines()[-1])["codes"]
    return {c["name"]: {"words": c["words"], "verdicts": c["verdicts"]} for c in codes if c["family"] == "fixed"}


def main() -> None:
    os.chdir(ROOT)
    os.makedirs(wl.WORK_DIR, exist_ok=True)
    refs: dict = {"cli": {}, "probe": {}}
    for size in wl.SIZES:
        for workload in wl.WORKLOADS:
            for op in wl.all_cli_ops(workload, size):
                refs["cli"][op.key] = cli_reference(op)
                print(op.key, refs["cli"][op.key]["summary"], flush=True)
        refs["probe"].update(probe_references(size))
    for name in ("suite.txt", "classify.csv"):
        Path(wl.WORK_DIR, name).unlink(missing_ok=True)
    out = Path(__file__).resolve().parent / "refs.json"
    out.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(refs['cli'])} command and {len(refs['probe'])} probe references to {out}")


if __name__ == "__main__":
    main()
