"""Workload definitions shared by the benchmark runner (run.py), its worker
process (worker.py) and the reference generator (make_refs.py).

This module uses only the standard library and never imports udcodes, so the
runner process stays free of the library's module state.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from dataclasses import dataclass
from typing import Optional

# census: whole-universe counting, where counting shortcuts (folding, pruning,
# skipping Code objects) apply.  per-code: classify-all to a CSV, the verify
# cross-checks and the probe-large library calls, where every code is built,
# written or checked one by one, so those shortcuts cannot apply, and where
# the probe and _graph carry the time that census never spends.
WORKLOADS = ("census", "per-code")
# Workloads whose pass ends with the probe-large worker (worker.py probe).
PROBE_WORKLOADS = ("per-code",)
SIZES = ("full", "small")

# Scratch files, relative to the checkout root.  Paths are fixed because the
# CLI echoes them in its JSON report, which is compared byte for byte.
WORK_DIR = ".perfbench"
SUITE_FILE = f"{WORK_DIR}/suite.txt"
CSV_FILE = f"{WORK_DIR}/classify.csv"

# (lengths, alphabet size) per size.  The seed picks the order of the lengths.
# Full-size commands take 1-3 s each, so a 60 s run times every command six
# or more times and its median is not left to one or two samples.
CENSUS_PROFILES = {
    "full": (((3, 3, 4, 5), 2), ((2, 2, 3, 3, 4), 2), ((2, 2, 2, 3), 3)),
    "small": (((2, 3, 3), 2), ((2, 2, 3), 2), ((1, 2, 2), 3)),
}
# (alphabet-max of the built-in suite run, suite-file profile, its alphabet-max)
VERIFY_RUNS = {"full": (3, (2, 2, 3, 4), 2), "small": (2, (2, 3, 4), 2)}
CSV_PROFILE = {"full": ((3, 3, 4, 5), 2), "small": ((2, 2, 3), 2)}

# Mirrors udcodes.enumeration.BUILTIN_SUITE, used only to count the codes a
# built-in verify run covers (for codes_per_s).
BUILTIN_SUITE = (
    (1, 1), (1, 2), (2, 2), (1, 1, 1), (1, 1, 2),
    (1, 2, 2), (1, 2, 4), (2, 2, 3), (2, 2, 4), (2, 3, 3),
)


@dataclass(frozen=True)
class CliOp:
    """One CLI command: the arguments after `python -m udcodes.cli`."""

    argv: tuple[str, ...]
    codes: int  # codes in the universes the command covers
    suite: Optional[str] = None  # contents of SUITE_FILE, written before the run
    csv: bool = False  # the command writes CSV_FILE

    @property
    def key(self) -> str:
        key = " ".join(self.argv)
        return key if self.suite is None else f"{key} [suite {self.suite.strip()}]"


def orders(lengths: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Every distinct order of a length sequence, sorted."""
    return sorted(set(itertools.permutations(lengths)))


def _joined(lengths) -> str:
    return ",".join(str(a) for a in lengths)


def _universe(lengths, n: int) -> int:
    return n ** sum(lengths)


def _census_op(lengths, n) -> CliOp:
    argv = ("count", "--lengths", _joined(lengths), "--alphabet", str(n), "--method", "both")
    return CliOp(argv, _universe(lengths, n))


def _builtin_verify_op(alphabet_max: int) -> CliOp:
    codes = sum(
        _universe(p, n) for p in BUILTIN_SUITE for n in range(2, alphabet_max + 1)
    )
    return CliOp(("verify", "--alphabet-max", str(alphabet_max)), codes)


def _suite_verify_op(lengths, alphabet_max: int) -> CliOp:
    argv = ("verify", "--alphabet-max", str(alphabet_max), "--suite", SUITE_FILE)
    codes = sum(_universe(lengths, n) for n in range(2, alphabet_max + 1))
    return CliOp(argv, codes, suite=_joined(lengths) + "\n")


def _csv_op(lengths, n) -> CliOp:
    argv = ("classify-all", "--lengths", _joined(lengths), "--alphabet", str(n), "--output", CSV_FILE)
    return CliOp(argv, _universe(lengths, n), csv=True)


def cli_ops(workload: str, size: str, seed: int) -> list[CliOp]:
    """The CLI commands of one pass of a workload; the seed picks the order
    in which each profile's lengths are given."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "census":
        return [_census_op(rng.choice(orders(p)), n) for p, n in CENSUS_PROFILES[size]]
    if workload == "per-code":
        csv_profile, n = CSV_PROFILE[size]
        builtin_max, profile, suite_max = VERIFY_RUNS[size]
        return [
            _csv_op(rng.choice(orders(csv_profile)), n),
            _builtin_verify_op(builtin_max),
            _suite_verify_op(rng.choice(orders(profile)), suite_max),
        ]
    raise ValueError(f"unknown workload {workload!r}")


def all_cli_ops(workload: str, size: str) -> list[CliOp]:
    """Every command any seed can produce, for building the references."""
    if workload == "census":
        return [_census_op(o, n) for p, n in CENSUS_PROFILES[size] for o in orders(p)]
    if workload == "per-code":
        csv_profile, n = CSV_PROFILE[size]
        builtin_max, profile, suite_max = VERIFY_RUNS[size]
        return (
            [_csv_op(o, n) for o in orders(csv_profile)]
            + [_builtin_verify_op(builtin_max)]
            + [_suite_verify_op(o, suite_max) for o in orders(profile)]
        )
    raise ValueError(f"unknown workload {workload!r}")


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def check_cli(op: CliOp, stdout_sha256: str, exit_code: int, refs: dict) -> Optional[str]:
    """None when the command's output matches the stored reference, else why not."""
    ref = refs["cli"].get(op.key)
    if ref is None:
        return f"no reference output for {op.key!r}"
    if exit_code != ref["exit"]:
        return f"exit code {exit_code}, reference {ref['exit']}"
    if stdout_sha256 != ref["stdout_sha256"]:
        return "stdout differs from the reference"
    if op.csv and sha256_file(CSV_FILE) != ref["csv_sha256"]:
        return "CSV differs from the reference"
    return None
