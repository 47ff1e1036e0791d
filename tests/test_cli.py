import contextlib
import errno
import hashlib
import importlib
import io
import itertools
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from udcodes import cli
from udcodes.cli import main
from udcodes.enumeration import BUILTIN_SUITE, enumerate_codes

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run(*argv):
    out = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(list(argv))
    return rc, out.getvalue(), err.getvalue()


def run_json(*argv):
    rc, out, _err = run(*argv)
    return rc, json.loads(out)


@pytest.fixture
def ud_file(tmp_path):
    path = tmp_path / "ud.txt"
    path.write_text("alphabet 2\n10\n100\n000\n")
    return str(path)


def test_check_ud_code(ud_file):
    rc, payload = run_json("check", ud_file)
    assert rc == 0
    assert payload["status"] == "ok"
    assert payload["command"] == "check"
    results = payload["results"]
    assert results["alphabet"] == "2"
    assert results["words"] == ["10", "100", "000"]
    assert results["injective"] is True
    assert results["prefix"] is False
    assert results["ud"] is True
    assert "counterexample" not in results


def test_check_trace_and_delay(ud_file):
    rc, payload = run_json("check", ud_file, "--trace", "--delay")
    assert rc == 0
    trace = payload["results"]["sp_trace"]
    assert trace["termination"] == "cycle"
    assert trace["repeated_round"] == "1"
    assert trace["rounds"] == [["000", "10", "100"], ["0"], ["00"], ["0"]]
    assert trace["violation"] is None
    delay = payload["results"]["delay"]
    assert delay["finite"] is False
    assert delay["value"] is None
    assert delay["witness"]["rendered"] == "1(0)^inf"
    assert delay["witness"]["first_words"] == ["10", "100"]


def test_check_reports_counterexample(tmp_path):
    path = tmp_path / "nonud.txt"
    path.write_text("alphabet 2\n0\n01\n10\n")
    rc, payload = run_json("check", str(path))
    assert rc == 0
    results = payload["results"]
    assert results["ud"] is False
    assert results["counterexample"]["word"] == "010"
    assert results["counterexample"]["factorizations"] == [["0", "2"], ["1", "0"]]


def test_check_trace_reports_the_violation(tmp_path):
    path = tmp_path / "nonud.txt"
    path.write_text("alphabet 2\n0\n01\n10\n")
    rc, payload = run_json("check", str(path), "--trace")
    assert rc == 0
    trace = payload["results"]["sp_trace"]
    assert trace["rounds"] == [["0", "01", "10"], ["1"], ["0"], ["1"]]
    assert trace["violation"] == {"round": "2", "word": "0"}


def test_check_delay_of_a_code_with_a_repeated_word(tmp_path):
    path = tmp_path / "repeated.txt"
    path.write_text("alphabet 2\n01\n01\n1\n")
    rc, payload = run_json("check", str(path), "--delay")
    assert rc == 0
    assert payload["status"] == "ok"
    results = payload["results"]
    assert (results["injective"], results["prefix"], results["ud"]) == (False, False, False)
    assert results["delay"] == {"finite": False, "value": None, "witness": None}


def _forbid(monkeypatch, *names):
    """Make the named deciders raise, in cli and where they are defined."""
    decide = importlib.import_module("udcodes.decide")

    def forbidden(*args, **kwargs):
        raise AssertionError("called a decider that classify replaces")

    for name in names:
        monkeypatch.setattr(cli, name, forbidden, raising=False)
        monkeypatch.setattr(decide, name, forbidden)


@pytest.mark.parametrize(
    "words",
    (
        ["10", "100", "000"],  # UD, infinite delay
        ["0", "01", "10"],  # not UD
        ["0", "10", "11"],  # prefix
        ["0", "01"],  # finite delay 2
        ["01", "01", "1"],  # repeated word
    ),
)
@pytest.mark.parametrize("options", ((), ("--delay",)))
def test_check_reads_every_class_from_classify(tmp_path, monkeypatch, words, options):
    path = tmp_path / "code.txt"
    path.write_text("alphabet 2\n" + "\n".join(words) + "\n")
    expected = run("check", str(path), *options)
    _forbid(monkeypatch, "sardinas_patterson", "is_prefix_code")
    assert run("check", str(path), *options) == expected
    assert expected[0] == 0


def test_check_bad_glyph_reports_position(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("alphabet 2\n10\nx0\n")
    rc, payload = run_json("check", str(path))
    assert rc == 2
    assert payload["status"] == "error"
    assert payload["error"]["line"] == "3"
    assert payload["error"]["column"] == "1"


def test_check_non_ascii_byte_reports_position(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_bytes(b"alphabet 2\n10\n1\xff0\n")
    rc, payload = run_json("check", str(path))
    assert rc == 2
    assert payload["status"] == "error"
    assert payload["error"] == {
        "message": "line 3, column 2: byte 0xff is not ASCII",
        "line": "3",
        "column": "2",
    }


def test_check_missing_file():
    rc, payload = run_json("check", "/nonexistent/code.txt")
    assert rc == 2
    assert payload["status"] == "error"


@pytest.mark.parametrize("command", (("check",), ("verify", "--suite")))
@pytest.mark.parametrize("kind", ("missing", "directory"))
def test_unreadable_input_file_error_text(tmp_path, command, kind):
    """The OSError text of an input file that cannot be read names the path
    as given, as it did when the file was read through pathlib."""
    if kind == "missing":
        path, number = str(tmp_path / "absent.txt"), errno.ENOENT
    else:
        path, number = str(tmp_path), errno.EISDIR
    rc, payload = run_json(*command, path)
    assert rc == 2
    assert payload["status"] == "error"
    assert payload["error"] == {"message": f"[Errno {number}] {os.strerror(number)}: {path!r}"}


def test_empty_input_path_is_reported_as_missing():
    # pathlib read the path '' as '.', and so reported a directory
    rc, payload = run_json("check", "")
    assert rc == 2
    missing = f"[Errno {errno.ENOENT}] {os.strerror(errno.ENOENT)}: ''"
    assert payload["error"] == {"message": missing}


def test_count_with_anchored_bound():
    rc, payload = run_json(
        "count", "--lengths", "2,3,3", "--alphabet", "2", "--anchored", "2,3"
    )
    assert rc == 0
    results = payload["results"]
    assert results["kraft_sum"] == "1/2"
    assert results["feasible"] is True
    census = results["census"]
    assert census == {
        "discrepancies": [],
        "fd": "160",
        "pr": "120",
        "source": "both",
        "total": "256",
        "ud": "180",
    }
    anchored = results["anchored"]
    assert anchored["anchor_words"] == ["01", "001"]
    assert anchored["count"] == "10"
    bound = results["bound"]
    assert bound["lower_bound"] == "13/12"
    assert bound["ratio"] == "3/2"
    assert bound["satisfied"] is True


def test_count_infeasible_profile():
    rc, payload = run_json("count", "--lengths", "1,1,2", "--alphabet", "2")
    assert rc == 0
    results = payload["results"]
    assert results["kraft_sum"] == "5/4"
    assert results["feasible"] is False
    assert results["census"]["ud"] == "0"


def test_count_enumerate_method():
    rc, payload = run_json(
        "count", "--lengths", "1,2", "--alphabet", "2", "--method", "enumerate"
    )
    assert rc == 0
    assert payload["results"]["census"]["source"] == "enumeration"


def test_count_output_is_byte_stable():
    argv = ("count", "--lengths", "2,3,3", "--alphabet", "2", "--anchored", "2,3")
    _, first, _ = run(*argv)
    _, second, _ = run(*argv)
    assert first == second


def test_error_report_echoes_the_inputs():
    rc, payload = run_json(
        "count", "--lengths", "2,3", "--alphabet", "2", "--anchored", "3,2"
    )
    assert rc == 2
    assert payload["status"] == "error"
    assert payload["inputs"] == {
        "lengths": "2,3",
        "alphabet": "2",
        "method": "both",
        "anchored": "3,2",
    }


def test_witness_prefix():
    rc, payload = run_json("witness", "--kind", "prefix", "--lengths", "2,3,3", "--alphabet", "2")
    assert rc == 0
    results = payload["results"]
    assert results["words"] == ["00", "010", "011"]
    assert results["code_file"] == "alphabet 2\n00\n010\n011"
    assert results["classification"]["prefix"] is True
    assert results["classification"]["delay"] == "3"


def test_witness_ud_nonprefix():
    rc, payload = run_json(
        "witness", "--kind", "ud-nonprefix", "--lengths", "2,3,3", "--alphabet", "2"
    )
    assert rc == 0
    results = payload["results"]
    assert results["words"] == ["10", "100", "000"]
    classification = results["classification"]
    assert classification["ud"] is True
    assert classification["prefix"] is False


def test_witness_infinite_delay():
    rc, payload = run_json(
        "witness", "--kind", "infinite-delay", "--lengths", "2,2,3", "--alphabet", "2"
    )
    assert rc == 0
    results = payload["results"]
    assert results["words"] == ["11", "00", "110"]
    case = results["case"]
    assert case["name"] == "two-values"
    assert (case["a"], case["b"]) == ("2", "3")
    assert (case["remainder"], case["quotient"]) == ("1", "0")
    classification = results["classification"]
    assert classification["ud"] is True
    assert classification["finite_delay"] is False


def test_witness_condition_refusal():
    rc, payload = run_json(
        "witness", "--kind", "infinite-delay", "--lengths", "1,1,2", "--alphabet", "2"
    )
    assert rc == 2
    assert "finite delay" in payload["error"]["message"]


def test_witness_infeasible_lengths():
    rc, payload = run_json("witness", "--kind", "prefix", "--lengths", "1,1,2", "--alphabet", "2")
    assert rc == 2
    assert "5/4" in payload["error"]["message"]


def test_verify_builtin_suite():
    rc, payload = run_json("verify", "--alphabet-max", "2")
    assert rc == 0
    results = payload["results"]
    assert results["all_passed"] is True
    assert results["checks_run"] == "54"
    assert results["failures"] == "0"
    names = {entry["check"] for entry in results["checks"]}
    assert names == {
        "census-cross-check",
        "pr-eq-ud-predicate",
        "fd-eq-ud-predicate",
        "ud-nonprefix-witness",
        "ratio-bound",
        "infinite-delay-witness",
        "oracle-agreement",
    }
    assert all(entry["ok"] for entry in results["checks"])
    ratio_details = {
        entry["detail"] for entry in results["checks"] if entry["check"] == "ratio-bound"
    }
    assert "a=2 b=3 lower=13/12 ratio=3/2" in ratio_details


def test_verify_checks_classify_without_the_reference_deciders(monkeypatch):
    _forbid(monkeypatch, "sardinas_patterson", "delay_analysis", "is_prefix_code")
    rc, payload = run_json("verify", "--alphabet-max", "2")
    assert rc == 0
    assert payload["results"]["checks_run"] == "54"


def test_verify_oracles_catch_a_wrong_delay(monkeypatch):
    real = cli.classify

    def off_by_one(code):
        c = real(code)
        return c._replace(delay=None if c.delay is None else c.delay + 1)

    monkeypatch.setattr(cli, "classify", off_by_one)
    rc, payload = run_json("verify", "--alphabet-max", "2")
    assert rc == 1
    failed = {entry["check"] for entry in payload["results"]["checks"] if not entry["ok"]}
    assert failed == {"oracle-agreement"}


def test_verify_custom_suite(tmp_path):
    suite = tmp_path / "suite.txt"
    suite.write_text("# just one profile\n2,3,3\n")
    rc, payload = run_json("verify", "--suite", str(suite), "--alphabet-max", "2")
    assert rc == 0
    results = payload["results"]
    assert results["checks_run"] == "7"
    assert results["failures"] == "0"
    assert {e["profile"] for e in results["checks"]} == {"2,3,3"}


def _verify_args(tmp_path, suite):
    """verify's arguments: the built-in suite, or a file of the given rows."""
    if suite is None:
        return ("verify", "--alphabet-max", "2")
    path = tmp_path / "suite.txt"
    path.write_text(suite)
    return ("verify", "--suite", str(path), "--alphabet-max", "2")


def _run_on_cpus(monkeypatch, cpus, argv):
    """verify's exit code and stdout with os.sched_getaffinity reporting the
    given number of CPUs, and the number of processes it forked."""
    forks = []
    real_fork = os.fork

    def counted_fork():
        forks.append(1)
        return real_fork()

    with monkeypatch.context() as patch:
        patch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        patch.setattr(os, "fork", counted_fork)
        rc, out, _err = run(*argv)
    return rc, out, len(forks)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
@pytest.mark.parametrize("suite", [None, "2,2,3,4\n"], ids=["builtin", "2,2,3,4"])
def test_verify_output_is_the_same_in_one_or_two_processes(tmp_path, monkeypatch, suite):
    argv = _verify_args(tmp_path, suite)
    one = _run_on_cpus(monkeypatch, 1, argv)
    two = _run_on_cpus(monkeypatch, 2, argv)
    assert one == (0, one[1], 0)
    assert two == (0, one[1], 1)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_verify_reports_the_first_disagreement_of_every_part(tmp_path, monkeypatch):
    """A probe that errs on codes at even and odd enumeration indices, the
    first in the forked part: the count and the first code are those of
    one process."""
    codes = list(enumerate_codes((2, 2, 3, 4), 2))
    chosen = {codes[k].texts() for k in (129, 1000, 1001)}
    assert all(len(set(codes[k].words)) == 4 for k in (129, 1000, 1001))
    real = cli.bounded_delay_probe

    def wrong_on_chosen(code, bound):
        result = real(code, bound)
        if code.texts() in chosen:
            return result._replace(verdict="finite", delay=(result.delay or 0) + 1)
        return result

    monkeypatch.setattr(cli, "bounded_delay_probe", wrong_on_chosen)
    argv = _verify_args(tmp_path, "2,2,3,4\n")
    rc, out, forks = _run_on_cpus(monkeypatch, 1, argv)
    assert (rc, forks) == (1, 0)
    assert _run_on_cpus(monkeypatch, 2, argv) == (1, out, 1)
    (failed,) = [c for c in json.loads(out)["results"]["checks"] if not c["ok"]]
    assert failed["check"] == "oracle-agreement"
    assert failed["detail"] == "3 disagreements, first " + ",".join(codes[129].texts())


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_verify_reruns_the_part_of_a_failed_child(tmp_path, monkeypatch):
    """A child that fails has its part run again in-process, and no child
    outlives verify."""
    argv = _verify_args(tmp_path, "2,2,3,4\n")
    rc, out, _ = _run_on_cpus(monkeypatch, 1, argv)
    parent = os.getpid()
    real = cli._oracle_part
    ran_here = []

    def fails_in_a_child(profiles, cap, part, parts):
        if os.getpid() != parent:
            raise RuntimeError("a failing child")
        ran_here.append((part, parts))
        return real(profiles, cap, part, parts)

    monkeypatch.setattr(cli, "_oracle_part", fails_in_a_child)
    assert _run_on_cpus(monkeypatch, 2, argv) == (rc, out, 1)
    assert sorted(ran_here) == [(0, 2), (1, 2)]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_verify_refusal_in_the_oracle_loop_leaves_no_child(tmp_path, monkeypatch):
    """A probe refusal in every part: the same error report as in one
    process, and every child is waited for."""
    monkeypatch.setattr(importlib.import_module("udcodes.enumeration"), "_PROBE_STATE_CAP", 1)
    argv = _verify_args(tmp_path, "2,2,3,4\n")
    rc, out, forks = _run_on_cpus(monkeypatch, 1, argv)
    assert (rc, forks) == (2, 0)
    assert json.loads(out)["error"]["message"] == "delay probe state space exceeded the safety cap"
    assert _run_on_cpus(monkeypatch, 2, argv) == (2, out, 1)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_verify_suite_with_non_ascii_byte_reports_line(tmp_path):
    suite = tmp_path / "suite.txt"
    suite.write_bytes(b"2,3,3\r\n\xff\n")
    rc, payload = run_json("verify", "--suite", str(suite))
    assert rc == 2
    assert payload["status"] == "error"
    assert payload["error"]["line"] == "2"
    assert payload["error"]["column"] == "1"


def test_verify_empty_suite(tmp_path):
    # a run that can make no check must not pass
    suite = tmp_path / "empty.txt"
    suite.write_text("# nothing here\n\n  \t\n")
    rc, payload = run_json("verify", "--suite", str(suite))
    assert rc == 2
    assert payload["status"] == "error"
    assert payload["error"]["message"] == f"suite file {str(suite)!r} holds no length sequence"


@pytest.mark.parametrize("alphabet_max", ("1", "-5"))
def test_verify_refuses_an_alphabet_max_below_2(alphabet_max):
    rc, payload = run_json("verify", "--alphabet-max", alphabet_max)
    assert rc == 2
    assert payload["status"] == "error"
    assert payload["error"]["message"] == f"--alphabet-max must be at least 2, got {alphabet_max}"


def test_verify_skips_profiles_above_the_cap(monkeypatch):
    monkeypatch.setenv("CODES_UNIVERSE_CAP", "100")
    rc, payload = run_json("verify", "--alphabet-max", "2")
    assert rc == 0
    assert payload["results"]["all_passed"] is True
    skipped = [e for e in payload["results"]["checks"] if e["detail"].startswith("skipped")]
    # (1,2,4) and (2,2,3) have 128 codes, (2,2,4) and (2,3,3) have 256
    assert [(e["profile"], e["check"], e["detail"]) for e in skipped] == [
        ("1,2,4", "census-cross-check", "skipped: universe 128 above cap"),
        ("2,2,3", "census-cross-check", "skipped: universe 128 above cap"),
        ("2,2,4", "census-cross-check", "skipped: universe 256 above cap"),
        ("2,3,3", "census-cross-check", "skipped: universe 256 above cap"),
    ]


def test_verify_stops_a_profile_at_its_first_alphabet_size_above_the_cap(monkeypatch):
    """A huge --alphabet-max ends: each profile stops at its first skip."""
    monkeypatch.setenv("CODES_UNIVERSE_CAP", "100")
    rc, payload = run_json("verify", "--alphabet-max", "1000000000000")
    assert rc == 0
    checks = payload["results"]["checks"]
    for lengths in BUILTIN_SUITE:
        profile = ",".join(map(str, lengths))
        own = [e for e in checks if e["profile"] == profile]
        skipped = [e for e in own if e["detail"].startswith("skipped")]
        least = next(n for n in itertools.count(2) if n ** sum(lengths) > 100)
        assert skipped == [own[-1]], profile
        assert skipped[0]["n"] == str(least), profile


def test_classify_all_stdout():
    rc, out, _err = run("classify-all", "--lengths", "1,2", "--alphabet", "2")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "code,injective,prefix,ud,finite_delay,delay"
    assert lines[1] == "0;00,true,false,false,false,"
    assert lines[2] == "0;01,true,false,true,true,2"
    assert lines[3] == "0;10,true,true,true,true,1"
    assert len(lines) == 9
    # no JSON report mixed into the CSV stream
    assert "{" not in out


def test_classify_all_into_a_closed_pipe_ends_quietly():
    """A reader that stops after one line (as `| head -1` does) ends the
    run with exit status 2, and neither a traceback nor a report."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    argv = ["classify-all", "--lengths", "3,4,5,5", "--alphabet", "2"]
    with subprocess.Popen(
        [sys.executable, "-m", "udcodes.cli", *argv],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    ) as proc:
        assert proc.stdout.readline() == b"code,injective,prefix,ud,finite_delay,delay\n"
        proc.stdout.close()
        stderr = proc.stderr.read()
        assert proc.wait(timeout=60) == 2
    assert stderr == b""


def test_classify_all_without_text_form_writes_only_the_error():
    rc, out, _err = run("classify-all", "--lengths", "1,1", "--alphabet", "40")
    assert rc == 2
    payload = json.loads(out)
    assert payload["status"] == "error"
    assert payload["error"]["message"] == "alphabet of size 40 exceeds the 36-letter text form"


def test_classify_all_to_file(tmp_path):
    target = tmp_path / "rows.csv"
    rc, payload = run_json(
        "classify-all", "--lengths", "1,2", "--alphabet", "2", "--output", str(target)
    )
    assert rc == 0
    assert payload["results"]["rows"] == "8"
    assert payload["results"]["path"] == str(target)
    lines = target.read_text().splitlines()
    assert len(lines) == 9
    assert lines[0] == "code,injective,prefix,ud,finite_delay,delay"


@pytest.mark.parametrize(
    "lengths,alphabet,cap", [("1,1", "40", None), ("2,3,3", "2", "10")]
)
def test_classify_all_refusal_leaves_the_file_alone(tmp_path, monkeypatch, lengths, alphabet, cap):
    target = tmp_path / "rows.csv"
    target.write_bytes(b"keep me")
    if cap is not None:
        monkeypatch.setenv("CODES_UNIVERSE_CAP", cap)
    rc, payload = run_json(
        "classify-all", "--lengths", lengths, "--alphabet", alphabet, "--output", str(target)
    )
    assert rc == 2
    assert payload["status"] == "error"
    assert target.read_bytes() == b"keep me"


LENGTH_BELOW_1 = "length values must be positive integers, got 0"


@pytest.mark.parametrize(
    "argv",
    [
        ("count", "--lengths", "2,0", "--alphabet", "2"),
        ("witness", "--kind", "prefix", "--lengths", "2,0", "--alphabet", "2"),
    ],
)
def test_a_length_below_1_gets_the_library_message(argv):
    rc, payload = run_json(*argv)
    assert rc == 2
    assert payload["error"]["message"] == LENGTH_BELOW_1


def test_classify_all_refuses_a_length_below_1_without_a_file(tmp_path):
    target = tmp_path / "rows.csv"
    rc, payload = run_json(
        "classify-all", "--lengths", "2,0", "--alphabet", "2", "--output", str(target)
    )
    assert rc == 2
    assert payload["error"]["message"] == LENGTH_BELOW_1
    assert not target.exists()


def test_verify_refuses_a_suite_row_below_1_before_any_check(tmp_path, monkeypatch):
    def forbidden(*args):
        raise AssertionError("a check ran")

    monkeypatch.setattr(cli, "_verify_profile", forbidden)
    suite = tmp_path / "suite.txt"
    suite.write_text("1,2\n0\n")
    rc, payload = run_json("verify", "--suite", str(suite), "--alphabet-max", "2")
    assert rc == 2
    assert payload["error"]["message"] == "line 2: " + LENGTH_BELOW_1
    assert payload["error"]["line"] == "2"


def test_verify_refuses_a_malformed_suite_row_with_its_line(tmp_path, monkeypatch):
    """A suite row that is no comma-separated list is refused as a code file
    line is, with its line number, before any check."""

    def forbidden(*args):
        raise AssertionError("a check ran")

    monkeypatch.setattr(cli, "_verify_profile", forbidden)
    suite = tmp_path / "suite.txt"
    suite.write_text("2,3,3\n1,x\n")
    rc, payload = run_json("verify", "--suite", str(suite))
    assert rc == 2
    error = payload["error"]
    assert error["line"] == "2"
    assert error["message"].startswith("line 2:")
    assert "--lengths" not in error["message"]


def test_verify_refuses_an_oversized_power_before_any_check(tmp_path, monkeypatch):
    def forbidden(*args):
        raise AssertionError("a check ran")

    monkeypatch.setattr(cli, "_verify_profile", forbidden)
    suite = tmp_path / "suite.txt"
    suite.write_text("1,2\n2000000\n")
    rc, payload = run_json("verify", "--suite", str(suite), "--alphabet-max", "2")
    assert rc == 2
    assert payload["error"]["message"] == (
        "line 2: lengths summing to 2000000 are refused at alphabet size 2: "
        "2^2000000 may need more than 1048576 bits"
    )
    assert payload["error"]["line"] == "2"


@pytest.mark.parametrize(
    "pair, message",
    (
        ("x", "--anchored expects two comma-separated lengths, got 'x'"),
        ("2,9", "both 2 and 9 must be length values of the profile"),
        ("5,3", "anchored family needs a < b, got a=5, b=3"),
        ("2,3,4", "--anchored expects two comma-separated lengths, got '2,3,4'"),
    ),
)
def test_count_refuses_a_bad_anchored_pair_before_its_census(monkeypatch, pair, message):
    def forbidden(*args, **kwargs):
        raise AssertionError("a census ran")

    monkeypatch.setattr(cli, "census", forbidden)
    rc, payload = run_json(
        "count", "--lengths", "3,3,4,5,5", "--alphabet", "2", "--anchored", pair
    )
    assert rc == 2
    assert payload["error"]["message"] == message


@pytest.mark.parametrize("method", ("formula", "enumerate", "both"))
@pytest.mark.parametrize(
    "lengths, ud",
    (("2,3,3", "180"), ("2,2,3", None)),  # a closed form, and none
)
def test_count_bound_takes_ud_from_its_census(method, lengths, ud):
    rc, payload = run_json(
        "count", "--lengths", lengths, "--alphabet", "2", "--method", method, "--anchored", "2,3"
    )
    assert rc == 0
    results = payload["results"]
    assert results["bound"]["ud"] == results["census"]["ud"]
    if method == "formula":
        assert results["census"]["ud"] == ud
        assert (results["bound"]["ratio"] is None) == (ud is None)


def test_count_formula_anchored_enumerates_nothing(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("a formula count enumerated")

    monkeypatch.setattr(importlib.import_module("udcodes.census"), "_enumerated_counts", forbidden)
    rc, payload = run_json(
        "count", "--lengths", "3,4,5,5", "--alphabet", "2", "--method", "formula",
        "--anchored", "3,4",
    )
    assert rc == 0
    bound = payload["results"]["bound"]
    assert (bound["ud"], bound["ratio"], bound["satisfied"]) == (None, None, None)
    assert bound["lower_bound"] == "113/112"


def test_count_anchored_refuses_a_kraft_sum_above_1_before_its_census(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("a census ran")

    monkeypatch.setattr(cli, "census", forbidden)
    # the universe, 2^23 codes, is also above the cap
    rc, payload = run_json(
        "count", "--lengths", "2,2,2,3,3,3,4,4", "--alphabet", "2", "--anchored", "2,3"
    )
    assert rc == 2
    assert payload["error"]["message"] == (
        "no uniquely decodable code with these lengths exists at alphabet size 2 "
        "(Kraft sum 5/4 exceeds 1)"
    )


def digits(power):
    """Decimal digit count of 2**power, without rendering it."""
    return math.floor(power * math.log10(2)) + 1


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no digit limit")
def test_main_puts_back_the_int_digit_limit(default_digit_limit):
    """main reads and prints numbers of any length, but an in-process caller
    keeps its own guard afterwards."""
    limit = sys.get_int_max_str_digits()
    rc, _payload = run_json("count", "--lengths", "2,3,3", "--alphabet", "2")
    assert rc == 0
    assert sys.get_int_max_str_digits() == limit


HUGE = "1" + "0" * 5000  # over 4,300 digits, Python's default int-to-str limit
MINUS_HUGE = "-" + HUGE

# (CODES_UNIVERSE_CAP, argv, exit status, SHA-256 of stdout); the digests
# were recorded by a CLI that lifted the interpreter's digit limit
HUGE_NUMBER_RUNS = [
    (
        None,
        ["witness", "--kind", "prefix", "--lengths", "1", "--alphabet", HUGE],
        0,
        "8a438231a6951ddc298414e92277029d9992171815d9bdb4df13fb24be24b6f3",
    ),
    (
        None,
        ["witness", "--kind", "ud-nonprefix", "--lengths", "1,2", "--alphabet", HUGE],
        0,
        "a13d1bb321edd65678435168aa07369d75ca31fc99991837fe1e52631da246c2",
    ),
    (
        None,
        ["witness", "--kind", "infinite-delay", "--lengths", "1,2,2", "--alphabet", HUGE],
        0,
        "ff0c87c4f98b447ec54cfd8874df429115e18fe613c586d27ded78ddde63d2e1",
    ),
    (
        None,
        ["witness", "--kind", "prefix", "--lengths", HUGE, "--alphabet", "2"],
        2,
        "6cdafb8baa03491914eeac1f47e4df77fbc35daa5808cee741b69dce24ef9aea",
    ),
    (
        None,
        ["count", "--lengths", "1", "--alphabet", HUGE],
        2,
        "ca7c86e21ad0f9c135d0a5f03b6216e6c289c326eda738b9efb8d8f40c795d93",
    ),
    (
        None,
        ["count", "--lengths", "1,2", "--alphabet", HUGE, "--method", "formula"]
        + ["--anchored", "1,2"],
        0,
        "1f3c425f9a11e2e3ffe8e16974e35ed808b83b5d2e07be3b0fb69ab18aff3797",
    ),
    (
        None,
        ["count", "--lengths", "1,2", "--alphabet", "2", "--anchored", "1," + HUGE],
        2,
        "f595bf419d6579ee57a2b587e86197c47784eef5a90841c6be12def962a6b105",
    ),
    (
        None,
        ["count", "--lengths", "1,2", "--alphabet", "2", "--anchored", HUGE + ",1"],
        2,
        "4c36e50e9fc02b1d6da7757e536387e95353e5f6f7ae758b0313fe5f01b28cb1",
    ),
    (
        None,
        ["count", "--lengths", HUGE + ",1", "--alphabet", "2"],
        2,
        "b7e8db5ef793827b10040a06602f835598305fb18336db817b75edff399759a2",
    ),
    (
        None,
        ["verify", "--alphabet-max", MINUS_HUGE],
        2,
        "b2eaf4804f858f560627024f43d242cbbf9656a757405b1da5481117132decd8",
    ),
    (
        "100",
        ["verify", "--suite", "suite.txt", "--alphabet-max", HUGE],
        0,
        "e4b451801222b4c6bfdae705d5cea7ba57321ad00c1ba2b8a7afd103848e70be",
    ),
    (
        None,
        ["verify", "--suite", "huge-suite.txt"],
        2,
        "0b64565fac9d9ead65dead739f662edd94f779217c54478f92a2948b33cd8013",
    ),
    (
        None,
        ["classify-all", "--lengths", "1", "--alphabet", HUGE],
        2,
        "f950d47e55ce12331848ef1a46c30da14f0ee71fa47ae28629d7d36a9fc45796",
    ),
    (
        HUGE,
        ["classify-all", "--lengths", "1", "--alphabet", HUGE],
        2,
        "1e17d2ba314c17533eb2464094f14a41304680cdb6262fa7c9008840f9cfe076",
    ),
    (
        MINUS_HUGE,
        ["count", "--lengths", "1", "--alphabet", "2"],
        2,
        "72e5204e69161c60ed09610be76958dd7396316b43648ac48ee9dd9b37d9ce20",
    ),
    (
        HUGE,
        ["count", "--lengths", "20000,1", "--alphabet", "2"],
        2,
        "b51570fc1a17ff27171ec126f8e8a1e4ffb24539076b29bed62bcfa3427f60ca",
    ),
    (
        None,
        ["check", "huge-alphabet.txt"],
        2,
        "9d51fd67b978b3f3d7680c41518392ec683d81cc434f568e664d30dd3b36a144",
    ),
    (
        None,
        ["check", "negative-alphabet.txt"],
        2,
        "50c392a2e9dfc4b5e6b40fb83daf7b5c9416c37b04f0503665a9433b3d79b019",
    ),
]


def test_every_command_takes_numbers_of_any_length(default_digit_limit, monkeypatch, tmp_path):
    """Under Python's default digit limit, which main leaves alone, every
    command reads a number of over 4,300 digits in each numeric input and
    prints its report byte for byte."""
    monkeypatch.chdir(tmp_path)  # the reports echo these relative paths
    (tmp_path / "suite.txt").write_text("1,2\n")
    (tmp_path / "huge-suite.txt").write_text(HUGE + "\n")
    (tmp_path / "huge-alphabet.txt").write_text(f"alphabet {HUGE}\n0\n")
    (tmp_path / "negative-alphabet.txt").write_text(f"alphabet {MINUS_HUGE}\n0\n")
    limits = []
    monkeypatch.setattr(sys, "set_int_max_str_digits", limits.append, raising=False)
    outcomes = []
    for cap, argv, _rc, _digest in HUGE_NUMBER_RUNS:
        if cap is None:
            monkeypatch.delenv("CODES_UNIVERSE_CAP", raising=False)
        else:
            monkeypatch.setenv("CODES_UNIVERSE_CAP", cap)
        rc, out, _err = run(*argv)
        outcomes.append((rc, hashlib.sha256(out.encode()).hexdigest()))
    assert outcomes == [(rc, digest) for _cap, _argv, rc, digest in HUGE_NUMBER_RUNS]
    assert limits == []


def test_count_reports_a_universe_of_any_size(default_digit_limit):
    rc, payload = run_json("count", "--lengths", "20000,1", "--alphabet", "2")
    assert rc == 2
    universe = payload["error"]["universe"]
    assert len(universe) == digits(20001)
    assert universe.endswith(str(pow(2, 20001, 10**9)).zfill(9))


def test_count_formula_prints_counts_of_any_size(default_digit_limit):
    rc, payload = run_json(
        "count", "--lengths", "20000,1", "--alphabet", "2", "--method", "formula"
    )
    assert rc == 0
    counts = payload["results"]["census"]
    assert len(counts["total"]) == digits(20001)
    # two words of lengths 1 and 20000: ud = 2^20001 - 2, pr = 2^20000
    assert len(counts["ud"]) == digits(20001)
    assert counts["ud"].endswith(str((pow(2, 20001, 10**9) - 2) % 10**9).zfill(9))
    assert len(counts["pr"]) == digits(20000)
    assert counts["pr"].endswith(str(pow(2, 20000, 10**9)).zfill(9))


@pytest.mark.parametrize("command", ("count", "witness"))
def test_huge_lengths_are_refused_before_any_power_is_built(command):
    # 2^(10^11 + 1) would take 12.5 GB; the refusal must not allocate it
    argv = ["--lengths", "100000000000,1", "--alphabet", "2"]
    if command == "witness":
        argv = ["--kind", "prefix"] + argv
    tracemalloc.start()
    try:
        rc, payload = run_json(command, *argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rc == 2
    assert payload["status"] == "error"
    assert "may need more than 1048576 bits" in payload["error"]["message"]
    assert peak < 10**6


def test_verify_runs_one_census_per_profile(tmp_path, monkeypatch):
    census_module = importlib.import_module("udcodes.census")
    calls = []
    real = census_module.census

    def counted(*args, **kwargs):
        calls.append(args[:2])
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "census", counted)
    monkeypatch.setattr(census_module, "census", counted)
    suite = tmp_path / "suite.txt"
    suite.write_text("1,2,4\n")
    rc, payload = run_json("verify", "--suite", str(suite), "--alphabet-max", "2")
    assert rc == 0
    # three ratio-bound checks, one for each pair of length values
    ratio = [entry for entry in payload["results"]["checks"] if entry["check"] == "ratio-bound"]
    assert len(ratio) == 3
    assert calls == [((1, 2, 4), 2)]


def test_universe_cap_env(monkeypatch):
    monkeypatch.setenv("CODES_UNIVERSE_CAP", "10")
    rc, payload = run_json("count", "--lengths", "2,3,3", "--alphabet", "2")
    assert rc == 2
    assert payload["error"]["universe"] == "256"
    assert "above the cap of 10" in payload["error"]["message"]


def test_universe_cap_env_must_be_positive(monkeypatch):
    monkeypatch.setenv("CODES_UNIVERSE_CAP", "0")
    rc, payload = run_json("count", "--lengths", "2,3,3", "--alphabet", "2")
    assert rc == 2
    assert payload["error"]["message"] == "CODES_UNIVERSE_CAP must be positive, got 0"


@pytest.mark.parametrize("cap", ("bogus", "0"))
@pytest.mark.parametrize("command", ("check", "witness"))
def test_commands_that_enumerate_nothing_ignore_the_cap(ud_file, monkeypatch, command, cap):
    argv = {
        "check": ("check", ud_file),
        "witness": ("witness", "--kind", "prefix", "--lengths", "2,3,3", "--alphabet", "2"),
    }[command]
    expected = run(*argv)
    monkeypatch.setenv("CODES_UNIVERSE_CAP", cap)
    assert run(*argv) == expected
    assert expected[0] == 0


def test_universe_cap_env_must_be_integer(monkeypatch):
    monkeypatch.setenv("CODES_UNIVERSE_CAP", "bogus")
    rc, payload = run_json("count", "--lengths", "2,3,3", "--alphabet", "2")
    assert rc == 2
    assert "CODES_UNIVERSE_CAP" in payload["error"]["message"]


def test_pretty_rendering():
    rc, out, _err = run("--pretty", "count", "--lengths", "2,3,3", "--alphabet", "2")
    assert rc == 0
    assert out.startswith("command: count\n")
    assert "  kraft_sum: 1/2\n" in out
    assert "    ud: 180\n" in out
    assert "{" not in out


def test_pretty_rendering_of_a_list_of_records(tmp_path):
    suite = tmp_path / "suite.txt"
    suite.write_text("2,3,3\n")
    rc, out, _err = run("--pretty", "verify", "--suite", str(suite), "--alphabet-max", "2")
    assert rc == 0
    assert out.startswith(f"command: verify\ninputs:\n  suite: {suite}\n  alphabet_max: 2\n")
    assert "\n  checks:\n    -\n      profile: 2,3,3\n      n: 2\n" in out
    assert out.count("\n    -\n") == 7
    assert "{" not in out


def test_pretty_rendering_of_a_list_of_scalars():
    argv = ("--pretty", "witness", "--kind", "prefix", "--lengths", "1,2", "--alphabet", "2")
    rc, out, _err = run(*argv)
    assert rc == 0
    assert "\n  words:\n    - 0\n    - 10\n  classification:\n" in out


def test_bad_arguments_exit_2():
    rc, _out, _err = run("count", "--alphabet", "2")
    assert rc == 2
    rc, _out, _err = run("witness", "--kind", "bogus", "--lengths", "1,2", "--alphabet", "2")
    assert rc == 2
    rc, _out, _err = run("no-such-command")
    assert rc == 2


def test_bad_lengths_argument():
    rc, payload = run_json("count", "--lengths", "2,x", "--alphabet", "2")
    assert rc == 2
    assert payload["status"] == "error"


def test_anchored_takes_exactly_two_lengths():
    rc, payload = run_json(
        "count", "--lengths", "2,3,3", "--alphabet", "2", "--anchored", "2,3,4"
    )
    assert rc == 2
    message = payload["error"]["message"]
    assert message == "--anchored expects two comma-separated lengths, got '2,3,4'"


@pytest.mark.parametrize(
    "argv",
    [
        ("count", "--lengths", "1_0,\u0663", "--alphabet", "2"),
        ("count", "--lengths", "2,3", "--alphabet", "\uff12"),
        ("count", "--lengths", "2,3", "--alphabet", "1_0"),
        ("count", "--lengths", "2,3", "--alphabet", "+2"),
        ("count", "--lengths", "2,3,3", "--alphabet", "2", "--anchored", "\u0662,3"),
        ("witness", "--kind", "prefix", "--lengths", "\u0662", "--alphabet", "2"),
        ("classify-all", "--lengths", "1", "--alphabet", " 2"),
        ("verify", "--alphabet-max", "\u0663"),
    ],
)
def test_cli_numbers_must_be_ascii_decimal(argv):
    rc, out, _err = run(*argv)
    assert rc == 2
    assert '"status": "ok"' not in out


def test_suite_file_and_cap_numbers_must_be_ascii_decimal(tmp_path, monkeypatch):
    suite = tmp_path / "suite.txt"
    suite.write_text("1,\u0662\n", encoding="utf-8")
    rc, payload = run_json("verify", "--suite", str(suite), "--alphabet-max", "2")
    assert rc == 2
    assert payload["status"] == "error"
    suite.write_text(" 1 , 2\n")  # blanks around the numbers of a list are allowed
    monkeypatch.setenv("CODES_UNIVERSE_CAP", "1_000")
    rc, payload = run_json("verify", "--suite", str(suite), "--alphabet-max", "2")
    assert rc == 2
    assert "CODES_UNIVERSE_CAP" in payload["error"]["message"]
    monkeypatch.setenv("CODES_UNIVERSE_CAP", "1000")
    rc, payload = run_json("verify", "--suite", str(suite), "--alphabet-max", "2")
    assert rc == 0


_DECIMAL = re.compile(r"-?[0-9]+")
_ARABIC_INDIC = str.maketrans("0123456789", "".join(map(chr, range(0x660, 0x66A))))
_FULLWIDTH = str.maketrans("0123456789", "".join(map(chr, range(0xFF10, 0xFF1A))))


def _spelled(value):
    """`value` written in ASCII decimal, or in a way int() also reads."""
    text = str(value)
    return st.sampled_from(
        [
            text,
            "00" + text,
            "+" + text,
            "0_" + text,
            " " + text,
            text + "\t",
            text.translate(_ARABIC_INDIC),
            text.translate(_FULLWIDTH),
        ]
    )


def _follows_rule(text, in_list=False):
    """ASCII decimal digits after an optional minus sign; blanks around the
    number are allowed only in a comma-separated list."""
    return _DECIMAL.fullmatch(text.strip(" \t") if in_list else text) is not None


@st.composite
def _count_arguments(draw):
    lengths = draw(st.lists(st.integers(2, 4), min_size=1, max_size=3))
    values = sorted(set(lengths))
    anchored = values[:2] if len(values) > 1 else None
    return (
        [draw(_spelled(a)) for a in lengths],
        draw(_spelled(draw(st.integers(2, 3)))),
        anchored and [draw(_spelled(a)) for a in anchored],
        draw(_spelled(draw(st.integers(100, 1000)))),
    )


@settings(max_examples=120, deadline=None)
@given(_count_arguments())
def test_count_arguments_fuzz(arguments):
    """Valid values, each spelled in ASCII decimal or in a way int() also
    reads: the command runs iff every number follows the ASCII-decimal rule,
    and refuses with exit 2 otherwise."""
    lengths, alphabet, anchored, cap = arguments
    argv = ["count", "--lengths", ",".join(lengths), "--alphabet", alphabet, "--method", "formula"]
    if anchored:
        argv += ["--anchored", ",".join(anchored)]
    with mock.patch.dict(os.environ, {"CODES_UNIVERSE_CAP": cap}):
        rc, out, _err = run(*argv)
    follows = (
        all(_follows_rule(part, in_list=True) for part in lengths + (anchored or []))
        and _follows_rule(alphabet)
        and _follows_rule(cap)
    )
    assert rc == (0 if follows else 2)
    if follows:
        assert json.loads(out)["inputs"]["alphabet"] == str(int(alphabet))


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.integers(1, 3), min_size=1, max_size=2).flatmap(
        lambda lengths: st.tuples(*map(_spelled, lengths))
    ),
    st.integers(2, 3).flatmap(_spelled),
)
def test_verify_arguments_fuzz(tmp_path_factory, line, alphabet_max):
    suite = tmp_path_factory.mktemp("suite") / "suite.txt"
    suite.write_text(",".join(line) + "\n", encoding="utf-8")
    with mock.patch.dict(os.environ, {"CODES_UNIVERSE_CAP": "300"}):
        rc, _out, _err = run("verify", "--suite", str(suite), "--alphabet-max", alphabet_max)
    follows = all(_follows_rule(p, in_list=True) for p in line) and _follows_rule(alphabet_max)
    assert rc == (0 if follows else 2)


@settings(max_examples=120, deadline=None)
@given(st.text(alphabet="0123456789-+_, \t\u0663\uff12x", max_size=6), st.text(max_size=4))
def test_count_argument_text_fuzz(lengths, alphabet):
    """Arbitrary text: a usage error (exit 2) unless every number follows
    the rule."""
    argv = ("count", "--lengths", lengths, "--alphabet", alphabet, "--method", "formula")
    rc, _out, _err = run(*argv)
    parts = lengths.split(",")
    follows = all(_follows_rule(p, in_list=True) for p in parts) and _follows_rule(alphabet)
    assert rc in ((0, 2) if follows else (2,))
