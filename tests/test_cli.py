import contextlib
import importlib
import io
import json
import math
import sys
import tracemalloc

import pytest

from udcodes import cli
from udcodes.cli import main


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


def test_check_bad_glyph_reports_position(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("alphabet 2\n10\nx0\n")
    rc, payload = run_json("check", str(path))
    assert rc == 2
    assert payload["status"] == "error"
    assert payload["error"]["line"] == "3"
    assert payload["error"]["column"] == "1"


def test_check_missing_file():
    rc, payload = run_json("check", "/nonexistent/code.txt")
    assert rc == 2
    assert payload["status"] == "error"


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


def test_verify_custom_suite(tmp_path):
    suite = tmp_path / "suite.txt"
    suite.write_text("# just one profile\n2,3,3\n")
    rc, payload = run_json("verify", "--suite", str(suite), "--alphabet-max", "2")
    assert rc == 0
    results = payload["results"]
    assert results["checks_run"] == "7"
    assert results["failures"] == "0"
    assert {e["profile"] for e in results["checks"]} == {"2,3,3"}


def test_verify_empty_suite(tmp_path):
    suite = tmp_path / "empty.txt"
    suite.write_text("# nothing here\n")
    rc, payload = run_json("verify", "--suite", str(suite))
    assert rc == 0
    assert payload["results"]["checks_run"] == "0"
    assert payload["results"]["all_passed"] is True


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


@pytest.fixture
def int_digit_limit():
    """main lifts the interpreter's int-to-str digit limit; put it back."""
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    yield
    if limit is not None:
        sys.set_int_max_str_digits(limit)


def digits(power):
    """Decimal digit count of 2**power, without rendering it."""
    return math.floor(power * math.log10(2)) + 1


def test_count_reports_a_universe_of_any_size(int_digit_limit):
    rc, payload = run_json("count", "--lengths", "20000,1", "--alphabet", "2")
    assert rc == 2
    universe = payload["error"]["universe"]
    assert len(universe) == digits(20001)
    assert universe.endswith(str(pow(2, 20001, 10**9)).zfill(9))


def test_count_formula_prints_counts_of_any_size(int_digit_limit):
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
