"""End-to-end command-line runs: artifacts, exit codes, determinism."""

import contextlib
import io
import json
import os
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import zng
import zng.cli
import zng.hypergraph
import zng.oracle
from helpers import BALANCED_SPLIT, OVER_CAPACITY, advice_kind, logged_advice
from zng.certify import FreenessCertificate
from zng.cli import _HELP, main
from zng.config import COMMON_KEYS, MODE_KEYS, ExperimentConfig, parse_args, parse_config
from zng.construct import ConstructionParams, derive_params
from zng.count import CountReport
from zng.errors import ratio_text
from zng.hypergraph import read_graph


def run_advised(args, capsys):
    """main(args): its exit code, its status line and the logged_advice of its stderr."""
    code = main(args)
    captured = capsys.readouterr()
    out = captured.out.strip().splitlines()
    stderr_messages(captured.err)  # every line has the log prefix
    return code, json.loads(out[-1]) if out else {}, logged_advice(captured.err)


def run_cli(args, capsys):
    return run_advised(args, capsys)[:2]


# ----------------------------------------------------------------------
# construct / verify / count / oracle
# ----------------------------------------------------------------------

def test_construct_end_to_end(tmp_path, capsys):
    out = tmp_path / "run"
    code, status, advice = run_advised(
        ["construct", "--s", "2", "--t", "4", "--q", "5", "--m", "10",
         "--seed", "1", "--out", str(out)],
        capsys,
    )
    assert code == 0 and advice == [BALANCED_SPLIT]
    assert status["edges"] == 50 and status["passed"] is True
    graph = read_graph(out / "graph.zng")
    assert graph.num_edges == 50
    cert = json.loads((out / "certificate.json").read_text())
    assert cert["passed"] is True and cert["seed"] == 1


def test_verify_flags_planted_pattern(tmp_path, capsys):
    graph = tmp_path / "k22.zng"
    graph.write_text("zng 2 2 2\n0 0\n0 1\n1 0\n1 1\n")
    out = tmp_path / "v"
    code, status = run_cli(
        ["verify", "--graph", str(graph), "--s", "2", "--t", "2", "--out", str(out)],
        capsys,
    )
    assert code == 1
    assert status["passed"] is False
    assert status["argmax_pattern"] == [[0, 1]]  # names the violating pattern
    cert = json.loads((out / "certificate.json").read_text())
    assert cert["argmax_pattern"] == [[0, 1]]


def test_verify_passes_sparse_graph(tmp_path, capsys):
    graph = tmp_path / "c6.zng"
    graph.write_text("zng 2 3 3\n0 0\n0 1\n1 1\n1 2\n2 0\n2 2\n")
    code, status = run_cli(
        ["verify", "--graph", str(graph), "--s", "2", "--t", "2",
         "--out", str(tmp_path / "v")],
        capsys,
    )
    assert code == 0 and status["passed"] is True


def test_count_writes_report(tmp_path, capsys):
    graph = tmp_path / "k33.zng"
    graph.write_text(
        "zng 2 3 3\n" + "".join(f"{i} {j}\n" for i in range(3) for j in range(3))
    )
    out = tmp_path / "c"
    code, status = run_cli(
        ["count", "--graph", str(graph), "--s", "2", "--s", "2", "--out", str(out)],
        capsys,
    )
    assert code == 0
    assert status["exact"] == 9 and status["lower_bound"] == "9"
    report = json.loads((out / "count.json").read_text())
    assert report["bound_holds"] is True


def test_oracle_ledger_row(tmp_path, capsys):
    out = tmp_path / "o"
    code, status = run_cli(
        ["oracle", "--m", "2", "--m", "2", "--s", "2", "--s", "2", "--out", str(out)],
        capsys,
    )
    assert code == 0 and status["z"] == 3
    lines = (out / "oracle.tsv").read_text().splitlines()
    assert lines[1].split("\t")[:2] == ["z(2,2;2,2)", "3"]
    witness = read_graph(out / "witness_2x2_2x2.zng")
    assert witness.num_edges == 3


# every stderr line: logging's old "%(asctime)s %(name)s %(message)s" text
STDERR_LINE = re.compile(r"\d{4}-\d\d-\d\d \d\d:\d\d:\d\d,\d{3} zng (.*)")


def stderr_messages(err):
    matches = [STDERR_LINE.fullmatch(line) for line in err.splitlines()]
    assert all(matches), err
    return [match.group(1) for match in matches]


def test_oracle_logs_its_node_rate_and_nothing_else(tmp_path, capsys):
    out = tmp_path / "o"
    code = main(["oracle", "--m", "3", "--m", "3", "--s", "2", "--s", "2", "--out", str(out)])
    captured = capsys.readouterr()
    status = json.loads(captured.out.splitlines()[-1])
    assert code == 0
    lines = [line for line in stderr_messages(captured.err) if line.startswith("oracle ")]
    assert len(lines) == 1
    assert lines[0].startswith("oracle z(3,3;2,2): z=6, 74 nodes in ")
    assert lines[0].endswith(" nodes/s)")
    # the rate goes to stderr only: the status line and the ledger are as before
    assert set(status) == {"mode", "query", "z", "nodes", "witness", "out"}
    assert (out / "oracle.tsv").read_text().splitlines()[1] == (
        "z(3,3;2,2)\t6\t74\twitness_3x3_2x2.zng"
    )


def test_each_main_call_writes_to_the_stderr_it_finds(tmp_path, capsys):
    buffers = [io.StringIO(), io.StringIO()]
    argv = ["oracle", "--m", "2", "--m", "2", "--s", "2", "--s", "2", "--out"]
    for k, buffer in enumerate(buffers):
        with contextlib.redirect_stderr(buffer):
            assert main([*argv, str(tmp_path / f"o{k}")]) == 0
    for buffer in buffers:
        messages = stderr_messages(buffer.getvalue())
        finished = [m for m in messages if m.startswith("mode oracle finished in ")]
        assert len(finished) == 1 and messages[-1] == finished[0]
    assert capsys.readouterr().err == ""


def test_closed_stderr_changes_neither_stdout_nor_the_exit_code(tmp_path):
    argv = ["oracle", "--m", "2", "--s", "2", "--m", "2", "--s", "2", "--out", str(tmp_path / "o")]
    done = subprocess.run(
        ["sh", "-c", 'exec "$@" 2>&-', "sh", sys.executable, "-m", "zng.cli", *argv],
        capture_output=True, text=True, env=CHILD_ENV, timeout=60,
    )
    assert done.returncode == 0
    status = json.loads(done.stdout.splitlines()[-1])
    assert status["mode"] == "oracle" and status["z"] == 3


# (argv, exit code, balanced-split advice lines, exact status line), --out relative
STATUS_LINES = {
    "construct": (
        "construct --s 2 --t 4 --q 5 --m 6 --seed 1 --out c", 0, 1,
        '{"edges": 30, "max_size": 2, "mode": "construct", "out": "c", '
        '"part_sizes": [6, 25], "passed": true, "t": 4}',
    ),
    "verify-pass": (
        "verify --graph c6.zng --s 2 --t 2 --out v", 0, 0,
        '{"argmax_pattern": [[0, 1]], "graph": "c6.zng", "max_size": 1, '
        '"mode": "verify", "out": "v", "passed": true, "t": 2}',
    ),
    "verify-fail": (
        "verify --graph k22.zng --s 2 --t 2 --out w", 1, 0,
        '{"argmax_pattern": [[0, 1]], "graph": "k22.zng", "max_size": 2, '
        '"mode": "verify", "out": "w", "passed": false, "t": 2}',
    ),
    "count": (
        "count --graph c6.zng --s 2 --s 2 --out n", 0, 0,
        '{"bound_holds": true, "density": "2/3", "exact": 0, "graph": "c6.zng", '
        '"intermediate": 3, "lower_bound": "0", "mode": "count", "out": "n", '
        '"s_list": [2, 2]}',
    ),
    "oracle": (
        "oracle --m 3 --m 3 --s 2 --s 2 --out o", 0, 0,
        '{"mode": "oracle", "nodes": 74, "out": "o", "query": "z(3,3;2,2)", '
        '"witness": "witness_3x3_2x2.zng", "z": 6}',
    ),
    "sweep": (  # q = 6 fails before its advice
        "sweep --s 2 --t 4 --q 5 --q 6 --q 7 --seed 1 --out s", 1, 2,
        '{"failed": 1, "mode": "sweep", "out": "s", "points": 3}',
    ),
}


@pytest.mark.parametrize("name", sorted(STATUS_LINES))
def test_status_lines_are_pinned(tmp_path, monkeypatch, capsys, name):
    argv, code, advisories, line = STATUS_LINES[name]
    monkeypatch.chdir(tmp_path)
    Path("c6.zng").write_text("zng 2 3 3\n0 0\n0 1\n1 1\n1 2\n2 0\n2 2\n")
    Path("k22.zng").write_text("zng 2 2 2\n0 0\n0 1\n1 0\n1 1\n")
    assert main(argv.split()) == code
    captured = capsys.readouterr()
    assert logged_advice(captured.err) == [BALANCED_SPLIT] * advisories
    assert captured.out.splitlines()[-1] == line


# ----------------------------------------------------------------------
# sweep
# ----------------------------------------------------------------------

def test_sweep_ratios_are_exactly_one(tmp_path, capsys):
    out = tmp_path / "s"
    code, status, advice = run_advised(
        ["sweep", "--s", "2", "--t", "4", "--q", "5", "--q", "7", "--q", "9",
         "--q", "11", "--seed", "42", "--out", str(out)],
        capsys,
    )
    assert code == 0 and status["failed"] == 0
    assert advice == [BALANCED_SPLIT] * 4  # m = q, capacity q^3 / 2
    lines = (out / "sweep.tsv").read_text().splitlines()
    assert lines[0] == "q\tm\tedges\tbound\tratio\tverdict"
    assert len(lines) == 5
    for line in lines[1:]:
        q, m, edges, bound, ratio, verdict = line.split("\t")
        assert ratio == "1" and verdict == "pass"
        assert int(edges) == int(m) * int(q) == int(bound)
    for q in (5, 7, 9, 11):
        assert (out / f"q{q}" / "graph.zng").exists()
        assert (out / f"q{q}" / "certificate.json").exists()


def test_sweep_ratio_text_is_the_fraction_text():
    cases = [(edges, bound) for bound in range(1, 40) for edges in range(bound + 1)]
    cases += [(3721, 3721), (0, 3721), (6 * 2**64, 4 * 2**64), (10**30 + 1, 10**30)]
    for edges, bound in cases:
        assert ratio_text(edges, bound) == str(Fraction(edges, bound))


def test_sweep_empty_range(tmp_path, capsys):
    out = tmp_path / "s"
    code, status = run_cli(
        ["sweep", "--s", "2", "--t", "4", "--seed", "1", "--out", str(out)], capsys
    )
    assert code == 0 and status["points"] == 0
    assert (out / "sweep.tsv").read_text().splitlines() == [
        "q\tm\tedges\tbound\tratio\tverdict"
    ]


def test_sweep_marks_infeasible_rows_and_continues(tmp_path, capsys):
    out = tmp_path / "s"
    code, status, advice = run_advised(
        ["sweep", "--s", "2", "--t", "4", "--q", "5", "--q", "6", "--q", "7",
         "--seed", "1", "--out", str(out)],
        capsys,
    )
    assert code == 1
    assert advice == [BALANCED_SPLIT] * 2  # q = 6 fails before its advice
    assert status["failed"] == 1
    rows = {
        line.split("\t")[0]: line.split("\t")[5]
        for line in (out / "sweep.tsv").read_text().splitlines()[1:]
    }
    assert rows == {"5": "pass", "6": "failed", "7": "pass"}
    assert not (out / "q6").exists()


def test_sweep_reruns_are_byte_identical(tmp_path, capsys):
    args = ["sweep", "--s", "2", "--t", "4", "--q", "5", "--q", "7", "--seed", "9"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert logged_advice(capsys.readouterr().err) == [BALANCED_SPLIT] * 4
    for rel in ("sweep.tsv", "q5/graph.zng", "q5/certificate.json", "q7/graph.zng"):
        assert (a / rel).read_bytes() == (b / rel).read_bytes(), rel


def test_every_stderr_line_is_a_log_line_and_carries_the_advice(tmp_path):
    done = subprocess.run(
        [sys.executable, "-m", "zng.cli", "sweep", "--s", "2", "--t", "4", "--q", "5",
         "--q", "7", "--out", str(tmp_path / "s")],
        capture_output=True, text=True, env=CHILD_ENV, timeout=60,
    )
    assert done.returncode == 0
    advice = [line for line in stderr_messages(done.stderr) if advice_kind(line)]
    assert advice == [derive_params((2,), 4, q, (q,)).advice for q in (5, 7)]


# ----------------------------------------------------------------------
# config files and exit codes
# ----------------------------------------------------------------------

def test_config_file_round_trip_drives_a_run(tmp_path, capsys):
    text = f"mode=construct\ns=2\nm=6\nq=5\nt=4\nseed=3\nout={tmp_path / 'run'}\n"
    assert parse_config(text) == ExperimentConfig(
        mode="construct", s=(2,), t=4, q=(5,), m=(6,), seed=3,
        out=str(tmp_path / "run"),
    )
    path = tmp_path / "run.cfg"
    path.write_text(text)
    code, status, advice = run_advised(["construct", "--config", str(path)], capsys)
    assert code == 0 and status["edges"] == 30 and advice == [BALANCED_SPLIT]


def test_cli_flags_override_config(tmp_path, capsys):
    path = tmp_path / "run.cfg"
    path.write_text(f"mode=construct\ns=2\nm=6\nq=5\nt=4\nseed=3\nout={tmp_path / 'x'}\n")
    code, status, advice = run_advised(
        ["construct", "--config", str(path), "--m", "4", "--out", str(tmp_path / "y")],
        capsys,
    )
    assert code == 0 and advice == [BALANCED_SPLIT]
    assert status["edges"] == 20  # the flag m=4 wins over the file's m=6
    assert (tmp_path / "y" / "graph.zng").exists()


def test_config_mode_mismatch_is_usage_error(tmp_path, capsys):
    path = tmp_path / "run.cfg"
    path.write_text("mode=oracle\ns=2\ns=2\nm=2\nm=2\n")
    code, status = run_cli(["construct", "--config", str(path)], capsys)
    assert code == 2 and status["error"] == "usage"


def test_missing_required_field_is_usage_error(tmp_path, capsys):
    code, status = run_cli(
        ["construct", "--s", "2", "--q", "5", "--m", "4", "--out", str(tmp_path)],
        capsys,
    )
    assert code == 2 and status["error"] == "usage"


def test_bad_graph_file_is_usage_error(tmp_path, capsys):
    graph = tmp_path / "bad.zng"
    graph.write_text("zng 2 2\n")
    code, status = run_cli(
        ["verify", "--graph", str(graph), "--s", "2", "--t", "2",
         "--out", str(tmp_path / "v")],
        capsys,
    )
    assert code == 2 and status["error"] == "usage"
    missing = run_cli(
        ["verify", "--graph", str(tmp_path / "nope.zng"), "--s", "2", "--t", "2",
         "--out", str(tmp_path / "v")],
        capsys,
    )
    assert missing[0] == 2


def test_a_wrong_side_count_names_the_count_the_graph_takes(tmp_path, capsys):
    graph = tmp_path / "g3.zng"
    graph.write_text("zng 3 2 2 2\n0 0 0\n")
    for argv, takes in ((["verify", "--t", "4"], 2), (["count"], 3)):
        argv += ["--graph", str(graph), "--s", "2", "--out", str(tmp_path / "o")]
        code, status = run_cli(argv, capsys)
        reason = f"1 side sizes for a 3-part graph, which takes {takes}"
        assert code == 2 and status == {"error": "usage", "reason": reason}
    # a side below 1, t included, gets hypergraph.shape's one reason in every mode
    for argv in (
        ["oracle", "--m", "2", "--s", "0"],
        ["verify", "--graph", str(graph), "--s", "0", "--s", "1", "--t", "2"],
        ["verify", "--graph", str(graph), "--s", "1", "--s", "1", "--t", "0"],
        ["count", "--graph", str(graph), "--s", "0", "--s", "1", "--s", "1"],
        ["construct", "--s", "0", "--t", "4", "--q", "5", "--m", "3"],
    ):
        code, status = run_cli([*argv, "--out", str(tmp_path / "o")], capsys)
        assert code == 2 and status == {"error": "usage", "reason": "side sizes must be >= 1"}


def test_a_graph_too_wide_to_allocate_is_a_budget_error(tmp_path, capsys):
    huge = 10**30
    graph = tmp_path / "big.zng"
    graph.write_text(f"zng 2 1 {huge}\n0 {huge - 1}\n")
    commented = tmp_path / "commented.zng"
    commented.write_text(f"# one edge\nzng 2 1 {huge}\n0 {huge - 1}\n")
    reason = f"the mask table needs {huge} bits, above the cap {1 << 32}"
    for argv in (
        ["verify", "--graph", str(graph), "--s", "1", "--t", "2"],
        ["count", "--graph", str(commented), "--s", "1", "--s", "1"],
    ):
        code, status = run_cli([*argv, "--out", str(tmp_path / "o")], capsys)
        assert code == 3 and status == {"error": "budget", "reason": reason}


def test_a_mask_table_too_wide_is_refused_before_any_rows(tmp_path, capsys, monkeypatch):
    """4,099 points and 999,000 pattern lookups pass, but 1,000 masks of 4099^2 bits do not."""
    def no_rows(*args):
        raise AssertionError("a refused build made its monomial rows")

    monkeypatch.setattr("zng.construct.monomial_rows", no_rows)
    code, status = run_cli(
        ["construct", "--s", "2", "--t", "4", "--q", "4099", "--m", "1000",
         "--out", str(tmp_path)],
        capsys,
    )
    reason = f"the mask table needs {1000 * 4099**2} bits, above the cap {1 << 32}"
    assert code == 3 and status == {"error": "budget", "reason": reason}


def test_budget_violation_exit_code(tmp_path, capsys):
    code, status = run_cli(
        ["oracle", "--m", "3", "--m", "3", "--s", "2", "--s", "2",
         "--budget", "4", "--out", str(tmp_path)],
        capsys,
    )
    assert code == 3 and status["error"] == "budget"
    assert "exceed" in status["reason"]


def test_infeasible_construct_is_verdict_failure(tmp_path, capsys):
    # five pairwise-distinct linear polynomials cannot exist over GF(2)
    code, status, advice = run_advised(
        ["construct", "--s", "2", "--t", "2", "--q", "2", "--m", "5",
         "--retries", "8", "--restarts", "2", "--out", str(tmp_path / "f")],
        capsys,
    )
    assert code == 1 and status["error"] == "construction"
    assert advice == [OVER_CAPACITY]


MODES = "expected one of ('construct', 'verify', 'count', 'oracle', 'sweep')"

# (config text, the status line's reason): parse_config's and validate's refusals
CONFIG_ERRORS = {
    "no-equals": ("# a comment\n\nmode=construct\ns 2\n", "line 4: expected key=value, got 's 2'"),
    "not-an-int": ("mode=construct\nt=four  # ?\n", "line 2: t needs an integer, got 'four'"),
    "no-mode": ("s=2\nt=4\n", "config is missing the mode key"),
    "not-positive": ("mode=construct\ns=2\nretries=0\n", "retries must be positive, got 0"),
    "repeated-key": ("mode=construct\nt=4\ns=2\nt = 5\n", "line 4: t is already set by line 2"),
    "repeated-mode": ("mode=construct\nmode=construct\n", "line 2: mode is already set by line 1"),
}


@pytest.mark.parametrize("name", sorted(CONFIG_ERRORS))
def test_config_file_errors_are_usage_errors(tmp_path, capsys, name):
    text, reason = CONFIG_ERRORS[name]
    path = tmp_path / "run.cfg"
    path.write_text(text)
    code, status = run_cli(["construct", "--config", str(path)], capsys)
    assert code == 2 and status == {"error": "usage", "reason": reason}


def test_unknown_mode_is_refused_by_validate():
    # parse_args and the mode-mismatch check stop it before validate on the
    # command line, with the same text
    for refuse in (ExperimentConfig(mode="plot").validate, lambda: parse_args(["plot"])):
        with pytest.raises(ValueError) as err:
            refuse()
        assert str(err.value) == f"unknown mode 'plot'; {MODES}"


def test_unknown_config_key_is_usage_error(tmp_path, capsys):
    path = tmp_path / "run.cfg"
    for key in ("wat", "jobs", "config"):  # --config is a flag, not a file key
        path.write_text(f"mode=construct\n{key}=1\n")
        code, status = run_cli(["construct", "--config", str(path)], capsys)
        assert code == 2 and status == {"error": "usage", "reason": f"line 2: unknown key {key!r}"}
    code, status = run_cli(["construct", "--jobs", "2"], capsys)
    assert code == 2 and status == {"error": "usage", "reason": "mode construct takes no flag '--jobs'"}


def test_config_file_keys_follow_the_mode_table(tmp_path, capsys):
    path = tmp_path / "run.cfg"
    # the mode comes last, so the keys are checked once the file is read
    path.write_text("m=2\nm=2\ns=2\ns=2\nq=5\nretries=4\nmode=oracle\n")
    code, status = run_cli(["oracle", "--config", str(path), "--out", str(tmp_path)], capsys)
    reason = "line 5: mode oracle takes no key 'q'"
    assert code == 2 and status == {"error": "usage", "reason": reason}
    for mode, (required, optional) in MODE_KEYS.items():
        taken = COMMON_KEYS + required + optional
        for key in ("s", "m", "q", "t", "seed", "out", "budget", "graph", "retries", "restarts"):
            text = f"{key}=1\nmode={mode}\n"
            if key in taken:
                assert parse_config(text).mode == mode
            else:
                with pytest.raises(ValueError) as err:
                    parse_config(text)
                assert str(err.value) == f"line 1: mode {mode} takes no key {key!r}"


# (argv, the status line's reason): parse_args's refusals
ARGV_ERRORS = {
    "no-mode": ([], f"unknown mode ''; {MODES}"),
    "unknown-mode": (["plot", "--s", "2"], f"unknown mode 'plot'; {MODES}"),
    "unknown-flag": (["construct", "--jobs", "2"], "mode construct takes no flag '--jobs'"),
    "other-mode-flag": (["oracle", "--t", "4"], "mode oracle takes no flag '--t'"),
    "mode-flag": (["construct", "--mode", "construct"], "mode construct takes no flag '--mode'"),
    "no-value": (["construct", "--s"], "--s needs a value"),
    "no-config-value": (["construct", "--s", "2", "--config"], "--config needs a value"),
    "not-an-int": (["construct", "--t", "four"], "--t: t needs an integer, got 'four'"),
    "equals": (["construct", "--t=4"], "mode construct takes no flag '--t=4'"),
    "abbreviated": (["construct", "--ret", "3"], "mode construct takes no flag '--ret'"),
    "bare-value": (["construct", "--s", "2", "3"], "mode construct takes no flag '3'"),
    "repeated-flag": (
        ["construct", "--s", "2", "--t", "4", "--t", "5", "--q", "5", "--m", "3"],
        "--t: t is already set by --t",
    ),
    "second-config": (
        ["construct", "--config", "a.cfg", "--config", "b.cfg"],
        "--config: a second config file 'b.cfg' after 'a.cfg'",
    ),
}


@pytest.mark.parametrize("name", sorted(ARGV_ERRORS))
def test_command_line_errors_print_the_status_line(capsys, name):
    argv, reason = ARGV_ERRORS[name]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out.splitlines() == [json.dumps({"error": "usage", "reason": reason})]
    assert captured.err == ""


@pytest.mark.parametrize("key", COMMON_KEYS + sum(MODE_KEYS["construct"], ()))
def test_flags_and_files_share_one_typing_rule(key):
    text, argv = f"mode=construct\n{key}=four\n", ["construct", f"--{key}", "four"]
    if key == "out":  # the str key takes any text
        assert parse_config(text) == parse_args(argv) == ExperimentConfig("construct", out="four")
        return
    for where, parse, given in (("line 2", parse_config, text), (f"--{key}", parse_args, argv)):
        with pytest.raises(ValueError) as err:
            parse(given)
        assert str(err.value) == f"{where}: {key} needs an integer, got 'four'"


def test_integers_past_the_digit_limit_are_budget_errors(tmp_path, capsys):
    ones = "1" * (sys.get_int_max_str_digits() + 1)
    limit = f"has {len(ones)} digits, more than the {sys.get_int_max_str_digits()}"
    path = tmp_path / "run.cfg"
    path.write_text(f"mode=oracle\nm = {ones}\ns=1\n")
    out = tmp_path / "o"
    for argv, where in (
        (["oracle", "--m", ones, "--s", "1", "--m", "2", "--s", "1"], "--m"),
        (["oracle", "--m", f" -{ones}", "--s", "1"], "--m"),
        (["oracle", "--config", str(path)], "line 2"),
    ):
        code, status = run_cli([*argv, "--out", str(out)], capsys)
        assert code == 3, argv
        assert status == {"error": "budget", "reason": f"{where}: m {limit} an integer may have"}
        assert not out.exists()
    # a malformed value of any length is still a usage error
    code, status = run_cli(["oracle", "--m", ones + "x", "--s", "1"], capsys)
    assert code == 2 and status["error"] == "usage"
    assert status["reason"].startswith("--m: m needs an integer, got '111")
    # so is an integer of a graph file, in its header or in an edge
    graph = tmp_path / "g.zng"
    for text, where in ((f"zng 2 2 {ones}\n", "line 1: header field"),
                        (f"zng 2 2 3\n{ones} 0\n", "line 2: edge field")):
        graph.write_text(text)
        argv = ["verify", "--graph", str(graph), "--s", "1", "--t", "1", "--out", str(out)]
        code, status = run_cli(argv, capsys)
        assert code == 3, text[:12]
        assert status == {"error": "budget", "reason": f"{where} {limit} an integer may have"}
        assert not out.exists()


def test_help_is_asked_only_where_a_flag_can_stand(tmp_path, capsys, monkeypatch):
    top = "usage: zng {construct,verify,count,oracle,sweep} [flags]; zng MODE --help lists them\n"
    for argv in (["--help"], ["-h"], ["-h", "oracle"], ["plot", "--help"]):
        assert main(argv) == 0
        assert capsys.readouterr().out == top, argv
    for argv in (
        ["oracle", "-h", "2"], ["oracle", "--m", "2", "--help"], ["oracle", "--bad", "2", "-h"]
    ):
        assert main(argv) == 0
        assert capsys.readouterr().out.startswith("usage: zng oracle [flags]\n"), argv
    # a value that reads -h or --help is a value
    monkeypatch.chdir(tmp_path)
    code, status = run_cli(["oracle", "--m", "2", "--s", "1", "--out", "-h"], capsys)
    assert code == 0 and status["out"] == "-h"
    assert sorted(p.name for p in (tmp_path / "-h").iterdir()) == ["oracle.tsv", "witness_2_1.zng"]
    code, status = run_cli(["verify", "--graph", "--help", "--s", "2", "--t", "3"], capsys)
    assert code == 2 and status["error"] == "usage" and "--help" in status["reason"]
    code, status = run_cli(["oracle", "--m", "-h", "--s", "1"], capsys)
    assert code == 2 and status == {"error": "usage", "reason": "--m: m needs an integer, got '-h'"}


# ----------------------------------------------------------------------
# the key table: config.MODE_KEYS drives the flags, the overlay and validate
# ----------------------------------------------------------------------

# each subcommand's own flags, besides the common ones, in --help order
HELP_FLAGS = {
    "construct": "--s --t --q --m --retries --restarts",
    "verify": "--graph --s --t",
    "count": "--graph --s",
    "oracle": "--m --s",
    "sweep": "--s --t --q --m --retries --restarts",
}


@pytest.mark.parametrize("mode", list(MODE_KEYS))
def test_help_names_the_common_flags_and_the_table_keys(mode, capsys):
    required, optional = MODE_KEYS[mode]
    table = [f"--{key}" for key in required + optional]
    assert " ".join(table) == HELP_FLAGS[mode]
    for argv in ([mode, "--help"], [mode, "-h"], [mode, "--s", "2", "--help"]):
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        named = list(dict.fromkeys(re.findall(r"--\w+", captured.out)))
        named.remove("--help")
        assert named == ["--seed", "--out", "--budget", "--config", *table]
        for flag in named:  # each flag's line carries its help text
            assert re.search(rf"^  {flag} +{re.escape(_HELP[flag[2:]])}$", captured.out, re.M)


# a value for every key; two for each list key except construct's q
SAMPLE_VALUES = {
    "seed": ["7"], "out": ["o"], "budget": ["500"], "graph": ["g.zng"], "t": ["4"],
    "retries": ["3"], "restarts": ["2"], "s": ["2", "3"], "m": ["4", "5"], "q": ["5", "7"],
}


@pytest.mark.parametrize("mode", list(MODE_KEYS))
def test_flags_and_config_file_give_the_same_config(tmp_path, mode):
    required, optional = MODE_KEYS[mode]
    keys = COMMON_KEYS + required + optional
    pairs = [
        (key, value)
        for key in keys
        for value in SAMPLE_VALUES[key][: 1 if (mode, key) == ("construct", "q") else 2]
    ]
    path = tmp_path / "run.cfg"
    path.write_text(f"mode={mode}\n" + "".join(f"{k}={v}\n" for k, v in pairs))
    from_flags = parse_args([mode, *(x for k, v in pairs for x in (f"--{k}", v))])
    from_file = parse_args([mode, "--config", str(path)])
    assert from_flags == from_file == parse_config(path.read_text())
    defaults = ExperimentConfig(mode)
    assert {k for k, v in zip(defaults._fields, defaults) if getattr(from_flags, k) != v} == set(keys)
    from_flags.validate()
    # the file is read first, wherever --config stands; a list flag replaces its list
    overlaid = parse_args([mode, "--s", "9", "--seed", "8", "--config", str(path), "--s", "6"])
    assert overlaid == from_file._replace(s=(9, 6), seed=8)


def test_construct_takes_one_q_from_flags_as_from_a_file(tmp_path, capsys):
    out = tmp_path / "c"
    code, status = run_cli(
        ["construct", "--s", "2", "--t", "4", "--q", "5", "--q", "7", "--m", "3",
         "--out", str(out)],
        capsys,
    )
    assert code == 2 and status["error"] == "usage"
    assert "exactly one q" in status["reason"]
    assert not out.exists()


def test_oracle_size_errors_leave_no_out_dir(tmp_path, capsys):
    for sizes in (["--m", "2", "--m", "2", "--s", "2"], ["--m", "0", "--s", "2"]):
        out = tmp_path / "o"
        code, status = run_cli(["oracle", *sizes, "--out", str(out)], capsys)
        assert code == 2 and status["error"] == "usage"
        assert not out.exists()
    assert status["reason"] == "part sizes must be >= 1, got (0,)"


def test_budget_errors_leave_no_out_dir(tmp_path, capsys):
    graph = tmp_path / "wide.zng"
    graph.write_text("zng 2 1000000 5\n")  # C(10^6, 3000) patterns
    runs = {
        "v": ["verify", "--graph", str(graph), "--s", "3000", "--t", "2"],
        "c": ["count", "--graph", str(graph), "--s", "3000", "--s", "1"],
        "z": ["oracle", "--m", "7", "--s", "2", "--m", "7", "--s", "2"],
        "b": ["construct", "--s", "2", "--t", "4", "--q", "5", "--m", "104", "--budget", "4"],
    }
    reasons = {}
    for name, argv in runs.items():
        code, status = run_cli([*argv, "--out", str(tmp_path / "p" / name)], capsys)
        assert code == 3 and status["error"] == "budget", name
        reasons[name] = status["reason"]
    assert not (tmp_path / "p").exists()
    assert reasons["z"] == "49 potential edges exceed the search cap 36"
    assert reasons["b"].startswith("evaluation domain has 5 points")


def test_huge_t_is_a_budget_error_before_its_powers(tmp_path, capsys):
    argv = ["construct", "--s", "2", "--q", "5", "--m", "3", "--out", str(tmp_path / "c")]
    for t, reason in ((7000, "4300 digits"), (10**7, "basis")):
        started = time.perf_counter()
        code, status = run_cli([*argv, "--t", str(t)], capsys)
        assert time.perf_counter() - started < 1.0
        assert code == 3 and status["error"] == "budget" and reason in status["reason"]
    code, status, advice = run_advised([*argv, "--t", "6000"], capsys)
    assert advice == [BALANCED_SPLIT]  # its capacity has 4191 digits
    assert code == 0 and status["passed"] is True and status["edges"] == 15


def test_artifact_keys_are_the_record_fields(tmp_path, capsys):
    graph = tmp_path / "b" / "graph.zng"
    runs = {
        "b": ["construct", "--s", "2", "--t", "4", "--q", "5", "--m", "104"],  # no advisory
        "v": ["verify", "--graph", str(graph), "--s", "2", "--t", "4"],
        "c": ["count", "--graph", str(graph), "--s", "2", "--s", "2"],
    }
    for out, argv in runs.items():
        assert run_cli([*argv, "--out", str(tmp_path / out)], capsys)[0] == 0
    built, verified = (
        json.loads((tmp_path / out / "certificate.json").read_text()) for out in "bv"
    )
    counted = json.loads((tmp_path / "c" / "count.json").read_text())
    assert sorted(built) == sorted(verified) == sorted(FreenessCertificate._fields)
    assert sorted(built["params"]) == sorted(ConstructionParams._fields)
    assert sorted(counted) == sorted(CountReport._fields)


# counts with more digits than str() prints (4300): each is an exit 3 budget
# error (or a failed sweep row), not a usage error from the message text
BIG = str(10**4000)


@pytest.mark.parametrize("mode, sides", [("verify", ["--t", "2"]), ("count", ["--s", "1"])])
def test_unprintable_pattern_count_is_a_budget_error(tmp_path, capsys, mode, sides):
    graph = tmp_path / "wide.zng"
    graph.write_text("zng 2 1000000 5\n")  # C(10^6, 3000) patterns, 8868 digits
    argv = [mode, "--graph", str(graph), "--s", "3000", *sides, "--out", str(tmp_path / "o")]
    code, status = run_cli(argv, capsys)
    assert code == 3 and status["error"] == "budget"
    assert re.fullmatch(
        r"at least 2\^\d+ mask lookups for at least 2\^\d+ patterns exceed the budget \d+",
        status["reason"],
    )


def test_unprintable_evaluation_domain_is_a_budget_error(tmp_path, capsys):
    argv = ["construct", "--s", "3000", "--t", "3000", "--q", "127", "--m", "1"]
    code, status, advice = run_advised([*argv, "--out", str(tmp_path / "c")], capsys)
    assert advice == [OVER_CAPACITY]  # capacity 0
    assert code == 3 and status["error"] == "budget"
    assert status["reason"].startswith("evaluation domain has at least 2^20959 points")


def test_unprintable_tuple_count_is_advised_and_is_a_budget_error(tmp_path, capsys):
    argv = ["construct", "--s", "2", "--s", "2", "--t", "4", "--q", "5", "--m", BIG, "--m", BIG]
    code = main([*argv, "--out", str(tmp_path / "c")])
    captured = capsys.readouterr()
    status = json.loads(captured.out.splitlines()[-1])
    advice = [line for line in stderr_messages(captured.err) if advice_kind(line)]
    assert len(advice) == 1 and advice[0].startswith("at least 2^26575 tuples exceed")
    assert code == 3 and status["error"] == "budget"
    assert "patterns exceed the budget" in status["reason"]


def test_unprintable_oracle_edge_count_is_a_budget_error(tmp_path, capsys):
    argv = ["oracle", "--m", BIG, "--s", "1", "--m", BIG, "--s", "1"]
    code, status = run_cli([*argv, "--out", str(tmp_path / "o")], capsys)
    assert code == 3 and status["error"] == "budget"
    assert status["reason"] == "at least 2^26575 potential edges exceed the search cap 36"


def test_unprintable_sweep_bound_is_a_failed_row(tmp_path, capsys):
    out = tmp_path / "s"
    argv = ["sweep", "--s", "3000", "--t", "3000", "--q", "127", "--q", "5", "--out", str(out)]
    code, status, advice = run_advised(argv, capsys)
    assert advice == [OVER_CAPACITY] * 2  # capacity 0 at both orders
    assert code == 1 and status["failed"] == 2
    # 127 * 127^2999 has 6312 digits and prints as "-"; 5 * 5^2999 has 2097
    assert (out / "sweep.tsv").read_text().splitlines() == [
        "q\tm\tedges\tbound\tratio\tverdict",
        "127\t127\t-\t-\t-\tfailed",
        f"5\t5\t-\t{5**3000}\t-\tfailed",
    ]


# a child interpreter imports the zng this suite tests, installed or not
CHILD_ENV = {**os.environ, "PYTHONPATH": str(Path(zng.__file__).resolve().parent.parent)}


def test_module_entry_point_usage():
    result = subprocess.run(
        [sys.executable, "-m", "zng.cli"], capture_output=True, text=True, env=CHILD_ENV
    )
    assert result.returncode == 2  # usage error: no subcommand
    status = json.loads(result.stdout.splitlines()[-1])
    assert status == {"error": "usage", "reason": f"unknown mode ''; {MODES}"}
    helped = subprocess.run(
        [sys.executable, "-m", "zng.cli", "--help"], capture_output=True, text=True,
        env=CHILD_ENV,
    )
    assert helped.returncode == 0
    assert "construct" in helped.stdout and "sweep" in helped.stdout


def test_a_closed_stdout_ends_the_run_quietly(tmp_path):
    # stdout is a pipe whose reader has gone: help and the status line are
    # lost, but the run keeps its exit code and its files
    for argv in (["oracle", "-h"], ["oracle", "--m", "2", "--s", "1", "--out", str(tmp_path)]):
        read, write = os.pipe()
        os.close(read)
        try:
            done = subprocess.run(
                [sys.executable, "-m", "zng.cli", *argv], stdout=write, stderr=subprocess.PIPE,
                text=True, env=CHILD_ENV, timeout=60,
            )
        finally:
            os.close(write)
        assert done.returncode == 0, done.stderr
        assert "Traceback" not in done.stderr and "Exception ignored" not in done.stderr
    assert (tmp_path / "oracle.tsv").read_text().startswith("query\tz\tnodes\twitness\n")


def test_field_orders_above_the_cap_exit_3_at_once(tmp_path):
    # a prime near 10^18 (no trial division to 10^9) and a composite above 2^16
    for q in ("1000000000000000003", "100000"):
        done = subprocess.run(
            [sys.executable, "-m", "zng.cli", "construct", "--s", "2", "--t", "4",
             "--q", q, "--m", "2", "--out", str(tmp_path / q)],
            capture_output=True, text=True, env=CHILD_ENV, timeout=5,
        )
        assert done.returncode == 3, done.stdout
        assert json.loads(done.stdout.splitlines()[-1])["error"] == "budget"
        assert not (tmp_path / q).exists()


# ----------------------------------------------------------------------
# start-up: each subcommand loads only the modules it runs
# ----------------------------------------------------------------------

BARE_MODULES = "import sys\nprint(' '.join(sorted(sys.modules)))\n"
LOADED_MODULES = (
    "import sys, zng.cli\n"
    "if sys.argv[1:]:\n"
    "    zng.cli.main(sys.argv[1:])\n"
) + BARE_MODULES


def loaded_modules(program, *argv):
    """The modules in sys.modules at the end of a fresh `python -c program *argv`."""
    done = subprocess.run(
        [sys.executable, "-c", program, *argv],
        capture_output=True, text=True, env=CHILD_ENV, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return set(done.stdout.strip().splitlines()[-1].split())


# mode: (zng modules it must load, zng modules it must not load); only the
# modes that read a graph load the reader, and only those that size every
# pattern (verify, count and construct's certificate) the block kernel
STARTUP_MODULES = {
    "import": ((), ("construct", "certify", "count", "oracle", "gf", "mpoly", "reader", "blocks")),
    "oracle": (("oracle",), ("construct", "gf", "mpoly", "reader", "blocks")),
    "count": (("count", "reader", "blocks"), ("construct", "gf", "mpoly")),
    "verify": (("certify", "reader", "blocks"), ("construct", "gf", "mpoly")),
    "construct": (("construct", "certify", "gf", "mpoly", "blocks"), ("count", "oracle", "reader")),
    "sweep": (
        ("construct", "certify", "gf", "mpoly", "seeds", "blocks"),
        ("count", "oracle", "reader"),
    ),
}

# what zng.blocks holds: an oracle child, which runs none of it, compiles none
KERNEL_NAMES = (
    "pattern_blocks", "pattern_sizes", "links", "codegree_blocks", "block_patterns",
    "pattern_count", "DEFAULT_PATTERN_BUDGET", "POPCOUNT_BASE", "CODEGREE_WEIGHT", "Counter",
)

# No mode loads dataclasses (with inspect, ast and dis: about 11 ms per start
# without a bytecode cache), logging (with traceback, linecache, tokenize
# and string: about 10 ms per start over a json/pathlib baseline, median of
# 21 fresh interpreters on one CPU), linecache and tokenize on their own
# (2.0-7.5 ms in -X importtime; the warnings module loads them to print a
# warning's source line) or argparse (whose help strings make gettext import
# locale: a fresh `zng oracle` start took 61.0 ms with it and 55.2 ms with
# zng.config parsing the flags, 5.6 ms less in the median of 61 pairs of
# fresh interpreters on one CPU).  No mode loads fractions, with decimal and
# numbers (2.4 ms cumulative in -X importtime): count's bound is an integer
# numerator and denominator, and only a library call of
# count.jensen_lower_bound makes it a Fraction.  No mode loads _hashlib
# either: it is OpenSSL, 2.0 ms of self time in -X importtime on one CPU
# (hashlib 2.4-2.5 ms cumulative) against 0.19 ms for the builtin _sha256
# that zng.seeds takes instead.
NEVER_LOADED = (
    "dataclasses", "inspect", "logging", "linecache", "tokenize", "argparse", "gettext", "locale",
    "fractions", "decimal", "numbers", "_hashlib",
)


@pytest.fixture(scope="module")
def never_loaded():
    """NEVER_LOADED less what a bare child of this interpreter loads.

    A mode cannot avoid what the interpreter loads at start: 3.13 loads
    linecache there, 3.10 to 3.12 none of NEVER_LOADED.
    """
    return set(NEVER_LOADED) - loaded_modules(BARE_MODULES) - started_imports(["-c", "pass"])


def started_imports(args):
    """The modules a fresh `python -X importtime <args>` imports, as its stderr lists them."""
    done = subprocess.run(
        [sys.executable, "-X", "importtime", *args],
        capture_output=True, text=True, env=CHILD_ENV, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    lines = [line for line in done.stderr.splitlines() if line.startswith("import time:")]
    return {line.rpartition("|")[2].strip() for line in lines[1:]}  # the first is the header


@pytest.mark.parametrize("mode", list(STARTUP_MODULES))
def test_each_mode_loads_only_what_it_runs(tmp_path, mode, never_loaded):
    graph = tmp_path / "c6.zng"
    graph.write_text("zng 2 3 3\n0 0\n0 1\n1 1\n1 2\n2 0\n2 2\n")
    out = ["--out", str(tmp_path / "out")]
    argv = {
        "import": [],
        "oracle": ["oracle", "--m", "3", "--s", "2", "--m", "3", "--s", "2", *out],
        "count": ["count", "--graph", str(graph), "--s", "2", "--s", "2", *out],
        "verify": ["verify", "--graph", str(graph), "--s", "2", "--t", "2", *out],
        "construct": ["construct", "--s", "2", "--t", "4", "--q", "5", "--m", "3", *out],
        "sweep": ["sweep", "--s", "2", "--t", "4", "--q", "5", "--q", "7", *out],
    }[mode]
    loads, skips = STARTUP_MODULES[mode]
    loaded = loaded_modules(LOADED_MODULES, *argv)
    assert {f"zng.{name}" for name in loads} <= loaded
    assert loaded.isdisjoint(f"zng.{name}" for name in skips)
    assert loaded.isdisjoint(never_loaded)
    # the runners live in the mode modules, so every child compiles only its own
    assert not [
        name for name in vars(zng.cli)
        if name.startswith("_run_") or name in ("_build_point", "_ratio_text")
    ]
    if mode == "oracle":  # it compiles neither the reader, the block kernel nor the references
        assert not {"parse_graph", "index_masks", "complete_graph"} & set(vars(zng.hypergraph))
        graph_names = {*vars(zng.hypergraph), *dir(zng.hypergraph.RPartiteHypergraph)}
        assert not set(KERNEL_NAMES) & graph_names
        assert not {"exhaustive_z", "DEFAULT_EXHAUSTIVE_EDGE_CAP"} & set(vars(zng.oracle))
    # started as the benchmark starts a child: `-c "import zng.cli"` to warm
    # up, and a mode as `python -m zng.cli`, where the front end is __main__
    # and nothing may import it again as zng.cli
    args = ["-c", "import zng.cli"] if mode == "import" else ["-m", "zng.cli", *argv]
    started = started_imports(args)
    assert {f"zng.{name}" for name in loads} <= started
    assert started.isdisjoint(f"zng.{name}" for name in skips)
    assert started.isdisjoint(never_loaded)
    assert ("zng.cli" in started) == (mode == "import")
