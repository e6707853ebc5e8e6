"""End-to-end command-line runs: artifacts, exit codes, determinism."""

import json
import subprocess
import sys

import pytest

from zng.cli import main
from zng.config import ExperimentConfig, parse_config, format_config, write_config
from zng.hypergraph import read_graph


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out.strip().splitlines()
    status = json.loads(out[-1]) if out else {}
    return code, status


# ----------------------------------------------------------------------
# construct / verify / count / oracle
# ----------------------------------------------------------------------

def test_construct_end_to_end(tmp_path, capsys):
    out = tmp_path / "run"
    code, status = run_cli(
        ["construct", "--s", "2", "--t", "4", "--q", "5", "--m", "10",
         "--seed", "1", "--out", str(out)],
        capsys,
    )
    assert code == 0
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


# ----------------------------------------------------------------------
# sweep
# ----------------------------------------------------------------------

def test_sweep_ratios_are_exactly_one(tmp_path, capsys):
    out = tmp_path / "s"
    code, status = run_cli(
        ["sweep", "--s", "2", "--t", "4", "--q", "5", "--q", "7", "--q", "9",
         "--q", "11", "--seed", "42", "--out", str(out)],
        capsys,
    )
    assert code == 0 and status["failed"] == 0
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
    code, status = run_cli(
        ["sweep", "--s", "2", "--t", "4", "--q", "5", "--q", "6", "--q", "7",
         "--seed", "1", "--out", str(out)],
        capsys,
    )
    assert code == 1
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
    capsys.readouterr()
    for rel in ("sweep.tsv", "q5/graph.zng", "q5/certificate.json", "q7/graph.zng"):
        assert (a / rel).read_bytes() == (b / rel).read_bytes(), rel


# ----------------------------------------------------------------------
# config files and exit codes
# ----------------------------------------------------------------------

def test_config_file_round_trip_drives_a_run(tmp_path, capsys):
    config = ExperimentConfig(
        mode="construct", s=(2,), t=4, q=(5,), m=(6,), seed=3,
        out=str(tmp_path / "run"),
    )
    assert parse_config(format_config(config)) == config
    path = tmp_path / "run.cfg"
    write_config(config, path)
    code, status = run_cli(["construct", "--config", str(path)], capsys)
    assert code == 0 and status["edges"] == 30


def test_cli_flags_override_config(tmp_path, capsys):
    path = tmp_path / "run.cfg"
    write_config(
        ExperimentConfig(mode="construct", s=(2,), t=4, q=(5,), m=(6,), seed=3,
                         out=str(tmp_path / "x")),
        path,
    )
    code, status = run_cli(
        ["construct", "--config", str(path), "--m", "4", "--out", str(tmp_path / "y")],
        capsys,
    )
    assert code == 0
    assert status["edges"] == 20  # the flag m=4 wins over the file's m=6
    assert (tmp_path / "y" / "graph.zng").exists()


def test_config_mode_mismatch_is_usage_error(tmp_path, capsys):
    path = tmp_path / "run.cfg"
    write_config(ExperimentConfig(mode="oracle", s=(2, 2), m=(2, 2)), path)
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
    code, status = run_cli(
        ["construct", "--s", "2", "--t", "2", "--q", "2", "--m", "5",
         "--retries", "8", "--restarts", "2", "--out", str(tmp_path / "f")],
        capsys,
    )
    assert code == 1 and status["error"] == "construction"


def test_unknown_config_key_is_usage_error(tmp_path, capsys):
    path = tmp_path / "run.cfg"
    for key in ("wat", "jobs"):
        path.write_text(f"mode=construct\n{key}=1\n")
        code, status = run_cli(["construct", "--config", str(path)], capsys)
        assert code == 2 and key in status["reason"]
    with pytest.raises(SystemExit) as err:  # argparse: unrecognized argument
        main(["construct", "--jobs", "2"])
    assert err.value.code == 2


def test_module_entry_point_usage():
    result = subprocess.run(
        [sys.executable, "-m", "zng.cli"], capture_output=True, text=True
    )
    assert result.returncode == 2  # argparse usage error: no subcommand
    helped = subprocess.run(
        [sys.executable, "-m", "zng.cli", "--help"], capture_output=True, text=True
    )
    assert helped.returncode == 0
    assert "construct" in helped.stdout and "sweep" in helped.stdout
