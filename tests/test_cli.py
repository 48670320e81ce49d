from __future__ import annotations

import json

import pytest

import rdom
from rdom.cli import main
from rdom.graph import complete_bipartite, cycle_graph, petersen_graph
from rdom.graph6 import parse_graph6, write_graph6
from rdom.iso import are_isomorphic


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_family(capsys):
    code, out, _ = run_cli(capsys, "family")
    records = [json.loads(line) for line in out.splitlines()]
    assert code == 0 and len(records) == 10
    assert records[0]["id"] == "R1" and records[0]["gamma_r"] == 3
    assert {r["omega_class"] for r in records} == {1, 2, 3, 4, 5}
    for r in records:
        assert parse_graph6(r["graph6"]).n == r["order"]


def test_solve_stream(capsys, tmp_path):
    path = tmp_path / "in.g6"
    path.write_text(write_graph6(petersen_graph()) + "\nC~\n")
    code, out, _ = run_cli(capsys, "solve", str(path))
    rows = [json.loads(line) for line in out.splitlines()]
    assert code == 0
    assert [r["value"] for r in rows] == [4, 1]
    assert rows[0]["n"] == 10 and rows[0]["m"] == 15
    assert rows[0]["status"] == "optimal"
    assert len(rows[0]["witness"]) == 4
    assert rows[0]["micros"] >= 0


def test_solve_nerd(capsys, tmp_path):
    path = tmp_path / "in.g6"
    path.write_text("Dhc\n")
    code, out, _ = run_cli(capsys, "solve", str(path), "--nerd", "ndom", "--x", "0")
    assert code == 0
    assert json.loads(out)["value"] == 2


def test_solve_infeasible(capsys, tmp_path):
    path = tmp_path / "k1.g6"
    path.write_text("@\n")
    code, out, _ = run_cli(capsys, "solve", str(path), "--nerd", "dom", "--x", "0")
    row = json.loads(out)
    assert code == 0 and row["status"] == "infeasible" and row["value"] is None


def test_solve_usage_errors(capsys, tmp_path):
    code, _, err = run_cli(capsys, "solve", "--nerd", "ndom")
    assert code == 2 and "together" in err
    path = tmp_path / "bad.g6"
    path.write_text("##BAD##\n")
    code, _, err = run_cli(capsys, "solve", str(path))
    assert code == 2 and "line 1" in err


def test_formulas(capsys):
    code, out, _ = run_cli(capsys, "formulas", "cycle", "--n", "5")
    assert code == 0 and json.loads(out)["gamma_r"] == 3
    code, _, err = run_cli(capsys, "formulas", "cycle", "--n", "2")
    assert code == 2


def test_lemma1(capsys, tmp_path):
    path = tmp_path / "k23.g6"
    path.write_text(write_graph6(complete_bipartite(2, 3)) + "\n")
    code, out, _ = run_cli(capsys, "lemma1", str(path))
    row = json.loads(out)
    assert code == 0
    assert len(row["rd_set"]) == 2
    assert set(row["trace"]) == {"l1", "s1", "s2", "l2_by_degree", "s11", "s12"}


def test_lemma1_precondition_error(capsys, tmp_path):
    path = tmp_path / "c4.g6"
    path.write_text(write_graph6(cycle_graph(4)) + "\n")
    code, _, err = run_cli(capsys, "lemma1", str(path))
    assert code == 2 and "degree-bipartite" in err


def test_enumerate(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--class", "cubic", "--n", "8", "--connected")
    lines = out.splitlines()
    assert code == 0 and len(lines) == 5
    assert all(parse_graph6(line).n == 8 for line in lines)


def test_enumerate_cap_error(capsys):
    code, _, err = run_cli(capsys, "enumerate", "--class", "cubic", "--n", "20")
    assert code == 2 and "cap" in err


def test_verify_observations_passes(capsys):
    code, out, err = run_cli(capsys, "verify", "observations", "--json")
    assert code == 0
    reports = json.loads(out)
    assert len(reports) == 14 and all(r["passed"] for r in reports)
    assert "obs1a: pass" in err


def test_verify_key_theorem(capsys):
    code, _, err = run_cli(capsys, "verify", "key-theorem", "--max-n", "6")
    assert code == 0 and "thm-key: pass" in err


def test_verify_cubic_bound_from_file(capsys, tmp_path):
    path = tmp_path / "cubic.g6"
    path.write_text(write_graph6(petersen_graph()) + "\n")
    code, out, err = run_cli(capsys, "verify", "cubic-bound", "--input", str(path), "--json")
    assert code == 0
    assert json.loads(out)[0]["checked"] == 1


def test_verify_cubic_bound_rejects_non_cubic_line(capsys, tmp_path):
    path = tmp_path / "mixed.g6"
    path.write_text("Dhc\n")
    code, _, err = run_cli(capsys, "verify", "cubic-bound", "--input", str(path))
    assert code == 2 and "line 1" in err and "not cubic" in err


def test_extremal(capsys):
    code, out, err = run_cli(capsys, "extremal", "--class", "cubic", "--n", "10", "--json")
    assert code == 0
    report = json.loads(out)[0]
    achievers = [n.split()[-1] for n in report["notes"] if n.startswith("extremal")]
    assert len(achievers) == 1
    assert are_isomorphic(parse_graph6(achievers[0]), petersen_graph())


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0


def test_version(capsys):
    code, out, _ = run_cli(capsys, "--version")
    assert code == 0 and out == f"rdom {rdom.__version__}\n"


def test_unknown_command_usage_error(capsys):
    assert main(["frobnicate"]) == 2
