from __future__ import annotations

import argparse
import io
import json
import os
import re
import select
import shlex
import subprocess
import sys
from itertools import groupby
from pathlib import Path

import pytest

import rdom
from rdom import harness
from rdom.cli import BROKEN_PIPE, build_parser, main
from rdom.graph6 import parse_graph6, write_graph6
from rdom.iso import are_isomorphic
from named_graphs import complete_bipartite, cycle_graph, petersen_graph


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


def test_solve_loads_no_sweep_modules():
    # a fresh interpreter, as every "rdom solve" is: the sweeps stay unloaded
    probe = ("import sys\n"
             "from rdom.cli import main\n"
             "status = main(['solve'])\n"
             "print(sorted({'rdom.harness', 'rdom.enumeration'} & set(sys.modules)), file=sys.stderr)\n"
             "sys.exit(status)\n")
    env = dict(os.environ, PYTHONPATH=str(Path(rdom.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-c", probe], input=write_graph6(petersen_graph()) + "\n",
                          capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["value"] == 4
    assert done.stderr == "[]\n"


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


@pytest.mark.parametrize("stdin", ["", "##BAD##\nC~\n"], ids=["empty", "bad-then-good"])
def test_solve_bad_x_is_a_usage_error_before_reading(capsys, monkeypatch, stdin):
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(stdin.encode())))
    code, out, err = run_cli(capsys, "solve", "--nerd", "dom", "--x", "a")
    assert code == 2 and out == "" and "--x" in err and "line" not in err


def test_solve_x_out_of_range_is_a_line_error(capsys, tmp_path):
    path = tmp_path / "in.g6"
    path.write_text("@\nDhc\n")
    code, out, err = run_cli(capsys, "solve", str(path), "--nerd", "ndom", "--x", "2")
    assert code == 2 and "line 1" in err and "out of range" in err
    assert json.loads(out)["n"] == 5


@pytest.mark.parametrize("command", ["solve", "lemma1"])
def test_unreadable_input_is_a_usage_error(capsys, tmp_path, command):
    code, out, err = run_cli(capsys, command, str(tmp_path / "missing.g6"))
    assert code == 2 and out == "" and err.startswith("error: ") and "error: line" not in err


def test_solve_non_ascii_line_is_a_line_error(capsys, tmp_path):
    path = tmp_path / "in.g6"
    path.write_bytes(b"C~\nC\xff~\n" + write_graph6(petersen_graph()).encode() + b"\n")
    code, out, err = run_cli(capsys, "solve", str(path))
    assert code == 2 and "line 2" in err and "not ASCII" in err
    assert [json.loads(line)["value"] for line in out.splitlines()] == [1, 4]


def test_solve_non_utf8_stdin_is_a_line_error(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(b"C~\n\xff\nC~\n"), encoding="utf-8"))
    code, out, err = run_cli(capsys, "solve")
    assert code == 2 and "line 2" in err and "not ASCII" in err
    assert len(out.splitlines()) == 2


def subprocess_env():
    """The environment of a child ``python -m rdom.cli``: this rdom, and
    stdout unbuffered, so each record leaves the child when it is printed."""
    return dict(os.environ, PYTHONPATH=str(Path(rdom.__file__).resolve().parents[1]),
                PYTHONUNBUFFERED="1")


# command: its argv, its stdin, and a check of its first output line
CLOSED_STDOUT_COMMANDS = {
    "family": (["family"], "", lambda line: json.loads(line)["id"] == "R1"),
    "enumerate": (["enumerate", "--class", "cubic", "--n", "12", "--connected"], "",
                  lambda line: parse_graph6(line).n == 12),
    "solve": (["solve"], (write_graph6(petersen_graph()) + "\n") * 6,
              lambda line: json.loads(line)["value"] == 4),
}


@pytest.mark.parametrize("lines_read, command", [
    # the family cases keep the ids they had as the only command
    pytest.param(lines_read, command, id=when if command == "family" else f"{when}-{command}")
    for lines_read, when in ((0, "closed-before-output"), (1, "closed-after-first-line"))
    for command in CLOSED_STDOUT_COMMANDS])
def test_closed_stdout_is_not_a_traceback(tmp_path, lines_read, command):
    argv, stdin, first = CLOSED_STDOUT_COMMANDS[command]
    source = tmp_path / "stdin.g6"
    source.write_text(stdin)
    read, write = os.pipe()
    if not lines_read:
        os.close(read)  # no reader at all: the first line already fails
    with open(source, "rb") as fh:
        proc = subprocess.Popen([sys.executable, "-m", "rdom.cli", *argv], stdin=fh,
                                stdout=write, stderr=subprocess.PIPE, env=subprocess_env())
    os.close(write)
    if lines_read:
        with os.fdopen(read, "rb") as out:
            assert first(out.readline())
    err = proc.stderr.read().decode()
    proc.stderr.close()
    code = proc.wait()
    # a closed stdout is neither a traceback nor a usage error
    assert "Traceback" not in err and "Error" not in err and "error:" not in err, err
    # a reader that leaves after one line may still have taken all the output
    assert code == BROKEN_PIPE if not lines_read else code in (0, BROKEN_PIPE)


@pytest.mark.parametrize("command, line, first", [
    ("solve", write_graph6(petersen_graph()), lambda record: record["value"] == 4),
    ("lemma1", write_graph6(complete_bipartite(2, 3)), lambda record: len(record["rd_set"]) == 2),
], ids=["solve", "lemma1"])
def test_each_record_leaves_before_the_input_ends(command, line, first):
    # one line in, stdin left open: its record must come out while the
    # command still waits for the next line
    proc = subprocess.Popen([sys.executable, "-m", "rdom.cli", command], stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=subprocess_env())
    try:
        proc.stdin.write(line.encode() + b"\n")
        proc.stdin.flush()
        ready, _, _ = select.select([proc.stdout], [], [], 30)
        assert ready, "no record of the first line within 30 s while stdin stays open"
        assert first(json.loads(proc.stdout.readline()))
        proc.stdin.close()
        assert proc.wait(timeout=30) == 0, proc.stderr.read().decode()
    finally:
        proc.kill()
        proc.wait()
        for stream in (proc.stdin, proc.stdout, proc.stderr):
            stream.close()


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


def test_lemma1_rejects_a_degree_3_edge(capsys, tmp_path):
    path = tmp_path / "g.g6"
    path.write_text("G?LTMO\n")
    code, out, err = run_cli(capsys, "lemma1", str(path))
    assert code == 2 and out == "" and "degree-bipartite" in err


def test_lemma1_non_ascii_line_is_a_line_error(capsys, tmp_path):
    path = tmp_path / "in.g6"
    k23 = write_graph6(complete_bipartite(2, 3)).encode()
    path.write_bytes(k23 + b"\n\xc3\xa9\n" + k23 + b"\n")
    code, out, err = run_cli(capsys, "lemma1", str(path))
    assert code == 2 and "line 2" in err and "not ASCII" in err
    assert len(out.splitlines()) == 2


def test_enumerate(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--class", "cubic", "--n", "8", "--connected")
    lines = out.splitlines()
    assert code == 0 and len(lines) == 5
    assert all(parse_graph6(line).n == 8 for line in lines)


def test_enumerate_cap_error(capsys):
    code, _, err = run_cli(capsys, "enumerate", "--class", "cubic", "--n", "20")
    assert code == 2 and "cap" in err


def test_enumerate_negative_order_error(capsys):
    code, out, err = run_cli(capsys, "enumerate", "--class", "cubic", "--n", "-4")
    assert code == 2 and out == "" and "negative" in err


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


def test_verify_cubic_bound_names_a_non_ascii_line(capsys, tmp_path):
    path = tmp_path / "cubic.g6"
    path.write_bytes(write_graph6(petersen_graph()).encode() + b"\n\xff\n")
    code, out, err = run_cli(capsys, "verify", "cubic-bound", "--input", str(path))
    assert code == 2 and out == "" and "line 2" in err and "not ASCII" in err


@pytest.mark.parametrize("jobs", ["0", "-1", str((os.cpu_count() or 1) + 1)])
@pytest.mark.parametrize("command", [
    ["verify", "key-theorem"],
    ["verify", "cubic-bound"],
    ["verify", "known-bounds"],
    ["verify", "lemma1"],
], ids=" ".join)
def test_jobs_outside_the_cpu_range_is_a_usage_error(capsys, monkeypatch, command, jobs):
    monkeypatch.setattr(harness, "_run_sweep", lambda *a: pytest.fail("checked graphs"))
    code, out, err = run_cli(capsys, *command, "--jobs", jobs)
    assert code == 2 and out == "" and "--jobs" in err


def test_jobs_that_is_not_a_number_is_a_usage_error(capsys):
    code, out, err = run_cli(capsys, "verify", "cubic-bound", "--jobs", "abc")
    assert code == 2 and out == "" and "not an integer" in err


@pytest.mark.parametrize("argv", [
    ["verify", "lemma1", "--max-n", "15"],
    ["verify", "cubic-bound", "--max-n", "-3"],
    ["verify", "key-theorem", "--max-n", "2"],
    ["verify", "cubic-bound", "--max-n", "15"],
    ["verify", "key-theorem", "--input", "F"],
    ["verify", "observations", "--max-n", "3"],
    ["verify", "cubic-bound", "--max-n", "4", "--input", "F"],
], ids=" ".join)
def test_verify_scope_usage_errors(capsys, monkeypatch, tmp_path, argv):
    # F is a valid cubic corpus, so only the option itself can be at fault
    corpus = tmp_path / "petersen.g6"
    corpus.write_text(write_graph6(petersen_graph()) + "\n")
    monkeypatch.setattr(harness, "_run_sweep", lambda *a: pytest.fail("checked graphs"))
    code, out, err = run_cli(capsys, *(str(corpus) if a == "F" else a for a in argv))
    assert code == 2 and out == "" and "error" in err


def test_verify_below_the_class_range_names_the_class(capsys, monkeypatch):
    monkeypatch.setattr(harness, "_run_sweep", lambda *a: pytest.fail("checked graphs"))
    code, out, err = run_cli(capsys, "verify", "known-bounds", "--max-n", "1")
    assert code == 2 and out == ""
    assert err == "error: no graph of class 'all' has an order from 2 to 1\n"


def test_verify_cubic_bound_rejects_empty_input(capsys, tmp_path):
    path = tmp_path / "empty.g6"
    path.write_text("")
    code, _, err = run_cli(capsys, "verify", "cubic-bound", "--input", str(path))
    assert code == 2 and "no graph" in err


def test_extremal(capsys):
    # the extremal graphs of order n are the order-n notes of the cubic sweep
    code, out, err = run_cli(capsys, "verify", "cubic-bound", "--max-n", "10", "--json")
    assert code == 0
    report = json.loads(out)[0]
    achievers = [n.split()[-1] for n in report["notes"] if n.startswith("extremal")]
    at_10 = [g6 for g6 in achievers if parse_graph6(g6).n == 10]
    assert len(at_10) == 1
    assert are_isomorphic(parse_graph6(at_10[0]), petersen_graph())


def test_extremal_is_an_unknown_command(capsys):
    code, out, err = run_cli(capsys, "extremal", "--n", "10")
    assert code == 2 and out == "" and "invalid choice" in err


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0


def test_version(capsys):
    code, out, _ = run_cli(capsys, "--version")
    assert code == 0 and out == f"rdom {rdom.__version__}\n"


def test_unknown_command_usage_error(capsys):
    assert main(["frobnicate"]) == 2


README = Path(__file__).resolve().parent.parent / "README.md"


def readme_commands():
    """The argument lists of every ``rdom`` pipe segment in the README's CLI
    block, comments dropped."""
    block = README.read_text().split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = []
    for line in block.splitlines():
        tokens = shlex.shlex(line, posix=True, punctuation_chars=True)
        for is_pipe, segment in groupby(tokens, lambda token: token == "|"):
            segment = list(segment)
            if not is_pipe and segment[0] == "rdom":
                commands.append(segment[1:])
    return commands


def subcommands(parser):
    """The parsers of parser's subcommands, by name."""
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


def test_readme_cli_commands_parse(monkeypatch):
    # the commands name options and scopes; whether this host has the CPUs
    # for the README's --jobs 2 is not what they document
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    commands = readme_commands()
    assert len(commands) >= 10 and ["family"] in commands
    parser = build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README command does not parse: rdom {' '.join(argv)}")
    # and they name every subcommand and verify scope, as the module
    # docstring names every subcommand
    defined = subcommands(parser)
    assert {argv[0] for argv in commands} == set(defined)
    scopes = subcommands(defined["verify"])
    assert {argv[1] for argv in commands if argv[0] == "verify"} == set(scopes)
    listed = re.search(r"Subcommands: ([^.]*)\.", rdom.cli.__doc__).group(1)
    assert {name.strip() for name in listed.split(",")} == set(defined)
