"""Command-line interface.

Subcommands: family, solve, formulas, lemma1, enumerate, verify.
Verification reports go to stdout as JSON (with --json), the human
summary always goes to stderr. Exit codes: 0 all checks passed, 1 any
violation, 2 usage or input errors, 141 when stdout is closed before the
output ends (as by "| head"), which stops the command without a traceback.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from rdom import __version__
from rdom.family import all_family_members
from rdom.graph import bits_of, is_cubic, mask_of
from rdom.graph6 import iter_graph6, write_graph6
from rdom.solvers import (
    NERD_TYPE1,
    NERD_TYPE2,
    NerdQuery,
    gamma_r_exact,
    gamma_r_nerd_exact,
)

# harness, enumeration and construct are imported by the subcommands that use
# them, so that "rdom solve" and "rdom family" do not load the sweeps

USAGE_ERROR = 2
BROKEN_PIPE = 141  # 128 + SIGPIPE, what a shell reports for a killed writer


def _read_graph_lines(path: str | None):
    """The lines of a graph6 file, or of stdin for None or "-", as bytes: a
    non-ASCII line is then that line's graph6 error, not the whole input's."""
    if path is None or path == "-":
        return sys.stdin.buffer.readlines()
    with open(path, "rb") as fh:
        return fh.readlines()


def _each_graph(path: str | None, step) -> int:
    """Print step's JSON record of each graph of the input. An OSError is a
    usage error; a bad graph6 line, or a ValueError from step, is that line's
    error: "error: line N: ..." and exit status 2, and the loop goes on."""
    try:
        lines = _read_graph_lines(path)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    status = 0
    for lineno, g, err in iter_graph6(lines):
        try:
            if err is not None:
                raise ValueError(err)
            record = step(g)
        except ValueError as exc:
            print(f"error: line {lineno}: {exc}", file=sys.stderr)
            status = USAGE_ERROR
        else:
            print(json.dumps(record))
    return status


def _jobs(text: str) -> int:
    """``--jobs``: a worker count, held to ``harness.check_jobs``."""
    from rdom import harness

    try:
        jobs = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    try:
        return harness.check_jobs(jobs)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _vertex_ids(text: str) -> list[int]:
    """``--x``: comma-separated vertex ids; each line's order bounds them."""
    try:
        return [int(t) for t in text.split(",") if t != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad value {text!r}") from None


def cmd_family(args) -> int:
    for m in all_family_members():
        record = {
            "id": m.id,
            "graph6": write_graph6(m.graph),
            "order": m.graph.n,
            "n2": m.profile.n2,
            "n3": m.profile.n3,
            "omega_class": m.omega_class,
            "gamma_r": m.gamma_r,
        }
        print(json.dumps(record))
    return 0


def cmd_solve(args) -> int:
    if (args.x is None) != (args.nerd is None):
        print("error: --nerd and --x must be given together", file=sys.stderr)
        return USAGE_ERROR

    def solve(g):
        if args.nerd is None:
            out = gamma_r_exact(g)
        elif any(not 0 <= v < g.n for v in args.x):
            raise ValueError("--x vertex out of range")
        else:
            out = gamma_r_nerd_exact(g, NerdQuery(mask_of(args.x), args.nerd))
        return {
            "n": g.n,
            "m": g.edge_count(),
            "status": out.status,
            "value": out.size,
            "witness": out.witness_ids(),
            "micros": out.micros,
        }

    return _each_graph(args.input, solve)


def cmd_formulas(args) -> int:
    from rdom.construct import gamma_r_cycle, gamma_r_path

    try:
        value = gamma_r_path(args.n) if args.shape == "path" else gamma_r_cycle(args.n)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    print(json.dumps({"shape": args.shape, "n": args.n, "gamma_r": value}))
    return 0


def cmd_lemma1(args) -> int:
    from rdom.construct import lemma1_construct

    def construct(g):
        d, trace = lemma1_construct(g)  # ValueError outside the lemma's precondition
        return {
            "graph6": write_graph6(g),
            "rd_set": list(bits_of(d)),
            "trace": {
                "l1": list(bits_of(trace.l1)),
                "s1": list(bits_of(trace.s1)),
                "s2": list(bits_of(trace.s2)),
                "l2_by_degree": [list(bits_of(part)) for part in trace.l2_by_degree],
                "s11": list(bits_of(trace.s11)),
                "s12": list(bits_of(trace.s12)),
            },
        }

    return _each_graph(args.input, construct)


def cmd_enumerate(args) -> int:
    from rdom.enumeration import enumerate_graphs

    try:
        graphs = enumerate_graphs(args.n, args.graph_class, connected_only=args.connected)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    for g in graphs:
        print(write_graph6(g))
    return 0


def _cubic_corpus(path: str) -> list:
    graphs = []
    for lineno, g, err in iter_graph6(_read_graph_lines(path)):
        if err is not None:
            raise ValueError(f"line {lineno}: {err}")
        if not is_cubic(g):
            raise ValueError(f"line {lineno}: graph is not cubic")
        graphs.append(g)
    return graphs


def cmd_verify(args) -> int:
    """Run one sweep and print its reports; a ValueError or OSError is a
    usage or input error."""
    from rdom import harness

    try:
        if args.what == "observations":
            reports = harness.verify_observation_1() + harness.verify_observations_2_to_6()
        elif args.what == "cubic-bound" and args.input is not None:
            reports = harness.verify_cubic_bound(graphs=_cubic_corpus(args.input), jobs=args.jobs)
        else:
            reports = getattr(harness, args.sweep)(args.max_n, jobs=args.jobs)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    for rep in reports:
        print(rep.summary(), file=sys.stderr)
    if args.json:
        print(json.dumps([rep.to_dict() for rep in reports], indent=2))
    return 0 if all(rep.passed for rep in reports) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="rdom", description=__doc__)
    parser.add_argument("--version", action="version", version=f"rdom {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("family", help="emit the exception catalog").set_defaults(func=cmd_family)

    p = sub.add_parser("solve", help="exact solves over graph6 input")
    p.add_argument("input", nargs="?", default=None, help="graph6 file ('-' or omit for stdin)")
    p.add_argument("--nerd", choices=[NERD_TYPE1, NERD_TYPE2], default=None)
    p.add_argument("--x", type=_vertex_ids, default=None, help="comma-separated exempt vertex ids")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("formulas", help="closed formulas for paths and cycles")
    p.add_argument("shape", choices=["path", "cycle"])
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=cmd_formulas)

    p = sub.add_parser("lemma1", help="constructive RD-set with trace")
    p.add_argument("input", nargs="?", default=None, help="graph6 file ('-' or omit for stdin)")
    p.set_defaults(func=cmd_lemma1)

    p = sub.add_parser("enumerate", help="isomorph-free corpora as graph6 lines")
    p.add_argument("--class", dest="graph_class", required=True,
                   choices=["cubic", "special-subcubic", "degree-bipartite"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--connected", action="store_true")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("verify", help="verification sweeps")
    p.set_defaults(func=cmd_verify)
    scopes = p.add_subparsers(dest="what", required=True)
    scopes.add_parser("observations").add_argument("--json", action="store_true")
    for what, sweep, max_n in (("key-theorem", "verify_key_theorem", 9),
                               ("cubic-bound", "verify_cubic_bound", 12),
                               ("known-bounds", "verify_known_bounds", 9),
                               ("lemma1", "verify_lemma1", 12)):
        s = scopes.add_parser(what)
        corpus = s.add_mutually_exclusive_group() if what == "cubic-bound" else s
        corpus.add_argument("--max-n", type=int, default=max_n)
        if what == "cubic-bound":
            corpus.add_argument("--input", default=None, help="graph6 corpus of cubic graphs")
        s.add_argument("--jobs", type=_jobs, default=1)
        s.add_argument("--json", action="store_true")
        s.set_defaults(sweep=sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:
            # argparse exits with 2 on usage errors and 0 on --help
            status = int(exc.code) if exc.code else 0
        else:
            status = args.func(args)
        # a reader that left is caught here rather than at exit
        sys.stdout.flush()
    except BrokenPipeError:
        # as the SIGPIPE note of the Python docs shows: point stdout at
        # devnull, so the flush at exit does not fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return BROKEN_PIPE
    return status


if __name__ == "__main__":
    sys.exit(main())
