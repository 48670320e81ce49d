"""Command-line interface.

Subcommands: family, solve, formulas, lemma1, enumerate, verify, extremal.
Verification reports go to stdout as JSON (with --json), the human
summary always goes to stderr. Exit codes: 0 all checks passed, 1 any
violation, 2 usage or input errors.
"""

from __future__ import annotations

import argparse
import json
import sys

from rdom import __version__
from rdom.construct import gamma_r_cycle, gamma_r_path, lemma1_construct
from rdom.enumeration import EnumSpec, enumerate_graphs
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
from rdom import harness

USAGE_ERROR = 2


def _read_graph_lines(path: str | None):
    if path is None or path == "-":
        return sys.stdin.readlines()
    with open(path, "r", encoding="ascii") as fh:
        return fh.readlines()


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
    try:
        lines = _read_graph_lines(args.input)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    status = 0
    for lineno, g, err in iter_graph6(lines):
        if err is not None:
            print(f"error: line {lineno}: {err}", file=sys.stderr)
            status = USAGE_ERROR
            continue
        if args.nerd is None:
            out = gamma_r_exact(g)
        else:
            try:
                ids = [int(t) for t in args.x.split(",") if t != ""]
            except ValueError:
                print(f"error: bad --x value {args.x!r}", file=sys.stderr)
                return USAGE_ERROR
            if any(not 0 <= v < g.n for v in ids):
                print(f"error: line {lineno}: --x vertex out of range", file=sys.stderr)
                status = USAGE_ERROR
                continue
            out = gamma_r_nerd_exact(g, NerdQuery(mask_of(ids), args.nerd))
        print(json.dumps({
            "n": g.n,
            "m": g.edge_count(),
            "status": out.status,
            "value": out.size,
            "witness": out.witness_ids(),
            "micros": out.micros,
        }))
    return status


def cmd_formulas(args) -> int:
    try:
        value = gamma_r_path(args.n) if args.shape == "path" else gamma_r_cycle(args.n)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    print(json.dumps({"shape": args.shape, "n": args.n, "gamma_r": value}))
    return 0


def cmd_lemma1(args) -> int:
    try:
        lines = _read_graph_lines(args.input)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    status = 0
    for lineno, g, err in iter_graph6(lines):
        if err is not None:
            print(f"error: line {lineno}: {err}", file=sys.stderr)
            status = USAGE_ERROR
            continue
        try:
            d, trace = lemma1_construct(g)
        except ValueError as exc:
            print(f"error: line {lineno}: {exc}", file=sys.stderr)
            status = USAGE_ERROR
            continue
        print(json.dumps({
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
        }))
    return status


def cmd_enumerate(args) -> int:
    try:
        spec = EnumSpec(args.n, args.graph_class, connected_only=args.connected)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    for g in enumerate_graphs(spec):
        print(write_graph6(g))
    return 0


def cmd_extremal(args) -> int:
    if args.graph_class != "cubic":
        print("error: only --class cubic is supported", file=sys.stderr)
        return USAGE_ERROR
    reports = harness.extremal_search(args.n, jobs=args.jobs)
    return _emit_reports(reports, args.json)


def cmd_verify(args) -> int:
    jobs = args.jobs
    try:
        if args.what == "observations":
            reports = harness.verify_observation_1() + harness.verify_observations_2_to_6()
        elif args.what == "key-theorem":
            reports = harness.verify_key_theorem(args.max_n or 8, jobs)
        elif args.what == "cubic-bound":
            if args.input is not None:
                graphs = []
                for lineno, g, err in iter_graph6(_read_graph_lines(args.input)):
                    if err is not None:
                        print(f"error: line {lineno}: {err}", file=sys.stderr)
                        return USAGE_ERROR
                    if not is_cubic(g):
                        print(f"error: line {lineno}: graph is not cubic", file=sys.stderr)
                        return USAGE_ERROR
                    graphs.append(g)
                reports = harness.verify_cubic_bound(graphs=graphs, jobs=jobs)
            else:
                reports = harness.verify_cubic_bound(args.max_n or 12, jobs=jobs)
        elif args.what == "known-bounds":
            reports = harness.verify_known_bounds(args.max_n or 9, jobs)
        elif args.what == "lemma1":
            reports = harness.verify_lemma1(args.max_n or 12, jobs)
        else:  # pragma: no cover
            return USAGE_ERROR
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    return _emit_reports(reports, args.json)


def _emit_reports(reports, as_json: bool) -> int:
    for rep in reports:
        print(rep.summary(), file=sys.stderr)
    if as_json:
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
    p.add_argument("--x", default=None, help="comma-separated exempt vertex ids")
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

    p = sub.add_parser("extremal", help="graphs achieving the cubic bound")
    p.add_argument("--class", dest="graph_class", default="cubic")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_extremal)

    p = sub.add_parser("verify", help="verification sweeps")
    p.add_argument("what", choices=["observations", "key-theorem", "cubic-bound",
                                    "known-bounds", "lemma1"])
    p.add_argument("--max-n", type=int, default=None)
    p.add_argument("--input", default=None, help="graph6 corpus (cubic-bound only)")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on usage errors and 0 on --help
        return int(exc.code) if exc.code else 0
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
