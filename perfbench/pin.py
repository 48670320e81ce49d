"""Record the reference outputs that every benchmark pass is checked against.

Run from the repository root, on the commit whose outputs are the
reference:

    python3 perfbench/pin.py

It writes ``perfbench/reference.json``: each sweep workload's reports
(without timings), and the solve pool, the seeded random cubic graphs of
the solve-stream workload with their gamma_r values. It also confirms the
open key-theorem finding by brute force, independently of rdom's solver.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from bootstrap import import_rdom

rdom = import_rdom()

from rdom import kernels  # noqa: E402
from rdom.graph6 import parse_graph6  # noqa: E402
from rdom.solvers import gamma_r_exact, is_restrained_dominating  # noqa: E402

import workloads  # noqa: E402
from corpus import cubic_lines  # noqa: E402
from probe import brute_gamma_r  # noqa: E402

POOL_SEED = 2403
POOL_PER_ORDER = 500
COST_ROUNDS = 3
REFERENCE = Path(__file__).resolve().parent / "reference.json"
# thm-key violation reported by the sweep at max_n >= 9 (see README.md)
OPEN_FINDING = ("H?QHhrO", 4, 39)


def pin_sweeps() -> dict:
    sweeps = {}
    for name in ("cubic-sweep", "key-theorem", "catalog-claims"):
        outcome = workloads.WORKLOADS[name]({}, 0).run_pass().outcome
        sweeps[name] = [{k: v for k, v in r.items() if k != "elapsed_s"} for r in outcome]
    return sweeps


def pin_pool() -> dict:
    """Each pool line with its gamma_r and its solve cost in ms, the best of
    COST_ROUNDS sweeps over the whole pool (the cost only sorts lines into
    the strata that solve-stream samples from)."""
    lines = cubic_lines(POOL_SEED, POOL_PER_ORDER)
    graphs = [parse_graph6(line) for line in lines]
    pinned = []
    for line, g in zip(lines, graphs):
        out = gamma_r_exact(g)
        if not is_restrained_dominating(g, out.witness) or out.witness.bit_count() != out.size:
            raise SystemExit(f"error: solver witness for {line} does not check out")
        pinned.append([line, out.size, out.micros / 1e3])
    for _ in range(COST_ROUNDS - 1):
        for entry, g in zip(pinned, graphs):
            entry[2] = min(entry[2], gamma_r_exact(g).micros / 1e3)
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    return {"seed": POOL_SEED, "per_order": POOL_PER_ORDER, "sha256": digest, "lines": pinned}


def confirm_open_finding() -> dict:
    g6, gamma_r, w = OPEN_FINDING
    g = parse_graph6(g6)
    if brute_gamma_r(list(g.adj)) != gamma_r or rdom.weight(g).w != w:
        raise SystemExit(f"error: {g6} no longer has gamma_r {gamma_r} and weight {w}")
    return {"graph6": g6, "n": g.n, "gamma_r": gamma_r, "weight": w,
            "claim": "thm-key", "status": "open: 10*gamma_r = 40 exceeds the weight 39"}


def main() -> None:
    sweeps = pin_sweeps()
    finding = confirm_open_finding()
    if finding["graph6"] not in [v["graph6"] for v in sweeps["key-theorem"][0]["violations"]]:
        raise SystemExit(f"error: the key-theorem sweep no longer reports {finding['graph6']}")
    reference = {
        "rdom_version": rdom.__version__,
        "kernels": kernels.ACTIVE,
        "sweeps": sweeps,
        "open_findings": [finding],
        "solve_pool": pin_pool(),
    }
    REFERENCE.write_text(json.dumps(reference, indent=1) + "\n")
    print(f"wrote {REFERENCE}")


if __name__ == "__main__":
    main()
