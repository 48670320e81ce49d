"""Exact solvers for restrained domination and its near-RD relaxations.

All solvers reduce to one parametric minimization (see rdom.kernels): choose
which vertices must be dominated, which vertices outside the solution must
keep a neighbor outside it, and which vertices are forced out.
``_solve`` takes those masks from ``rdom.certify._constraints``, the
subset walk's reading of the same query; the two public solvers below
call it and take no forcing sets of their own.

Variants:
  * ``gamma_r_exact``       restrained domination number
  * ``gamma_r_nerd_exact``  near-RD relaxations for a ``NerdQuery``, type 1
    ("ndom": the exempt set need not be dominated) and type 2 ("dom": the
    exempt set is forced outside the solution, dominated, but excused from
    the outside-neighbor requirement)

The solvers supply values, the ones a report prints or compares. Upper
bounds are not decided here: ``rdom.certify`` certifies them by subset
enumeration. ``_solve`` holds the kernel to the same definitions: every
witness it returns passes ``is_restrained_dominating`` or
``is_near_restrained_dominating``, or the solve raises.

Every solver returns a ``SolveOutcome``, a NamedTuple.
"""

from __future__ import annotations

import time
from typing import NamedTuple

from rdom import kernels
from rdom.certify import (
    NerdQuery,
    _constraints,
    is_near_restrained_dominating,
    is_restrained_dominating,
)
from rdom.graph import Graph, VertexSet, bits_of


class SolveOutcome(NamedTuple):
    status: str  # "optimal" | "infeasible"
    size: int | None = None
    witness: VertexSet | None = None
    micros: int = 0

    @property
    def optimal(self) -> bool:
        return self.status == "optimal"

    def witness_ids(self) -> list[int]:
        return list(bits_of(self.witness)) if self.witness is not None else []


def _solve(g: Graph, q: NerdQuery | None = None) -> SolveOutcome:
    """Restrained domination, or the near-RD relaxation q, minimized: the
    kernel gets the masks of ``certify._constraints``, and its witness is
    checked against the definition here."""
    dom_req, res_req, force_out = _constraints(g, q)
    t0 = time.perf_counter()
    res = kernels.solve_min(g.n, g.adj, dom_req, res_req, force_out)
    micros = int((time.perf_counter() - t0) * 1e6)
    if res is None:
        return SolveOutcome("infeasible", micros=micros)
    size, bits = res
    if not (is_restrained_dominating(g, bits) if q is None else is_near_restrained_dominating(g, bits, q)):
        raise RuntimeError(f"the kernel's witness {bits:#x} fails the definition check")
    return SolveOutcome("optimal", size, bits, micros)


def gamma_r_exact(g: Graph) -> SolveOutcome:
    """Minimum restrained dominating set; always feasible, since the whole
    vertex set qualifies. Witness is the smallest optimal bitmask."""
    return _solve(g)


def gamma_r_nerd_exact(g: Graph, q: NerdQuery) -> SolveOutcome:
    """Minimum near-RD set for the query; type 2 with a nonempty exempt set
    can be infeasible (the exempt vertices are forced outside)."""
    return _solve(g, q)
