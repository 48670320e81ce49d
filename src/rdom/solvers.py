"""Exact solvers and the set predicates for restrained domination.

All solvers reduce to one parametric minimization (see rdom.kernels): choose
which vertices must be dominated, which vertices outside the solution must
keep a neighbor outside it, and which vertices are forced out.
``_solve`` turns each variant into those masks; the two public solvers
below call it and take no forcing sets of their own.

Variants:
  * ``gamma_r_exact``       restrained domination number
  * ``gamma_r_nerd_exact``  near-RD relaxations, type 1 ("ndom": the exempt
    set need not be dominated) and type 2 ("dom": the exempt set is forced
    outside the solution, dominated, but excused from the outside-neighbor
    requirement)

The solvers supply values, the ones a report prints or compares. Upper
bounds are not decided here: the harness certifies them by subset
enumeration against ``is_restrained_dominating`` and
``is_near_restrained_dominating``, which read the definitions directly.

Every solver returns a ``SolveOutcome``. It and ``NerdQuery`` are
NamedTuples; ``NerdQuery`` checks its variant however it is built,
``._replace`` included.
"""

from __future__ import annotations

import time
from typing import NamedTuple

from rdom import kernels
from rdom.graph import Graph, VertexSet, bits_of

NERD_TYPE1 = "ndom"
NERD_TYPE2 = "dom"


class _NerdFields(NamedTuple):
    x: VertexSet
    variant: str


class NerdQuery(_NerdFields):
    """Exempt set plus variant tag for near-RD solves."""

    __slots__ = ()

    def __new__(cls, x: VertexSet, variant: str):
        if variant not in (NERD_TYPE1, NERD_TYPE2):
            raise ValueError(f"variant must be {NERD_TYPE1!r} or {NERD_TYPE2!r}")
        return super().__new__(cls, x, variant)

    @classmethod
    def _make(cls, iterable):
        # ``_replace`` builds through here: keep it behind the variant check
        return cls(*iterable)


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


def _check_subset(g: Graph, s: VertexSet, name: str = "set") -> None:
    if s & ~g.vertex_mask():
        raise ValueError(f"{name} is not a subset of the vertex set")


def is_restrained_dominating(g: Graph, s: VertexSet) -> bool:
    """True iff s dominates g and every vertex outside s also has a neighbor
    outside s (the complement induces no isolated vertex)."""
    _check_subset(g, s)
    outside = g.vertex_mask() & ~s
    for v in bits_of(outside):
        if not g.adj[v] & s:
            return False
        if not g.adj[v] & outside:
            return False
    return True


def is_near_restrained_dominating(g: Graph, s: VertexSet, q: NerdQuery) -> bool:
    """True iff s is a near-RD set for q. Every vertex outside s must have a
    neighbor in s, except the exempt vertices under type 1, and a neighbor
    outside s, except the exempt vertices under type 2, which must also lie
    outside s."""
    _check_subset(g, s)
    _check_subset(g, q.x, "exempt set")
    type2 = q.variant == NERD_TYPE2
    if type2 and s & q.x:
        return False
    outside = g.vertex_mask() & ~s
    for v in bits_of(outside):
        exempt = q.x >> v & 1
        if not g.adj[v] & s and not (exempt and not type2):
            return False
        if not g.adj[v] & outside and not (exempt and type2):
            return False
    return True


def _solve(g: Graph, q: NerdQuery | None = None) -> SolveOutcome:
    """Restrained domination, or the near-RD relaxation q, minimized: the
    one place a query becomes the kernel's masks."""
    full = g.vertex_mask()
    dom_req = res_req = full
    force_out = 0
    if q is not None:
        _check_subset(g, q.x, "exempt set")
        if q.variant == NERD_TYPE1:
            dom_req = full & ~q.x
        else:
            res_req = full & ~q.x
            force_out = q.x
    t0 = time.perf_counter()
    res = kernels.solve_min(g.n, g.adj, dom_req, res_req, force_out)
    micros = int((time.perf_counter() - t0) * 1e6)
    if res is None:
        return SolveOutcome("infeasible", micros=micros)
    size, bits = res
    return SolveOutcome("optimal", size, bits, micros)


def gamma_r_exact(g: Graph) -> SolveOutcome:
    """Minimum restrained dominating set; always feasible, since the whole
    vertex set qualifies. Witness is the smallest optimal bitmask."""
    return _solve(g)


def gamma_r_nerd_exact(g: Graph, q: NerdQuery) -> SolveOutcome:
    """Minimum near-RD set for the query; type 2 with a nonempty exempt set
    can be infeasible (the exempt vertices are forced outside)."""
    return _solve(g, q)
