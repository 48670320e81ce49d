"""Exact solvers, decisions and the set predicate for restrained domination.

All solvers reduce to one parametric minimization (see rdom.kernels): choose
which vertices must be dominated, which vertices outside the solution must
keep a neighbor outside it, and which vertices are forced in or out.

Variants:
  * ``gamma_r_exact``       restrained domination number
  * ``gamma_r_nerd_exact``  near-RD relaxations, type 1 ("ndom": the exempt
    set need not be dominated) and type 2 ("dom": the exempt set is forced
    outside the solution, dominated, but excused from the outside-neighbor
    requirement)

Decisions: ``gamma_r_at_most`` and ``gamma_r_nerd_at_most`` ask whether a
set of size at most k exists, through the same search with its ``limit``
set. Their outcome is "within", carrying the first witness the search
accepts (not necessarily a minimum one), or "exceeds"; never "optimal", so
a decision cannot be read as a value.

Every solver and decision returns a ``SolveOutcome``. It and ``NerdQuery``
are NamedTuples; ``NerdQuery`` checks its variant however it is built,
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
    status: str  # "optimal" | "infeasible", or a decision's "within" | "exceeds"
    size: int | None = None
    witness: VertexSet | None = None
    micros: int = 0

    @property
    def optimal(self) -> bool:
        return self.status == "optimal"

    @property
    def within(self) -> bool:
        return self.status == "within"

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


def _solve(
    g: Graph, dom_req: int, res_req: int, force_in: int = 0, force_out: int = 0,
    limit: int | None = None,
) -> SolveOutcome:
    t0 = time.perf_counter()
    res = kernels.solve_min(g.n, g.adj, dom_req, res_req, force_in, force_out, limit)
    micros = int((time.perf_counter() - t0) * 1e6)
    if res is None:
        return SolveOutcome("infeasible" if limit is None else "exceeds", micros=micros)
    size, bits = res
    return SolveOutcome("optimal" if limit is None else "within", size, bits, micros)


def gamma_r_exact(g: Graph, force_in: VertexSet = 0, force_out: VertexSet = 0) -> SolveOutcome:
    """Minimum restrained dominating set; always feasible without forcing
    since the whole vertex set qualifies. Witness is the smallest optimal
    bitmask. Forcing arguments constrain membership and may make the
    instance infeasible."""
    _check_subset(g, force_in | force_out, "forcing set")
    full = g.vertex_mask()
    return _solve(g, full, full, force_in, force_out)


def gamma_r_at_most(
    g: Graph, k: int, force_in: VertexSet = 0, force_out: VertexSet = 0
) -> SolveOutcome:
    """Whether a restrained dominating set of size at most k honors the
    forcing sets: "within" with such a set, or "exceeds"."""
    _check_subset(g, force_in | force_out, "forcing set")
    full = g.vertex_mask()
    return _solve(g, full, full, force_in, force_out, k)


def gamma_r_nerd_exact(g: Graph, q: NerdQuery) -> SolveOutcome:
    """Minimum near-RD set for the query; type 2 with a nonempty exempt set
    can be infeasible (the exempt vertices are forced outside)."""
    return _nerd(g, q)


def gamma_r_nerd_at_most(g: Graph, q: NerdQuery, k: int) -> SolveOutcome:
    """Whether a near-RD set of size at most k exists for the query:
    "within" with such a set, or "exceeds"."""
    return _nerd(g, q, k)


def _nerd(g: Graph, q: NerdQuery, limit: int | None = None) -> SolveOutcome:
    _check_subset(g, q.x, "exempt set")
    full = g.vertex_mask()
    if q.variant == NERD_TYPE1:
        return _solve(g, full & ~q.x, full, limit=limit)
    return _solve(g, full, full & ~q.x, 0, q.x, limit)
