"""Machine checks for every claim the library can verify exhaustively.

Each ``verify_*`` function sweeps an enumerated instance set and returns
:class:`VerificationReport` objects, each with its own violation and note
lists. A violation entry carries the offending graph as graph6, so any
reported failure can be re-checked from the report alone. Every
enumerated sweep goes through ``_check_classes``, whose workers enumerate
the items of ``sweep_roots`` and give each graph one :class:`Finding`
(a NamedTuple) per report, or None where the report's scope leaves it
out; ``_fold`` adds them to the reports in graph6 order. The cubic
sweep's ``extremal:`` notes list the graphs with gamma_r = floor(2n/5).
Only the lemma1 checks import ``rdom.construct``, where they run.

The catalog sweeps, obs1a to obs6b, are certified independently of the
branch-and-bound solver, each query by one subset walk set up once
(``_certifier``): the existence claims (a witness set of a stated size and
shape exists), the near-RD bounds of obs1d, obs1e, obs1f, obs4a and obs4b
(``_nerd_exceeds``), the gamma_r values that obs1a, obs2 and obs3 compare
(``_gamma_r_value``), and the near-RD values that passing reports print or
compare, at R2's open twins in obs1e, the frozen pairs of obs1f and the
type-2 relaxation of R2 and R10 in obs4a (``_least_nerd``). The walk
enumerates the subsets of each size in lexicographic order, skips only
those whose closed neighborhoods cannot cover the vertices the claim
requires dominated, and accepts a set only by the definition check
``is_restrained_dominating`` or ``is_near_restrained_dominating``; it
walks no size below its root counting bound. A passing catalog pass never
reaches the solver: an exact solve runs only when a claim fails, for the
value its violation prints.

The theorem sweeps certify their upper bounds on gamma_r the same way,
over one walk per graph (``_within``): ``gamma_r <= 2n/5`` and its
``extremal:`` notes, the key theorem for non-members with its tight
non-member notes, ``known-a`` apart from stars, ``known-b``, and lemma1's
bound on the minimum. The solver runs only where a report prints the
value or compares it for equality: on any violation, on catalog members
in the key theorem, and on stars.
"""

from __future__ import annotations

import os
import time
from collections import Counter
from functools import partial
from itertools import combinations
from typing import TYPE_CHECKING, Callable, Iterable, NamedTuple, Sequence

from rdom.enumeration import connected_classes, sweep_roots
from rdom.family import all_family_members, weight
from rdom.graph import (
    Graph,
    bits_of,
    is_cubic,
    is_degree_bipartite,
    large_vertices,
    mask_of,
    open_twins,
    small_vertices,
    subdivide,
)
from rdom.graph6 import write_graph6
from rdom.solvers import (
    NERD_TYPE1,
    NERD_TYPE2,
    NerdQuery,
    SolveOutcome,
    _check_subset,
    gamma_r_exact,
    gamma_r_nerd_exact,
    is_near_restrained_dominating,
    is_restrained_dominating,
)

if TYPE_CHECKING:
    from rdom.construct import Lemma1Trace


class VerificationReport:
    """One claim checked over one scope. ``elapsed`` is the wall time of the
    sweep call that produced the report: the reports of one call share it,
    as their claims are checked in one pass over the corpus."""

    def __init__(self, claim_id: str, scope: str):
        self.claim_id = claim_id
        self.scope = scope
        self.checked = 0
        self.violations: list[tuple[str, str]] = []
        self.elapsed = 0.0
        self.notes: list[str] = []

    @property
    def passed(self) -> bool:
        return not self.violations

    def add_violation(self, g: Graph, details: str) -> None:
        self.violations.append((write_graph6(g), details))

    def to_dict(self) -> dict:
        return {
            "claim_id": self.claim_id,
            "scope": self.scope,
            "checked": self.checked,
            "passed": self.passed,
            "violations": [{"graph6": g6, "details": d} for g6, d in self.violations],
            "elapsed_s": round(self.elapsed, 6),
            "notes": self.notes,
        }

    def summary(self) -> str:
        state = "pass" if self.passed else f"FAIL ({len(self.violations)} violations)"
        return f"{self.claim_id}: {state}  [checked {self.checked}, {self.elapsed:.2f}s]"


class Finding(NamedTuple):
    """One report's outcome on one graph: the details of each violation, a
    note naming the graph's graph6 line, and a tag that ``_fold`` counts."""

    violations: tuple[str, ...] = ()
    note: str | None = None
    tag: str = ""


def exists_set_of_size(
    g: Graph, size: int, force_in: int = 0, force_out: int = 0, q: NerdQuery | None = None
) -> int | None:
    """The first restrained dominating set of the exact size, or with q the
    first near-RD set for q, containing force_in and avoiding force_out, in
    ``itertools.combinations`` order over the free vertices; its mask, or
    None if there is none (always when the two forcing sets meet). Under
    type 2 the exempt set joins force_out, so an exempt vertex forced in
    leaves no witness. This is the certification route for the catalog's
    claims: subset enumeration, no solver involved.

    The walk picks the free vertices depth first in index order, so it
    visits the subsets in ``combinations`` order, and carries ``dom``, the
    union of the closed neighborhoods of the vertices chosen so far. Let
    ``need`` be the vertices the set must dominate: every vertex, or with a
    type-1 query every vertex outside the exempt set. Every set below the
    choice of ``free[i]`` lies inside the chosen vertices and ``free[i:]``,
    so its closed neighborhoods cover at most ``dom | cover[i]``, where
    ``cover[i]`` is the union of the closed neighborhoods of ``free[i:]``.
    When that misses a vertex of ``need``, none of those sets dominates
    ``need``, and since ``cover`` shrinks as i grows, neither does any set
    below a later choice at this depth: the walk backs up. It also backs up
    when the vertices of ``need`` outside ``dom`` outnumber ``left`` times
    ``reach``, the most vertices of ``need`` in the closed neighborhood of
    a free vertex: the ``left`` vertices still to be chosen add at most
    ``reach`` of them each to ``dom``, so no set below this node dominates
    ``need``. A full-size set that dominates ``need`` is accepted only by
    the definition check, ``is_restrained_dominating`` or
    ``is_near_restrained_dominating``. Only sets that miss a vertex q
    requires dominated are skipped, so the walk returns exactly what
    testing every subset in ``combinations`` order would return."""
    return _certifier(g, force_in, force_out, q)[1](size)


def _certifier(
    g: Graph, force_in: int = 0, force_out: int = 0, q: NerdQuery | None = None
) -> tuple[int, Callable[[int], int | None]]:
    """The subset walk of ``exists_set_of_size`` for one query, set up once:
    ``(floor, find)``, where ``find(size)`` is ``exists_set_of_size`` at that
    size and every size below ``floor`` has no witness.

    ``floor`` is the walk's own root prune read as a size: the vertices of
    ``need`` that force_in leaves undominated, ``u`` of them, take at least
    ``ceil(u / reach)`` more vertices, so no witness is smaller than
    ``|force_in| + ceil(u / reach)``. When no free vertex reaches them, or
    the forcing sets meet, there is no witness at all and ``floor`` is
    ``g.n + 1``. ``find`` answers a size below ``floor`` without walking."""
    _check_subset(g, force_in | force_out, "forcing set")
    need = g.vertex_mask()
    if q is not None:
        _check_subset(g, q.x, "exempt set")
        if q.variant == NERD_TYPE1:
            need &= ~q.x
        else:
            force_out |= q.x
    free = [v for v in range(g.n) if not ((force_in | force_out) >> v & 1)]
    closed = [g.adj[v] | 1 << v for v in free]
    reach = max(((c & need).bit_count() for c in closed), default=0)
    cover = [0] * (len(free) + 1)
    for i in range(len(free) - 1, -1, -1):
        cover[i] = cover[i + 1] | closed[i]
    dom = 0
    for v in bits_of(force_in):
        dom |= g.adj[v] | 1 << v
    base = force_in.bit_count()
    undominated = (need & ~dom).bit_count()
    if force_in & force_out or (undominated and not reach):
        floor = g.n + 1
    else:
        floor = base + (-(-undominated // reach) if undominated else 0)

    accepts = is_restrained_dominating if q is None else partial(is_near_restrained_dominating, q=q)

    def walk(start: int, dom: int, mask: int, left: int) -> int | None:
        if (need & ~dom).bit_count() > left * reach:
            return None
        for i in range(start, len(free) - left + 1):
            if need & ~(dom | cover[i]):
                break
            pick = mask | 1 << free[i]
            if left > 1:
                hit = walk(i + 1, dom | closed[i], pick, left - 1)
                if hit is not None:
                    return hit
            # the last choice completes a set: it is tested here, not a level down
            elif not need & ~(dom | closed[i]) and accepts(g, pick):
                return pick
        return None

    def find(size: int) -> int | None:
        if size < floor:
            return None
        if size > base:
            return walk(0, dom, force_in, size - base)
        # size == floor == base: force_in dominates need
        return force_in if accepts(g, force_in) else None

    return floor, find


def exists_set_up_to(
    g: Graph, max_size: int, force_in: int = 0, force_out: int = 0, q: NerdQuery | None = None
) -> int | None:
    """``exists_set_of_size`` for each size up to max_size in turn, over one
    walk set up once: returns a smallest witness of size at most max_size,
    or None. The sizes start at the walk's root bound, below which none has
    a witness."""
    floor, find = _certifier(g, force_in, force_out, q)
    for size in range(floor, max_size + 1):
        mask = find(size)
        if mask is not None:
            return mask
    return None


def _timed(reports: list[VerificationReport], t0: float) -> list[VerificationReport]:
    """Stamp every report with the wall time of the sweep call since t0."""
    elapsed = time.perf_counter() - t0
    for report in reports:
        report.elapsed = elapsed
    return reports


def _fold(reports: list[VerificationReport], rows: Iterable[tuple[str, tuple]]) -> Counter[str]:
    """Add the ``(graph6, findings)`` rows of a sweep to its reports in
    graph6 order, the i-th finding of a row to the i-th report, unless it is
    None: it counts as checked, and its violations, each with the row's
    graph6 line, and its note are appended. Returns the count of each tag."""
    tags: Counter[str] = Counter()
    for g6, findings in sorted(rows, key=lambda row: row[0]):
        for report, found in zip(reports, findings, strict=True):
            if found is not None:
                report.checked += 1
                report.violations.extend((g6, detail) for detail in found.violations)
                if found.note is not None:
                    report.notes.append(found.note)
                tags[found.tag] += 1
    return tags


# ---------------------------------------------------------------------------
# catalog properties: minimum sizes, forced membership, near-RD bounds
# ---------------------------------------------------------------------------
#
# Machine-certified exceptions. A handful of literal catalog claims fail on
# degenerate pairs, always by exactly one unit, and the exceptions below are
# frozen so the sweeps stay falsifiable: a new exception, or an old one with
# a different value, is reported as a violation. The gate
# (tests/test_harness.py::TestFrozenExceptions) recomputes by brute-force
# subset enumeration every entry of the pair and one-subdivision tables, and
# for each member-level relaxation below, including obs6b's R2 open-twin
# edges, an edge that needs it; an entry may be added only with such a
# certificate.
#
# Type-2 relaxation for a PAIR of degree-2 vertices: the generic guarantee
# is gamma_r - 1; for the pairs below the true value is exactly gamma_r,
# except R2's adjacent pair (3,4), where it is gamma_r + 1.
_PAIR_RELAXATION_EXCEPTIONS: dict[str, frozenset[tuple[int, int]]] = {
    "R1": frozenset({(0, 1), (0, 4), (1, 2), (2, 3), (3, 4)}),
    "R2": frozenset({(3, 4)}),
    "R3": frozenset({(1, 2), (1, 5), (2, 3), (2, 6), (3, 7), (5, 6), (6, 7)}),
    "R4": frozenset({(1, 5), (3, 7)}),
    "R5": frozenset({(2, 3), (6, 7)}),
    "R6": frozenset({(0, 1), (0, 10), (1, 9), (9, 10)}),
    "R7": frozenset({(0, 1), (1, 9)}),
    "R8": frozenset({(0, 1), (8, 10), (9, 10)}),
}

# One-subdivision witnesses (new vertex in, both ends out): for these edges
# the witness first appears at size gamma_r(G), one above the subdivided
# graph's own minimum.
_SUBDIV1_WITNESS_EXCEPTIONS = {("R2", (3, 4)), ("R10", (1, 3)), ("R10", (3, 5))}

# Members that need gamma_r + 1 rather than gamma_r on some edges: for the
# type-2 relaxation at an end vertex of a three-subdivision path (obs4a,
# first table), and for the witness through a second path vertex after four
# subdivisions (obs6a, second table). R2's witness needs it only on the
# edges at its open twins, which obs6b checks apart.
_SUBDIV_BOUND_RELAXED_MEMBERS = ("R2", "R10")
_SUBDIV4_RELAXED_MEMBERS = ("R10",)

# The members of the narrower claims: the type-2 relaxation at the middle
# vertex of a three-subdivision path (obs4b), and the four-subdivision
# witness on the path's ends within gamma_r, not gamma_r + 1 (obs5b).
_SUBDIV3_MIDDLE_MEMBERS = ("R4", "R5", "R9")
_SUBDIV4_ENDS_TIGHT_MEMBERS = ("R4", "R5")


def _within(cert: tuple[int, Callable[[int], int | None]], k: int) -> bool:
    """Whether the walk ``cert`` of ``_certifier`` finds a set of size at
    most k. It asks size k first, then each smaller size down to its root
    bound, and stops at the first hit. Neither a restrained dominating set
    nor a near-RD set need stay one when a vertex joins it, so a miss at
    one size says nothing of the sizes below it; a bound that holds with a
    set of size k searches one size."""
    floor, find = cert
    return any(find(size) is not None for size in range(k, floor - 1, -1))


def _nerd_exceeds(g: Graph, q: NerdQuery, k: int) -> SolveOutcome | None:
    """None when a near-RD set of size at most k exists for q; otherwise the
    exact outcome, whose value the violation prints. Only a failing bound
    reaches the solver."""
    if _within(_certifier(g, q=q), k):
        return None
    return gamma_r_nerd_exact(g, q)


def _least_nerd(g: Graph, q: NerdQuery) -> int | None:
    """The least size of a near-RD set for q, certified: no size below it
    has one. None when q admits none, which type 2 can."""
    hit = exists_set_up_to(g, g.n, q=q)
    return None if hit is None else hit.bit_count()


def _gamma_r_value(g: Graph, k: int) -> int | None:
    """gamma_r(g) when it is at most k, otherwise None, certified: the size
    of the smallest restrained dominating set ``exists_set_up_to`` finds."""
    hit = exists_set_up_to(g, k)
    return None if hit is None else hit.bit_count()


def _free_orientation(report: VerificationReport, g: Graph, edge: str, hits: list, missing: str) -> bool:
    """Read a claim on a path end with the free edge orientation, given the
    witness found under the forward and the reversed labeling of the edge,
    or None: a violation naming what is missing when both are None, a note
    when one is. Returns whether either labeling admits a witness."""
    if hits == [None, None]:
        report.add_violation(g, f"{edge}: {missing}")
        return False
    if None in hits:
        which = "reversed" if hits[0] is None else "forward"
        report.notes.append(f"{edge}: only the {which} orientation works")
    return True


def verify_observation_1() -> list[VerificationReport]:
    """Per-member properties: the minimum-size table, gamma_r-sets that
    contain / avoid any chosen degree-2 vertex, and the near-RD bounds for
    one or two exempt degree-2 vertices (with the documented exception: the
    open-twin vertices of R2 under the type-2 variant, plus the frozen
    pair exceptions above)."""
    t0 = time.perf_counter()
    reports = {
        key: VerificationReport(f"obs1{key}", scope)
        for key, scope in [
            ("a", "minimum RD-set sizes of R1..R10"),
            ("b", "gamma_r-set through each degree-2 vertex"),
            ("c", "gamma_r-set avoiding each degree-2 vertex"),
            ("d", "type-1 near-RD bound, single degree-2 vertex"),
            ("e", "type-2 near-RD bound, single degree-2 vertex"),
            ("f", "type-2 near-RD bound, pairs of degree-2 vertices"),
        ]
    }
    for m in all_family_members():
        g = m.graph
        # a value above the table's is solved exactly, for the violation to print
        if (gr := _gamma_r_value(g, m.gamma_r)) is None:
            gr = gamma_r_exact(g).size
        reports["a"].checked += 1
        if gr != m.gamma_r:
            reports["a"].add_violation(g, f"{m.id}: solver found {gr}, table says {m.gamma_r}")
        twin_mask = mask_of(v for pair in open_twins(g) for v in pair) if m.id == "R2" else 0
        smalls = list(bits_of(small_vertices(g)))
        for v in smalls:
            reports["b"].checked += 1
            if exists_set_of_size(g, gr, force_in=1 << v) is None:
                reports["b"].add_violation(g, f"{m.id}: no gamma_r-set contains vertex {v}")
            reports["c"].checked += 1
            if exists_set_of_size(g, gr, force_out=1 << v) is None:
                reports["c"].add_violation(g, f"{m.id}: no gamma_r-set avoids vertex {v}")
            # obs1d and obs1e: one bound for the two variants, R2's open twins exempted from type 2
            for key, kind in (("d", NERD_TYPE1), ("e", NERD_TYPE2)):
                q = NerdQuery(1 << v, kind)
                if kind == NERD_TYPE2 and twin_mask >> v & 1:
                    value = _least_nerd(g, q)
                    reports["e"].notes.append(
                        f"{m.id}: open twin {v} exempted; dom relaxation gives "
                        f"{'infeasible' if value is None else value}"
                    )
                    continue
                reports[key].checked += 1
                if (out := _nerd_exceeds(g, q, gr - 1)) is not None:
                    reports[key].add_violation(g, f"{m.id}: {kind} relaxation at vertex {v} gives {out.size}")
        exceptions = _PAIR_RELAXATION_EXCEPTIONS.get(m.id, frozenset())
        for u, v in combinations(smalls, 2):
            reports["f"].checked += 1
            q = NerdQuery(1 << u | 1 << v, NERD_TYPE2)
            if (u, v) in exceptions:
                value = _least_nerd(g, q)
                expected = gr + 1 if (m.id, (u, v)) == ("R2", (3, 4)) else gr
                if value != expected:
                    reports["f"].add_violation(
                        g,
                        f"{m.id}: exceptional pair {{{u},{v}}} gives "
                        f"{'infeasible' if value is None else value}, certified value is {expected}",
                    )
                else:
                    reports["f"].notes.append(
                        f"{m.id}: pair {{{u},{v}}} exceeds the generic bound, value {value}"
                    )
            elif (out := _nerd_exceeds(g, q, gr - 1)) is not None:
                reports["f"].add_violation(
                    g, f"{m.id}: dom relaxation at pair {{{u},{v}}} gives {out.size}"
                )
    return _timed([reports[k] for k in "abcdef"], t0)


# ---------------------------------------------------------------------------
# subdivision properties of catalog members
# ---------------------------------------------------------------------------


def verify_observations_2_to_6() -> list[VerificationReport]:
    """Edge-subdivision properties of the catalog, for every member, every
    edge, and subdivision counts one through four.

    Claims whose statement names an end of the subdivision path (the second
    path vertex and similar) are read with the free edge orientation: they
    must hold for at least one of the two labelings of the endpoints, and
    the notes record any edge where only one orientation worked. Claims
    that are symmetric under swapping the endpoints are checked once.
    """
    t0 = time.perf_counter()
    reports = {
        key: VerificationReport(key, scope)
        for key, scope in [
            ("obs2", "one subdivision: gamma_r does not grow; witness through the new vertex"),
            ("obs3", "two subdivisions: witness containing the first, avoiding the second"),
            ("obs4a", "three subdivisions: both near-RD relaxations at an end vertex"),
            ("obs4b", "three subdivisions: type-2 relaxation at the middle vertex (R4, R5, R9)"),
            ("obs5a", "four subdivisions: witness meeting the path in its end vertices, size <= gamma_r + 1"),
            ("obs5b", "four subdivisions: same witness shape, size <= gamma_r (R4, R5)"),
            ("obs6a", "four subdivisions: witness through the second path vertex, size <= gamma_r"),
            ("obs6b", "four subdivisions: same, size <= gamma_r + 1 (R2 edges at an open twin)"),
        ]
    }
    for m in all_family_members():
        g = m.graph
        n = g.n
        gr = m.gamma_r
        twin_mask = mask_of(v for pair in open_twins(g) for v in pair) if m.id == "R2" else 0
        key5, bound5 = ("obs5b", gr) if m.id in _SUBDIV4_ENDS_TIGHT_MEMBERS else ("obs5a", gr + 1)
        for x, y in g.edges():
            edge = f"{m.id} edge ({x},{y})"
            # t = 1 -------------------------------------------------------
            g1 = subdivide(g, (x, y), 1)
            reports["obs2"].checked += 1
            if (gr1 := _gamma_r_value(g1, gr)) is None:
                gr1 = gamma_r_exact(g1).size
            witness_bound = gr if (m.id, (x, y)) in _SUBDIV1_WITNESS_EXCEPTIONS else gr1
            if gr1 > gr:
                reports["obs2"].add_violation(g1, f"{edge}: gamma_r grew to {gr1}")
            else:
                # one walk for the sizes: no restrained dominating set of G_1 is smaller than gr1
                find = _certifier(g1, force_in=1 << n, force_out=1 << x | 1 << y)[1]
                if all(find(size) is None for size in range(gr1, witness_bound + 1)):
                    reports["obs2"].add_violation(
                        g1, f"{edge}: no witness with the new vertex, avoiding both ends"
                    )
                elif witness_bound != gr1:
                    reports["obs2"].notes.append(
                        f"{edge}: witness needs size {gr} (minimum dropped to {gr1})"
                    )
            # t = 2 -------------------------------------------------------
            g2 = subdivide(g, (x, y), 2)
            reports["obs3"].checked += 1
            if (gr2 := _gamma_r_value(g2, gr)) is None:
                gr2 = gamma_r_exact(g2).size
            if gr2 > gr:
                reports["obs3"].add_violation(g2, f"{edge}: gamma_r grew to {gr2}")
            else:
                hits = [exists_set_of_size(g2, gr2, force_in=1 << a, force_out=1 << b)
                        for a, b in ((n, n + 1), (n + 1, n))]
                _free_orientation(reports["obs3"], g2, edge, hits, "neither orientation admits the witness")
            # t = 3 -------------------------------------------------------
            g3 = subdivide(g, (x, y), 3)
            for end in (n, n + 2):
                reports["obs4a"].checked += 1
                dom_q = NerdQuery(1 << end, NERD_TYPE2)
                ndom_q = NerdQuery(1 << end, NERD_TYPE1)
                if m.id in _SUBDIV_BOUND_RELAXED_MEMBERS:
                    # R2 and R10 may need gamma_r + 1, which the note prints
                    dom = _least_nerd(g3, dom_q)
                    dom_fails = dom is None or dom > gr + 1
                else:
                    dom = None
                    dom_fails = _nerd_exceeds(g3, dom_q, gr) is not None
                if dom_fails or _nerd_exceeds(g3, ndom_q, gr) is not None:
                    # the exact solves supply the values the violation prints
                    dom_size, ndom_size = (gamma_r_nerd_exact(g3, q).size for q in (dom_q, ndom_q))
                    reports["obs4a"].add_violation(
                        g3, f"{edge} path vertex {end}: dom={dom_size} ndom={ndom_size} vs gamma_r={gr}"
                    )
                elif dom is not None and dom > gr:
                    reports["obs4a"].notes.append(f"{edge} path vertex {end}: dom needs {dom}")
            if m.id in _SUBDIV3_MIDDLE_MEMBERS:
                reports["obs4b"].checked += 1
                if (dom := _nerd_exceeds(g3, NerdQuery(1 << (n + 1), NERD_TYPE2), gr)) is not None:
                    reports["obs4b"].add_violation(
                        g3, f"{edge} middle vertex: dom={dom.size} vs gamma_r={gr}"
                    )
            # t = 4 -------------------------------------------------------
            g4 = subdivide(g, (x, y), 4)
            reports[key5].checked += 1
            if exists_set_up_to(
                g4, bound5, force_in=1 << n | 1 << (n + 3), force_out=1 << (n + 1) | 1 << (n + 2)
            ) is None:
                reports[key5].add_violation(g4, f"{edge}: no witness meeting the path in exactly its ends")
            key6 = "obs6b" if twin_mask & (1 << x | 1 << y) else "obs6a"
            bound6 = gr + 1 if key6 == "obs6b" or m.id in _SUBDIV4_RELAXED_MEMBERS else gr
            reports[key6].checked += 1
            hits = [exists_set_up_to(g4, bound6, force_in=1 << v) for v in (n + 1, n + 2)]
            if _free_orientation(reports[key6], g4, edge, hits, "no witness through a second path vertex"):
                # exists_set_up_to returns smallest witnesses: is there none of size <= gr?
                if min(hit.bit_count() for hit in hits if hit is not None) > gr:
                    reports[key6].notes.append(f"{edge}: witness needs size {bound6}")
    return _timed(list(reports.values()), t0)


# ---------------------------------------------------------------------------
# theorem sweeps
# ---------------------------------------------------------------------------


def _key_theorem_worker(g: Graph) -> tuple[Finding]:
    """The key theorem's finding on g; its note names a tight non-member."""
    rep = weight(g)
    member = rep.members[0] if rep.members else None  # g is connected
    plain = 5 * rep.n2 + 4 * rep.n3
    if member is None and _within(cert := _certifier(g), plain // 10):
        # 10*gamma_r <= plain <= w, so it passes; tight iff gamma_r = w/10
        tight = rep.w % 10 == 0 and not _within(cert, rep.w // 10 - 1)
    else:
        # members, and non-members about to fail, report the exact value
        gr = gamma_r_exact(g).size
        if 10 * gr > rep.w:
            return (Finding((f"10*gamma_r = {10 * gr} exceeds weight {rep.w}",)),)
        # catalog membership is equivalent to violating the penalty-free
        # form, and members meet the weight bound with equality
        if (10 * gr > plain) != (member is not None):
            tag = member or "non-member"
            return (Finding((f"catalog completeness: 10*gamma_r={10 * gr}, 5n2+4n3={plain}, {tag}",)),)
        if member is not None and 10 * gr != rep.w:
            return (Finding((f"{member} misses equality: 10*gamma_r={10 * gr}, weight={rep.w}",)),)
        tight = member is None and 10 * gr == rep.w
    note = f"tight non-member: {write_graph6(g)} (10*gamma_r = weight = {rep.w})" if tight else None
    return (Finding(note=note),)


def verify_key_theorem(max_n: int, jobs: int = 1) -> list[VerificationReport]:
    """10 * gamma_r(G) <= w(G) over every connected special subcubic graph
    up to max_n. Also certifies that the graphs violating the penalty-free
    form 10 * gamma_r <= 5*n2 + 4*n3 are exactly the catalog members (which
    meet the weight bound with equality); non-member graphs that happen to
    be weight-tight, such as the 4-cycle, are recorded in the notes."""
    t0 = time.perf_counter()
    report = VerificationReport(
        "thm-key", f"connected special subcubic graphs, 3 <= n <= {max_n}"
    )
    _fold([report], _check_classes(_key_theorem_worker, "special-subcubic", max_n, jobs))
    return _timed([report], t0)


def _cubic_worker(g: Graph) -> tuple[Finding]:
    """The bound's finding on g; its note names g when gamma_r = floor(2n/5)."""
    n = g.n
    bound = 2 * n // 5
    cert = _certifier(g)
    extremal = not _within(cert, bound - 1)
    # no size below the bound has a set, so only the bound is left to ask
    if extremal and cert[1](bound) is None:
        return (Finding((f"gamma_r = {gamma_r_exact(g).size} exceeds 2n/5 = {2 * n / 5}",)),)
    # cross-check against the weight route: cubic graphs weigh 4n and are
    # never catalog members, so the two bounds must coincide
    rep = weight(g)
    if rep.w != 4 * n or rep.omega != 0:
        return (Finding((f"weight route disagrees: w={rep.w}, omega={rep.omega}",)),)
    return (Finding(note=f"extremal: {write_graph6(g)}" if extremal else None),)


def verify_cubic_bound(
    max_n: int | None = None,
    graphs: Sequence[Graph] | None = None,
    jobs: int = 1,
) -> list[VerificationReport]:
    """gamma_r(G) <= 2n/5 over connected cubic graphs, from the built-in
    enumeration (orders 4..max_n) or a caller-supplied, non-empty corpus,
    one of the two; records the graphs achieving equality."""
    t0 = time.perf_counter()
    if (max_n is None) == (graphs is None):
        raise ValueError("need max_n or an explicit corpus, not both")
    if graphs is None:
        scope = f"connected cubic graphs, 4 <= n <= {max_n}"
        rows = _check_classes(_cubic_worker, "cubic", max_n, jobs)
    else:
        check_jobs(jobs)
        if not graphs:
            raise ValueError("the supplied corpus holds no graph")
        scope = f"supplied corpus of {len(graphs)} cubic graphs"
        for i, g in enumerate(graphs):
            if not is_cubic(g):
                raise ValueError(f"input graph {i + 1} is not cubic")
        rows = zip(map(write_graph6, graphs), _run_sweep(_cubic_worker, graphs, jobs))
    report = VerificationReport("thm-cubic-2over5", scope)
    _fold([report], rows)
    return _timed([report], t0)


def _known_bounds_worker(g: Graph) -> tuple[Finding, Finding | None]:
    """The findings of known-a, tagged "star" for a star with gamma_r = n,
    "C5" or "", and of known-b, None unless g has minimum degree 2 and is
    not C5."""
    n = g.n
    degs = sorted(g.degree(v) for v in range(n))
    fail_a = ()
    found_b = cert = None
    tag = ""
    if degs and degs[0] >= 2:
        # connected with minimum degree 2: five edges on five vertices is C5
        if n == 5 and g.edge_count() == 5:
            tag = "C5"
        elif _within(cert := _certifier(g), n // 2):
            found_b = Finding()
        else:
            found_b = Finding((f"gamma_r = {gamma_r_exact(g).size} exceeds n/2 = {n / 2}",))
    if n >= 2 and degs == [1] * (n - 1) + [n - 1]:
        gr = gamma_r_exact(g).size
        if gr == n:
            tag = "star"
        else:
            fail_a = (f"star K_1,{n - 1} has gamma_r = {gr}, expected {n}",)
    # minimum degree 2 means n >= 3, where n // 2 <= n - 2: a pass of
    # known-b settles known-a
    elif (found_b is None or found_b.violations) and not _within(cert or _certifier(g), n - 2):
        fail_a = (f"gamma_r = {gamma_r_exact(g).size} exceeds n - 2 = {n - 2}",)
    return Finding(fail_a, tag=tag), found_b


def verify_known_bounds(max_n: int, jobs: int = 1) -> list[VerificationReport]:
    """Classical bounds over all connected graphs up to max_n: gamma_r <= n-2
    except for stars (where it is n), and gamma_r <= n/2 when the minimum
    degree is at least 2, except for the 5-cycle."""
    t0 = time.perf_counter()
    rep_a = VerificationReport("known-a", f"connected graphs, 2 <= n <= {max_n}")
    rep_b = VerificationReport(
        "known-b", f"connected graphs with min degree >= 2, n <= {max_n}, except C5"
    )
    tags = _fold([rep_a, rep_b], _check_classes(_known_bounds_worker, "all", max_n, jobs, min_n=2))
    rep_a.notes.append(f"{tags['star']} stars matched gamma_r = n exactly")
    rep_b.notes.append(f"C5 exception hit {tags['C5']} time(s)")
    return _timed([rep_a, rep_b], t0)


def _lemma1_worker(g: Graph) -> tuple[Finding]:
    """The construction's problems on g; its note gives |D| and |L|."""
    # imported here, as in audit_lemma1: no other check needs the builder
    from rdom.construct import lemma1_construct

    trace = lemma1_construct(g)
    size = trace.d.bit_count()
    ell = large_vertices(g).bit_count()
    note = f"{write_graph6(g)}: |D| = {size}, |L| = {ell}, gap {ell - size}"
    return (Finding(tuple(_construction_problems(g, trace)), note),)


def verify_lemma1(max_n: int, jobs: int = 1) -> list[VerificationReport]:
    """Run the constructive RD-set builder on every connected degree-bipartite
    special subcubic graph up to max_n and audit the construction."""
    t0 = time.perf_counter()
    report = VerificationReport(
        "lem1", f"connected degree-bipartite special subcubic graphs, n <= {max_n}"
    )
    _fold([report], _check_classes(_lemma1_worker, "degree-bipartite", max_n, jobs))
    return _timed([report], t0)


def audit_lemma1(g: Graph) -> list[str]:
    """All constructive-step facts violated by the builder on g (empty list
    when everything checks out)."""
    from rdom.construct import lemma1_construct

    if not is_degree_bipartite(g):
        return ["precondition does not hold"]
    return _construction_problems(g, lemma1_construct(g))


def _construction_problems(g: Graph, trace: Lemma1Trace) -> list[str]:
    """The facts of ``audit_lemma1`` checked on a construction already built."""
    problems = []
    d = trace.d
    ell = large_vertices(g).bit_count()
    if not is_restrained_dominating(g, d):
        problems.append("output is not a restrained dominating set")
    if d.bit_count() > ell:
        problems.append(f"|D| = {d.bit_count()} exceeds |L| = {ell}")
    if not _within(_certifier(g), ell):
        problems.append(f"solver minimum {gamma_r_exact(g).size} exceeds |L| = {ell}")
    l2_1, l2_2, l2_3 = trace.l2_by_degree
    for v in bits_of(trace.s1):
        if (g.adj[v] & trace.l1).bit_count() != 1:
            problems.append(f"s1 vertex {v} does not have exactly one l1 neighbor")
    for v in bits_of(trace.l1):
        if g.adj[v] & ~trace.s1 or g.adj[v].bit_count() != 3:
            problems.append(f"l1 vertex {v} is not the center of a K_1,3 inside l1+s1")
    for v in bits_of(trace.s2):
        if g.adj[v] & ~(l2_1 | l2_2):
            problems.append(f"s2 vertex {v} has a neighbor outside the lightly-saturated classes")
    if 2 * trace.s2.bit_count() != 2 * l2_1.bit_count() + l2_2.bit_count():
        problems.append("edge count between s2 and its classes is off")
    if trace.s11.bit_count() != l2_3.bit_count():
        problems.append("designated-neighbor set size mismatch")
    if trace.d != trace.l1 | trace.s11 | trace.s2:
        problems.append("output set is not l1 | s11 | s2")
    return problems


# ---------------------------------------------------------------------------


def check_jobs(jobs: int) -> int:
    """A worker count from 1 to the CPU count. A pool starts all its worker
    processes at once, so a larger count only adds processes."""
    cpus = os.cpu_count() or 1
    if not 1 <= jobs <= cpus:
        raise ValueError(f"jobs must be from 1 to {cpus} (the CPU count), got {jobs}")
    return jobs


def _check_subtree(check, item) -> list[tuple[str, tuple]]:
    """Enumerate the classes of one ``sweep_roots`` item and run check on
    each: a ``(graph6, findings)`` row per class. This runs in the worker,
    so a pool splits the enumeration as well as the checks."""
    return [(write_graph6(g), check(g)) for g in connected_classes(*item)]


def _check_classes(check, cls: str, max_n: int, jobs: int, min_n: int = 1) -> list[tuple[str, tuple]]:
    """The ``(graph6, findings)`` rows of check on every connected class of
    cls from min_n to max_n, unsorted. ``_fold`` sorts them by graph6 line,
    hence by order and then certificate: the line is the class's certificate
    and its first byte encodes the order. jobs and the range are checked
    before anything is enumerated; the parent enumerates only the roots."""
    check_jobs(jobs)
    items = sweep_roots(cls, max_n, min_n)
    return [row for part in _run_sweep(partial(_check_subtree, check), items, jobs) for row in part]


def _run_sweep(worker, items: Iterable, jobs: int):
    """worker's result on every item, in item order: the subtrees of
    ``_check_classes``, or the graphs of a supplied corpus."""
    check_jobs(jobs)
    if jobs == 1:
        return [worker(it) for it in items]
    items = list(items)
    # imported here: the pool machinery costs serial callers about 2 MB and
    # a third of the harness import time
    from concurrent.futures import ProcessPoolExecutor

    chunk = max(1, len(items) // (jobs * 8))
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(worker, items, chunksize=chunk))
