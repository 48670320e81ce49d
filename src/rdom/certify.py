"""Certification by the definitions: the set predicates and the subset walk.

Every claim the library certifies comes down to one question: does the
graph have a restrained dominating set, or a near-RD set, of a given size?
This module answers it with a witness that the definition check accepts,
found by walking vertex subsets. It imports only the standard library and
``rdom.graph``, so no fault in the branch-and-bound solver can vouch for
itself; ``rdom.solvers`` in turn checks every witness it returns against the
same definitions.

  * ``is_restrained_dominating`` and ``is_near_restrained_dominating`` read
    the definitions directly.
  * ``NerdQuery`` names a near-RD relaxation: an exempt set and a variant,
    type 1 (``"ndom"``: the exempt set need not be dominated) or type 2
    (``"dom"``: the exempt set lies outside the set and is dominated, but is
    excused from the outside-neighbor requirement). It is a NamedTuple that
    checks its variant however it is built, ``._replace`` included.
  * ``_constraints`` turns a query into three masks, the one reading of a
    query that both searches share: this module's walk and the kernel
    behind ``rdom.solvers``.
  * ``_certifier`` sets up the walk for one query once. ``exists_set_of_size``
    asks it one size; ``_within(cert, k)`` asks size k and then each smaller
    size down to the walk's floor, for upper bounds; ``_least(cert, k)`` asks
    each size from the floor up to k, for least sizes.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, NamedTuple

from rdom.graph import Graph, VertexSet, bits_of

NERD_TYPE1 = "ndom"
NERD_TYPE2 = "dom"


class _NerdFields(NamedTuple):
    x: VertexSet
    variant: str


class NerdQuery(_NerdFields):
    """Exempt set plus variant tag for near-RD queries."""

    __slots__ = ()

    def __new__(cls, x: VertexSet, variant: str):
        if variant not in (NERD_TYPE1, NERD_TYPE2):
            raise ValueError(f"variant must be {NERD_TYPE1!r} or {NERD_TYPE2!r}")
        return super().__new__(cls, x, variant)

    @classmethod
    def _make(cls, iterable):
        # ``_replace`` builds through here: keep it behind the variant check
        return cls(*iterable)


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


def _constraints(g: Graph, q: NerdQuery | None) -> tuple[int, int, int]:
    """What a set must satisfy on g for q, or for restrained domination when
    q is None, as ``(need, res, out)``: the vertices it must dominate, the
    vertices that need a neighbor outside it when they lie outside it, and
    the vertices forced out of it. Type 1 drops the exempt set from
    ``need``; type 2 drops it from ``res`` and forces it out."""
    full = g.vertex_mask()
    if q is None:
        return full, full, 0
    _check_subset(g, q.x, "exempt set")
    if q.variant == NERD_TYPE1:
        return full & ~q.x, full, 0
    return full, full & ~q.x, q.x


def exists_set_of_size(
    g: Graph, size: int, force_in: int = 0, force_out: int = 0, q: NerdQuery | None = None
) -> int | None:
    """The first restrained dominating set of the exact size, or with q the
    first near-RD set for q, containing force_in and avoiding force_out, in
    ``itertools.combinations`` order over the free vertices; its mask, or
    None if there is none (always when the two forcing sets meet). Under
    type 2 the exempt set joins force_out, so an exempt vertex forced in
    leaves no witness."""
    return _certifier(g, force_in, force_out, q)[1](size)


def _certifier(
    g: Graph, force_in: int = 0, force_out: int = 0, q: NerdQuery | None = None
) -> tuple[int, Callable[[int], int | None]]:
    """The subset walk for one query, set up once: ``(floor, find)``, where
    ``find(size)`` is ``exists_set_of_size`` at that size and every size
    below ``floor`` has no witness.

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
    ``need``.

    The walk also backs up on a trap. Let ``res`` be the vertices that need
    a neighbor outside the set when they lie outside it: every vertex, or
    with a type-2 query every vertex outside the exempt set. Once
    ``free[i]`` is chosen, the forced-out vertices and the free vertices
    before ``free[i]`` that are not chosen lie outside every set below; a
    vertex of ``res`` among them whose neighbors are all chosen is trapped:
    the set only grows below, so the vertex never gets a neighbor outside
    it, and no set below satisfies the definition. A vertex becomes trapped
    in one of two ways. Its last neighbor is chosen: that holds for this
    choice alone, so the walk skips the choice. Or the walk passes over it
    when its neighbors are all chosen already: it stays outside for every
    later choice at this depth, so the walk backs up. Every free vertex
    lies in ``res``, since type 2 forces its exempt vertices out, so only
    the forced-out vertices are filtered by ``res``. Both checks run above
    the last choice, whose sets the definition check tests anyway. A
    forced-out vertex of ``res`` whose neighbors are all forced in is
    trapped before the walk starts.

    A full-size set that dominates ``need`` is accepted only by the
    definition check, ``is_restrained_dominating`` or
    ``is_near_restrained_dominating``. Only sets that miss a vertex q
    requires dominated, or trap a vertex of ``res``, are skipped, so the
    walk returns exactly what testing every subset in ``combinations``
    order would return.

    ``floor`` is the walk's own root prune read as a size: the vertices of
    ``need`` that force_in leaves undominated, ``u`` of them, take at least
    ``ceil(u / reach)`` more vertices, so no witness is smaller than
    ``|force_in| + ceil(u / reach)``. When no free vertex reaches them, the
    forcing sets meet, or a vertex is trapped before the walk starts, there
    is no witness at all and ``floor`` is ``g.n + 1``. ``find`` answers a
    size below ``floor`` without walking."""
    _check_subset(g, force_in | force_out, "forcing set")
    need, res, out = _constraints(g, q)
    force_out |= out
    adj = g.adj
    free = [v for v in range(g.n) if not ((force_in | force_out) >> v & 1)]
    closed = [adj[v] | 1 << v for v in free]
    reach = max(((c & need).bit_count() for c in closed), default=0)
    cover = [0] * (len(free) + 1)
    for i in range(len(free) - 1, -1, -1):
        cover[i] = cover[i + 1] | closed[i]
    # passed[i]: the vertices of res that lie outside the set once free[i]
    # is chosen, with the chosen ones among free[:i] still to be removed
    passed = [force_out & res]
    for v in free:
        passed.append(passed[-1] | 1 << v)
    dom = 0
    for v in bits_of(force_in):
        dom |= adj[v] | 1 << v
    base = force_in.bit_count()
    undominated = (need & ~dom).bit_count()
    trapped = any(not adj[v] & ~force_in for v in bits_of(passed[0]))
    if force_in & force_out or trapped or (undominated and not reach):
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
            v = free[i]
            pick = mask | 1 << v
            if left == 1:
                # the last choice completes a set: it is tested here, not a level down
                if not need & ~(dom | closed[i]) and accepts(g, pick):
                    return pick
            else:
                # the vertices of res outside the set that v neighbors; the
                # choice is skipped if one of them has no neighbor left outside
                enclosed = adj[v] & passed[i] & ~mask
                while enclosed and adj[(enclosed & -enclosed).bit_length() - 1] & ~pick:
                    enclosed &= enclosed - 1
                if not enclosed:
                    hit = walk(i + 1, dom | closed[i], pick, left - 1)
                    if hit is not None:
                        return hit
                # passed over, v lies outside the set for every later choice here
                if not adj[v] & ~mask:
                    break
        return None

    def find(size: int) -> int | None:
        if size < floor:
            return None
        if size > base:
            return walk(0, dom, force_in, size - base)
        # size == floor == base: force_in dominates need
        return force_in if accepts(g, force_in) else None

    return floor, find


def _within(cert: tuple[int, Callable[[int], int | None]], k: int) -> bool:
    """Whether the walk ``cert`` of ``_certifier`` finds a set of size at
    most k. It asks size k first, then each smaller size down to its root
    bound, and stops at the first hit. Neither a restrained dominating set
    nor a near-RD set need stay one when a vertex joins it, so a miss at
    one size says nothing of the sizes below it; a bound that holds with a
    set of size k searches one size."""
    floor, find = cert
    return any(find(size) is not None for size in range(k, floor - 1, -1))


def _least(cert: tuple[int, Callable[[int], int | None]], k: int) -> int | None:
    """The least size at which the walk ``cert`` of ``_certifier`` finds a
    set, if it is at most k, otherwise None. It asks each size from its
    root bound up to k and stops at the first hit; no size below the bound
    has a set, so the hit is the least size of any."""
    floor, find = cert
    return next((size for size in range(floor, k + 1) if find(size) is not None), None)
