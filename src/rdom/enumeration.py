"""Isomorph-free generation of small graph corpora.

The workhorse grows connected graphs one vertex at a time by canonical
construction paths (McKay, *Isomorph-free exhaustive generation*, J.
Algorithms 26, 1998). Every level holds one representative per
isomorphism class. Each representative is extended by a new vertex
attached to one eligible subset per orbit of the automorphisms found
while labeling it, and degree-feasibility pruning discards partial graphs
that can no longer reach the target class. A child is labeled only when
no vertex whose deletion leaves it connected ranks above the new vertex
by degree and then a vertex invariant, which turns most children away
before labeling; the first child to reach a certificate represents its
class. Because every connected graph admits a build order with all
prefixes connected, attaching to at least one existing vertex loses
nothing.

Graph classes:
  * ``cubic``             every vertex of final degree 3
  * ``special-subcubic``  every vertex of final degree 2 or 3
  * ``degree-bipartite``  special subcubic with the degree classes a
    bipartition; generated directly by subdividing every edge of a loopless
    3-regular multigraph (each degree-2 vertex contracts to one multiedge),
    which also shows such graphs only exist at orders divisible by 5
  * ``all``               no degree constraint (kept small; used for the
    known-bounds sweeps)

Disconnected corpora are composed from connected classes, one multiset of
components per isomorphism class. Output order is always sorted canonical
certificates, so repeated runs emit byte-identical streams.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Callable, Iterator

from rdom import kernels
from rdom.graph import Graph, disjoint_union, is_cubic, is_degree_bipartite, is_special_subcubic, mask_of
from rdom.iso import canonical_certificate, certificate_to_graph, labeled_certificate

CLASS_CAPS = {"cubic": 14, "special-subcubic": 11, "degree-bipartite": 12, "all": 9}

CLASS_PREDICATES: dict[str, Callable[[Graph], bool]] = {
    "cubic": is_cubic,
    "special-subcubic": is_special_subcubic,
    "degree-bipartite": is_degree_bipartite,
    "all": lambda g: True,
}

_MIN_ORDER = {"cubic": 4, "special-subcubic": 3, "degree-bipartite": 5, "all": 1}


@dataclass(frozen=True)
class EnumSpec:
    n: int
    graph_class: str
    connected_only: bool = True

    def __post_init__(self):
        if self.graph_class not in CLASS_CAPS:
            raise ValueError(f"unknown graph class {self.graph_class!r}")
        if self.n > CLASS_CAPS[self.graph_class]:
            raise ValueError(
                f"n={self.n} exceeds the cap {CLASS_CAPS[self.graph_class]} "
                f"for class {self.graph_class!r}"
            )


def _feasible_cubic(degs: list[int], r: int) -> bool:
    total = 0
    for d in degs:
        need = 3 - d
        if need > r:
            return False
        total += need
    if total > 3 * r or (3 * r - total) % 2:
        return False
    # edges among the r future vertices cannot exceed C(r, 2)
    if total < 3 * r - r * (r - 1):
        return False
    return True


def _feasible_ss(degs: list[int], r: int) -> bool:
    total = 0
    for d in degs:
        need = 2 - d
        if need > 0:
            if need > r:
                return False
            total += need
    return total <= 3 * r


def _one_per_orbit(subsets, autos):
    """Yield ``(subset, mask)`` for the first subset of each orbit of the
    group generated by ``autos`` (tuples with ``g[v]`` the image of ``v``),
    taking ``subsets`` (tuples of vertices, all of one size) in order."""
    covered = set()
    for subset in subsets:
        mask = mask_of(subset)
        if autos:
            if mask in covered:
                continue
            covered.add(mask)
            orbit = [mask]
            for x in orbit:
                for g in autos:
                    y = 0
                    rest = x
                    while rest:
                        low = rest & -rest
                        y |= 1 << g[low.bit_length() - 1]
                        rest ^= low
                    if y not in covered:
                        covered.add(y)
                        orbit.append(y)
        yield subset, mask


def _is_cut(rows, u):
    """Whether deleting u disconnects the connected graph with these rows."""
    row = rows[u]
    if not row & (row - 1):
        return False  # a leaf
    rest = ((1 << len(rows)) - 1) ^ (1 << u)
    seen = frontier = row & -row
    while frontier:
        low = frontier & -frontier
        frontier ^= low
        new = rows[low.bit_length() - 1] & rest & ~seen
        seen |= new
        frontier |= new
    return seen != rest


def _invariant(rows, degs, u):
    """The sum of u's neighbour degrees, twice the edges among its
    neighbours and the size of its second neighbourhood, one byte each (all
    below 256 for n <= 16) so that integer order is tuple order. After the
    degree it ranks the candidates for deletion."""
    row = rows[u]
    s1 = tri = 0
    reach = row | 1 << u
    rest = row
    while rest:
        low = rest & -rest
        rest ^= low
        w = low.bit_length() - 1
        s1 += degs[w]
        tri += (rows[w] & row).bit_count()
        reach |= rows[w]
    return (s1 << 16) | (tri << 8) | (reach & ~row & ~(1 << u)).bit_count()


def _beaten(rows, degs, v):
    """Whether a non-cut vertex other than v ranks above v by degree, then
    by ``_invariant``; v is the last vertex."""
    dv = degs[v]
    fv = None
    for u in range(v):
        du = degs[u]
        if du < dv:
            continue
        if du == dv:
            if fv is None:
                fv = _invariant(rows, degs, v)
            if _invariant(rows, degs, u) <= fv:
                continue
        if not _is_cut(rows, u):
            return True
    return False


def _augment_classes(n: int, cls: str) -> list[Graph]:
    """Connected classes of order n for cubic / special-subcubic / all.

    A level holds the connected graphs with maximum degree at most 3
    (any degree for "all") that can still be completed with the vertices
    left, keyed by certificate and kept with the automorphisms their
    labeling found. Deletion rule for a child G = P + v: the deletable
    vertices D are the non-cut vertices of G, ranked by degree, then by
    ``_invariant``. ``_beaten`` rejects G before labeling when a vertex of
    D ranks above v; it tests connectivity only for those vertices.

    * Deleting any u in D leaves a graph of the previous level: G - u is
      connected, and ``_feasible_cubic`` / ``_feasible_ss`` stay true with
      one more vertex to add. Each vertex's need grows by at most one, and
      for cubic the other conditions reduce to r + deg(u) >= 3, which the
      per-vertex check 3 - deg(u) <= r already guarantees.
    * Completeness: take c top-ranked in D for a graph G of the level. It
      reduces to P = G - c with P in the previous level (up to
      isomorphism). The representative of P is extended by an attachment
      in the orbit of c's neighbourhood, which yields a copy of G in which
      the new vertex ranks with c, so it is labeled.
    * The dict keeps one representative per class: the first child to
      reach a certificate, with the automorphisms found while labeling it.
    """
    if n < _MIN_ORDER[cls]:
        return []
    if cls == "cubic" and n % 2:
        return []
    level: dict[bytes, tuple[tuple[int, ...], list]] = {b"\x01": ((0,), [])}
    for size in range(1, n):
        r_after = n - size - 1
        nxt: dict[bytes, tuple[tuple[int, ...], list]] = {}
        for rows, autos in level.values():
            if cls == "all":
                eligible = list(range(size))
                max_sz = size
            else:
                eligible = [v for v in range(size) if rows[v].bit_count() < 3]
                max_sz = 3
            for sz in range(1, min(max_sz, len(eligible)) + 1):
                if cls == "cubic" and 3 - sz > r_after:
                    continue
                if cls == "special-subcubic" and 2 - sz > r_after:
                    continue
                for combo, attach in _one_per_orbit(combinations(eligible, sz), autos):
                    new_rows = list(rows)
                    for u in combo:
                        new_rows[u] |= 1 << size
                    new_rows.append(attach)
                    degs = [row.bit_count() for row in new_rows]
                    if cls == "cubic":
                        if not _feasible_cubic(degs, r_after):
                            continue
                    elif cls == "special-subcubic":
                        if max(degs) > 3 or not _feasible_ss(degs, r_after):
                            continue
                    if _beaten(new_rows, degs, size):
                        continue
                    found = []
                    cert, _ = kernels.canonical_form(size + 1, new_rows, found)
                    if cert not in nxt:
                        nxt[cert] = (tuple(new_rows), found)
        level = nxt
    predicate = CLASS_PREDICATES[cls]
    out = []
    for cert in sorted(level):
        g = certificate_to_graph(cert)
        if predicate(g):
            out.append(g)
    return out


def _cubic_multigraphs(num_vertices: int) -> list[dict[tuple[int, int], int]]:
    """Connected loopless 3-regular multigraphs as edge-multiplicity maps."""
    pairs = list(combinations(range(num_vertices), 2))
    found: list[dict[tuple[int, int], int]] = []

    def backtrack(idx: int, deg: list[int], mult: dict[tuple[int, int], int]):
        if idx == len(pairs):
            if all(d == 3 for d in deg):
                # connectivity of the support graph
                support = [0] * num_vertices
                for (a, b), m in mult.items():
                    if m:
                        support[a] |= 1 << b
                        support[b] |= 1 << a
                seen = 1
                frontier = 1
                while frontier:
                    nxt = 0
                    v = 0
                    f = frontier
                    while f:
                        if f & 1:
                            nxt |= support[v]
                        f >>= 1
                        v += 1
                    frontier = nxt & ~seen
                    seen |= frontier
                if seen == (1 << num_vertices) - 1:
                    found.append(dict(mult))
            return
        a, b = pairs[idx]
        cap = min(3 - deg[a], 3 - deg[b])
        for m in range(cap + 1):
            deg[a] += m
            deg[b] += m
            mult[(a, b)] = m
            backtrack(idx + 1, deg, mult)
            deg[a] -= m
            deg[b] -= m
        del mult[(a, b)]

    backtrack(0, [0] * num_vertices, {})
    return found


def _degree_bipartite_classes(n: int) -> list[Graph]:
    """Connected degree-bipartite special subcubic graphs of order n.

    Counting edges from each side of the bipartition forces
    #degree-2 = 3/2 * #degree-3, so n = 5/2 * #degree-3 and only orders
    divisible by 5 occur. Each such graph is the once-per-edge subdivision
    of a connected loopless 3-regular multigraph on the degree-3 vertices.
    """
    if n < 5 or n % 5:
        return []
    num_large = 2 * n // 5
    certs = set()
    for mult in _cubic_multigraphs(num_large):
        edges = []
        nxt = num_large
        for (a, b), m in mult.items():
            for _ in range(m):
                edges.append((a, nxt))
                edges.append((b, nxt))
                nxt += 1
        certs.add(canonical_certificate(Graph.from_edges(n, edges)))
    return [certificate_to_graph(c) for c in sorted(certs)]


@lru_cache(maxsize=None)
def connected_classes(n: int, cls: str) -> tuple[Graph, ...]:
    """One canonical representative per isomorphism class, sorted by
    certificate. Cached: corpora are reused heavily by the harness."""
    if cls == "degree-bipartite":
        return tuple(_degree_bipartite_classes(n))
    return tuple(_augment_classes(n, cls))


def _all_classes(n: int, cls: str) -> list[Graph]:
    """Connected and disconnected classes of order n."""
    minimum = _MIN_ORDER[cls]

    unions: list[Graph] = []

    # components are chosen in non-decreasing (order, certificate) key; the
    # index into the certificate-sorted connected_classes orders the same way
    def compose(remaining: int, min_key, chosen: list[Graph]):
        if remaining == 0:
            if len(chosen) > 1:
                unions.append(disjoint_union(chosen))
            return
        if remaining < minimum:
            return
        for m in range(minimum, remaining + 1):
            for i, g in enumerate(connected_classes(m, cls)):
                key = (m, i)
                if key < min_key:
                    continue
                compose(remaining - m, key, chosen + [g])

    compose(n, (0, 0), [])
    labeled = [(labeled_certificate(g), g) for g in connected_classes(n, cls)]
    for g in unions:
        cert = canonical_certificate(g)
        labeled.append((cert, certificate_to_graph(cert)))
    labeled.sort(key=lambda pair: pair[0])
    return [g for _, g in labeled]


def enumerate_graphs(spec: EnumSpec) -> Iterator[Graph]:
    """Exactly one representative per isomorphism class of the requested
    class and order, in sorted-certificate order."""
    if spec.connected_only:
        yield from connected_classes(spec.n, spec.graph_class)
    else:
        yield from _all_classes(spec.n, spec.graph_class)
