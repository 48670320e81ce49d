"""Isomorph-free generation of small graph corpora.

The workhorse grows connected graphs one vertex at a time by canonical
construction paths (McKay, *Isomorph-free exhaustive generation*, J.
Algorithms 26, 1998), depth first. Each node of the augmentation tree is
extended by a new vertex attached to one eligible subset per orbit of the
automorphisms found while labeling it, and degree-feasibility pruning
discards partial graphs that can no longer reach the target class. A
child is labeled only when no vertex whose deletion leaves it connected
ranks above the new vertex by degree and then vertex invariants, which
turns most children away before labeling. For the classes whose
attachments are capped at 3 vertices, a 3-vertex attachment is made only
when the child's free capacity, the sum of 3 - deg over its vertices,
is exactly (cubic) or at least (special-subcubic) 3 per vertex still to
add: below such a child every later vertex arrives with 3 neighbours
(``_attachments``). A child below the leaf level is
labeled only when it can have a child of its own: some attachment to it
passes the same checks. It is kept only when the new vertex is in the
orbit of its canonical deletion vertex. That one test decides exactly,
because the automorphisms the labeler finds generate the whole
automorphism group (``kernels.canonical_form``), so every class has one
node and no level is ever held in memory. Because
every connected graph admits a build order with all prefixes connected,
attaching to at least one existing vertex loses nothing.

The tree splits into disjoint subtrees two levels above its leaves.
``sweep_roots`` hands their roots out as work items, so a sweep's pool
workers enumerate as well as check, and the items do not depend on the
number of workers. Below the leaf level the cubic and special-subcubic
trees hold only live nodes, those that can have a child.

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

from functools import lru_cache
from itertools import combinations
from typing import Iterator

from rdom import kernels
from rdom.graph import Graph, disjoint_union, is_connected, mask_of
from rdom.graph6 import parse_graph6, write_graph6
from rdom.iso import canonical_certificate

CLASS_CAPS = {"cubic": 14, "special-subcubic": 13, "degree-bipartite": 12, "all": 9}

_MIN_ORDER = {"cubic": 4, "special-subcubic": 3, "degree-bipartite": 5, "all": 1}
_ORDER_STEP = {"cubic": 2, "special-subcubic": 1, "degree-bipartite": 5, "all": 1}


def _has_order(n: int, cls: str) -> bool:
    """Whether cls has connected graphs of order n: it has them exactly at
    the multiples of its step from its minimum order on."""
    return n >= _MIN_ORDER[cls] and n % _ORDER_STEP[cls] == 0


def _check_cap(n: int, cls: str) -> None:
    if cls not in CLASS_CAPS:
        raise ValueError(f"unknown graph class {cls!r}")
    if n > CLASS_CAPS[cls]:
        raise ValueError(f"n={n} exceeds the cap {CLASS_CAPS[cls]} for class {cls!r}")


def _feasible_cubic(degs: list[int], r: int) -> bool:
    """Whether a graph with these degrees can still become cubic with r
    more vertices. ``_attachments`` checks it in three parts: the
    per-vertex needs through its forced vertices, the total per
    attachment size through ``_cubic_total_ok``, and for 3-vertex
    attachments the arrival count, which implies the total check."""
    total = 0
    for d in degs:
        need = 3 - d
        if need > r:
            return False
        total += need
    return _cubic_total_ok(total, r)


def _cubic_total_ok(total: int, r: int) -> bool:
    """Whether r future vertices can supply a total need of total edges."""
    if total > 3 * r or (3 * r - total) % 2:
        return False
    # edges among the r future vertices cannot exceed C(r, 2)
    return total >= 3 * r - r * (r - 1)


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
    neighbours and the size of its second neighbourhood, one byte each so
    that integer order is tuple order. A field must stay below 256: with
    maximum degree at most 3 the fields here and in ``_far_invariant`` are
    at most 9, 6, 6, 18 and 12 at any n, and on at most 16 vertices every
    field stays below 256 whatever the degrees. After the degree it ranks
    the candidates for deletion."""
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


def _far_invariant(rows, degs, u):
    """The degree sum over u's second neighbourhood and the size of its
    third, one byte each. It breaks ties in ``_invariant`` and costs more,
    so it is computed only for vertices that tie there."""
    near = rows[u] | 1 << u
    ring = 0
    rest = rows[u]
    while rest:
        low = rest & -rest
        rest ^= low
        ring |= rows[low.bit_length() - 1]
    ring &= ~near
    s2 = 0
    reach = near | ring
    rest = ring
    while rest:
        low = rest & -rest
        rest ^= low
        w = low.bit_length() - 1
        s2 += degs[w]
        reach |= rows[w]
    return (s2 << 8) | (reach & ~near & ~ring).bit_count()


def _rank_ties(rows, degs, v):
    """None when a non-cut vertex ranks above the last vertex v by degree,
    then by ``_invariant``, then by ``_far_invariant``; otherwise the mask
    of the other vertices that rank with v, cut vertices included. Only the
    vertices that rank above v are tested for connectivity."""
    dv = degs[v]
    fv = gv = None
    ties = 0
    for u in range(v):
        du = degs[u]
        if du < dv:
            continue
        if du == dv:
            if fv is None:
                fv = _invariant(rows, degs, v)
            fu = _invariant(rows, degs, u)
            if fu < fv:
                continue
            if fu == fv:
                if gv is None:
                    gv = _far_invariant(rows, degs, v)
                gu = _far_invariant(rows, degs, u)
                if gu < gv:
                    continue
                if gu == gv:
                    ties |= 1 << u
                    continue
        if not _is_cut(rows, u):
            return None
    return ties


def _deletion_vertex(rows, ties, perm):
    """The canonical deletion vertex of a child whose last vertex v ranks
    with the vertices of ``ties`` and below none (``_rank_ties``): the first
    vertex in canonical order among v and the non-cut vertices of ties."""
    v = len(rows) - 1
    for c in perm:
        if c == v or ties >> c & 1 and not _is_cut(rows, c):
            return c


def _in_orbit(autos, v, c):
    """Whether some product of ``autos`` maps v to c."""
    orbit = [v]
    seen = 1 << v
    for x in orbit:
        for g in autos:
            y = g[x]
            if not seen >> y & 1:
                seen |= 1 << y
                orbit.append(y)
    return bool(seen >> c & 1)


def _attachments(n, cls, rows, autos):
    """The ways to attach a new vertex to the node rows of the tree for
    order n that pass the class's feasibility checks and ``_rank_ties``, one
    per orbit of the group generated by ``autos`` (every one for
    ``autos=()``), lazily. Each comes as ``(new rows, ties)``.

    For cubic and special-subcubic a 3-vertex attachment is also held to
    the arrival count. Let a node P have a non-cut vertex u of degree 3,
    and r more vertices to add.

    * P takes only 3-vertex attachments (u outranks a smaller one), and
      never one to a degree-3 vertex. After one, u is still non-cut, as
      P - u is connected and the new vertex v has a neighbour besides u,
      and u still has degree 3. So the same holds at every node below P:
      each later vertex arrives with 3 neighbours and never gets another
      edge.
    * A leaf below P is therefore P plus r pairwise non-adjacent vertices,
      each with 3 neighbours in P. They take 3r of P's free capacity, the
      sum of 3 - deg over P. A cubic leaf has every degree 3, so the
      capacity must be exactly 3r; a special-subcubic leaf needs at
      least 3r.
    * Every 3-vertex attachment makes such a node: v has degree 3 and
      P + v - v = P is connected. The child's capacity is that of the
      parent less 3, so the count depends on the size alone and cuts
      whole Aut(P)-orbits. For cubic, equality implies
      ``_cubic_total_ok``, which the 3-vertex case therefore skips.

    A child that fails the count has no leaf below it."""
    size = len(rows)
    r_after = n - size - 1
    parent_degs = [row.bit_count() for row in rows]
    if cls == "all":
        forced, free, min_sz, max_sz = (), list(range(size)), 1, size
    else:
        # A vertex that needs more edges than the r_after vertices still to
        # come can give must take the new vertex. The set is Aut(P)-invariant,
        # so it cuts whole orbits of attachments. For cubic it settles the
        # per-vertex part of _feasible_cubic, and the total need after the
        # step depends on the attachment size alone: no cubic candidate
        # needs a check of its own.
        floor = 3 if cls == "cubic" else 2
        forced = tuple(v for v in range(size) if floor - parent_degs[v] > r_after)
        free = [v for v in range(size) if parent_degs[v] < 3 and v not in forced]
        total = sum(3 - d for d in parent_degs)  # the free capacity of P
        # A degree-3 vertex u is never attached. If P - u is connected, so
        # is P + v - u, and u outranks a new vertex v of degree 1 or 2.
        outranked = any(d == 3 and not _is_cut(rows, u) for u, d in enumerate(parent_degs))
        min_sz, max_sz = (3 if outranked else 1), 3
    for sz in range(max(min_sz, len(forced)), min(max_sz, len(forced) + len(free)) + 1):
        if sz == 3 and cls != "all":
            # the arrival count: each of the r_after vertices still to come
            # takes 3 of the child's free capacity total - 3, and for cubic
            # nothing may be left over
            left = total - 3 - 3 * r_after
            if left < 0 or cls == "cubic" and left:
                continue
        elif cls == "cubic" and (3 - sz > r_after or not _cubic_total_ok(total + 3 - 2 * sz, r_after)):
            continue
        elif cls == "special-subcubic" and 2 - sz > r_after:
            continue
        combos = combinations(free, sz - len(forced))
        if forced:
            combos = (forced + rest for rest in combos)
        for combo, attach in _one_per_orbit(combos, autos):
            degs = parent_degs.copy()
            for u in combo:
                degs[u] += 1
            degs.append(sz)
            if cls == "special-subcubic" and not _feasible_ss(degs, r_after):
                continue
            new_rows = list(rows)
            for u in combo:
                new_rows[u] |= 1 << size
            new_rows.append(attach)
            ties = _rank_ties(new_rows, degs, size)
            if ties is not None:
                yield new_rows, ties


def _can_grow(n, cls, rows):
    """Whether some attachment to rows passes the checks of
    ``_attachments``. A node for which none does has no children."""
    return next(_attachments(n, cls, rows, ()), None) is not None


def _canonical_children(n, cls, rows, autos):
    """The children of one node P = rows of the augmentation tree for order
    n, whose automorphisms ``autos`` generate Aut(P): the graphs P + v,
    one per attachment orbit, in which v is in the orbit of the canonical
    deletion vertex and which, below the leaf level, can have a child of
    their own. Each comes as ``(rows, automorphisms, certificate)``, one
    per isomorphism class."""
    size = len(rows)
    # with at most 3 vertices per attachment most children below the leaf
    # level have no child; for "all" the lookahead finds few and costs more
    lookahead = cls != "all" and size + 1 < n
    children = []
    siblings = set()
    for new_rows, ties in _attachments(n, cls, rows, autos):
        if lookahead and not _can_grow(n, cls, new_rows):
            continue
        child_cert, perm, child_autos = kernels.canonical_form(size + 1, new_rows)
        if child_cert in siblings:
            continue
        if ties and not _in_orbit(child_autos, size, _deletion_vertex(new_rows, ties, perm)):
            continue
        siblings.add(child_cert)
        children.append((tuple(new_rows), child_autos, child_cert))
    return children


# the one-vertex graph, the top of every augmentation tree
_TOP = ((0,), (), "@")


def _grow(n, cls, node, level):
    """The nodes at the given level of the tree for order n that lie below
    node (node itself if it is at that level), depth first and lazily: only
    the path down to the current node and its siblings are held."""
    if len(node[0]) == level:
        yield node
        return
    for child in _canonical_children(n, cls, node[0], node[1]):
        yield from _grow(n, cls, child, level)


def _augment_classes(n, cls, root=_TOP):
    """Connected classes of order n for cubic / special-subcubic / all, or
    only those below one node of the augmentation tree.

    Depth-first canonical augmentation. A node of the tree for order n is a
    connected graph with maximum degree at most 3 (any degree for "all")
    that can still be completed with the vertices left, with the
    automorphisms its labeling found and its certificate. Deletion rule for
    a child G = P + v: the deletable vertices D are the non-cut vertices of
    G, ranked by degree, then by ``_invariant``, then by
    ``_far_invariant``; the canonical deletion vertex c is the first vertex
    in canonical order among the top-ranked ones. G is a child of P when v
    is in the Aut(G)-orbit of c.

    * Deleting any u in D leaves a node of the previous level: G - u is
      connected, and ``_feasible_cubic`` / ``_feasible_ss`` stay true with
      one more vertex to add. Each vertex's need grows by at most one, and
      for cubic the other conditions reduce to r + deg(u) >= 3, which the
      per-vertex check 3 - deg(u) <= r already guarantees.
    * Exact orbits: the automorphisms ``kernels.canonical_form`` returns
      generate Aut(G) (its docstring proves it), so ``_in_orbit`` decides
      whether v is in the Aut(G)-orbit of c, and ``_one_per_orbit`` takes
      one attachment per Aut(P)-orbit.
    * Completeness: a graph G of a level reduces to G - c, which is
      isomorphic to some node P of the previous level by induction. P is
      extended by an attachment in the orbit of c's neighbourhood, which
      yields a copy of G in which the new vertex lies in the orbit of c,
      so it is kept.
    * Uniqueness: if G is kept from P1 + v1 and from P2 + v2, then P1 and
      P2 are both isomorphic to G - c, so by induction they are the same
      node P. An isomorphism between the two copies of G that maps v1 to
      v2 restricts to an automorphism of P that maps one attachment onto
      the other, so they are the same attachment. The per-parent
      ``siblings`` set therefore only turns away children that the
      deletion test would reject too; it matters when the orbit pruning is
      off, as some tests switch it. Being per parent, it holds one set per
      node of the current path, never a level.
    * Arrival count: a 3-vertex attachment whose child fails the count of
      ``_attachments`` has no leaf below it, as its docstring shows. So
      skipping it, or a node whose every attachment fails the count,
      loses no leaf, and the deletion test of every other child is
      unchanged.
    * At the leaf level no vertex is left to add: the feasibility checks
      then demand degree 3 everywhere for cubic and at least 2 for
      special-subcubic, and attachments never raise a degree above 3, so
      every leaf is in the class.

    ``_rank_ties`` rejects a child before labeling when a vertex of D ranks
    above v, and otherwise finds the vertices that rank with v, among
    which c is. For cubic and special-subcubic a child below the leaf
    level is labeled only when ``_can_grow`` finds an attachment to it
    that passes the feasibility checks and ``_rank_ties``. Its children
    would be such attachments, and orbit pruning only drops some of them,
    so a child that fails has no children and skipping it loses no leaf.
    The subtrees below the nodes of any one level partition the
    leaves, which lets a sweep hand them to its workers (``sweep_roots``).
    """
    return [parse_graph6(cert) for cert in sorted(leaf[2] for leaf in _grow(n, cls, root, n))]


def _cubic_multigraphs(num_vertices: int) -> list[dict[tuple[int, int], int]]:
    """Connected loopless 3-regular multigraphs as edge-multiplicity maps."""
    pairs = list(combinations(range(num_vertices), 2))
    found: list[dict[tuple[int, int], int]] = []

    def backtrack(idx: int, deg: list[int], mult: dict[tuple[int, int], int]):
        if idx == len(pairs):
            if all(d == 3 for d in deg):
                support = [0] * num_vertices
                for (a, b), m in mult.items():
                    if m:
                        support[a] |= 1 << b
                        support[b] |= 1 << a
                if is_connected(Graph(num_vertices, support)):
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
    return [parse_graph6(c) for c in sorted(certs)]


def connected_classes(n: int, cls: str, root: tuple | None = None) -> tuple[Graph, ...]:
    """One canonical representative per isomorphism class, sorted by
    certificate. With ``root``, a subtree root from ``sweep_roots``, only
    the classes below it. Whole orders are cached, since disconnected
    corpora reuse them as components; a subtree is enumerated once per
    sweep and is not cached. ``connected_classes.cache_clear()`` empties
    the cache. Raises ValueError for an unknown class or an order above its
    cap."""
    if root is None:
        return _whole_order(n, cls)
    _check_cap(n, cls)
    return tuple(_augment_classes(n, cls, root))


@lru_cache(maxsize=None)
def _whole_order(n: int, cls: str) -> tuple[Graph, ...]:
    _check_cap(n, cls)
    if not _has_order(n, cls):
        return ()
    if cls == "degree-bipartite":
        return tuple(_degree_bipartite_classes(n))
    return tuple(_augment_classes(n, cls))


connected_classes.cache_clear = _whole_order.cache_clear


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
    # a canonically labeled graph's graph6 line is its certificate
    labeled = [(write_graph6(g), g) for g in connected_classes(n, cls)]
    for g in unions:
        cert = canonical_certificate(g)
        labeled.append((cert, parse_graph6(cert)))
    labeled.sort(key=lambda pair: pair[0])
    return [g for _, g in labeled]


def _sweep_orders(cls: str, max_n: int, min_n: int) -> list[int]:
    _check_cap(max_n, cls)
    orders = [n for n in range(min_n, max_n + 1) if _has_order(n, cls)]
    if not orders:
        raise ValueError(f"no graph of class {cls!r} has an order from {min_n} to {max_n}")
    return orders


def sweep_roots(cls: str, max_n: int, min_n: int = 1) -> Iterator[tuple]:
    """The connected classes of every order from min_n to max_n, split into
    items for ``connected_classes(*item)`` whose outputs are disjoint: the
    nodes two levels above the leaves of each order's augmentation tree
    (the top for n <= 3), largest orders first, so that a pool starts on
    the largest subtrees. For cubic and special-subcubic the items are live
    nodes: each has an attachment that passes the cheap checks, though the
    deletion test may still reject every child. degree-bipartite has no
    augmentation tree, and each of its orders is one item. The items come
    lazily, so a serial sweep holds one at a time. Raises ValueError, before enumerating
    anything, for an order above the cap or a range that holds no graph of
    the class."""
    orders = reversed(_sweep_orders(cls, max_n, min_n))
    if cls == "degree-bipartite":
        return ((n, cls, None) for n in orders)
    return ((n, cls, root) for n in orders for root in _grow(n, cls, _TOP, max(1, n - 2)))


def enumerate_graphs(n: int, cls: str, connected_only: bool = True) -> Iterator[Graph]:
    """Exactly one representative per isomorphism class of the requested
    class and order, in sorted-certificate order. Raises ValueError for an
    unknown class, a negative order or an order above its cap before
    anything is enumerated."""
    if n < 0:
        raise ValueError(f"n={n} is negative")
    _check_cap(n, cls)
    return iter(connected_classes(n, cls) if connected_only else _all_classes(n, cls))
