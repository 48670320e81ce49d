"""Compact immutable graphs with bitset adjacency rows.

A ``Graph`` stores simple undirected graphs on up to 64 vertices; row
``adj[v]`` is the open neighborhood of ``v`` packed into one machine word.
Vertex subsets travel through the whole library as plain ints (``VertexSet``),
vertex 0 in the least significant bit, which keeps every solver and checker
a handful of bitwise operations.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, Iterator, NamedTuple

MAX_N = 64

VertexSet = int  # bitmask over 0..n-1


def bits_of(mask: VertexSet) -> Iterator[int]:
    """Yield the vertex ids set in a mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(vertices: Iterable[int]) -> VertexSet:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


class DegreeProfile(NamedTuple):
    """Counts of degree-2, degree-3, and all other vertices."""

    n2: int
    n3: int
    other: int


class Graph:
    """Simple undirected graph, vertices 0..n-1, adjacency as bitset rows."""

    __slots__ = ("n", "adj")

    def __init__(self, n: int, adj: Iterable[int]):
        if not 0 <= n <= MAX_N:
            raise ValueError(f"vertex count must be in 0..{MAX_N}, got {n}")
        rows = tuple(adj)
        if len(rows) != n:
            raise ValueError(f"expected {n} adjacency rows, got {len(rows)}")
        full = (1 << n) - 1
        for v, row in enumerate(rows):
            if row & ~full:
                raise ValueError(f"row {v} references vertices >= {n}")
            if row >> v & 1:
                raise ValueError(f"loop at vertex {v}")
        for v, row in enumerate(rows):
            for u in bits_of(row):
                if not rows[u] >> v & 1:
                    raise ValueError(f"asymmetric adjacency between {u} and {v}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "adj", rows)

    def __setattr__(self, name, value):
        raise AttributeError("Graph is immutable")

    def __reduce__(self):
        # unpickling goes back through the validating constructor
        return Graph, (self.n, self.adj)

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        rows = [0] * n
        seen = set()
        for u, v in edges:
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            key = (u, v) if u < v else (v, u)
            if key in seen:
                raise ValueError(f"duplicate edge ({u},{v})")
            seen.add(key)
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return cls(n, rows)

    # -- basic queries ----------------------------------------------------

    def degree(self, v: int) -> int:
        if not 0 <= v < self.n:
            raise ValueError(f"vertex {v} out of range for n={self.n}")
        return self.adj[v].bit_count()

    def vertex_mask(self) -> VertexSet:
        return (1 << self.n) - 1

    def edges(self) -> list[tuple[int, int]]:
        out = []
        for v in range(self.n):
            row = self.adj[v] >> (v + 1) << (v + 1)
            for u in bits_of(row):
                out.append((v, u))
        return out

    def edge_count(self) -> int:
        return sum(r.bit_count() for r in self.adj) // 2

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def degree_profile(self) -> DegreeProfile:
        n2 = n3 = 0
        for v in range(self.n):
            d = self.adj[v].bit_count()
            if d == 2:
                n2 += 1
            elif d == 3:
                n3 += 1
        return DegreeProfile(n2, n3, self.n - n2 - n3)

    def __eq__(self, other):
        return isinstance(other, Graph) and self.n == other.n and self.adj == other.adj

    def __hash__(self):
        return hash((self.n, self.adj))

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.edge_count()})"


def is_special_subcubic(g: Graph) -> bool:
    """True iff every vertex has degree 2 or 3."""
    return g.n >= 3 and all(r.bit_count() in (2, 3) for r in g.adj)


def is_cubic(g: Graph) -> bool:
    return g.n >= 4 and all(r.bit_count() == 3 for r in g.adj)


def is_degree_bipartite(g: Graph) -> bool:
    """True iff g is special subcubic and every edge joins a degree-2 vertex
    to a degree-3 vertex (the small/large degree classes form a bipartition)."""
    if not is_special_subcubic(g):
        return False
    small = mask_of(v for v in range(g.n) if g.degree(v) == 2)
    for v in range(g.n):
        if small >> v & 1:
            if g.adj[v] & small:
                return False
        elif g.adj[v] & ~small:
            return False
    return True


def small_vertices(g: Graph) -> VertexSet:
    return mask_of(v for v in range(g.n) if g.degree(v) == 2)


def large_vertices(g: Graph) -> VertexSet:
    return mask_of(v for v in range(g.n) if g.degree(v) == 3)


def reachable_from(g: Graph, start: int) -> VertexSet:
    seen = 1 << start
    frontier = seen
    while frontier:
        nxt = 0
        for v in bits_of(frontier):
            nxt |= g.adj[v]
        frontier = nxt & ~seen
        seen |= frontier
    return seen


def is_connected(g: Graph) -> bool:
    if g.n == 0:
        return False
    return reachable_from(g, 0) == g.vertex_mask()


def components(g: Graph) -> list[tuple[Graph, list[int]]]:
    """Connected components with index maps back to g.

    Returns a list of ``(component, vmap)`` pairs ordered by least original
    vertex id; ``vmap[i]`` is the original id of component vertex ``i`` and
    the map is ascending. A connected g is its own single component, with
    the identity map.
    """
    full = g.vertex_mask()
    out = []
    remaining = full
    while remaining:
        start = (remaining & -remaining).bit_length() - 1
        comp = reachable_from(g, start)
        if comp == full:
            return [(g, list(range(g.n)))]
        vmap = list(bits_of(comp))
        index = {orig: i for i, orig in enumerate(vmap)}
        rows = []
        for orig in vmap:
            row = 0
            for u in bits_of(g.adj[orig] & comp):
                row |= 1 << index[u]
            rows.append(row)
        out.append((Graph(len(vmap), rows), vmap))
        remaining &= ~comp
    return out


def subdivide(g: Graph, edge: tuple[int, int], t: int) -> Graph:
    """Replace edge (x, y) by the path x, v1, ..., vt, y.

    New vertices take ids n..n+t-1 in path order from x; all new vertices
    end with degree 2 and every original degree is preserved.
    """
    x, y = edge
    if not g.has_edge(x, y):
        raise ValueError(f"({x},{y}) is not an edge")
    if not 1 <= t <= 4:
        raise ValueError(f"subdivision count must be in 1..4, got {t}")
    if g.n + t > MAX_N:
        raise ValueError(f"subdivision exceeds the {MAX_N}-vertex cap")
    n = g.n
    rows = list(g.adj) + [0] * t
    rows[x] &= ~(1 << y)
    rows[y] &= ~(1 << x)
    path = [x] + [n + i for i in range(t)] + [y]
    for a, b in zip(path, path[1:]):
        rows[a] |= 1 << b
        rows[b] |= 1 << a
    return Graph(n + t, rows)


def open_twins(g: Graph) -> list[tuple[int, int]]:
    """All unordered pairs of distinct vertices with identical open
    neighborhoods (such pairs are never adjacent in a simple graph)."""
    out = []
    for u, v in combinations(range(g.n), 2):
        if g.adj[u] == g.adj[v]:
            out.append((u, v))
    return out


def disjoint_union(graphs: Iterable[Graph]) -> Graph:
    rows: list[int] = []
    for g in graphs:
        off = len(rows)
        if off + g.n > MAX_N:
            raise ValueError(f"union exceeds the {MAX_N}-vertex cap")
        rows.extend(r << off for r in g.adj)
    return Graph(len(rows), rows)
