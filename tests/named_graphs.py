"""Named small graphs and vertex relabeling, shared by the tests.

Cycles need at least 3 vertices; ``Graph.from_edges`` rejects the loop or
the doubled edge that ``cycle_graph(1)`` or ``cycle_graph(2)`` would make.
"""

from __future__ import annotations

from itertools import combinations

from rdom.graph import Graph, bits_of


def path_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    return Graph.from_edges(n, list(combinations(range(n), 2)))


def star_graph(leaves: int) -> Graph:
    return Graph.from_edges(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def complete_bipartite(a: int, b: int) -> Graph:
    return Graph.from_edges(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def petersen_graph() -> Graph:
    """Outer 5-cycle 0..4, inner 5-cycle 5..9 joined as a pentagram, spokes
    i -- i+5."""
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    edges += [(i, i + 5) for i in range(5)]
    return Graph.from_edges(10, edges)


def relabel(g: Graph, perm) -> Graph:
    """The copy of g in which vertex v is renamed perm[v]."""
    rows = [0] * g.n
    for v in range(g.n):
        for u in bits_of(g.adj[v]):
            rows[perm[v]] |= 1 << perm[u]
    return Graph(g.n, rows)
