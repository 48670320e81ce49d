"""Closed formulas and the constructive RD-set builder for degree-bipartite
special subcubic graphs.

``lemma1_construct`` realizes, step by step, the constructive argument that
a special subcubic graph whose degree-2 and degree-3 vertices form the two
sides of a bipartition has a restrained dominating set no larger than its
set of degree-3 vertices. The intermediate sets are returned in a trace, a
``Lemma1Trace`` NamedTuple, so callers can audit every step.
"""

from __future__ import annotations

from typing import NamedTuple

from rdom.graph import Graph, VertexSet, bits_of, is_degree_bipartite, small_vertices


def gamma_r_path(n: int) -> int:
    """Restrained domination number of the n-vertex path: n - 2*floor((n-1)/3)."""
    if n < 1:
        raise ValueError("paths need at least one vertex")
    return n - 2 * ((n - 1) // 3)


def gamma_r_cycle(n: int) -> int:
    """Restrained domination number of the n-cycle: n - 2*floor(n/3)."""
    if n < 3:
        raise ValueError("cycles need at least three vertices")
    return n - 2 * (n // 3)


class Lemma1Trace(NamedTuple):
    """Intermediate sets of the construction, all bitmasks over V(g).

    l1: greedy maximal independent set in the auxiliary graph on the
        degree-3 side (two degree-3 vertices adjacent iff they share a
        degree-2 neighbor).
    s1: degree-2 vertices dominated by l1; s2: the remaining degree-2 ones.
    l2_by_degree: the degree-3 vertices outside l1, partitioned by how many
        neighbors they have in s1 (exactly 1, 2, 3).
    s11: one chosen s1-neighbor per vertex with all three neighbors in s1.
    s12: s1 minus s11.
    d: the output set l1 | s11 | s2.
    """

    l1: VertexSet
    s1: VertexSet
    s2: VertexSet
    l2_by_degree: tuple[VertexSet, VertexSet, VertexSet]
    s11: VertexSet
    s12: VertexSet
    d: VertexSet


def lemma1_construct(g: Graph) -> tuple[VertexSet, Lemma1Trace]:
    """Build an RD-set of size at most the number of degree-3 vertices.

    Deterministic choices: the maximal independent set is greedy by
    ascending vertex id, and the designated s1-neighbor of each fully
    saturated outside vertex is its lowest-id option.
    """
    if not is_degree_bipartite(g):
        raise ValueError("graph is not degree-bipartite special subcubic")
    small = small_vertices(g)
    large = g.vertex_mask() & ~small

    # auxiliary adjacency on the degree-3 side: common degree-2 neighbor
    def aux_adjacent(u: int, w: int) -> bool:
        common = g.adj[u] & g.adj[w] & small
        return bool(common)

    l1 = 0
    for v in bits_of(large):
        if all(not aux_adjacent(v, u) for u in bits_of(l1)):
            l1 |= 1 << v
    s1 = 0
    for v in bits_of(l1):
        s1 |= g.adj[v]
    s1 &= small
    s2 = small & ~s1
    l2 = large & ~l1
    l2_parts = [0, 0, 0]
    for v in bits_of(l2):
        k = (g.adj[v] & s1).bit_count()
        if not 1 <= k <= 3:
            raise AssertionError("outside degree-3 vertex with no dominated neighbor")
        l2_parts[k - 1] |= 1 << v
    s11 = 0
    for v in bits_of(l2_parts[2]):
        choices = g.adj[v] & s1
        s11 |= choices & -choices  # lowest-id neighbor
    s12 = s1 & ~s11
    d = l1 | s11 | s2
    return d, Lemma1Trace(l1, s1, s2, tuple(l2_parts), s11, s12, d)
