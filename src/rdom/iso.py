"""Isomorphism testing and canonical certificates for graphs on at most
``kernels.CERT_MAX_N`` vertices.

The canonical labeling (degree partition, refinement, branching over color
classes) lives in the kernels; this module wraps it with Graph-level
conveniences. A certificate is the graph6 line of the canonically labeled
graph, so two graphs share it iff they are isomorphic, and
``parse_graph6`` turns it back into that graph. Among graphs of one order,
certificates sort as their adjacency bit strings do. The enumerators sort
their output by certificate, and the augmentation tree uses certificates
to catch isomorphic children of one parent.
"""

from __future__ import annotations

from rdom import kernels
from rdom.graph import Graph
from rdom.graph6 import parse_graph6


def canonical_certificate(g: Graph) -> str:
    cert, _ = kernels.canonical_form(g.n, g.adj)
    return cert


def canonical_graph(g: Graph) -> Graph:
    """The canonically labeled copy of g (same certificate, fixed labels)."""
    return parse_graph6(canonical_certificate(g))


def isomorphism(g1: Graph, g2: Graph) -> list[int] | None:
    """An adjacency-preserving bijection g1 -> g2, or None.

    Returned as a list ``phi`` with ``phi[v]`` the image of v.
    """
    if g1.n != g2.n or g1.edge_count() != g2.edge_count():
        return None
    if sorted(r.bit_count() for r in g1.adj) != sorted(r.bit_count() for r in g2.adj):
        return None
    cert1, perm1 = kernels.canonical_form(g1.n, g1.adj)
    cert2, perm2 = kernels.canonical_form(g2.n, g2.adj)
    if cert1 != cert2:
        return None
    phi = [0] * g1.n
    for pos in range(g1.n):
        phi[perm1[pos]] = perm2[pos]
    return phi


def are_isomorphic(g1: Graph, g2: Graph) -> bool:
    return isomorphism(g1, g2) is not None
