"""Isomorphism testing and canonical certificates for graphs on <= 16 vertices.

The canonical labeling (degree partition, refinement, branching over color
classes) lives in the kernels; this module wraps it with Graph-level
conveniences. Certificates are byte strings that agree for two graphs iff
the graphs are isomorphic. The enumerators key each level by certificate
and sort their output by it; their canonical construction paths leave the
keys to catch only isomorphic children of one parent.
"""

from __future__ import annotations

from rdom import kernels
from rdom._pykernels import _pack
from rdom.graph import Graph


def canonical_certificate(g: Graph) -> bytes:
    cert, _ = kernels.canonical_form(g.n, g.adj)
    return cert


def canonical_graph(g: Graph) -> Graph:
    """The canonically labeled copy of g (same certificate, fixed labels)."""
    _, perm = kernels.canonical_form(g.n, g.adj)
    pos = {orig: i for i, orig in enumerate(perm)}
    rows = [0] * g.n
    for i, orig in enumerate(perm):
        row = g.adj[orig]
        while row:
            low = row & -row
            rows[i] |= 1 << pos[low.bit_length() - 1]
            row ^= low
    return Graph(g.n, rows)


def certificate_to_graph(cert: bytes) -> Graph:
    """Rebuild the canonical graph from a certificate."""
    n = cert[0]
    rows = [0] * n
    k = 0
    for j in range(1, n):
        for i in range(j):
            if cert[1 + (k >> 3)] >> (7 - (k & 7)) & 1:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
            k += 1
    return Graph(n, rows)


def labeled_certificate(g: Graph) -> bytes:
    """g's adjacency packed in the certificate format under g's own labels.

    The inverse of ``certificate_to_graph``: for the canonically labeled
    graphs that it returns, and that the enumerators emit, this is the
    certificate, obtained without a labeling search.
    """
    return _pack(g.n, g.adj, range(g.n))


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
