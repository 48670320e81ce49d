"""Canonical certificates and isomorphism tests for graphs on at most
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
    return kernels.canonical_form(g.n, g.adj)[0]


# no rdom module calls canonical_graph or are_isomorphic; they stay because
# the benchmark's tracer patches both by name (perfbench/tracer.py, TARGETS)
def canonical_graph(g: Graph) -> Graph:
    """The canonically labeled copy of g (same certificate, fixed labels)."""
    return parse_graph6(canonical_certificate(g))


def are_isomorphic(g1: Graph, g2: Graph) -> bool:
    """Whether g1 and g2 share a certificate. Graphs that differ in order,
    edge count or degree multiset answer False without being labeled."""
    if g1.n != g2.n or g1.edge_count() != g2.edge_count():
        return False
    if sorted(r.bit_count() for r in g1.adj) != sorted(r.bit_count() for r in g2.adj):
        return False
    return canonical_certificate(g1) == canonical_certificate(g2)
