from __future__ import annotations

import random
from itertools import combinations

import pytest

from rdom.enumeration import connected_classes
from rdom.graph import Graph, bits_of, complete_graph, cycle_graph, disjoint_union, petersen_graph
from rdom.family import family_member
from rdom.graph6 import parse_graph6, write_graph6
from rdom.iso import are_isomorphic, canonical_certificate, canonical_graph, isomorphism
from oracles import brute_isomorphic


def relabel(g: Graph, perm) -> Graph:
    rows = [0] * g.n
    for v in range(g.n):
        for u in bits_of(g.adj[v]):
            rows[perm[v]] |= 1 << perm[u]
    return Graph(g.n, rows)


def test_c5_relabeled():
    g = cycle_graph(5)
    h = relabel(g, [2, 4, 0, 3, 1])
    assert are_isomorphic(g, h)
    assert canonical_certificate(g) == canonical_certificate(h)


def test_r4_vs_r5_distinct():
    g4 = family_member("R4").graph
    g5 = family_member("R5").graph
    assert not are_isomorphic(g4, g5)
    assert canonical_certificate(g4) != canonical_certificate(g5)
    assert not brute_isomorphic(g4, g5)


def test_connectivity_distinguishes():
    assert not are_isomorphic(cycle_graph(6), disjoint_union([cycle_graph(3), cycle_graph(3)]))


def test_certificate_stable_and_decodable():
    g = petersen_graph()
    c1 = canonical_certificate(g)
    c2 = canonical_certificate(g)
    assert c1 == c2
    back = parse_graph6(c1)
    assert are_isomorphic(back, g)
    assert canonical_certificate(back) == c1
    assert canonical_graph(g).adj == back.adj
    assert write_graph6(back) == c1


def test_certificate_is_the_canonical_graph6_line():
    rng = random.Random(5)
    corpus = [g for n in range(4, 11, 2) for g in connected_classes(n, "cubic")]
    for _ in range(200):
        n = rng.randint(0, 16)
        corpus.append(Graph.from_edges(n, [e for e in combinations(range(n), 2) if rng.random() < 0.3]))
    for g in corpus:
        assert canonical_certificate(g) == write_graph6(canonical_graph(g))


def test_witness_is_adjacency_preserving():
    rng = random.Random(3)
    for mid in ("R3", "R7", "R9"):
        g = family_member(mid).graph
        perm = list(range(g.n))
        rng.shuffle(perm)
        h = relabel(g, perm)
        phi = isomorphism(g, h)
        assert phi is not None
        for u in range(g.n):
            for v in bits_of(g.adj[u]):
                assert h.has_edge(phi[u], phi[v])


def test_agrees_with_brute_force_small(oracle_connected):
    # every pair of connected classes on up to 6 vertices, exhaustively
    for n in range(1, 7):
        classes = list(oracle_connected[n].values())
        for g1, g2 in combinations(classes, 2):
            assert not are_isomorphic(g1, g2)
            assert not brute_isomorphic(g1, g2)
    rng = random.Random(17)
    for n in range(2, 7):
        for g in oracle_connected[n].values():
            perm = list(range(n))
            rng.shuffle(perm)
            h = relabel(g, perm)
            assert are_isomorphic(g, h)
            assert brute_isomorphic(g, h)


def test_size_guard():
    big = cycle_graph(17)
    with pytest.raises(ValueError):
        canonical_certificate(big)


def test_self_isomorphism():
    g = complete_graph(4)
    assert isomorphism(g, g) == [0, 1, 2, 3]
