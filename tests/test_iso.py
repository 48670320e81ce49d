from __future__ import annotations

import random
from itertools import combinations

import pytest

from rdom.enumeration import connected_classes
from rdom.graph import Graph, disjoint_union
from rdom.family import family_member
from rdom.graph6 import parse_graph6, write_graph6
from rdom.iso import are_isomorphic, canonical_certificate, canonical_graph
from named_graphs import cycle_graph, path_graph, petersen_graph, relabel
from oracles import brute_isomorphic


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
    with pytest.raises(ValueError):
        are_isomorphic(big, relabel(big, list(range(1, 17)) + [0]))
    # the prefilter answers before labeling: edge counts 17 and 16, then 17
    # edges each with degree multisets {2^17} and {1, 2^15, 3}
    assert are_isomorphic(big, path_graph(17)) is False
    chorded = Graph.from_edges(17, path_graph(17).edges() + [(0, 2)])
    assert chorded.edge_count() == big.edge_count()
    assert are_isomorphic(big, chorded) is False
