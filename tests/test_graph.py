from __future__ import annotations

import pickle
import random
import re

import pytest

from rdom.graph import (
    Graph,
    bits_of,
    components,
    disjoint_union,
    is_connected,
    is_cubic,
    is_degree_bipartite,
    is_special_subcubic,
    mask_of,
    open_twins,
    subdivide,
)
from rdom.family import family_member
from rdom.iso import canonical_certificate, are_isomorphic
from rdom.solvers import NerdQuery
from named_graphs import complete_bipartite, complete_graph, cycle_graph, path_graph, petersen_graph, relabel, star_graph


class TestConstruction:
    def test_rejects_loops(self):
        with pytest.raises(ValueError, match="loop"):
            Graph.from_edges(2, [(0, 0)])

    def test_rejects_duplicate_edges(self):
        with pytest.raises(ValueError, match="duplicate"):
            Graph.from_edges(3, [(0, 1), (1, 0)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Graph.from_edges(2, [(0, 2)])

    def test_rejects_asymmetric_rows(self):
        with pytest.raises(ValueError, match="asymmetric"):
            Graph(2, [0b10, 0b00])

    def test_rejects_beyond_cap(self):
        with pytest.raises(ValueError):
            Graph(65, [0] * 65)

    def test_immutable(self):
        g = cycle_graph(4)
        with pytest.raises(AttributeError):
            g.n = 5

    def test_pickle_round_trip(self):
        for g in (Graph(0, []), cycle_graph(5), petersen_graph()):
            h = pickle.loads(pickle.dumps(g))
            assert h == g and h.adj == g.adj

    def test_unpickling_validates(self):
        # a Graph with asymmetric rows, built around the constructor
        g = object.__new__(Graph)
        object.__setattr__(g, "n", 2)
        object.__setattr__(g, "adj", (0b10, 0b00))
        payload = pickle.dumps(g)
        with pytest.raises(ValueError, match="asymmetric"):
            pickle.loads(payload)


class TestDegree:
    def test_cycle_degrees(self):
        g = cycle_graph(5)
        assert all(g.degree(v) == 2 for v in range(5))

    def test_petersen_cubic(self):
        g = petersen_graph()
        assert all(g.degree(v) == 3 for v in range(10))

    def test_star_center(self):
        assert star_graph(3).degree(0) == 3

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            cycle_graph(4).degree(4)


class TestSpecialSubcubic:
    def test_c5(self):
        assert is_special_subcubic(cycle_graph(5))

    def test_star_is_not(self):
        assert not is_special_subcubic(star_graph(3))

    def test_petersen(self):
        assert is_special_subcubic(petersen_graph())
        assert is_cubic(petersen_graph())

    def test_degree_bipartite(self):
        assert is_degree_bipartite(complete_bipartite(2, 3))
        assert not is_degree_bipartite(cycle_graph(4))
        assert not is_degree_bipartite(petersen_graph())


class TestComponents:
    def test_two_cycles(self):
        g = disjoint_union([cycle_graph(3), cycle_graph(4)])
        comps = components(g)
        assert [c.adj for c in comps] == [cycle_graph(3).adj, cycle_graph(4).adj]
        assert all(is_connected(c) for c in comps)

    def test_connected_identity(self):
        # a connected graph is its own component: no copy
        for g in (petersen_graph(), path_graph(1), star_graph(3)):
            (comp,) = components(g)
            assert comp is g

    def test_interleaved_components(self):
        # vertex ids alternate between the two components: 0-2-4 and 1-3
        g = Graph.from_edges(5, [(0, 2), (2, 4), (1, 3)])
        assert [c.adj for c in components(g)] == [path_graph(3).adj, path_graph(2).adj]

    def test_empty(self):
        assert components(Graph(0, [])) == []

    def test_partition(self):
        g = disjoint_union([path_graph(2), cycle_graph(3), star_graph(2)])
        assert sum(c.n for c in components(g)) == g.n


class TestSubdivide:
    def test_triangle_once_gives_c4(self):
        g = subdivide(cycle_graph(3), (0, 1), 1)
        assert are_isomorphic(g, cycle_graph(4))

    def test_r2_three_times(self):
        m = family_member("R2")
        g = subdivide(m.graph, (0, 1), 3)
        assert g.n == 9
        assert g.degree_profile().n2 == m.profile.n2 + 3

    def test_k4_preserves_endpoint_degrees(self):
        g = subdivide(complete_graph(4), (0, 1), 2)
        assert g.degree(0) == 3 and g.degree(1) == 3
        assert g.degree(4) == 2 and g.degree(5) == 2
        assert g.has_edge(0, 4) and g.has_edge(4, 5) and g.has_edge(5, 1)

    def test_non_edge_rejected(self):
        with pytest.raises(ValueError, match="not an edge"):
            subdivide(path_graph(3), (0, 2), 1)

    def test_cap(self):
        with pytest.raises(ValueError):
            subdivide(cycle_graph(62), (0, 1), 3)

    def test_original_degrees_preserved(self):
        g = petersen_graph()
        h = subdivide(g, (0, 5), 4)
        assert all(h.degree(v) == g.degree(v) for v in range(g.n))


class TestOpenTwins:
    def test_r2(self):
        assert open_twins(family_member("R2").graph) == [(1, 5)]

    def test_c5_none(self):
        assert open_twins(cycle_graph(5)) == []

    def test_k23(self):
        # the three degree-2 vertices pairwise, and the degree-3 side too
        assert open_twins(complete_bipartite(2, 3)) == [(0, 1), (2, 3), (2, 4), (3, 4)]


class TestRelabelInvariance:
    def test_invariants_under_permutation(self):
        rng = random.Random(5)
        for mid in ("R2", "R6", "R10"):
            g = family_member(mid).graph
            for _ in range(5):
                perm = list(range(g.n))
                rng.shuffle(perm)
                h = relabel(g, perm)
                assert sorted(g.degree(v) for v in range(g.n)) == sorted(
                    h.degree(v) for v in range(h.n))
                assert canonical_certificate(g) == canonical_certificate(h)


@pytest.mark.parametrize("call, error", [
    # Graph.from_edges catches these before the constructor sees them
    pytest.param(lambda: Graph(2, [0]), "expected 2 adjacency rows, got 1", id="row-count"),
    pytest.param(lambda: Graph(2, [0b100, 0]), "row 0 references vertices >= 2", id="bit-beyond-n"),
    pytest.param(lambda: Graph(1, [1]), "loop at vertex 0", id="loop-row"),
    pytest.param(lambda: NerdQuery(0, "x"), "variant must be", id="nerd-variant"),
    pytest.param(lambda: subdivide(cycle_graph(3), (0, 1), 0), "must be in 1..4, got 0", id="subdivide-0"),
    pytest.param(lambda: subdivide(cycle_graph(3), (0, 1), 5), "must be in 1..4, got 5", id="subdivide-5"),
    pytest.param(lambda: disjoint_union([complete_graph(40), complete_graph(25)]), "exceeds the 64-vertex cap",
                 id="union-past-64"),
    # the guards that answer False instead of raising
    pytest.param(lambda: is_connected(Graph(0, [])), None, id="empty-not-connected"),
    pytest.param(lambda: is_degree_bipartite(star_graph(3)), None, id="star-not-degree-bipartite"),
])
def test_input_guards(call, error):
    if error is None:
        assert call() is False
        return
    with pytest.raises(ValueError, match=re.escape(error)):
        call()


def test_mask_helpers():
    assert mask_of([0, 3]) == 9
    assert list(bits_of(9)) == [0, 3]
