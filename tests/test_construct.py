from __future__ import annotations

import pytest

from rdom.certify import is_restrained_dominating
from rdom.construct import Lemma1Trace, gamma_r_cycle, gamma_r_path, lemma1_construct
from rdom.enumeration import connected_classes
from rdom.graph import is_degree_bipartite, large_vertices, subdivide
from rdom.graph6 import parse_graph6
from rdom.harness import audit_lemma1
from rdom.solvers import gamma_r_exact
from named_graphs import complete_bipartite, complete_graph, cycle_graph, path_graph, petersen_graph


class TestClosedFormulas:
    @pytest.mark.parametrize("n,expected", [(1, 1), (4, 2), (7, 3)])
    def test_path_values(self, n, expected):
        assert gamma_r_path(n) == expected

    @pytest.mark.parametrize("n,expected", [(3, 1), (5, 3), (6, 2)])
    def test_cycle_values(self, n, expected):
        assert gamma_r_cycle(n) == expected

    def test_path_matches_solver(self):
        for n in range(1, 16):
            assert gamma_r_path(n) == gamma_r_exact(path_graph(n)).size

    def test_cycle_matches_solver(self):
        for n in range(3, 16):
            assert gamma_r_cycle(n) == gamma_r_exact(cycle_graph(n)).size

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            gamma_r_path(0)
        with pytest.raises(ValueError):
            gamma_r_cycle(2)


def subdivided_k4():
    g = complete_graph(4)
    for x, y in complete_graph(4).edges():
        g = subdivide(g, (x, y), 1)
    return g


class TestLemma1:
    def test_k23(self):
        g = complete_bipartite(2, 3)
        d = lemma1_construct(g).d
        assert d.bit_count() == 2
        assert is_restrained_dominating(g, d)
        assert gamma_r_exact(g).size == 2

    def test_subdivided_k4(self):
        g = subdivided_k4()
        assert g.n == 10
        d = lemma1_construct(g).d
        assert d.bit_count() <= 4
        assert is_restrained_dominating(g, d)
        assert gamma_r_exact(g).size <= 4

    def test_c4_rejected(self):
        with pytest.raises(ValueError):
            lemma1_construct(cycle_graph(4))

    def test_cubic_rejected(self):
        with pytest.raises(ValueError):
            lemma1_construct(petersen_graph())

    def test_precondition_is_degree_bipartite(self):
        # the builder takes exactly the degree-bipartite graphs, including
        # the ones with no degree-2--degree-2 edge but a degree-3--degree-3 one
        for n in range(3, 10):
            for g in connected_classes(n, "special-subcubic"):
                if is_degree_bipartite(g):
                    lemma1_construct(g)
                else:
                    with pytest.raises(ValueError):
                        lemma1_construct(g)

    def test_audit_rejects_a_degree_3_edge(self):
        # G?LTMO has no edge between degree-2 vertices, but it does have
        # one between degree-3 vertices
        g = parse_graph6("G?LTMO")
        assert not is_degree_bipartite(g)
        assert audit_lemma1(g) == ["precondition does not hold"]

    def test_trace_fields(self):
        g = complete_bipartite(2, 3)
        trace = lemma1_construct(g)
        assert isinstance(trace, Lemma1Trace)
        assert trace.d == trace.l1 | trace.s11 | trace.s2
        assert trace.s11 | trace.s12 == trace.s1
        assert not trace.s11 & trace.s12

    def test_deterministic_choices(self):
        # greedy by ascending id: the first degree-3 vertex always enters l1
        g = complete_bipartite(2, 3)
        trace = lemma1_construct(g)
        assert trace.l1 == 1 << 0
        assert trace.s11 == 1 << 2  # lowest-id choice for the saturated vertex

    def test_construction_facts_on_full_sweep(self):
        checked = 0
        for n in range(3, 13):
            for g in connected_classes(n, "degree-bipartite"):
                assert audit_lemma1(g) == []
                d = lemma1_construct(g).d
                ell = large_vertices(g).bit_count()
                assert d.bit_count() <= ell
                assert gamma_r_exact(g).size <= ell
                checked += 1
        assert checked == 3  # K_{2,3} plus the two order-10 graphs
