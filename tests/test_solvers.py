from __future__ import annotations

import random
from itertools import combinations

import pytest

from rdom.graph import Graph, bits_of, disjoint_union, mask_of, small_vertices, subdivide
from rdom.enumeration import connected_classes
from rdom.family import all_family_members
from rdom.solvers import (
    NERD_TYPE1,
    NERD_TYPE2,
    NerdQuery,
    SolveOutcome,
    gamma_r_at_most,
    gamma_r_exact,
    gamma_r_nerd_at_most,
    gamma_r_nerd_exact,
    is_restrained_dominating,
)
from named_graphs import complete_graph, cycle_graph, path_graph, petersen_graph, star_graph
from oracles import lex_least_mask, naive_is_nerd, naive_is_restrained, naive_min_nerd, naive_min_rd


class TestPredicates:
    def test_full_set_always_works(self):
        for g in (cycle_graph(5), petersen_graph(), star_graph(4)):
            assert is_restrained_dominating(g, g.vertex_mask())

    def test_petersen_shaded_set(self):
        # outer vertices 0,1,2 plus inner vertex 6
        assert is_restrained_dominating(petersen_graph(), mask_of([0, 1, 2, 6]))

    def test_c5_pair_fails(self):
        assert not is_restrained_dominating(cycle_graph(5), mask_of([0, 1]))

    def test_predicates_match_naive(self):
        rng = random.Random(9)
        for _ in range(80):
            n = rng.randrange(1, 8)
            rows = [0] * n
            for i in range(n):
                for j in range(i + 1, n):
                    if rng.random() < 0.35:
                        rows[i] |= 1 << j
                        rows[j] |= 1 << i
            g = Graph(n, rows)
            s = rng.randrange(1 << n)
            assert is_restrained_dominating(g, s) == naive_is_restrained(g, list(bits_of(s)))

    def test_subset_guard(self):
        with pytest.raises(ValueError):
            is_restrained_dominating(cycle_graph(3), 1 << 3)


class TestGammaR:
    def test_petersen(self):
        out = gamma_r_exact(petersen_graph())
        assert out.size == 4
        assert is_restrained_dominating(petersen_graph(), out.witness)

    def test_k4(self):
        assert gamma_r_exact(complete_graph(4)).size == 1

    def test_c7(self):
        assert gamma_r_exact(cycle_graph(7)).size == 3

    def test_star_needs_everything(self):
        assert gamma_r_exact(star_graph(4)).size == 5

    def test_empty_graph(self):
        out = gamma_r_exact(Graph(0, []))
        assert out.size == 0 and out.witness == 0

    def test_additivity_over_components(self):
        parts = [cycle_graph(5), complete_graph(4), path_graph(3)]
        whole = disjoint_union(parts)
        assert gamma_r_exact(whole).size == sum(gamma_r_exact(p).size for p in parts)


class TestNerdSolver:
    def test_c5_type1_any_vertex(self):
        g = cycle_graph(5)
        for v in range(5):
            assert gamma_r_nerd_exact(g, NerdQuery(1 << v, NERD_TYPE1)).size == 2

    def test_r2_twin_exception(self):
        g = [m for m in all_family_members() if m.id == "R2"][0].graph
        out = gamma_r_nerd_exact(g, NerdQuery(1 << 5, NERD_TYPE2))
        assert out.size == 3  # exceeds gamma_r - 1 = 2: the documented exception

    def test_k1_type2_infeasible(self):
        out = gamma_r_nerd_exact(Graph(1, [0]), NerdQuery(1, NERD_TYPE2))
        assert out.status == "infeasible"
        assert not out.optimal

    def test_relaxations_never_exceed_gamma_r(self):
        for m in all_family_members():
            g = m.graph
            gr = gamma_r_exact(g).size
            smalls = list(bits_of(small_vertices(g)))
            subsets = [(v,) for v in smalls] + list(combinations(smalls, 2))
            for ids in subsets:
                q1 = gamma_r_nerd_exact(g, NerdQuery(mask_of(ids), NERD_TYPE1))
                assert q1.optimal and q1.size <= gr
                q2 = gamma_r_nerd_exact(g, NerdQuery(mask_of(ids), NERD_TYPE2))
                if q2.optimal:
                    assert q2.size <= gr + 1


class TestDecisions:
    """The decisions held to the exact solvers: "exceeds" one below the
    minimum, and "within" at it with a witness the predicate accepts.
    Neither outcome reads as optimal."""

    @pytest.mark.parametrize("cls, max_n", [("cubic", 12), ("special-subcubic", 10), ("all", 7)])
    def test_gamma_r_on_corpora(self, cls, max_n):
        checked = 0
        for n in range(1, max_n + 1):
            for g in connected_classes(n, cls):
                gr = gamma_r_exact(g).size
                below = gamma_r_at_most(g, gr - 1)
                assert below.status == "exceeds" and below.witness is None, g.adj
                at = gamma_r_at_most(g, gr)
                assert at.status == "within" and not at.optimal, g.adj
                assert at.size == at.witness.bit_count() == gr, g.adj
                assert is_restrained_dominating(g, at.witness), g.adj
                checked += 1
        assert checked > 100

    def test_nerd_on_catalog_and_subdivisions(self):
        # every degree-2 vertex and pair of a member; every path vertex of
        # its one- to four-fold edge subdivisions
        cases = []
        for m in all_family_members():
            g = m.graph
            smalls = list(bits_of(small_vertices(g)))
            cases += [(g, 1 << v) for v in smalls]
            cases += [(g, 1 << u | 1 << v) for u, v in combinations(smalls, 2)]
            for e in g.edges():
                for t in range(1, 5):
                    sub = subdivide(g, e, t)
                    cases += [(sub, 1 << v) for v in range(g.n, sub.n)]
        for g, x in cases:
            for variant in (NERD_TYPE1, NERD_TYPE2):
                q = NerdQuery(x, variant)
                exact = gamma_r_nerd_exact(g, q)
                if not exact.optimal:
                    assert gamma_r_nerd_at_most(g, q, g.n).status == "exceeds"
                    continue
                if exact.size:
                    assert gamma_r_nerd_at_most(g, q, exact.size - 1).status == "exceeds"
                at = gamma_r_nerd_at_most(g, q, exact.size)
                assert at.status == "within" and at.size == at.witness.bit_count() == exact.size
                assert naive_is_nerd(g, list(bits_of(at.witness)), list(bits_of(x)), variant), (g.adj, x, variant)
        assert len(cases) > 1000


class TestOracleEquivalence:
    def test_gamma_r_small_graphs(self, oracle_connected):
        for n in range(1, 7):
            for g in oracle_connected[n].values():
                expected = naive_min_rd(g)
                out = gamma_r_exact(g)
                assert out.size == expected[0]
                assert is_restrained_dominating(g, out.witness)
                assert out.witness == lex_least_mask(expected[1])

    def test_nerd_small_graphs(self, oracle_connected):
        rng = random.Random(23)
        for n in range(2, 6):
            for g in oracle_connected[n].values():
                x = rng.randrange(1, 1 << n)
                x_ids = list(bits_of(x))
                for variant in (NERD_TYPE1, NERD_TYPE2):
                    expected = naive_min_nerd(g, x_ids, variant)
                    out = gamma_r_nerd_exact(g, NerdQuery(x, variant))
                    if expected is None:
                        assert out.status == "infeasible"
                    else:
                        assert out.size == expected[0]
                        assert out.witness == lex_least_mask(expected[1])


class TestDeterminism:
    def test_repeat_solves_identical(self):
        g = petersen_graph()
        outs = [gamma_r_exact(g) for _ in range(5)]
        assert len({(o.size, o.witness) for o in outs}) == 1

    def test_outcome_helpers(self):
        out = SolveOutcome("optimal", 2, 0b101)
        assert out.witness_ids() == [0, 2]
