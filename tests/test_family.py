from __future__ import annotations

import random

import pytest

from rdom.enumeration import connected_classes
from rdom.family import MEMBER_IDS, all_family_members, classify_brdom, family_member, weight
from rdom.graph import Graph, disjoint_union, is_connected, is_special_subcubic
from rdom.iso import are_isomorphic, canonical_certificate
from rdom.solvers import gamma_r_exact
from named_graphs import cycle_graph, petersen_graph, relabel, star_graph

EXPECTED_ORDERS = {"R1": 5, "R2": 6, "R3": 8, "R4": 8, "R5": 8,
                   "R6": 11, "R7": 11, "R8": 11, "R9": 11, "R10": 7}
EXPECTED_OMEGA = {"R1": 5, "R2": 2, "R3": 2, "R4": 4, "R5": 4,
                  "R6": 1, "R7": 1, "R8": 1, "R9": 3, "R10": 1}
EXPECTED_GAMMA_R = {"R1": 3, "R2": 3, "R3": 4, "R4": 4, "R5": 4,
                    "R6": 5, "R7": 5, "R8": 5, "R9": 5, "R10": 3}
EXPECTED_PROFILE = {"R1": (5, 0), "R2": (4, 2), "R3": (6, 2), "R4": (4, 4), "R5": (4, 4),
                    "R6": (5, 6), "R7": (5, 6), "R8": (5, 6), "R9": (3, 8), "R10": (1, 6)}


class TestCatalogInvariants:
    def test_orders(self):
        for m in all_family_members():
            assert m.graph.n == EXPECTED_ORDERS[m.id]

    def test_omega_classes(self):
        for m in all_family_members():
            assert m.omega_class == EXPECTED_OMEGA[m.id]

    def test_gamma_r_matches_solver(self):
        for m in all_family_members():
            assert m.gamma_r == EXPECTED_GAMMA_R[m.id]
            assert gamma_r_exact(m.graph).size == m.gamma_r

    def test_degree_profiles(self):
        for m in all_family_members():
            assert (m.profile.n2, m.profile.n3) == EXPECTED_PROFILE[m.id]
            assert m.profile.other == 0

    def test_connected_special_subcubic_with_small_vertex(self):
        for m in all_family_members():
            assert is_connected(m.graph)
            assert is_special_subcubic(m.graph)
            assert m.profile.n2 >= 1
        assert family_member("R9").profile.n2 == 3
        assert family_member("R10").profile.n2 == 1
        for mid in MEMBER_IDS[:8]:
            assert family_member(mid).profile.n2 >= 4

    def test_weight_identity(self):
        for m in all_family_members():
            assert 10 * m.gamma_r == weight(m.graph).w

    def test_unknown_id(self):
        with pytest.raises(ValueError):
            family_member("R11")


class TestClassify:
    def test_c5_is_r1(self):
        assert classify_brdom(cycle_graph(5)) == ("R1", 5)

    def test_petersen_not_in_catalog(self):
        assert classify_brdom(petersen_graph()) is None

    def test_r4_by_construction(self):
        g = Graph.from_edges(8, [(i, (i + 1) % 8) for i in range(8)] + [(0, 4), (2, 6)])
        assert classify_brdom(g) == ("R4", 4)

    def test_invariant_under_relabeling(self):
        rng = random.Random(31)
        for m in all_family_members():
            for _ in range(4):
                perm = list(range(m.graph.n))
                rng.shuffle(perm)
                assert classify_brdom(relabel(m.graph, perm)) == (m.id, m.omega_class)

    def test_non_subcubic_rejected_fast(self):
        assert classify_brdom(star_graph(4)) is None

    def test_certificate_lookup_answers_as_pairwise_isomorphism(self):
        # the first member isomorphic to g names it, on every connected
        # special subcubic graph of orders 3..10 and on relabeled members
        graphs = [g for n in range(3, 11) for g in connected_classes(n, "special-subcubic")]
        assert len(graphs) == 706
        rng = random.Random(19)
        for m in all_family_members():
            for _ in range(20):
                perm = list(range(m.graph.n))
                rng.shuffle(perm)
                graphs.append(relabel(m.graph, perm))
        for g in graphs:
            want = next(((m.id, m.omega_class) for m in all_family_members() if are_isomorphic(g, m.graph)), None)
            assert classify_brdom(g) == want

    def test_member_certificates_are_distinct(self):
        certs = {canonical_certificate(m.graph) for m in all_family_members()}
        assert len(certs) == len(MEMBER_IDS) == 10


class TestWeight:
    def test_petersen(self):
        rep = weight(petersen_graph())
        assert (rep.n2, rep.n3, rep.omega, rep.w) == (0, 10, 0, 40)

    def test_r1(self):
        rep = weight(cycle_graph(5))
        assert rep.w == 30
        assert rep.f == (0, 0, 0, 0, 1)

    def test_union_r2_r9(self):
        g = disjoint_union([family_member("R2").graph, family_member("R9").graph])
        rep = weight(g)
        assert rep.omega == 2 + 3
        assert rep.w == 30 + 50
        assert rep.f == (0, 1, 1, 0, 0)

    def test_members_name_the_catalog_components(self):
        g = disjoint_union([family_member("R9").graph, cycle_graph(6), family_member("R2").graph])
        assert sorted(weight(g).members) == ["R2", "R9"]
        assert weight(petersen_graph()).members == ()

    def test_additive_over_components(self):
        parts = [cycle_graph(6), family_member("R4").graph, petersen_graph()]
        whole = disjoint_union(parts)
        assert weight(whole).w == sum(weight(p).w for p in parts)

    def test_rejects_non_special_subcubic(self):
        with pytest.raises(ValueError):
            weight(star_graph(3))


class TestFamilyCompleteness:
    def test_members_are_exactly_the_small_violators(self):
        """Over connected special subcubic graphs with n <= 8, the graphs
        violating 10*gamma_r <= 5*n2 + 4*n3 are exactly the catalog members
        of those orders."""
        violators = []
        member_certs = set()
        for m in all_family_members():
            if m.graph.n <= 8:
                member_certs.add(canonical_certificate(m.graph))
        seen = set()
        for n in range(3, 9):
            for g in connected_classes(n, "special-subcubic"):
                gr = gamma_r_exact(g).size
                prof = g.degree_profile()
                if 10 * gr > 5 * prof.n2 + 4 * prof.n3:
                    violators.append(canonical_certificate(g))
                seen.add(canonical_certificate(g))
        assert set(violators) == member_certs
        assert len(violators) == 6  # R1, R2, R3, R4, R5, R10
        assert member_certs <= seen
