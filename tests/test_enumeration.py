from __future__ import annotations

from itertools import combinations

import pytest

from rdom import enumeration, kernels
from rdom.enumeration import (
    CLASS_PREDICATES,
    EnumSpec,
    _feasible_cubic,
    _feasible_ss,
    _one_per_orbit,
    connected_classes,
    enumerate_graphs,
)
from rdom.graph import complete_bipartite, complete_graph, is_connected, is_special_subcubic, mask_of
from rdom.graph6 import write_graph6
from rdom.iso import are_isomorphic, canonical_certificate, certificate_to_graph
from oracles import _connected, dedupe_augment_classes, labeled_cubic_classes, mask_connected_classes

# the corpora on which the generator is held to the dedupe generator
DIFFERENTIAL = [("cubic", n) for n in range(4, 13, 2)] + \
    [("special-subcubic", n) for n in range(3, 11)] + [("all", n) for n in range(1, 8)]


class TestCubic:
    def test_k4_unique_at_4(self):
        graphs = list(enumerate_graphs(EnumSpec(4, "cubic")))
        assert len(graphs) == 1
        assert are_isomorphic(graphs[0], complete_graph(4))

    def test_counts_match_oracle(self):
        for n in (4, 6, 8):
            ours = {canonical_certificate(g) for g in connected_classes(n, "cubic")}
            oracle = set(labeled_cubic_classes(n))
            assert ours == oracle
        assert len(connected_classes(6, "cubic")) == 2
        assert len(connected_classes(8, "cubic")) == 5

    def test_odd_orders_empty(self):
        assert connected_classes(7, "cubic") == ()

    def test_oeis_counts(self):
        # connected cubic graphs, OEIS A002851; 14 is the class cap
        for n, count in {10: 19, 12: 85, 14: 509}.items():
            assert len(connected_classes(n, "cubic")) == count

    def test_disconnected_at_8(self):
        conn = list(enumerate_graphs(EnumSpec(8, "cubic")))
        allg = list(enumerate_graphs(EnumSpec(8, "cubic", connected_only=False)))
        assert len(conn) == 5 and len(allg) == 6
        extra = [g for g in allg if not is_connected(g)]
        assert len(extra) == 1  # two disjoint K4's
        from rdom.graph import components

        comps = components(extra[0])
        assert [c.n for c, _ in comps] == [4, 4]
        assert all(are_isomorphic(c, complete_graph(4)) for c, _ in comps)


class TestSpecialSubcubic:
    def test_only_triangle_at_3(self):
        graphs = list(enumerate_graphs(EnumSpec(3, "special-subcubic")))
        assert len(graphs) == 1 and graphs[0].edge_count() == 3

    def test_matches_mask_oracle(self):
        for n in range(3, 8):
            ours = {canonical_certificate(g) for g in connected_classes(n, "special-subcubic")}
            oracle = set(mask_connected_classes(n, is_special_subcubic))
            assert ours == oracle


class TestAllGraphs:
    def test_matches_mask_oracle(self, oracle_connected):
        for n in range(1, 8):
            ours = {canonical_certificate(g) for g in connected_classes(n, "all")}
            assert ours == set(oracle_connected[n])

    def test_classical_counts(self):
        expected = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853, 8: 11117}
        for n, count in expected.items():
            assert len(connected_classes(n, "all")) == count


    def test_disconnected_streams(self):
        # all graphs on 5 and 6 vertices, OEIS A000088; each emitted graph is
        # its own canonical form, and the stream is in certificate order
        for n, count in {5: 34, 6: 156}.items():
            graphs = list(enumerate_graphs(EnumSpec(n, "all", connected_only=False)))
            certs = [canonical_certificate(g) for g in graphs]
            assert len(graphs) == count
            assert certs == sorted(set(certs))
            assert graphs == [certificate_to_graph(c) for c in certs]


class TestDegreeBipartite:
    def test_k23_at_5(self):
        graphs = list(enumerate_graphs(EnumSpec(5, "degree-bipartite")))
        assert len(graphs) == 1
        assert are_isomorphic(graphs[0], complete_bipartite(2, 3))

    def test_orders_not_divisible_by_5_are_empty(self):
        for n in (3, 4, 6, 7, 8, 9, 11, 12):
            assert connected_classes(n, "degree-bipartite") == ()

    def test_matches_filtered_special_subcubic(self):
        from rdom.graph import is_degree_bipartite

        for n in (5, 10):
            direct = {canonical_certificate(g) for g in connected_classes(n, "degree-bipartite")}
            filtered = {
                canonical_certificate(g)
                for g in connected_classes(n, "special-subcubic")
                if is_degree_bipartite(g)
            }
            assert direct == filtered
        assert len(connected_classes(10, "degree-bipartite")) == 2


class TestStreamProperties:
    def test_emitted_graphs_satisfy_class_and_connectivity(self):
        for cls, n in [("cubic", 8), ("special-subcubic", 7), ("degree-bipartite", 10)]:
            for g in enumerate_graphs(EnumSpec(n, cls)):
                assert CLASS_PREDICATES[cls](g)
                assert is_connected(g)

    def test_pairwise_distinct_certificates(self):
        for cls, n in [("cubic", 10), ("special-subcubic", 8)]:
            certs = [canonical_certificate(g) for g in enumerate_graphs(EnumSpec(n, cls))]
            assert len(certs) == len(set(certs))

    def test_rerun_is_byte_identical(self):
        spec = EnumSpec(8, "special-subcubic")
        first = "\n".join(write_graph6(g) for g in enumerate_graphs(spec))
        second = "\n".join(write_graph6(g) for g in enumerate_graphs(spec))
        assert first == second

    def test_sorted_by_certificate(self):
        certs = [canonical_certificate(g) for g in enumerate_graphs(EnumSpec(8, "cubic"))]
        assert certs == sorted(certs)

    def test_one_subset_per_orbit(self):
        # the dihedral group of the 6-cycle 0-1-2-3-4-5, by a rotation and a reflection
        rotation, reflection = (1, 2, 3, 4, 5, 0), (0, 5, 4, 3, 2, 1)
        subsets = lambda sz: combinations(range(6), sz)
        firsts = lambda sz, autos: [s for s, _ in _one_per_orbit(subsets(sz), autos)]
        assert firsts(2, [rotation, reflection]) == [(0, 1), (0, 2), (0, 3)]
        assert firsts(3, [rotation, reflection]) == [(0, 1, 2), (0, 1, 3), (0, 2, 4)]
        assert firsts(3, [reflection]) == [s for s in subsets(3) if s <= tuple(sorted(-v % 6 for v in s))]
        assert firsts(2, []) == list(subsets(2))
        assert all(m == mask_of(s) for s, m in _one_per_orbit(subsets(4), [rotation]))

    def test_orbit_pruning_keeps_every_class(self, monkeypatch):
        # a labeler that reports no automorphisms turns the orbit pruning off
        pruned = {(n, cls): [write_graph6(g) for g in connected_classes(n, cls)]
                  for cls, ns in (("cubic", (8, 10)), ("special-subcubic", (7, 8)), ("all", (6,)))
                  for n in ns}
        labeler = kernels.canonical_form
        monkeypatch.setattr(kernels, "canonical_form", lambda n, adj, autos=None: labeler(n, adj))
        connected_classes.cache_clear()
        try:
            for (n, cls), lines in pruned.items():
                assert [write_graph6(g) for g in connected_classes(n, cls)] == lines
        finally:
            connected_classes.cache_clear()

    @pytest.mark.parametrize("autos", [True, False], ids=["autos", "no-autos"])
    def test_matches_dedupe_generator(self, monkeypatch, autos):
        # a labeler that reports no automorphisms turns the orbit pruning off
        if not autos:
            labeler = kernels.canonical_form
            monkeypatch.setattr(kernels, "canonical_form", lambda n, adj, autos=None: labeler(n, adj))
        for cls, n in DIFFERENTIAL:
            ours = [write_graph6(g) for g in enumeration._augment_classes(n, cls)]
            assert ours == [write_graph6(g) for g in dedupe_augment_classes(n, cls)], (cls, n)

    def test_deletion_stays_in_the_previous_level(self):
        # the lemma behind the deletion rule: deleting a non-cut vertex keeps
        # a feasible partial graph feasible with one more vertex to add
        for n in range(2, 8):
            for g in connected_classes(n, "all"):
                if g.max_degree() > 3:
                    continue
                degs = [row.bit_count() for row in g.adj]
                for u in range(n):
                    rest = [v for v in range(n) if v != u]
                    rows = [sum(1 << i for i, w in enumerate(rest) if g.adj[v] >> w & 1) for v in rest]
                    cut = not _connected(n - 1, rows)
                    assert enumeration._is_cut(list(g.adj), u) == cut
                    if cut:
                        continue
                    smaller = [degs[v] - (g.adj[v] >> u & 1) for v in rest]
                    for r in range(7):
                        if _feasible_cubic(degs, r):
                            assert _feasible_cubic(smaller, r + 1)
                        if _feasible_ss(degs, r):
                            assert _feasible_ss(smaller, r + 1)

    def test_caps_enforced(self):
        with pytest.raises(ValueError, match="cap"):
            EnumSpec(15, "cubic")
        with pytest.raises(ValueError, match="cap"):
            EnumSpec(12, "special-subcubic")
        with pytest.raises(ValueError):
            EnumSpec(5, "no-such-class")
