from __future__ import annotations

from itertools import combinations

import pytest

from rdom import enumeration, kernels
from rdom.enumeration import (
    _feasible_cubic,
    _feasible_ss,
    _one_per_orbit,
    connected_classes,
    enumerate_graphs,
)
from rdom.graph import (
    Graph, is_connected, is_cubic, is_degree_bipartite, is_special_subcubic, mask_of,
)
from rdom.graph6 import write_graph6
from rdom.graph6 import parse_graph6
from rdom.iso import are_isomorphic, canonical_certificate
from named_graphs import complete_bipartite, complete_graph
from oracles import _connected, brute_automorphisms, dedupe_augment_classes, labeled_cubic_classes, mask_connected_classes

# the corpora on which the generator is held to the dedupe generator
DIFFERENTIAL = [("cubic", n) for n in range(4, 13, 2)] + \
    [("special-subcubic", n) for n in range(3, 11)] + [("all", n) for n in range(1, 8)]


def no_orbit_pruning(monkeypatch):
    """Attach a new vertex to every subset, not to one per orbit. The
    per-parent ``siblings`` set then drops the isomorphic children."""
    monkeypatch.setattr(enumeration, "_one_per_orbit", lambda subsets, autos: ((s, mask_of(s)) for s in subsets))


class TestCubic:
    def test_k4_unique_at_4(self):
        graphs = list(enumerate_graphs(4, "cubic"))
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
        conn = list(enumerate_graphs(8, "cubic"))
        allg = list(enumerate_graphs(8, "cubic", connected_only=False))
        assert len(conn) == 5 and len(allg) == 6
        extra = [g for g in allg if not is_connected(g)]
        assert len(extra) == 1  # two disjoint K4's
        from rdom.graph import components

        comps = components(extra[0])
        assert [c.n for c, _ in comps] == [4, 4]
        assert all(are_isomorphic(c, complete_graph(4)) for c, _ in comps)


class TestSpecialSubcubic:
    def test_only_triangle_at_3(self):
        graphs = list(enumerate_graphs(3, "special-subcubic"))
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
            graphs = list(enumerate_graphs(n, "all", connected_only=False))
            certs = [canonical_certificate(g) for g in graphs]
            assert len(graphs) == count
            assert certs == sorted(set(certs))
            assert graphs == [parse_graph6(c) for c in certs]


class TestDegreeBipartite:
    def test_k23_at_5(self):
        graphs = list(enumerate_graphs(5, "degree-bipartite"))
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

    def test_sweep_items_are_whole_orders(self):
        # no augmentation tree to split: one item per order, largest first
        items = list(enumeration.sweep_roots("degree-bipartite", 12))
        assert items == [(10, "degree-bipartite", None), (5, "degree-bipartite", None)]
        assert connected_classes(*items[0]) == connected_classes(10, "degree-bipartite")


class TestStreamProperties:
    def test_emitted_graphs_satisfy_class_and_connectivity(self):
        for predicate, cls, n in [(is_cubic, "cubic", 8), (is_special_subcubic, "special-subcubic", 7),
                                  (is_degree_bipartite, "degree-bipartite", 10)]:
            for g in enumerate_graphs(n, cls):
                assert predicate(g)
                assert is_connected(g)

    def test_pairwise_distinct_certificates(self):
        for cls, n in [("cubic", 10), ("special-subcubic", 8)]:
            certs = [canonical_certificate(g) for g in enumerate_graphs(n, cls)]
            assert len(certs) == len(set(certs))

    def test_rerun_is_byte_identical(self):
        first = "\n".join(write_graph6(g) for g in enumerate_graphs(8, "special-subcubic"))
        second = "\n".join(write_graph6(g) for g in enumerate_graphs(8, "special-subcubic"))
        assert first == second

    def test_sorted_by_certificate(self):
        certs = [canonical_certificate(g) for g in enumerate_graphs(8, "cubic")]
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
        assert all(enumeration._in_orbit([rotation], 0, v) for v in range(6))
        assert [v for v in range(6) if enumeration._in_orbit([reflection], 1, v)] == [1, 5]
        assert not enumeration._in_orbit([], 1, 5)

    def test_orbit_pruning_keeps_every_class(self, monkeypatch):
        pruned = {(n, cls): [write_graph6(g) for g in connected_classes(n, cls)]
                  for cls, ns in (("cubic", (8, 10)), ("special-subcubic", (7, 8)), ("all", (6,)))
                  for n in ns}
        no_orbit_pruning(monkeypatch)
        connected_classes.cache_clear()
        try:
            for (n, cls), lines in pruned.items():
                assert [write_graph6(g) for g in connected_classes(n, cls)] == lines
        finally:
            connected_classes.cache_clear()

    @pytest.mark.parametrize("pruning", [True, False], ids=["autos", "no-orbit-pruning"])
    def test_matches_dedupe_generator(self, monkeypatch, pruning):
        if not pruning:
            no_orbit_pruning(monkeypatch)
        for cls, n in DIFFERENTIAL:
            ours = [write_graph6(g) for g in enumeration._augment_classes(n, cls)]
            assert ours == [write_graph6(g) for g in dedupe_augment_classes(n, cls)], (cls, n)

    @pytest.mark.parametrize("pruning", [True, False], ids=["autos", "no-orbit-pruning"])
    def test_subtrees_partition_the_classes(self, monkeypatch, pruning):
        if not pruning:
            no_orbit_pruning(monkeypatch)
        # each order's subtrees, largest orders first
        corpora = [("cubic", [12, 10, 8, 6, 4]), ("special-subcubic", range(10, 2, -1)), ("all", range(7, 0, -1))]
        for cls, orders in corpora:
            parts = {}
            for item in enumeration.sweep_roots(cls, orders[0]):
                parts.setdefault(item[0], []).append([write_graph6(g) for g in connected_classes(*item)])
            assert list(parts) == list(orders)
            for n, outputs in parts.items():
                union = [line for out in outputs for line in out]
                assert len(union) == len(set(union)), (cls, n)
                assert sorted(union) == [write_graph6(g) for g in enumeration._augment_classes(n, cls)], (cls, n)

    @pytest.mark.parametrize("answer", [True, False], ids=["always-in-orbit", "never-in-orbit"])
    def test_deletion_test_decides_the_classes(self, monkeypatch, answer):
        # the orbit test is the only deletion test: with it answering
        # blindly, classes repeat or go missing
        monkeypatch.setattr(enumeration, "_in_orbit", lambda autos, v, c: answer)
        for cls, n in [("cubic", 10), ("special-subcubic", 8)]:
            ours = [write_graph6(g) for g in enumeration._augment_classes(n, cls)]
            assert ours != [write_graph6(g) for g in dedupe_augment_classes(n, cls)], (cls, n)

    def test_pseudo_similar_child_is_kept_once(self):
        # G - 10 and G - 9 are isomorphic, but no automorphism maps 10 to 9:
        # this labeling is not a child of G - 10, another labeling of its
        # class is
        g = parse_graph6("JqGOOGBcb@?")
        rows = list(g.adj)
        minus = lambda rows, c: canonical_certificate(
            Graph(10, [row & (1 << c) - 1 | row >> (c + 1) << c for u, row in enumerate(rows) if u != c]))
        assert next(brute_automorphisms(11, rows, 10, 9), None) is None
        assert minus(rows, 10) == minus(rows, 9)
        found = []
        _, perm = kernels.canonical_form(11, rows, found)
        ties = enumeration._rank_ties(rows, [row.bit_count() for row in rows], 10)
        assert ties is not None and enumeration._deletion_vertex(rows, ties, perm) == 9
        assert not enumeration._in_orbit(found, 10, 9)
        kept = [node[0] for node in enumeration._grow(12, "cubic", enumeration._TOP, 11)
                if node[2] == canonical_certificate(g)]
        assert len(kept) == 1 and list(kept[0]) != rows and minus(kept[0], 10) == minus(rows, 10)

    def test_lookahead_skips_only_childless_nodes(self):
        # every child the lookahead turns away, labeled after all, has no
        # children of its own
        skipped = 0

        def walk(n, cls, node):
            nonlocal skipped
            rows, autos, _ = node
            if len(rows) + 1 < n:
                for new_rows, _ in enumeration._attachments(n, cls, rows, autos):
                    if not enumeration._can_grow(n, cls, new_rows):
                        found = []
                        child_cert, _ = kernels.canonical_form(len(new_rows), new_rows, found)
                        assert enumeration._canonical_children(n, cls, new_rows, found) == []
                        skipped += 1
            for child in enumeration._canonical_children(n, cls, rows, autos):
                walk(n, cls, child)

        for cls, orders in (("cubic", range(4, 13, 2)), ("special-subcubic", range(3, 11))):
            for n in orders:
                walk(n, cls, enumeration._TOP)
        assert skipped > 1000

    def test_non_cut_degree_3_vertex_outranks_small_attachments(self):
        # why a node with such a vertex takes only attachments of 3 vertices
        checked = 0
        for n in range(2, 8):
            for g in connected_classes(n, "all"):
                rows = list(g.adj)
                degs = [row.bit_count() for row in rows]
                if max(degs) > 3 or not any(d == 3 and not enumeration._is_cut(rows, u) for u, d in enumerate(degs)):
                    continue
                free = [u for u in range(n) if degs[u] < 3]
                for sz in (1, 2):
                    for combo in combinations(free, sz):
                        new_rows = [row | (1 << n if u in combo else 0) for u, row in enumerate(rows)]
                        new_rows.append(mask_of(combo))
                        new_degs = [d + (u in combo) for u, d in enumerate(degs)] + [sz]
                        assert enumeration._rank_ties(new_rows, new_degs, n) is None
                        checked += 1
        assert checked > 300

    def test_lookahead_runs_only_for_capped_attachments(self, monkeypatch):
        looked = []
        can_grow = enumeration._can_grow
        monkeypatch.setattr(enumeration, "_can_grow", lambda n, cls, rows: looked.append(cls) or can_grow(n, cls, rows))
        assert len(enumeration._augment_classes(7, "all")) == 853
        assert looked == []
        enumeration._augment_classes(8, "cubic")
        enumeration._augment_classes(7, "special-subcubic")
        assert set(looked) == {"cubic", "special-subcubic"}

    def test_later_vertices_arrive_full(self):
        # the lemma behind the arrival count, shown on each class's
        # canonical deletion chain without _attachments: from the first
        # chain node with a non-cut vertex of degree 3 on, the vertices not
        # yet added are pairwise non-adjacent and each has exactly 3
        # neighbours in the node, so the node's free capacity sum(3 - d) is
        # 3r for cubic and at least 3r for special-subcubic
        full = 0
        for cls, orders in (("cubic", range(4, 13, 2)), ("special-subcubic", range(3, 11))):
            for n in orders:
                for g in connected_classes(n, cls):
                    kept = list(range(n))  # the vertices of g in the chain node
                    chain = []
                    while kept:
                        rows = [sum(1 << i for i, w in enumerate(kept) if g.adj[v] >> w & 1) for v in kept]
                        degs = [row.bit_count() for row in rows]
                        chain.append((list(kept), rows, degs))
                        non_cut = [u for u in range(len(kept)) if not enumeration._is_cut(rows, u)]
                        rank = {u: (degs[u], enumeration._invariant(rows, degs, u),
                                    enumeration._far_invariant(rows, degs, u)) for u in non_cut}
                        top = max(rank.values())
                        _, perm = kernels.canonical_form(len(kept), rows)
                        del kept[next(c for c in perm if rank.get(c) == top)]
                    arrived = False
                    for node, rows, degs in reversed(chain):
                        arrived = arrived or any(degs[u] == 3 and not enumeration._is_cut(rows, u)
                                                 for u in range(len(node)))
                        if not arrived:
                            continue
                        later = [v for v in range(n) if v not in node]
                        assert all(g.adj[v] & mask_of(later) == 0 for v in later), (write_graph6(g), node)
                        assert all((g.adj[v] & mask_of(node)).bit_count() == 3 for v in later), (write_graph6(g), node)
                        spare = sum(3 - d for d in degs) - 3 * len(later)
                        assert spare == 0 if cls == "cubic" else spare >= 0, (write_graph6(g), node)
                        full += len(later) > 0
        assert full > 500

    @staticmethod
    def labeling_calls(monkeypatch, n, cls):
        calls = []
        labeler = kernels.canonical_form
        monkeypatch.setattr(kernels, "canonical_form", lambda n, adj, autos=None: calls.append(n) or labeler(n, adj, autos))
        classes = enumeration._augment_classes(n, cls)
        return len(classes), len(calls)

    def test_labeling_calls_for_cubic_12(self, monkeypatch):
        # the lookahead labels only the nodes that can have children, and
        # the arrival count drops the 3-vertex children with no leaf below
        classes, calls = self.labeling_calls(monkeypatch, 12, "cubic")
        assert classes == 85
        assert calls <= 540

    def test_labeling_calls_for_special_subcubic_10(self, monkeypatch):
        classes, calls = self.labeling_calls(monkeypatch, 10, "special-subcubic")
        assert classes == 458
        assert calls <= 760

    def test_deletion_stays_in_the_previous_level(self):
        # the lemma behind the deletion rule: deleting a non-cut vertex keeps
        # a feasible partial graph feasible with one more vertex to add
        for n in range(2, 8):
            for g in connected_classes(n, "all"):
                if max(r.bit_count() for r in g.adj) > 3:
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

    def test_attachments_apply_exactly_the_feasibility_checks(self):
        # _attachments checks feasibility in pieces (forced vertices, the
        # cubic total per size, the arrival count); together they keep
        # exactly the subsets of 1 to 3 vertices of degree < 3 whose child
        # is feasible and passes the rank test and, for 3 vertices, has a
        # free capacity sum(3 - d) of exactly 3r (cubic) or at least 3r
        # (special-subcubic): each of the r later vertices takes 3 of it
        cases = 0
        for n in range(1, 8):
            for g in connected_classes(n, "all"):
                rows = list(g.adj)
                degs = [row.bit_count() for row in rows]
                if max(degs) > 3:
                    continue
                free = [u for u in range(n) if degs[u] < 3]
                for cls, feasible in (("cubic", _feasible_cubic), ("special-subcubic", _feasible_ss)):
                    for r in range(7):
                        got = [new_rows[n] for new_rows, _ in enumeration._attachments(n + 1 + r, cls, rows, ())]
                        want = []
                        for sz in (1, 2, 3):
                            for combo in combinations(free, sz):
                                new_degs = [d + (u in combo) for u, d in enumerate(degs)] + [sz]
                                new_rows = [row | (1 << n if u in combo else 0) for u, row in enumerate(rows)]
                                new_rows.append(mask_of(combo))
                                spare = sum(3 - d for d in new_degs) - 3 * r
                                if sz == 3 and (spare < 0 or cls == "cubic" and spare > 0):
                                    continue
                                if feasible(new_degs, r) and enumeration._rank_ties(new_rows, new_degs, n) is not None:
                                    want.append(mask_of(combo))
                        assert sorted(got) == sorted(want), (write_graph6(g), cls, r)
                        cases += 1
        assert cases > 1500

    def test_caps_enforced(self, no_enumeration):
        # every check runs before anything is enumerated; an order above its
        # cap is never cached, so a missing check reaches the patch
        for call in (lambda: enumerate_graphs(15, "cubic"),
                     lambda: enumerate_graphs(14, "special-subcubic", connected_only=False),
                     lambda: connected_classes(13, "degree-bipartite"),
                     lambda: enumeration.sweep_roots("all", 10),
                     lambda: enumeration.sweep_roots("cubic", 16)):
            with pytest.raises(ValueError, match="cap"):
                call()
        with pytest.raises(ValueError, match="unknown"):
            enumerate_graphs(5, "no-such-class")
        for connected_only in (True, False):
            with pytest.raises(ValueError, match="negative"):
                enumerate_graphs(-4, "cubic", connected_only=connected_only)
        with pytest.raises(ValueError, match="no cubic graph"):
            enumeration.sweep_roots("cubic", 13, min_n=13)
        with pytest.raises(ValueError, match="no degree-bipartite graph"):
            enumeration.sweep_roots("degree-bipartite", 4)
        assert enumeration.CLASS_CAPS["special-subcubic"] == 13

