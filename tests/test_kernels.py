from __future__ import annotations

import random

import pytest

from rdom import enumeration, kernels
from rdom.construct import gamma_r_cycle
from rdom.family import all_family_members
from rdom.graph import Graph
from rdom.graph6 import parse_graph6
from rdom.iso import canonical_graph
from named_graphs import complete_graph, cycle_graph, petersen_graph

from oracles import (
    brute_automorphisms, brute_orbits, encode_graph6_oracle, seed_canonical_form, seed_solve_min,
)


def random_graphs(count, max_n, seed):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randrange(0, max_n + 1)
        rows = [0] * n
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < rng.choice((0.15, 0.35, 0.6)):
                    rows[i] |= 1 << j
                    rows[j] |= 1 << i
        out.append(Graph(n, rows))
    return out


def random_cubic(n, rng):
    """Configuration model: pair up three stubs per vertex, redraw on a
    loop or a repeated edge."""
    while True:
        stubs = [v for v in range(n) for _ in range(3)]
        rng.shuffle(stubs)
        rows = [0] * n
        for a, b in zip(stubs[::2], stubs[1::2]):
            if a == b or rows[a] >> b & 1:
                break
            rows[a] |= 1 << b
            rows[b] |= 1 << a
        else:
            return Graph(n, rows)


def solve_configs(g, rng):
    """Full RD, domination only, one exempt vertex of each near-RD type,
    and random dom/res/forcing masks (some of them infeasible)."""
    full = g.vertex_mask()
    configs = [(full, full, 0, 0), (full, 0, 0, 0)]
    if g.n:
        x = 1 << rng.randrange(g.n)
        configs += [(full & ~x, full, 0, 0), (full, full & ~x, 0, x)]
    for _ in range(3):
        fi = fo = 0
        for v in range(g.n):
            r = rng.random()
            if r < 0.12:
                fi |= 1 << v
            elif r < 0.24:
                fo |= 1 << v
        dom = rng.choice((full, full & rng.getrandbits(max(g.n, 1))))
        res = rng.choice((full, full & rng.getrandbits(max(g.n, 1))))
        configs.append((dom, res, fi, fo))
    return configs


class TestSearchMatchesSeed:
    """The search that carries its masks down must return exactly what the
    node-by-node rescan returned: same optimum, same lex-least witness,
    same infeasibility verdicts."""

    def check(self, corpus, seed):
        rng = random.Random(seed)
        infeasible = 0
        for g in corpus:
            for dom, res, fi, fo in solve_configs(g, rng):
                want = seed_solve_min(g.n, g.adj, dom, res, fi, fo)
                assert kernels.solve_min(g.n, g.adj, dom, res, fi, fo) == want, (g.adj, dom, res, fi, fo)
                infeasible += want is None
        return infeasible

    def test_catalog_and_petersen(self):
        self.check([m.graph for m in all_family_members()] + [petersen_graph()], seed=51)

    def test_random_small_graphs(self):
        assert self.check(random_graphs(400, 14, seed=52), seed=53) > 0

    def test_random_cubic_graphs(self):
        rng = random.Random(54)
        corpus = [random_cubic(n, rng) for n in (16, 18, 20) for _ in range(10)]
        assert self.check(corpus, seed=55) > 0

    def test_contradictory_forcing_is_infeasible(self):
        # a vertex forced both in and out admits no set
        g = complete_graph(4)
        full = g.vertex_mask()
        assert kernels.solve_min(g.n, g.adj, full, full, 1, 1) is None



def is_automorphism(n, adj, g):
    for v in range(n):
        image = 0
        for u in range(n):
            if adj[v] >> u & 1:
                image |= 1 << g[u]
        if adj[g[v]] != image:
            return False
    return sorted(g) == list(range(n))


class TestLabelingMatchesSeed:
    """Splitter-only refinement and automorphism pruning must leave the
    labeling exactly as it was: the same first least leaf, whose graph6
    line is the certificate, and every automorphism handed out must
    preserve adjacency."""

    def check(self, n, adj, label):
        cert, perm, autos = label(n, adj)
        _, seed_perm = seed_canonical_form(n, adj)
        assert perm == seed_perm, adj
        pos = {v: i for i, v in enumerate(seed_perm)}
        labeled = Graph.from_edges(n, [(pos[u], pos[v]) for u in range(n) for v in range(u)
                                       if adj[u] >> v & 1])
        assert cert == encode_graph6_oracle(labeled), adj
        assert all(is_automorphism(n, adj, g) for g in autos), adj
        return len(autos)

    def test_enumeration_calls(self, monkeypatch):
        seen = []
        # the stand-in replaces kernels.canonical_form, so it must call the
        # labeler it holds, not the name it replaced
        label = kernels.canonical_form

        def checked(n, adj):
            seen.append(self.check(n, adj, label))
            return label(n, adj)

        monkeypatch.setattr(kernels, "canonical_form", checked)
        enumeration.connected_classes.cache_clear()
        try:
            for n in range(4, 13, 2):
                enumeration.connected_classes(n, "cubic")
            for n in range(3, 11):
                enumeration.connected_classes(n, "special-subcubic")
        finally:
            enumeration.connected_classes.cache_clear()
        assert len(seen) > 1000 and sum(seen) > 0

    def test_catalog_and_random_graphs(self):
        corpus = [m.graph for m in all_family_members()] + random_graphs(600, 12, seed=61)
        assert sum(self.check(g.n, g.adj, kernels.canonical_form) for g in corpus) > 0

    def test_selected_kernel_returns_autos(self):
        # the automorphisms come back beside the seed's (cert, perm)
        g = petersen_graph()
        assert self.check(g.n, g.adj, kernels.canonical_form) > 0


def _orbits(n, autos):
    """The orbits of the group generated by autos, as vertex masks in order
    of their least vertex."""
    orbits = []
    for v in range(n):
        if any(orbit >> v & 1 for orbit in orbits):
            continue
        orbit, todo = 1 << v, [v]
        for x in todo:
            for g in autos:
                if not orbit >> g[x] & 1:
                    orbit |= 1 << g[x]
                    todo.append(g[x])
        orbits.append(orbit)
    return orbits


def _group_order(n, autos):
    """The order of the group generated by autos, by closing it up."""
    group = {tuple(range(n))}
    todo = list(group)
    for x in todo:
        for g in autos:
            y = tuple(g[i] for i in x)
            if y not in group:
                group.add(y)
                todo.append(y)
    return len(group)


class TestAutomorphismContract:
    """The automorphisms ``canonical_form`` returns generate Aut(G), which
    is what lets the enumerator's deletion test decide orbits exactly."""

    def test_orbits_and_orders_match_brute_force(self):
        bounded = [m.graph for m in all_family_members()] + [petersen_graph()]
        for cls, orders in (("all", range(1, 8)), ("cubic", range(4, 13, 2)), ("special-subcubic", range(3, 11))):
            for n in orders:
                bounded += enumeration.connected_classes(n, cls)
        symmetric = [complete_graph(16), Graph(16, [0] * 16), cycle_graph(16)]
        for g in bounded + symmetric + random_graphs(600, 12, seed=61):
            autos = kernels.canonical_form(g.n, g.adj)[2]
            assert _orbits(g.n, autos) == brute_orbits(g.n, g.adj), g.adj
        # where Aut(G) is small enough to list, the groups are equal
        for g in bounded:
            autos = kernels.canonical_form(g.n, g.adj)[2]
            assert _group_order(g.n, autos) == sum(1 for _ in brute_automorphisms(g.n, g.adj)), g.adj
        assert len(bounded) > 1800

    def test_oracle_finds_known_groups(self):
        assert sum(1 for _ in brute_automorphisms(10, petersen_graph().adj)) == 120
        assert sum(1 for _ in brute_automorphisms(6, cycle_graph(6).adj)) == 12
        assert brute_orbits(16, complete_graph(16).adj) == [(1 << 16) - 1]
        path = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        assert brute_orbits(4, path.adj) == [0b1001, 0b0110]
        assert [g for g in brute_automorphisms(4, path.adj, 0, 3)] == [(3, 2, 1, 0)]
        assert next(brute_automorphisms(4, path.adj, 0, 1), None) is None


class TestSymmetricLabeling:
    """Graphs with 16! symmetric leaves label in bounded time because the
    automorphisms found at equal leaves prune the tree."""

    @pytest.mark.parametrize("g", [complete_graph(16), Graph(16, [0] * 16), cycle_graph(16)],
                             ids=["K16", "edgeless16", "C16"])
    def test_round_trip(self, g):
        cert, perm, _ = kernels.canonical_form(g.n, g.adj)
        back = parse_graph6(cert)
        assert kernels.canonical_form(back.n, back.adj)[0] == cert
        assert sorted(perm) == list(range(g.n))
        assert back.edge_count() == g.edge_count()
        assert canonical_graph(g).adj == back.adj

    def test_empty_graph(self):
        assert kernels.canonical_form(0, []) == ("?", (), ())


class TestSolveGuard:
    """``rdom.kernels.solve_min`` rejects malformed input with
    ``ValueError``; the search itself assumes symmetric in-range rows."""

    @pytest.mark.parametrize("args", [
        (3, [0, 0], 7, 7),  # fewer rows than vertices
        (80, [0] * 80, 0, 0),  # wider than one machine word
        (-1, [], 0, 0),
        (3, [0b011, 0b001, 0], 7, 7),  # self-loop at vertex 0
        (2, [0b110, 0b001], 3, 3),  # bit outside range(n)
        (3, [0b010, 0, 0], 7, 7),  # asymmetric row
        (3, [0b010, 0b001, 0], 8, 7),  # dom_req outside range(n)
        (3, [0b010, 0b001, 0], 7, 7, 0, -1),  # negative force_out
    ])
    def test_rejects(self, args):
        with pytest.raises(ValueError):
            kernels.solve_min(*args)

    def test_accepts_well_formed(self):
        g = petersen_graph()
        full = g.vertex_mask()
        assert kernels.solve_min(g.n, g.adj, full, full) == seed_solve_min(g.n, g.adj, full, full)
        assert kernels.solve_min(0, [], 0, 0) == (0, 0)

    def test_full_width(self):
        g = cycle_graph(64)
        full = g.vertex_mask()
        assert kernels.solve_min(g.n, g.adj, full, full)[0] == gamma_r_cycle(64)


class TestSelection:
    def test_active_is_reported(self):
        assert kernels.ACTIVE == "python"
