from __future__ import annotations

import random

import pytest

from rdom import _pykernels, enumeration, kernels
from rdom.construct import gamma_r_cycle
from rdom.family import all_family_members
from rdom.graph import Graph, complete_graph, cycle_graph, petersen_graph
from rdom.iso import canonical_graph, certificate_to_graph

from oracles import seed_canonical_form, seed_solve_min


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
                assert _pykernels.solve_min(g.n, g.adj, dom, res, fi, fo) == want, (g.adj, dom, res, fi, fo)
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
    labeling exactly as it was: same certificate, same first least leaf,
    and every automorphism handed out must preserve adjacency."""

    def check(self, n, adj):
        autos = []
        got = _pykernels.canonical_form(n, adj, autos)
        assert got == seed_canonical_form(n, adj), adj
        assert all(is_automorphism(n, adj, g) for g in autos), adj
        return len(autos)

    def test_enumeration_calls(self, monkeypatch):
        seen = []

        def checked(n, adj, autos=None):
            seen.append(self.check(n, adj))
            return _pykernels.canonical_form(n, adj, autos)

        monkeypatch.setattr(kernels, "canonical_form", checked)
        enumeration.connected_classes.cache_clear()
        try:
            for n in range(4, 11, 2):
                enumeration.connected_classes(n, "cubic")
            for n in range(3, 10):
                enumeration.connected_classes(n, "special-subcubic")
        finally:
            enumeration.connected_classes.cache_clear()
        assert len(seen) > 1000 and sum(seen) > 0

    def test_catalog_and_random_graphs(self):
        corpus = [m.graph for m in all_family_members()] + [petersen_graph()]
        corpus += random_graphs(600, 12, seed=61)
        assert sum(self.check(g.n, g.adj) for g in corpus) > 0

    def test_selected_kernel_takes_autos(self):
        g = petersen_graph()
        autos = []
        assert kernels.canonical_form(g.n, g.adj, autos) == kernels.canonical_form(g.n, g.adj)
        assert autos and all(is_automorphism(g.n, g.adj, a) for a in autos)


class TestSymmetricLabeling:
    """Graphs with 16! symmetric leaves label in bounded time because the
    automorphisms found at equal leaves prune the tree."""

    @pytest.mark.parametrize("g", [complete_graph(16), Graph(16, [0] * 16), cycle_graph(16)],
                             ids=["K16", "edgeless16", "C16"])
    def test_round_trip(self, g):
        cert, perm = _pykernels.canonical_form(g.n, g.adj)
        back = certificate_to_graph(cert)
        assert _pykernels.canonical_form(back.n, back.adj)[0] == cert
        assert sorted(perm) == list(range(g.n))
        assert back.edge_count() == g.edge_count()
        assert canonical_graph(g).adj == back.adj

    def test_empty_graph(self):
        assert kernels.canonical_form(0, []) == (b"\x00", ())


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
        assert kernels.solve_min(g.n, g.adj, full, full) == _pykernels.solve_min(g.n, g.adj, full, full)
        assert kernels.solve_min(0, [], 0, 0) == (0, 0)

    def test_full_width(self):
        g = cycle_graph(64)
        full = g.vertex_mask()
        assert kernels.solve_min(g.n, g.adj, full, full)[0] == gamma_r_cycle(64)


class TestSelection:
    def test_active_is_reported(self):
        assert kernels.ACTIVE == "python"
