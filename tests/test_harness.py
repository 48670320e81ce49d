from __future__ import annotations

import concurrent.futures
import hashlib
import json
import os
import random
import sys
import time
import types
from collections import Counter
from itertools import combinations

import pytest

import rdom.construct
from rdom import family, harness, kernels
from rdom.enumeration import connected_classes
from rdom.family import classify_brdom, weight
from rdom.graph import Graph, bits_of, large_vertices, open_twins, small_vertices, subdivide
from rdom.graph6 import parse_graph6, write_graph6
from rdom.iso import are_isomorphic, canonical_certificate
from rdom.solvers import (
    NERD_TYPE1, NERD_TYPE2, NerdQuery, SolveOutcome, gamma_r_exact, gamma_r_nerd_exact,
    is_restrained_dominating,
)

from named_graphs import complete_graph, cycle_graph, petersen_graph, star_graph
from oracles import (
    naive_is_nerd, naive_is_restrained, naive_min_nerd, naive_min_rd, naive_minimum, plain_exists_set_of_size,
)


def random_forced_instances(count, max_n, seed):
    """Seeded graphs of order 1..max_n, each with disjoint random forcing
    masks."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, max_n)
        rows = [0] * n
        p = rng.choice((0.15, 0.35, 0.6))
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < p:
                    rows[i] |= 1 << j
                    rows[j] |= 1 << i
        force_in = force_out = 0
        for v in range(n):
            r = rng.random()
            if r < 0.12:
                force_in |= 1 << v
            elif r < 0.24:
                force_out |= 1 << v
        yield Graph(n, rows), force_in, force_out


def catalog_forced_instances():
    """Every R1..R10 member with the forcing of obs1b/c at each degree-2
    vertex, and its 1- to 4-fold edge subdivisions with the forcing of obs2,
    obs3, obs5 and obs6 wherever the path has the vertices they name, each
    with the member's gamma_r."""
    for m in family.all_family_members():
        g, n = m.graph, m.graph.n
        for v in bits_of(small_vertices(g)):
            yield g, 1 << v, 0, m.gamma_r  # obs1b
            yield g, 0, 1 << v, m.gamma_r  # obs1c
        for x, y in g.edges():
            for t in range(1, 5):
                h = subdivide(g, (x, y), t)  # the new vertices are n .. n + t - 1
                patterns = [(1 << n, 1 << x | 1 << y)]  # obs2
                if t >= 2:
                    patterns += [(1 << n, 1 << (n + 1)), (1 << (n + 1), 1 << n)]  # obs3
                if t == 4:
                    patterns.append((1 << n | 1 << (n + 3), 1 << (n + 1) | 1 << (n + 2)))  # obs5
                    patterns += [(1 << (n + 1), 0), (1 << (n + 2), 0)]  # obs6
                for force_in, force_out in patterns:
                    yield h, force_in, force_out, m.gamma_r


class TestGammaRValue:
    """The gamma_r values of obs1a, obs2 and obs3: the least size the walk
    finds up to k, or None when gamma_r is above k."""

    @staticmethod
    def _check(g):
        gr = gamma_r_exact(g).size
        cert = harness._certifier(g)
        for k in (gr - 1, gr, gr + 1):
            assert harness._least(cert, k) == (gr if gr <= k else None), (write_graph6(g), k)

    def test_matches_the_exact_solver_on_random_graphs(self):
        for g, _, _ in random_forced_instances(400, 12, seed=2020):
            self._check(g)

    def test_matches_the_exact_solver_on_the_catalog(self):
        for m in family.all_family_members():
            self._check(m.graph)

    def test_a_value_of_zero_is_a_value(self):
        # the order-0 graph: its empty set is the minimum, certified as 0, not None
        g = Graph(0, [])
        self._check(g)
        for variant in (NERD_TYPE1, NERD_TYPE2):
            assert harness._least(harness._certifier(g, q=NerdQuery(0, variant)), g.n) == 0


class TestExistenceSearch:
    def test_exact_size_and_forcing(self):
        g = petersen_graph()
        hit = harness.exists_set_of_size(g, 4, force_in=1 << 0)
        assert hit is not None
        assert hit.bit_count() == 4 and hit & 1
        assert is_restrained_dominating(g, hit)

    def test_force_out_respected(self):
        g = cycle_graph(5)
        hit = harness.exists_set_of_size(g, 3, force_out=0b11)
        assert hit is not None and not hit & 0b11

    def test_none_when_impossible(self):
        g = star_graph(4)
        assert harness.exists_set_of_size(g, 4) is None

    def test_counting_prune_keeps_the_equality_case(self):
        # one vertex of K_4 dominates all four: the undominated count equals
        # left * reach, which must not prune
        assert harness.exists_set_of_size(complete_graph(4), 1) == 1

    def test_up_to_finds_smallest_band(self):
        g = complete_graph(4)
        assert harness._least(harness._certifier(g), 2) == 1

    def test_contradictory_forcing_has_no_witness(self):
        g = complete_graph(4)
        for size in range(5):
            assert harness.exists_set_of_size(g, size, force_in=1, force_out=1) is None
            assert harness._least(harness._certifier(g, force_in=1, force_out=1), size) is None

    @pytest.mark.parametrize("size", [0, 1, 6])
    @pytest.mark.parametrize("forcing", [
        {"force_in": 1 << 9}, {"force_out": 1 << 9}, {"force_in": 1 << 4, "force_out": 1},
    ], ids=["in", "out", "in-beside-out"])
    def test_forcing_outside_the_vertex_set_is_an_error(self, forcing, size):
        g = complete_graph(4)
        with pytest.raises(ValueError, match="forcing set is not a subset of the vertex set"):
            harness.exists_set_of_size(g, size, **forcing)
        with pytest.raises(ValueError, match="forcing set is not a subset of the vertex set"):
            harness._least(harness._certifier(g, **forcing), size)

    def test_matches_plain_enumeration_on_random_graphs(self):
        # the pruned walk returns the first restrained dominating set in
        # combinations order, or None, exactly as testing every subset does
        found = missing = 0
        for g, force_in, force_out in random_forced_instances(5000, 11, seed=151):
            for size in range(g.n + 1):
                want = plain_exists_set_of_size(g, size, is_restrained_dominating, force_in, force_out)
                assert harness.exists_set_of_size(g, size, force_in, force_out) == want, (
                    write_graph6(g), size, force_in, force_out)
                found += want is not None
                missing += want is None
        assert found > 10_000 and missing > 10_000

    def test_matches_plain_enumeration_on_the_catalog(self):
        checked = 0
        for g, force_in, force_out, gr in catalog_forced_instances():
            for size in range(max(gr - 1, 0), gr + 2):
                want = plain_exists_set_of_size(g, size, is_restrained_dominating, force_in, force_out)
                assert harness.exists_set_of_size(g, size, force_in, force_out) == want, (
                    write_graph6(g), size, force_in, force_out)
                checked += 1
        assert checked == 3 * (2 * 42 + 13 * 108)  # 42 degree-2 vertices, 108 edges

    @staticmethod
    def _check_query(g, q, size, force_in=0, force_out=0):
        """The certifier's answer for q against every subset tested by the
        definition, in ``combinations`` order; whether a set was found."""
        x_ids = list(bits_of(q.x))

        def nerd(h, mask):
            return naive_is_nerd(h, bits_of(mask), x_ids, q.variant)

        want = plain_exists_set_of_size(g, size, nerd, force_in, force_out)
        assert harness.exists_set_of_size(g, size, force_in, force_out, q) == want, (
            write_graph6(g), q, size, force_in, force_out)
        return want is not None

    def test_queries_match_plain_enumeration_on_the_catalog(self):
        # every degree-2 vertex and pair of a member as the exempt set, both
        # variants, every size up to gamma_r
        checked = found = 0
        for m in family.all_family_members():
            g = m.graph
            smalls = list(bits_of(small_vertices(g)))
            exempt = [1 << v for v in smalls] + [1 << u | 1 << v for u, v in combinations(smalls, 2)]
            for x in exempt:
                for variant in (NERD_TYPE1, NERD_TYPE2):
                    for size in range(m.gamma_r + 1):
                        found += self._check_query(g, NerdQuery(x, variant), size)
                        checked += 1
        assert checked == 1230 and 0 < found < checked

    def test_queries_match_plain_enumeration_on_random_graphs(self):
        # random exempt sets of any degree, beside random forcing
        rng = random.Random(2024)
        found = missing = 0
        for g, force_in, force_out in random_forced_instances(1500, 9, seed=97):
            x = rng.randrange(1 << g.n)
            for variant in (NERD_TYPE1, NERD_TYPE2):
                for size in range(g.n + 1):
                    hit = self._check_query(g, NerdQuery(x, variant), size, force_in, force_out)
                    found += hit
                    missing += not hit
        assert found > 3000 and missing > 10_000

    def test_up_to_matches_plain_enumeration_on_random_graphs(self):
        # over one walk, the least size with a set up to k, and whether any
        # size up to k has one, are what testing every subset finds, at
        # every k, for restrained domination and both near-RD variants,
        # beside random forcing
        rng = random.Random(818)
        found = missing = 0
        for g, force_in, force_out in random_forced_instances(600, 9, seed=313):
            x = rng.randrange(1 << g.n)
            for q in (None, NerdQuery(x, NERD_TYPE1), NerdQuery(x, NERD_TYPE2)):
                if q is None:
                    predicate = is_restrained_dominating
                else:
                    def predicate(h, mask, q=q):
                        return naive_is_nerd(h, bits_of(mask), list(bits_of(q.x)), q.variant)
                least = next((size for size in range(g.n + 1) if plain_exists_set_of_size(
                    g, size, predicate, force_in, force_out) is not None), None)
                cert = harness._certifier(g, force_in, force_out, q)
                for k in range(-1, g.n + 2):
                    want = least if least is not None and least <= k else None
                    assert harness._least(cert, k) == want, (write_graph6(g), k, force_in, force_out, q)
                    assert harness._within(cert, k) == (want is not None), (
                        write_graph6(g), k, force_in, force_out, q)
                found += least is not None
                missing += least is None
        assert found > 1000 and missing > 600

    def test_walk_reaches_no_solver(self):
        # the walk and its two scans read the definitions only: none of
        # their code, nested functions included, names the kernel or an
        # exact solver
        def codes(code):
            yield code
            for const in code.co_consts:
                if isinstance(const, types.CodeType):
                    yield from codes(const)

        for fn in (harness.exists_set_of_size, harness._certifier, harness._within, harness._least):
            used = {name for code in codes(fn.__code__)
                    for name in code.co_names + code.co_varnames + code.co_freevars}
            assert not used & {"kernels", "gamma_r_exact", "gamma_r_nerd_exact"}, fn.__name__
        assert {code.co_name for code in codes(harness._certifier.__code__)} >= {"walk", "find"}

    def test_least_near_rd_size_matches_the_exact_solver_on_random_graphs(self):
        # the certified least near-RD size, or None, is the exact solve's
        # value, or infeasible, for both variants and random exempt sets
        rng = random.Random(2025)
        infeasible = 0
        for g, _, _ in random_forced_instances(750, 10, seed=404):
            x = rng.randrange(1 << g.n)
            for variant in (NERD_TYPE1, NERD_TYPE2):
                q = NerdQuery(x, variant)
                exact = gamma_r_nerd_exact(g, q)
                least = harness._least(harness._certifier(g, q=q), g.n)
                assert least == (exact.size if exact.optimal else None), (write_graph6(g), x, variant)
                infeasible += least is None
        assert infeasible > 300

    def test_counting_prune_counts_only_required_vertices(self):
        # K_1,6 with its center exempt under type 1 and forced out: only the
        # six leaves need domination, each leaf reaches one of them, so the
        # root bound is six and no smaller size enters the walk (counting
        # the center as well, each choice would seem to reach two, and the
        # bound would be three)
        g = star_graph(6)
        q = NerdQuery(1, NERD_TYPE1)
        assert harness._certifier(g, force_out=1, q=q)[0] == 6
        nodes = []

        def profile(frame, event, arg):
            if event == "call" and frame.f_code.co_name == "walk":
                nodes.append(frame.f_globals["__name__"])

        walked = {}
        for size in (3, 6):
            nodes.clear()
            sys.setprofile(profile)
            try:
                hit = harness.exists_set_of_size(g, size, force_out=1, q=q)
            finally:
                sys.setprofile(None)
            assert hit is None
            walked[size] = list(nodes)
        # at the bound the walk runs, one node per choice: the six leaves
        assert walked == {3: [], 6: ["rdom.harness"] * 6}

    @pytest.mark.parametrize("variant", [NERD_TYPE1, NERD_TYPE2])
    def test_exempt_set_outside_the_vertex_set_is_an_error(self, variant):
        g = complete_graph(4)
        for size in (0, 1, 4):
            with pytest.raises(ValueError, match="exempt set is not a subset of the vertex set"):
                harness.exists_set_of_size(g, size, q=NerdQuery(1 << 4 | 1, variant))

    def test_type_2_exempt_vertex_forced_in_has_no_witness(self):
        # type 2 keeps its exempt set outside, so forcing one in leaves none
        g = cycle_graph(5)
        q = NerdQuery(0b1, NERD_TYPE2)
        for size in range(6):
            assert harness.exists_set_of_size(g, size, force_in=0b1, q=q) is None
        # the same forcing under type 1 admits a witness
        assert harness.exists_set_of_size(g, 5, force_in=0b1, q=q._replace(variant=NERD_TYPE1)) == 0b11111


class TestFrozenExceptions:
    def test_tables_hold_by_subset_enumeration(self):
        # each entry of the harness's exception tables, recomputed without
        # the solver or the certifier
        members = {m.id: m.graph for m in family.all_family_members()}
        pairs = 0
        for member_id, table in harness._PAIR_RELAXATION_EXCEPTIONS.items():
            g = members[member_id]
            gr = naive_min_rd(g)[0]
            for u, v in table:
                expected = gr + 1 if (member_id, (u, v)) == ("R2", (3, 4)) else gr
                assert naive_min_nerd(g, (u, v), "dom")[0] == expected, (member_id, u, v)
                pairs += 1
        assert pairs == 26
        for member_id, (x, y) in harness._SUBDIV1_WITNESS_EXCEPTIONS:
            g = members[member_id]
            g1 = subdivide(g, (x, y), 1)
            new = g.n

            def witness(h, c, x=x, y=y, new=new):
                return new in c and x not in c and y not in c and naive_is_restrained(h, c)

            # the smallest witness has size gamma_r(G), above gamma_r(G_1)
            assert naive_minimum(g1, witness)[0] == naive_min_rd(g)[0] > naive_min_rd(g1)[0]

    def test_member_relaxations_are_needed_by_subset_enumeration(self):
        # each member whose bound the harness relaxes to gamma_r + 1 has an
        # edge that needs it, recomputed without the solver or the certifier
        members = {m.id: m.graph for m in family.all_family_members()}
        # an end of the three-subdivision path where the type-2 relaxation
        # needs gamma_r + 1 (obs4a)
        ends = {"R2": ((0, 1), 6), "R10": ((0, 1), 7)}
        assert tuple(ends) == harness._SUBDIV_BOUND_RELAXED_MEMBERS
        for member_id, (edge, end) in ends.items():
            g = members[member_id]
            assert naive_min_nerd(subdivide(g, edge, 3), (end,), "dom")[0] == naive_min_rd(g)[0] + 1
        # after four subdivisions, no gamma_r-set passes through a second
        # path vertex: R10's edge (0,1) (obs6a) and R2's edge (0,1), which
        # meets the open twin 1 (obs6b)
        assert harness._SUBDIV4_RELAXED_MEMBERS == ("R10",)
        assert 1 in {v for pair in open_twins(members["R2"]) for v in pair}
        for member_id in ("R10", "R2"):
            g = members[member_id]

            def through_second(h, c, n=g.n):
                return (n + 1 in c or n + 2 in c) and naive_is_restrained(h, c)

            assert naive_minimum(subdivide(g, (0, 1), 4), through_second)[0] == naive_min_rd(g)[0] + 1


class TestObservationReports:
    def test_all_pass(self):
        reports = harness.verify_observation_1() + harness.verify_observations_2_to_6()
        assert [r.claim_id for r in reports] == [
            "obs1a", "obs1b", "obs1c", "obs1d", "obs1e", "obs1f",
            "obs2", "obs3", "obs4a", "obs4b", "obs5a", "obs5b", "obs6a", "obs6b",
        ]
        for r in reports:
            assert r.passed, f"{r.claim_id}: {r.violations[:3]}"
            assert r.checked > 0

    def test_twin_exception_recorded(self):
        reports = {r.claim_id: r for r in harness.verify_observation_1()}
        notes = reports["obs1e"].notes
        assert len(notes) == 2 and all("open twin" in n for n in notes)
        # the pair exceptions are observable, not silently skipped
        assert len(reports["obs1f"].notes) == 26

    def test_counts(self):
        reports = {r.claim_id: r for r in harness.verify_observation_1()}
        assert reports["obs1a"].checked == 10
        assert reports["obs1b"].checked == 42  # total degree-2 vertices over the catalog
        assert reports["obs1f"].checked == 76  # total degree-2 pairs


class TestTheoremSweeps:
    def test_key_theorem_small(self):
        (rep,) = harness.verify_key_theorem(7)
        assert rep.passed
        assert rep.checked == sum(
            len(connected_classes(n, "special-subcubic")) for n in range(3, 8))
        # C4 is the only tight non-member up to order 7
        assert len(rep.notes) == 1 and "C]" in rep.notes[0]

    def test_key_theorem_finding_at_9(self):
        # H?QHhrO is no catalog member, yet 10*gamma_r exceeds its weight:
        # the report must keep failing on it, and on it alone
        (rep,) = harness.verify_key_theorem(9)
        assert rep.violations == [("H?QHhrO", "10*gamma_r = 40 exceeds weight 39")]
        g = parse_graph6("H?QHhrO")
        assert harness.exists_set_of_size(g, 3) is None
        assert harness.exists_set_of_size(g, 4) is not None

    def test_cubic_bound_small(self):
        (rep,) = harness.verify_cubic_bound(8)
        assert rep.passed and rep.checked == 8
        extremal = [n.split()[-1] for n in rep.notes if n.startswith("extremal")]
        assert "C~" in extremal  # K4 achieves floor(2n/5) = 1

    def test_cubic_bound_explicit_corpus(self):
        (rep,) = harness.verify_cubic_bound(graphs=[petersen_graph()])
        assert rep.passed and rep.checked == 1
        assert any("extremal" in n for n in rep.notes)

    def test_cubic_bound_takes_max_n_or_a_corpus(self, no_enumeration):
        with pytest.raises(ValueError, match="not both"):
            harness.verify_cubic_bound(max_n=10, graphs=[petersen_graph()])
        with pytest.raises(ValueError, match="need max_n"):
            harness.verify_cubic_bound()

    def test_cubic_bound_rejects_non_cubic(self):
        with pytest.raises(ValueError, match="not cubic"):
            harness.verify_cubic_bound(graphs=[cycle_graph(5)])

    def test_weight_route_agrees_with_direct_bound(self):
        # the two code paths the harness cross-checks: for cubic graphs the
        # weight is 4n with no catalog component, so 10*gamma_r <= w is the
        # same inequality as 5*gamma_r <= 2n
        for n in (4, 6, 8):
            for g in connected_classes(n, "cubic"):
                rep = weight(g)
                assert rep.w == 4 * g.n and rep.omega == 0
                assert classify_brdom(g) is None
                gr = gamma_r_exact(g).size
                assert (10 * gr <= rep.w) == (5 * gr <= 2 * g.n)

    def test_known_bounds_small(self):
        rep_a, rep_b = harness.verify_known_bounds(6)
        assert rep_a.passed and rep_b.passed
        assert rep_a.checked == 1 + 2 + 6 + 21 + 112
        assert "5 stars" in rep_a.notes[0]
        assert "C5 exception hit 1" in rep_b.notes[0]

    def test_known_bounds_checks_the_cap_before_enumerating(self, no_enumeration):
        with pytest.raises(ValueError, match="cap"):
            harness.verify_known_bounds(10)

    @pytest.mark.parametrize("sweep, kwargs", [
        pytest.param(harness.verify_key_theorem, {"max_n": 9}, id="key-theorem"),
        pytest.param(harness.verify_cubic_bound, {"max_n": 12}, id="cubic"),
        pytest.param(harness.verify_cubic_bound, {"graphs": [petersen_graph()]}, id="cubic-corpus"),
        pytest.param(harness.verify_known_bounds, {"max_n": 7}, id="known-bounds"),
        pytest.param(harness.verify_lemma1, {"max_n": 10}, id="lemma1"),
    ])
    def test_sweeps_check_jobs_before_enumerating(self, sweep, kwargs, no_enumeration, monkeypatch):
        # subtree roots are never cached, so a sweep that enumerates first
        # reaches the patch; so does one that starts working on its corpus
        monkeypatch.setattr(harness, "gamma_r_exact", lambda g: pytest.fail("solved"))
        # the upper bounds are certified, so their entry points must fail
        # too: the certifier's walk setup, behind every query it answers,
        # and the exact near-RD solve
        for name in ("_certifier", "gamma_r_nerd_exact"):
            monkeypatch.setattr(harness, name, lambda *args, **kwargs: pytest.fail("solved"))
        with pytest.raises(ValueError, match="jobs"):
            sweep(**kwargs, jobs=0)

    @pytest.mark.parametrize("sweep, kwargs, solves", [
        pytest.param(harness.verify_cubic_bound, {"max_n": 12}, 0, id="cubic"),
        pytest.param(harness.verify_cubic_bound, {"graphs": [petersen_graph()]}, 0, id="cubic-corpus"),
        pytest.param(harness.verify_key_theorem, {"max_n": 7}, 3, id="key-theorem"),  # R1, R2, R10
        pytest.param(harness.verify_known_bounds, {"max_n": 6}, 5, id="known-bounds"),  # the stars
        pytest.param(harness.verify_lemma1, {"max_n": 10}, 0, id="lemma1"),
    ])
    def test_passing_upper_bounds_are_decided(self, sweep, kwargs, solves, monkeypatch):
        # the subset walk certifies every passing bound: the kernel's search
        # runs only where a report needs the value, for catalog members and
        # stars
        solved = []
        solve_min = kernels.solve_min

        def counted(*args):
            solved.append(args)
            return solve_min(*args)

        monkeypatch.setattr(kernels, "solve_min", counted)
        assert all(r.passed for r in sweep(**kwargs))
        assert len(solved) == solves

    @pytest.mark.parametrize("sweep, kwargs, setups, sizes", [
        pytest.param(harness.verify_cubic_bound, {"max_n": 12}, 112, 160, id="cubic"),
        # the 248 graphs less the 6 members, which are solved exactly; the
        # count includes H?QHhrO, whose bound fails
        pytest.param(harness.verify_key_theorem, {"max_n": 9}, 242, 246, id="key-theorem"),
        # a seeded random cubic graph of order 20, not extremal, whose walk
        # floor, 5, lies below its gamma_r, 6, and below the size asked, 7:
        # a bottom-up walk asks two sizes
        pytest.param(harness.verify_cubic_bound, {"graphs": [parse_graph6("SUC_O?BGIO?A?O@??@QA?@@aA???BG?I_")]},
                     1, 1, id="cubic-corpus"),
    ])
    def test_walk_sizes_per_pass(self, sweep, kwargs, setups, sizes, monkeypatch):
        # one walk setup per graph that reaches the walk; each bound asks its
        # own size first and smaller ones only when that size has no set
        calls = Counter()
        monkeypatch.setattr(harness, "_certifier", _counting_certifier(calls, []))
        sweep(**kwargs)
        assert calls == {"setups": setups, "sizes": sizes}

    def test_key_theorem_classifies_each_graph_once(self, monkeypatch):
        # the weight's one classification also names the member
        classified = []
        classify = family.classify_brdom

        def counted(g):
            classified.append(g)
            return classify(g)

        monkeypatch.setattr(family, "classify_brdom", counted)
        (rep,) = harness.verify_key_theorem(8)
        assert rep.passed and len(classified) == rep.checked

    def test_key_theorem_labels_each_member_candidate_once(self, monkeypatch):
        # a graph that shares a member's order and degree-2 count is labeled
        # once and looked up by certificate; the bound allows for the ten
        # member labelings, cached or not (1,315 calls with two labelings
        # per pairwise isomorphism test)
        calls = []
        label = kernels.canonical_form

        def counted(*args):
            calls.append(args[0])
            return label(*args)

        monkeypatch.setattr(kernels, "canonical_form", counted)
        connected_classes.cache_clear()
        (rep,) = harness.verify_key_theorem(10)
        assert rep.checked == 706
        assert len(calls) <= 1240

    @pytest.mark.parametrize("sweep, kwargs", [
        pytest.param(harness.verify_cubic_bound, {"max_n": -3}, id="cubic-negative"),
        pytest.param(harness.verify_cubic_bound, {"graphs": []}, id="cubic-empty-corpus"),
        pytest.param(harness.verify_key_theorem, {"max_n": 2}, id="key-theorem-2"),
        pytest.param(harness.verify_known_bounds, {"max_n": 1}, id="known-bounds-1"),
        pytest.param(harness.verify_lemma1, {"max_n": 4}, id="lemma1-4"),
    ])
    def test_empty_scope_is_an_error(self, sweep, kwargs):
        with pytest.raises(ValueError, match="no .*graph"):
            sweep(**kwargs)

    def test_lemma1_sweep(self):
        (rep,) = harness.verify_lemma1(12)
        assert rep.passed and rep.checked == 3

    def test_cubic_bound_extremal_at_10(self):
        (rep,) = harness.verify_cubic_bound(10)
        assert rep.passed and rep.checked == 1 + 2 + 5 + 19
        achievers = [n.split()[-1] for n in rep.notes if n.startswith("extremal")]
        at_10 = [g6 for g6 in achievers if parse_graph6(g6).n == 10]
        assert len(at_10) == 1
        assert are_isomorphic(parse_graph6(at_10[0]), petersen_graph())

    @pytest.mark.parametrize("sweep, kwargs, cls", [
        pytest.param(harness.verify_key_theorem, {"max_n": 6}, "special-subcubic", id="key-theorem"),
        pytest.param(harness.verify_cubic_bound, {"max_n": 8}, "cubic", id="cubic"),
        pytest.param(harness.verify_known_bounds, {"max_n": 5}, "all", id="known-bounds"),
        pytest.param(harness.verify_lemma1, {"max_n": 10}, "degree-bipartite", id="lemma1"),
    ])
    def test_enumerated_sweeps_go_through_check_classes(self, sweep, kwargs, cls, monkeypatch):
        calls = []
        check_classes = harness._check_classes

        def spy(check, graph_class, *args, **kw):
            calls.append(graph_class)
            return check_classes(check, graph_class, *args, **kw)

        monkeypatch.setattr(harness, "_check_classes", spy)
        sweep(**kwargs)
        assert calls == [cls]


_certifier = harness._certifier


def _certifying(keep):
    """``harness._certifier`` with the searches of every query that
    keep(q, forced) rejects finding nothing, where forced is the union of
    its forcing sets. Every claim, the catalog's gamma_r values and near-RD
    values included, sets up its walk there."""

    def certifier(g, force_in=0, force_out=0, q=None):
        floor, find = _certifier(g, force_in, force_out, q)
        return (floor, find) if keep(q, force_in | force_out) else (floor, lambda size: None)

    return certifier


# the restrained dominating sets, those of the existence claims and of the
# gamma_r values, are found nowhere; the near-RD queries are certified
_no_witness = _certifying(lambda q, forced: q is not None)
_no_nerd_witness = _certifying(lambda q, forced: q is None)
# no type-2 near-RD set is certified; everything else is
_no_dom_witness = _certifying(lambda q, forced: q is None or q.variant == NERD_TYPE1)
_nothing_certified = _certifying(lambda q, forced: False)
# no restrained dominating set without forcing is certified: in the catalog
# sweeps those queries are exactly the gamma_r values of obs1a, obs2 and
# obs3, which the exact solves then supply
_no_unforced_witness = _certifying(lambda q, forced: q is not None or forced)


def _counting_certifier(calls, asked):
    """``harness._certifier`` counting its walk setups and the sizes they
    are asked in calls, and appending each near-RD size asked to asked as
    ``(graph6, q.x, q.variant, size)``."""

    def certifier(g, force_in=0, force_out=0, q=None):
        calls["setups"] += 1
        floor, find = _certifier(g, force_in, force_out, q)

        def counted_find(size):
            calls["sizes"] += 1
            if q is not None:
                asked.append((write_graph6(g), q.x, q.variant, size))
            return find(size)

        return floor, counted_find

    return certifier


def _one_size_up(g, force_in=0, force_out=0, q=None):
    # every set the walk finds turns up one size later: each gamma_r reads one more
    floor, find = _certifier(g, force_in, force_out, q)
    return floor + 1, lambda size: find(size - 1)


def _key_theorem_solved(g, gr):
    # members are solved anyway; a non-member when its bound 5*n2 + 4*n3 fails
    rep = weight(g)
    return bool(rep.members) or gr + 1 > (5 * rep.n2 + 4 * rep.n3) // 10


def _known_bounds_solved(g, gr):
    # stars are solved anyway; a graph when known-a fails, or known-b on
    # minimum degree 2 apart from C5
    degs = sorted(g.degree(v) for v in range(g.n))
    star = degs == [1] * (g.n - 1) + [g.n - 1]
    c5 = g.n == 5 and g.edge_count() == 5
    return star or gr + 1 > g.n - 2 or degs[0] >= 2 and not c5 and gr + 1 > g.n // 2


def _one_too_many(g):
    return SolveOutcome("optimal", gamma_r_exact(g).size + 1)


def _one_too_few(g):
    return SolveOutcome("optimal", gamma_r_exact(g).size - 1)


def _low(mask):
    return mask & -mask


# tampered constructions, each breaking one fact of the Lemma 1 audit:
# (graph6, tamper of (g, trace), the audit's problems). The audit reads the
# output set from the trace, so a tampered output also breaks its last fact.
_OFF_FORMULA = "output set is not l1 | s11 | s2"
_LEMMA1_TAMPERS = {
    "not-rd": ("DFw", lambda g, t: t._replace(d=0),
               ["output is not a restrained dominating set", _OFF_FORMULA]),
    "too-large": ("DFw", lambda g, t: t._replace(d=g.vertex_mask()), ["|D| = 5 exceeds |L| = 2", _OFF_FORMULA]),
    "s1": ("DFw", lambda g, t: t._replace(s1=t.s1 | t.l1),
           ["s1 vertex 3 does not have exactly one l1 neighbor"]),
    "l1": ("DFw", lambda g, t: t._replace(s1=t.s1 & ~_low(t.s1)),
           ["l1 vertex 3 is not the center of a K_1,3 inside l1+s1"]),
    "s2": ("I???zIgs?", lambda g, t: t._replace(l2_by_degree=(
        t.l2_by_degree[0] & ~_low(t.l2_by_degree[0]) | t.l1, *t.l2_by_degree[1:])),
           [f"s2 vertex {v} has a neighbor outside the lightly-saturated classes" for v in (1, 2)]),
    "edge-count": ("I???zIgs?", lambda g, t: t._replace(l2_by_degree=(
        t.l2_by_degree[0], t.l2_by_degree[1] | t.l1, t.l2_by_degree[2])),
           ["edge count between s2 and its classes is off"]),
    "designated": ("DFw", lambda g, t: t._replace(l2_by_degree=(*t.l2_by_degree[:2], t.l2_by_degree[2] | t.l1)),
                   ["designated-neighbor set size mismatch"]),
    # another s1 vertex in place of the designated one: still an RD-set of size 2
    "output": ("DFw", lambda g, t: t._replace(d=t.d ^ t.s11 | _low(t.s12)), [_OFF_FORMULA]),
}


class TestViolationPaths:
    """The theorem sweeps with the certifier finding no restrained
    dominating set, so that every certified bound fails and the reports
    must list the graphs; and with ``gamma_r_exact``, ``weight`` or the
    Lemma 1 construction patched to answer wrongly, so that each of their
    fault branches is reached and its message pinned."""

    @pytest.fixture
    def nothing_within(self, monkeypatch):
        monkeypatch.setattr(harness, "_certifier", _no_witness)

    @pytest.mark.parametrize("sweep, max_n, cls, want", [
        pytest.param(harness.verify_cubic_bound, 10, "cubic", [
            (27, 27, lambda g: f"exceeds 2n/5 = {2 * g.n / 5}")], id="cubic"),
        pytest.param(harness.verify_known_bounds, 6, "all", [
            (137, 142, lambda g: f"exceeds n - 2 = {g.n - 2}"),
            (75, 75, lambda g: f"exceeds n/2 = {g.n / 2}")], id="known-bounds"),
        pytest.param(harness.verify_lemma1, 10, "degree-bipartite", [
            (3, 3, lambda g: f"exceeds |L| = {large_vertices(g).bit_count()}")], id="lemma1"),
    ])
    def test_every_enumerated_sweep_reports_its_violations(self, sweep, max_n, cls, want, nothing_within):
        classes = {write_graph6(g) for n in range(2, max_n + 1) for g in connected_classes(n, cls)}
        reports = sweep(max_n)
        assert len(reports) == len(want)
        for rep, (violations, checked, bound) in zip(reports, want):
            assert (len(rep.violations), rep.checked) == (violations, checked)
            # one violation per graph, in graph6 order, each naming the
            # bound of the graph whose line it carries
            lines = [g6 for g6, _ in rep.violations]
            assert lines == sorted(set(lines)) and set(lines) <= classes
            for g6, details in rep.violations:
                assert details.endswith(bound(parse_graph6(g6))), (g6, details)

    @staticmethod
    def _members_up_to(max_n):
        members = [m for m in family.all_family_members() if m.graph.n <= max_n]
        return sorted((canonical_certificate(m.graph), m) for m in members)

    @pytest.mark.parametrize("exact, details", [
        pytest.param(_one_too_many, lambda m: (
            f"10*gamma_r = {10 * m.gamma_r + 10} exceeds weight {10 * m.gamma_r}"), id="exceeds-weight"),
        pytest.param(_one_too_few, lambda m: (
            f"catalog completeness: 10*gamma_r={10 * m.gamma_r - 10}, "
            f"5n2+4n3={10 * m.gamma_r - m.omega_class}, {m.id}"), id="completeness"),
    ])
    def test_key_theorem_reports_each_member_off_its_exact_value(self, exact, details, monkeypatch):
        # only the members reach the exact solver up to order 8
        monkeypatch.setattr(harness, "gamma_r_exact", exact)
        (rep,) = harness.verify_key_theorem(8)
        assert rep.violations == [(cert, details(m)) for cert, m in self._members_up_to(8)]
        assert len(rep.violations) == 6

    def test_key_theorem_reports_a_member_off_its_weight(self, monkeypatch):
        real = harness.weight

        def member_weighs_one_more(g):
            rep = real(g)
            return rep._replace(w=rep.w + 1) if rep.members else rep

        monkeypatch.setattr(harness, "weight", member_weighs_one_more)
        (rep,) = harness.verify_key_theorem(8)
        assert rep.violations == [
            (cert, f"{m.id} misses equality: 10*gamma_r={10 * m.gamma_r}, weight={10 * m.gamma_r + 1}")
            for cert, m in self._members_up_to(8)]
        assert len(rep.violations) == 6

    def test_cubic_bound_reports_a_disagreeing_weight(self, monkeypatch):
        real = harness.weight
        monkeypatch.setattr(harness, "weight", lambda g: real(g)._replace(omega=1))
        (rep,) = harness.verify_cubic_bound(8)
        assert rep.checked == len(rep.violations) == 8
        for g6, details in rep.violations:
            assert details == f"weight route disagrees: w={4 * parse_graph6(g6).n}, omega=1"

    def test_known_bounds_reports_each_star_off_n(self, monkeypatch):
        monkeypatch.setattr(harness, "gamma_r_exact", _one_too_many)
        rep_a, rep_b = harness.verify_known_bounds(6)
        assert rep_a.violations == [
            (canonical_certificate(star_graph(n - 1)), f"star K_1,{n - 1} has gamma_r = {n + 1}, expected {n}")
            for n in range(2, 7)]
        assert rep_a.notes == ["0 stars matched gamma_r = n exactly"]
        assert rep_b.passed

    @pytest.mark.parametrize("name", list(_LEMMA1_TAMPERS))
    def test_lemma1_audit_reports_each_tampered_fact(self, name, monkeypatch):
        g6, tamper, problems = _LEMMA1_TAMPERS[name]
        # harness imports the builder where it runs it, so patch it at its source
        construct = rdom.construct.lemma1_construct
        monkeypatch.setattr(rdom.construct, "lemma1_construct", lambda g: tamper(g, construct(g)))
        assert harness.audit_lemma1(parse_graph6(g6)) == problems

    @pytest.mark.parametrize("sweep, max_n, cls, solved", [
        pytest.param(harness.verify_cubic_bound, 10, "cubic", lambda g, gr: gr + 1 > 2 * g.n // 5, id="cubic"),
        pytest.param(harness.verify_key_theorem, 8, "special-subcubic", _key_theorem_solved, id="key-theorem"),
        pytest.param(harness.verify_known_bounds, 6, "all", _known_bounds_solved, id="known-bounds"),
        pytest.param(harness.verify_lemma1, 12, "degree-bipartite", lambda g, gr: (
            gr + 1 > large_vertices(g).bit_count()), id="lemma1"),
    ])
    def test_graphs_at_their_bound_reach_the_solver(self, sweep, max_n, cls, solved, monkeypatch):
        # with every gamma_r read one more, exactly the graphs whose gamma_r
        # meets a bound fail it and are solved, with the catalog members and
        # stars that are solved anyway: a bound off by one either way, or a
        # walk that skips a size, solves a different set
        want = {write_graph6(g) for n in range(2, max_n + 1) for g in connected_classes(n, cls)
                if solved(g, gamma_r_exact(g).size)}
        got = set()
        exact = harness.gamma_r_exact

        def recorded(g):
            got.add(write_graph6(g))
            return exact(g)

        monkeypatch.setattr(harness, "_certifier", _one_size_up)
        monkeypatch.setattr(harness, "gamma_r_exact", recorded)
        sweep(max_n)
        assert want and got == want

    @pytest.mark.parametrize("patched", [False, True], ids=["as-is", "nothing-within"])
    def test_corpus_report_does_not_depend_on_input_order(self, patched, request):
        if patched:
            request.getfixturevalue("nothing_within")
        corpus = [g for n in range(4, 11) for g in connected_classes(n, "cubic")]
        shuffled = corpus[:]
        random.Random(16).shuffle(shuffled)
        assert shuffled != corpus
        reports = [harness.verify_cubic_bound(graphs=graphs)[0].to_dict() for graphs in (corpus, shuffled)]
        for r in reports:
            r.pop("elapsed_s")
        assert reports[0] == reports[1]
        (enumerated,) = harness.verify_cubic_bound(10)
        assert reports[0]["checked"] == enumerated.checked == 27
        assert reports[0]["notes"] == enumerated.notes
        assert [(v["graph6"], v["details"]) for v in reports[0]["violations"]] == enumerated.violations


# (checked, violations, notes) of each catalog report, and the digest of the
# reports, on a passing pass
_PASSING = [
    (10, 0, 0), (42, 0, 0), (42, 0, 0), (42, 0, 0), (40, 0, 2), (76, 0, 26),
    (108, 0, 3), (108, 0, 0), (216, 0, 28), (35, 0, 0), (88, 0, 0), (20, 0, 0), (104, 0, 10), (4, 0, 4),
]
_PASSING_DIGEST = "b605a45f65ecc692b1d619ce8aaea92419c3227cbda3a28e7c85aa63a94550db"


class TestCatalogViolationPaths:
    """The catalog sweeps with the certifier finding no near-RD set (for
    every query, or for those of type 2 only), no restrained dominating set,
    or neither, and with no gamma_r value certified (the unforced
    restrained-domination queries find nothing) and ``gamma_r_exact`` one
    too many: each report's violation branches are reached, and what they
    print is pinned. A failing near-RD bound prints the exact solve's
    value; a near-RD value that a note prints, or that a frozen pair
    compares, reads "infeasible" when nothing is certified. With the
    gamma_r values alone uncertified, the exact solves supply them, and the
    reports are those of a passing pass."""

    @pytest.mark.parametrize("patches, want, digest", [
        pytest.param({}, _PASSING, _PASSING_DIGEST, id="as-is"),
        # the exact solves supply the gamma_r values, and the reports stay the same
        pytest.param({"_certifier": _no_unforced_witness}, _PASSING, _PASSING_DIGEST, id="exact-fallback"),
        pytest.param({"_certifier": _no_nerd_witness}, [
            (10, 0, 0), (42, 0, 0), (42, 0, 0), (42, 42, 0), (40, 40, 2), (76, 76, 0),
            (108, 0, 3), (108, 0, 0), (216, 216, 0), (35, 35, 0), (88, 0, 0), (20, 0, 0), (104, 0, 10), (4, 0, 4),
        ], "394a5bb10258407b302c9220e245a509633eaee733fd73b1ce49b274602502e1", id="nerd"),
        pytest.param({"_certifier": _no_dom_witness}, [
            (10, 0, 0), (42, 0, 0), (42, 0, 0), (42, 0, 0), (40, 40, 2), (76, 76, 0),
            (108, 0, 3), (108, 0, 0), (216, 216, 0), (35, 35, 0), (88, 0, 0), (20, 0, 0), (104, 0, 10), (4, 0, 4),
        ], "72bcfdc8a98ef7f7c484898ac609029b474c6e5c1ed7a80fe73356ebb86ef7ea", id="nerd-type-2"),
        pytest.param({"_certifier": _no_witness}, [
            (10, 0, 0), (42, 42, 0), (42, 42, 0), (42, 0, 0), (40, 0, 2), (76, 0, 26),
            (108, 108, 0), (108, 108, 0), (216, 0, 28), (35, 0, 0), (88, 88, 0), (20, 20, 0), (104, 104, 0),
            (4, 4, 0),
        ], "8c031fd6f3cfef9152d4088263f50baa0d4eaaac48b69303050494f3d15a6449", id="certifier"),
        pytest.param({"_certifier": _nothing_certified}, [
            (10, 0, 0), (42, 42, 0), (42, 42, 0), (42, 42, 0), (40, 40, 2), (76, 76, 0),
            (108, 108, 0), (108, 108, 0), (216, 216, 0), (35, 35, 0), (88, 88, 0), (20, 20, 0), (104, 104, 0),
            (4, 4, 0),
        ], "7f18904f427c6824d35d139cc17d3de8001fee08622e279b80d5d776d680b54d", id="both"),
        pytest.param({"gamma_r_exact": _one_too_many, "_certifier": _no_unforced_witness}, [
            (10, 10, 0), (42, 5, 0), (42, 7, 0), (42, 0, 0), (40, 0, 2), (76, 26, 0),
            (108, 17, 0), (108, 108, 0), (216, 0, 28), (35, 0, 0), (88, 0, 0), (20, 0, 0), (104, 0, 10), (4, 0, 4),
        ], "de85e75f7ebda7c2753e2490c3e81197df0331016caa84678cbd2fcd4b8561a6", id="exact"),
    ])
    def test_reports_list_every_violation(self, patches, want, digest, monkeypatch):
        for name, fake in patches.items():
            monkeypatch.setattr(harness, name, fake)
        reports = harness.verify_observation_1() + harness.verify_observations_2_to_6()
        assert [(r.checked, len(r.violations), len(r.notes)) for r in reports] == want
        dicts = [r.to_dict() for r in reports]
        for d in dicts:
            d.pop("elapsed_s")
        assert hashlib.sha256(json.dumps(dicts).encode()).hexdigest() == digest
        if "gamma_r_exact" in patches:
            grew = [d for r in reports[6:8] for _, d in r.violations if "gamma_r grew" in d]
            assert len(grew) == 12 + 108

    def test_solver_and_certifier_calls_per_pass(self, monkeypatch):
        # a passing pass certifies every catalog claim, the gamma_r values and
        # the near-RD values its notes print included, and never reaches the
        # solver: each query sets up one walk, and each near-RD bound
        # searches only the size its claim states
        calls = Counter(solved=0)
        asked = []
        solve_min = kernels.solve_min

        def counted_solve(*args):
            calls["solved"] += 1
            return solve_min(*args)

        monkeypatch.setattr(kernels, "solve_min", counted_solve)
        monkeypatch.setattr(harness, "_certifier", _counting_certifier(calls, asked))
        reports = harness.verify_observation_1() + harness.verify_observations_2_to_6()
        assert all(r.passed for r in reports)
        assert calls == {"solved": 0, "setups": 1585, "sizes": 1989}
        assert len(asked) == 704
        assert hashlib.sha256(json.dumps(asked).encode()).hexdigest() == (
            "87676f8f7f3833c83d6b9a906f0b51f59aee13496e55728171bbdea96427cfcf")


class TestReportMechanics:
    def test_violations_are_recheckable(self):
        # feed the sweep a corpus violating nothing, then check the report
        # dict shape round-trips through JSON
        import json

        (rep,) = harness.verify_cubic_bound(graphs=[complete_graph(4)])
        blob = json.loads(json.dumps(rep.to_dict()))
        assert blob["claim_id"] == "thm-cubic-2over5"
        assert blob["passed"] is True and blob["violations"] == []

    def test_deterministic_reports(self):
        a = harness.verify_key_theorem(6)[0].to_dict()
        b = harness.verify_key_theorem(6)[0].to_dict()
        a.pop("elapsed_s")
        b.pop("elapsed_s")
        assert a == b

    def test_parallel_matches_serial(self):
        serial = harness.verify_key_theorem(7)[0].to_dict()
        parallel = harness.verify_key_theorem(7, jobs=2)[0].to_dict()
        serial.pop("elapsed_s")
        parallel.pop("elapsed_s")
        assert serial == parallel

    @pytest.mark.parametrize("sweep, kwargs", [
        pytest.param(harness.verify_lemma1, {"max_n": 10}, id="verify_lemma1"),
        pytest.param(harness.verify_cubic_bound, {"max_n": 10}, id="verify_cubic_bound"),
        pytest.param(
            harness.verify_cubic_bound,
            {"graphs": [petersen_graph(), *connected_classes(8, "cubic"), complete_graph(4)]},
            id="verify_cubic_bound-corpus",
        ),
        pytest.param(harness.verify_known_bounds, {"max_n": 6}, id="verify_known_bounds"),
    ])
    def test_jobs_reach_the_pool(self, sweep, kwargs, monkeypatch):
        seen = []
        run_sweep = harness._run_sweep

        def spy(worker, items, jobs):
            seen.append(jobs)
            return run_sweep(worker, items, jobs)

        monkeypatch.setattr(harness, "_run_sweep", spy)
        serial = [r.to_dict() for r in sweep(**kwargs)]
        parallel = [r.to_dict() for r in sweep(**kwargs, jobs=2)]
        assert seen == [1, 2]
        for r in serial + parallel:
            r.pop("elapsed_s")
        assert serial == parallel

    @pytest.mark.parametrize("sweep", [
        harness.verify_observation_1,
        harness.verify_observations_2_to_6,
        lambda: harness.verify_known_bounds(6),
    ], ids=["observation_1", "observations_2_to_6", "known_bounds"])
    def test_reports_carry_the_wall_time_of_their_call(self, sweep):
        t0 = time.perf_counter()
        reports = sweep()
        wall = time.perf_counter() - t0
        assert len(reports) > 1
        assert all(0.75 * wall < r.elapsed <= wall for r in reports)

    @pytest.mark.parametrize("jobs", [0, -1, (os.cpu_count() or 1) + 1])
    def test_run_sweep_rejects_jobs_outside_the_cpu_range(self, jobs, monkeypatch):
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            lambda *a, **k: pytest.fail("started a pool"))
        with pytest.raises(ValueError, match="jobs"):
            harness._run_sweep(lambda g: pytest.fail("ran a worker"), [petersen_graph()], jobs)

    def test_violation_entries_carry_graph6(self):
        rep = harness.VerificationReport("demo", "scope")
        rep.add_violation(petersen_graph(), "details")
        g6, details = rep.violations[0]
        assert parse_graph6(g6).n == 10 and details == "details"
        assert not rep.passed
