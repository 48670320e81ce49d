"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings as they happen. The heavy corpora (all connected graphs
up to order 7 from the naive oracle, cubic graphs up to order 12 from the
production enumerator) are shared across criteria through fixtures.
"""

from __future__ import annotations

import time

import pytest

from rdom import harness
from rdom.certify import is_restrained_dominating
from rdom.construct import gamma_r_cycle, gamma_r_path, lemma1_construct
from rdom.enumeration import connected_classes
from rdom.family import all_family_members, weight
from rdom.graph import mask_of
from rdom.graph6 import parse_graph6, write_graph6
from rdom.iso import are_isomorphic
from rdom.solvers import gamma_r_exact
from named_graphs import complete_bipartite, complete_graph, cycle_graph, path_graph, petersen_graph
from oracles import lex_least_mask, naive_min_rd


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def cubic_corpus():
    return {n: list(connected_classes(n, "cubic")) for n in (4, 6, 8, 10, 12)}


def test_criterion_01_petersen():
    g = petersen_graph()
    t0 = time.perf_counter()
    out = gamma_r_exact(g)
    elapsed_ms = (time.perf_counter() - t0) * 1e3
    shaded = mask_of([0, 1, 2, 6])  # outer x1, x2, x3 and inner y2
    ok = out.size == 4 and is_restrained_dominating(g, shaded) and elapsed_ms < 10.0
    report("1", ok, f"gamma_r(Petersen) = {out.size}, shaded set valid, "
                    f"solve {elapsed_ms:.3f} ms")


def test_criterion_02_catalog_table():
    t0 = time.perf_counter()
    values = [gamma_r_exact(m.graph).size for m in all_family_members()]
    elapsed = time.perf_counter() - t0
    expected = [3, 3, 4, 4, 4, 5, 5, 5, 5, 3]
    ok = values == expected and elapsed < 1.0
    report("2", ok, f"R1..R10 minimum sizes {values} in {elapsed:.3f} s")


def test_criterion_03_observation_sweep():
    t0 = time.perf_counter()
    reports = harness.verify_observation_1()[1:]  # (a) is criterion 2
    reports += harness.verify_observations_2_to_6()
    elapsed = time.perf_counter() - t0
    bad = [r.claim_id for r in reports if not r.passed]
    checked = sum(r.checked for r in reports)
    ok = not bad and elapsed < 300.0
    report("3", ok, f"observation claims 1(b)-6(b): {checked} checks, "
                    f"violations in {bad or 'none'}, {elapsed:.1f} s")


def test_criterion_04_key_theorem_sweep():
    t0 = time.perf_counter()
    (rep,) = harness.verify_key_theorem(8)
    elapsed = time.perf_counter() - t0
    members_small = [m for m in all_family_members() if m.graph.n <= 8]
    equality = all(10 * gamma_r_exact(m.graph).size == weight(m.graph).w
                   for m in members_small)
    ok = rep.passed and equality and rep.checked >= 100
    report("4", ok, f"10*gamma_r <= w over {rep.checked} special subcubic graphs "
                    f"(n <= 8), equality on all {len(members_small)} catalog members "
                    f"of those orders, {elapsed:.1f} s (target 600 s)")


def test_criterion_05_cubic_bound_sweep(cubic_corpus):
    t0 = time.perf_counter()
    counts = {n: len(cubic_corpus[n]) for n in cubic_corpus}
    violations = []
    extremal_at_10 = []
    for n, graphs in cubic_corpus.items():
        for g in graphs:
            gr = gamma_r_exact(g).size
            if 5 * gr > 2 * n:
                violations.append(write_graph6(g))
            if n == 10 and gr == 4:
                extremal_at_10.append(g)
    elapsed = time.perf_counter() - t0
    petersen_found = any(are_isomorphic(g, petersen_graph()) for g in extremal_at_10)
    ok = (counts == {4: 1, 6: 2, 8: 5, 10: 19, 12: 85}
          and not violations and petersen_found)
    report("5", ok, f"gamma_r <= 2n/5 over counts {counts}, "
                    f"{len(violations)} violations, Petersen extremal at n=10: "
                    f"{petersen_found}, {elapsed:.1f} s (target 300 s)")


def test_criterion_06_closed_formulas():
    path_ok = all(gamma_r_path(n) == gamma_r_exact(path_graph(n)).size
                  for n in range(1, 16))
    cycle_ok = all(gamma_r_cycle(n) == gamma_r_exact(cycle_graph(n)).size
                   for n in range(3, 16))
    report("6", path_ok and cycle_ok,
           "path formula (n <= 15) and cycle formula (3 <= n <= 15) match the solver")


def test_criterion_07_lemma1_construction():
    problems = []
    checked = 0
    for n in range(3, 13):
        for g in connected_classes(n, "degree-bipartite"):
            checked += 1
            problems += [f"{write_graph6(g)}: {p}" for p in harness.audit_lemma1(g)]
    k23 = complete_bipartite(2, 3)
    d23 = lemma1_construct(k23).d
    sk4 = complete_graph(4)
    from rdom.graph import subdivide

    for x, y in complete_graph(4).edges():
        sk4 = subdivide(sk4, (x, y), 1)
    dk4 = lemma1_construct(sk4).d
    ok = (not problems and checked == 3 and d23.bit_count() == 2
          and dk4.bit_count() <= 4
          and is_restrained_dominating(k23, d23) and is_restrained_dominating(sk4, dk4))
    report("7", ok, f"{checked} degree-bipartite graphs (n <= 12) pass all "
                    f"construction facts; |D|(K_2,3) = {d23.bit_count()}, "
                    f"|D|(subdivided K4) = {dk4.bit_count()}; problems: {problems or 'none'}")


def test_criterion_08_solver_oracle_equivalence(oracle_connected):
    mismatches = []
    checked = 0
    for n in range(1, 8):
        for g in oracle_connected[n].values():
            checked += 1
            size, optima = naive_min_rd(g)
            out = gamma_r_exact(g)
            if (out.size != size or out.witness != lex_least_mask(optima)
                    or not is_restrained_dominating(g, out.witness)):
                mismatches.append(write_graph6(g))
    ok = not mismatches and checked == 996
    report("8", ok, f"branch and bound equals subset enumeration on all "
                    f"{checked} connected graphs with n <= 7 "
                    f"({len(mismatches)} mismatches)")


def test_criterion_09_graph6_roundtrip(oracle_connected, cubic_corpus):
    corpora = [g for n in range(1, 8) for g in oracle_connected[n].values()]
    corpora += [g for graphs in cubic_corpus.values() for g in graphs]
    for n in range(3, 9):
        corpora.extend(connected_classes(n, "special-subcubic"))
    for n in (5, 10):
        corpora.extend(connected_classes(n, "degree-bipartite"))
    bad = sum(1 for g in corpora if parse_graph6(write_graph6(g)).adj != g.adj)
    k4 = parse_graph6("C~")
    ok = bad == 0 and are_isomorphic(k4, complete_graph(4))
    report("9", ok, f"write/parse identity over {len(corpora)} graphs "
                    f"({bad} failures); 'C~' parses to K4")


def test_criterion_10_known_bounds():
    t0 = time.perf_counter()
    rep_a, rep_b = harness.verify_known_bounds(9)
    elapsed = time.perf_counter() - t0
    ok = rep_a.passed and rep_b.passed and rep_a.checked == 273192
    report("10", ok, f"classical bounds over {rep_a.checked} connected graphs "
                     f"(n <= 9) with star and C5 exceptions honored, {elapsed:.0f} s")
