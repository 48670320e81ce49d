#!/usr/bin/env python3
"""Benchmark the compiled kernels against the pure-Python fallback.

Workloads mirror what the verification sweeps actually spend time on:

  solve       minimum restrained domination over all connected cubic graphs
              on 10 vertices plus the exception catalog
  nerd        type-1/type-2 relaxations over the catalog, all single exempt
              degree-2 vertices
  canon       canonical labeling over connected special subcubic graphs on
              up to 8 vertices, each also relabeled by a few random
              permutations
  dedupe      certificate-set construction over all connected graphs on 6
              vertices given as labeled adjacency masks (the enumeration
              oracle's inner loop)

Usage: python benchmarks/bench_kernels.py [--repeat N]
"""

from __future__ import annotations

import argparse
import platform
import random
import time

from rdom import _pykernels, kernels
from rdom.enumeration import connected_classes
from rdom.family import all_family_members
from rdom.graph import Graph, bits_of, small_vertices

try:
    from rdom import _kernels

    IMPLS = [("compiled", _kernels), ("python", _pykernels)]
except ImportError:
    print("compiled kernels unavailable; timing the pure fallback only")
    IMPLS = [("python", _pykernels)]


def relabeled(g: Graph, rng: random.Random) -> Graph:
    perm = list(range(g.n))
    rng.shuffle(perm)
    rows = [0] * g.n
    for v in range(g.n):
        for u in bits_of(g.adj[v]):
            rows[perm[v]] |= 1 << perm[u]
    return Graph(g.n, rows)


def workload_solve(impl, graphs):
    for g in graphs:
        full = g.vertex_mask()
        impl.solve_min(g.n, g.adj, full, full, 0, 0)


def workload_nerd(impl, catalog):
    for g in catalog:
        full = g.vertex_mask()
        for v in bits_of(small_vertices(g)):
            impl.solve_min(g.n, g.adj, full & ~(1 << v), full, 0, 0)
            impl.solve_min(g.n, g.adj, full, full & ~(1 << v), 0, 1 << v)


def workload_canon(impl, graphs):
    for g in graphs:
        impl.canonical_form(g.n, g.adj)


def workload_dedupe(impl):
    n = 6
    seen = set()
    for mask in range(1 << (n * (n - 1) // 2)):
        rows = [0] * n
        k = 0
        for j in range(1, n):
            for i in range(j):
                if mask >> k & 1:
                    rows[i] |= 1 << j
                    rows[j] |= 1 << i
                k += 1
        degs = [r.bit_count() for r in rows]
        if any(degs[i] < degs[i + 1] for i in range(n - 1)):
            continue  # only degree-sorted labelings reach the certificate
        cert, _ = impl.canonical_form(n, rows)
        seen.add(cert)
    return len(seen)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--repeat", type=int, default=5)
    args = parser.parse_args()

    # every corpus is built before the first timing, so no implementation
    # pays for the enumeration cache
    catalog = [m.graph for m in all_family_members()]
    solve_corpus = list(connected_classes(10, "cubic")) + catalog
    rng = random.Random(20240)
    canon_corpus = []
    for n in range(3, 9):
        for g in connected_classes(n, "special-subcubic"):
            canon_corpus.append(g)
            canon_corpus.extend(relabeled(g, rng) for _ in range(3))

    workloads = [
        ("solve", lambda impl: workload_solve(impl, solve_corpus)),
        ("nerd", lambda impl: workload_nerd(impl, catalog)),
        ("canon", lambda impl: workload_canon(impl, canon_corpus)),
        ("dedupe", lambda impl: workload_dedupe(impl)),
    ]
    print(f"kernels.ACTIVE={kernels.ACTIVE}  Python {platform.python_version()}")
    print(f"{'workload':<10}" + "".join(f"{name:>14}" for name, _ in IMPLS) + f"{'speedup':>10}")
    for wname, fn in workloads:
        times = []
        for _, impl in IMPLS:
            t0 = time.perf_counter()
            for _ in range(args.repeat):
                fn(impl)
            times.append((time.perf_counter() - t0) / args.repeat)
        speedup = times[-1] / times[0] if len(times) > 1 else 1.0
        cols = "".join(f"{t * 1e3:>12.2f}ms" for t in times)
        print(f"{wname:<10}{cols}{speedup:>9.1f}x")


if __name__ == "__main__":
    main()
