#!/usr/bin/env python3
"""Time rdom's kernel (``rdom._pykernels``, called without the input guard),
with every corpus built before the first timing.

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


def relabeled(g: Graph, rng: random.Random) -> Graph:
    perm = list(range(g.n))
    rng.shuffle(perm)
    rows = [0] * g.n
    for v in range(g.n):
        for u in bits_of(g.adj[v]):
            rows[perm[v]] |= 1 << perm[u]
    return Graph(g.n, rows)


def workload_solve(graphs):
    for g in graphs:
        full = g.vertex_mask()
        _pykernels.solve_min(g.n, g.adj, full, full, 0, 0)


def workload_nerd(catalog):
    for g in catalog:
        full = g.vertex_mask()
        for v in bits_of(small_vertices(g)):
            _pykernels.solve_min(g.n, g.adj, full & ~(1 << v), full, 0, 0)
            _pykernels.solve_min(g.n, g.adj, full, full & ~(1 << v), 0, 1 << v)


def workload_canon(graphs):
    for g in graphs:
        _pykernels.canonical_form(g.n, g.adj)


def workload_dedupe():
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
        cert, _ = _pykernels.canonical_form(n, rows)
        seen.add(cert)
    return len(seen)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--repeat", type=int, default=5)
    args = parser.parse_args()

    # every corpus is built before the first timing, so no workload pays
    # for the enumeration cache
    catalog = [m.graph for m in all_family_members()]
    solve_corpus = list(connected_classes(10, "cubic")) + catalog
    rng = random.Random(20240)
    canon_corpus = []
    for n in range(3, 9):
        for g in connected_classes(n, "special-subcubic"):
            canon_corpus.append(g)
            canon_corpus.extend(relabeled(g, rng) for _ in range(3))

    workloads = [
        ("solve", lambda: workload_solve(solve_corpus)),
        ("nerd", lambda: workload_nerd(catalog)),
        ("canon", lambda: workload_canon(canon_corpus)),
        ("dedupe", workload_dedupe),
    ]
    print(f"kernels.ACTIVE={kernels.ACTIVE}  Python {platform.python_version()}")
    for wname, fn in workloads:
        t0 = time.perf_counter()
        for _ in range(args.repeat):
            fn()
        elapsed = (time.perf_counter() - t0) / args.repeat
        print(f"{wname:<10}{elapsed * 1e3:>12.2f}ms")


if __name__ == "__main__":
    main()
