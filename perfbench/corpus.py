"""Seeded random connected cubic graphs, as graph6 lines.

Configuration model: every vertex gets three half-edges, the half-edges are
paired by a uniform random perfect matching, and a pairing that makes a
loop, a multi-edge or a disconnected graph is thrown away and drawn again.
The encoder below is independent of rdom, so the program under test only
ever sees the lines. A fixed seed gives byte-identical output on any
Python 3.
"""

from __future__ import annotations

import random

ORDERS = (16, 18, 20, 22)


def random_cubic_rows(n: int, rng: random.Random) -> list[int]:
    """Adjacency rows of a uniform simple connected cubic graph on n vertices."""
    while True:
        points = [v for v in range(n) for _ in range(3)]
        rng.shuffle(points)
        rows = [0] * n
        for i in range(0, 3 * n, 2):
            u, v = points[i], points[i + 1]
            if u == v or rows[u] >> v & 1:
                break
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        else:
            if _connected(rows):
                return rows


def _connected(rows: list[int]) -> bool:
    seen = frontier = 1
    while frontier:
        reach = 0
        for v in range(len(rows)):
            if frontier >> v & 1:
                reach |= rows[v]
        frontier = reach & ~seen
        seen |= frontier
    return seen == (1 << len(rows)) - 1


def encode_graph6(rows: list[int]) -> str:
    """graph6 for orders up to 62: length byte, then the upper triangle
    column by column in 6-bit groups, each offset by 63."""
    n = len(rows)
    bits = [rows[j] >> i & 1 for j in range(1, n) for i in range(j)]
    bits += [0] * (-len(bits) % 6)
    groups = [int("".join(map(str, bits[k:k + 6])), 2) for k in range(0, len(bits), 6)]
    return "".join(chr(63 + v) for v in [n] + groups)


def cubic_lines(seed: int, per_order: int) -> list[str]:
    """``per_order`` graph6 lines for each order in ORDERS, in that order."""
    rng = random.Random(seed)
    return [encode_graph6(random_cubic_rows(n, rng)) for n in ORDERS for _ in range(per_order)]
