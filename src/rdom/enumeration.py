"""Isomorph-free generation of small graph corpora.

The workhorse grows connected graphs one vertex at a time: every level
holds one representative per isomorphism class (a hash set of canonical
certificates), each representative is extended by a new vertex attached to
every eligible subset of existing vertices, and degree-feasibility pruning
discards partial graphs that can no longer reach the target class. Because
every connected graph admits a build order with all prefixes connected,
attaching to at least one existing vertex loses nothing.

Graph classes:
  * ``cubic``             every vertex of final degree 3
  * ``special-subcubic``  every vertex of final degree 2 or 3
  * ``degree-bipartite``  special subcubic with the degree classes a
    bipartition; generated directly by subdividing every edge of a loopless
    3-regular multigraph (each degree-2 vertex contracts to one multiedge),
    which also shows such graphs only exist at orders divisible by 5
  * ``all``               no degree constraint (kept small; used for the
    known-bounds sweeps)

Disconnected corpora are composed from connected classes, one multiset of
components per isomorphism class. Output order is always sorted canonical
certificates, so repeated runs emit byte-identical streams.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Callable, Iterator

from rdom import kernels
from rdom.graph import Graph, disjoint_union, is_cubic, is_degree_bipartite, is_special_subcubic, mask_of
from rdom.graph6 import Graph6Error, parse_graph6
from rdom.iso import canonical_certificate, canonical_graph, certificate_to_graph

CLASS_CAPS = {"cubic": 14, "special-subcubic": 11, "degree-bipartite": 12, "all": 9}

CLASS_PREDICATES: dict[str, Callable[[Graph], bool]] = {
    "cubic": is_cubic,
    "special-subcubic": is_special_subcubic,
    "degree-bipartite": is_degree_bipartite,
    "all": lambda g: True,
}

_MIN_ORDER = {"cubic": 4, "special-subcubic": 3, "degree-bipartite": 5, "all": 1}


@dataclass(frozen=True)
class EnumSpec:
    n: int
    graph_class: str
    connected_only: bool = True

    def __post_init__(self):
        if self.graph_class not in CLASS_CAPS:
            raise ValueError(f"unknown graph class {self.graph_class!r}")
        if self.n > CLASS_CAPS[self.graph_class]:
            raise ValueError(
                f"n={self.n} exceeds the cap {CLASS_CAPS[self.graph_class]} "
                f"for class {self.graph_class!r}"
            )


def _feasible_cubic(degs: list[int], r: int) -> bool:
    total = 0
    for d in degs:
        need = 3 - d
        if need > r:
            return False
        total += need
    if total > 3 * r or (3 * r - total) % 2:
        return False
    # edges among the r future vertices cannot exceed C(r, 2)
    if total < 3 * r - r * (r - 1):
        return False
    return True


def _feasible_ss(degs: list[int], r: int) -> bool:
    total = 0
    for d in degs:
        need = 2 - d
        if need > 0:
            if need > r:
                return False
            total += need
    return total <= 3 * r


def _augment_classes(n: int, cls: str) -> list[Graph]:
    """Connected classes of order n for cubic / special-subcubic / all."""
    if n < _MIN_ORDER[cls]:
        return []
    if cls == "cubic" and n % 2:
        return []
    level: dict[bytes, tuple[int, ...]] = {b"\x01": (0,)}
    for size in range(1, n):
        r_after = n - size - 1
        nxt: dict[bytes, tuple[int, ...]] = {}
        for rows in level.values():
            if cls == "all":
                eligible = list(range(size))
                max_sz = size
            else:
                eligible = [v for v in range(size) if rows[v].bit_count() < 3]
                max_sz = 3
            for sz in range(1, min(max_sz, len(eligible)) + 1):
                if cls == "cubic" and 3 - sz > r_after:
                    continue
                if cls == "special-subcubic" and 2 - sz > r_after:
                    continue
                for combo in combinations(eligible, sz):
                    new_rows = list(rows)
                    for u in combo:
                        new_rows[u] |= 1 << size
                    new_rows.append(mask_of(combo))
                    if cls == "cubic":
                        degs = [row.bit_count() for row in new_rows]
                        if not _feasible_cubic(degs, r_after):
                            continue
                    elif cls == "special-subcubic":
                        degs = [row.bit_count() for row in new_rows]
                        if max(degs) > 3 or not _feasible_ss(degs, r_after):
                            continue
                    cert, _ = kernels.canonical_form(size + 1, new_rows)
                    if cert not in nxt:
                        nxt[cert] = tuple(new_rows)
        level = nxt
    predicate = CLASS_PREDICATES[cls]
    out = []
    for cert in sorted(level):
        g = certificate_to_graph(cert)
        if predicate(g):
            out.append(g)
    return out


def _cubic_multigraphs(num_vertices: int) -> list[dict[tuple[int, int], int]]:
    """Connected loopless 3-regular multigraphs as edge-multiplicity maps."""
    pairs = list(combinations(range(num_vertices), 2))
    found: list[dict[tuple[int, int], int]] = []

    def backtrack(idx: int, deg: list[int], mult: dict[tuple[int, int], int]):
        if idx == len(pairs):
            if all(d == 3 for d in deg):
                # connectivity of the support graph
                support = [0] * num_vertices
                for (a, b), m in mult.items():
                    if m:
                        support[a] |= 1 << b
                        support[b] |= 1 << a
                seen = 1
                frontier = 1
                while frontier:
                    nxt = 0
                    v = 0
                    f = frontier
                    while f:
                        if f & 1:
                            nxt |= support[v]
                        f >>= 1
                        v += 1
                    frontier = nxt & ~seen
                    seen |= frontier
                if seen == (1 << num_vertices) - 1:
                    found.append(dict(mult))
            return
        a, b = pairs[idx]
        cap = min(3 - deg[a], 3 - deg[b])
        for m in range(cap + 1):
            deg[a] += m
            deg[b] += m
            mult[(a, b)] = m
            backtrack(idx + 1, deg, mult)
            deg[a] -= m
            deg[b] -= m
        del mult[(a, b)]

    backtrack(0, [0] * num_vertices, {})
    return found


def _degree_bipartite_classes(n: int) -> list[Graph]:
    """Connected degree-bipartite special subcubic graphs of order n.

    Counting edges from each side of the bipartition forces
    #degree-2 = 3/2 * #degree-3, so n = 5/2 * #degree-3 and only orders
    divisible by 5 occur. Each such graph is the once-per-edge subdivision
    of a connected loopless 3-regular multigraph on the degree-3 vertices.
    """
    if n < 5 or n % 5:
        return []
    num_large = 2 * n // 5
    seen: dict[bytes, Graph] = {}
    for mult in _cubic_multigraphs(num_large):
        edges = []
        nxt = num_large
        for (a, b), m in mult.items():
            for _ in range(m):
                edges.append((a, nxt))
                edges.append((b, nxt))
                nxt += 1
        g = Graph.from_edges(n, edges)
        cert = canonical_certificate(g)
        if cert not in seen:
            seen[cert] = canonical_graph(g)
    return [seen[c] for c in sorted(seen)]


@lru_cache(maxsize=None)
def connected_classes(n: int, cls: str) -> tuple[Graph, ...]:
    """One canonical representative per isomorphism class, sorted by
    certificate. Cached: corpora are reused heavily by the harness."""
    if cls == "degree-bipartite":
        return tuple(_degree_bipartite_classes(n))
    return tuple(_augment_classes(n, cls))


def _all_classes(n: int, cls: str) -> list[Graph]:
    """Connected and disconnected classes of order n."""
    minimum = _MIN_ORDER[cls]

    results: list[Graph] = []

    def compose(remaining: int, min_key, chosen: list[Graph]):
        if remaining == 0:
            if len(chosen) > 1:
                results.append(disjoint_union(chosen))
            return
        if remaining < minimum:
            return
        for m in range(minimum, remaining + 1):
            for g in connected_classes(m, cls):
                key = (m, canonical_certificate(g))
                if key < min_key:
                    continue
                compose(remaining - m, key, chosen + [g])

    compose(n, (0, b""), [])
    out = list(connected_classes(n, cls)) + [canonical_graph(g) for g in results]
    out.sort(key=canonical_certificate)
    return out


def enumerate_graphs(spec: EnumSpec) -> Iterator[Graph]:
    """Exactly one representative per isomorphism class of the requested
    class and order, in sorted-certificate order."""
    if spec.connected_only:
        yield from connected_classes(spec.n, spec.graph_class)
    else:
        yield from _all_classes(spec.n, spec.graph_class)


def enumerate_from_file(
    path_or_lines,
    predicate: Callable[[Graph], bool] | None = None,
    strict: bool = False,
) -> tuple[list[Graph], list[tuple[int, str]]]:
    """Parse a graph6 corpus and keep the graphs passing the predicate.

    File order is preserved; ingested graphs are re-checked against the
    predicate rather than trusted. Malformed lines are returned with their
    line numbers, or raised immediately when strict.
    """
    if isinstance(path_or_lines, (str, bytes)):
        with open(path_or_lines, "r", encoding="ascii") as fh:
            lines = fh.readlines()
    else:
        lines = list(path_or_lines)
    graphs: list[Graph] = []
    errors: list[tuple[int, str]] = []
    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped:
            continue
        try:
            g = parse_graph6(stripped)
        except Graph6Error as exc:
            if strict:
                raise Graph6Error(f"line {lineno}: {exc}") from exc
            errors.append((lineno, str(exc)))
            continue
        if predicate is None or predicate(g):
            graphs.append(g)
    return graphs, errors
