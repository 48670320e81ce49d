"""Independent reference implementations used only by the tests.

Everything here deliberately avoids the production code paths: predicates
walk neighbor id lists instead of bitmasks, minimization enumerates subsets
in increasing size, isomorphism tries permutations, automorphisms are
found by backtracking over vertex images, and the graph6 encoder
builds the bit string by hand. The one shared piece is the canonical
certificate used to dedupe the labeled-mask enumeration, which agrees for
two graphs iff they are isomorphic. ``seed_solve_min``,
``seed_canonical_form``, ``dedupe_augment_classes`` and
``plain_exists_set_of_size`` are the other kind of reference: the
per-node rescan that the production search replaced, the labeling that
refined against every cell and walked every leaf, the generator that
labeled every child and deduped by certificate, and the certifier that
tested every subset, kept so that the new code can be held to the very
same results.
"""

from __future__ import annotations

from itertools import combinations, permutations

from rdom import kernels
from rdom.enumeration import _MIN_ORDER, _feasible_cubic, _feasible_ss, _one_per_orbit
from rdom.graph import Graph, bits_of, is_cubic, is_special_subcubic, mask_of
from rdom.graph6 import parse_graph6
from rdom.iso import canonical_certificate


def neighbor_lists(g: Graph) -> list[list[int]]:
    return [sorted(bits_of(g.adj[v])) for v in range(g.n)]


def naive_is_restrained(g: Graph, s_ids) -> bool:
    s = set(s_ids)
    nbrs = neighbor_lists(g)
    for v in range(g.n):
        if v in s:
            continue
        if not any(u in s for u in nbrs[v]):
            return False
        if not any(u not in s for u in nbrs[v]):
            return False
    return True


def naive_is_nerd(g: Graph, s_ids, x_ids, variant: str) -> bool:
    s, x = set(s_ids), set(x_ids)
    nbrs = neighbor_lists(g)
    if variant == "ndom":
        for v in range(g.n):
            if v in s:
                continue
            if v not in x and not any(u in s for u in nbrs[v]):
                return False
            if not any(u not in s for u in nbrs[v]):
                return False
        return True
    if x & s:
        return False
    for v in range(g.n):
        if v in s:
            continue
        if not any(u in s for u in nbrs[v]):
            return False
        if v not in x and not any(u not in s for u in nbrs[v]):
            return False
    return True


def naive_minimum(g: Graph, predicate) -> tuple[int, list[frozenset[int]]] | None:
    """Smallest size admitting the predicate, with every optimal set."""
    for size in range(g.n + 1):
        hits = [frozenset(c) for c in combinations(range(g.n), size) if predicate(g, c)]
        if hits:
            return size, hits
    return None


def naive_min_rd(g: Graph):
    return naive_minimum(g, naive_is_restrained)


def naive_min_nerd(g: Graph, x_ids, variant):
    return naive_minimum(g, lambda gg, c: naive_is_nerd(gg, c, x_ids, variant))


def plain_exists_set_of_size(g: Graph, size, predicate, force_in=0, force_out=0):
    """The certifier before its domination prune: test every subset of the
    free vertices in ``combinations`` order and return the first the
    predicate accepts."""
    base = force_in.bit_count()
    if base > size:
        return None
    free = [v for v in range(g.n) if not ((force_in | force_out) >> v & 1)]
    if size - base > len(free):
        return None
    for combo in combinations(free, size - base):
        mask = force_in | mask_of(combo)
        if predicate(g, mask):
            return mask
    return None


def lex_least_mask(sets) -> int:
    best = None
    for s in sets:
        mask = 0
        for v in s:
            mask |= 1 << v
        if best is None or mask < best:
            best = mask
    return best


def naive_meets(n, adj, dom_req, res_req, s) -> bool:
    """The constraints of ``rdom.kernels.solve_min`` checked vertex by
    vertex on id sets: every ``dom_req`` vertex is in s or has a neighbor
    in s, and every ``res_req`` vertex outside s has a neighbor outside s."""
    if s >> n:
        return False
    members = {v for v in range(n) if s >> v & 1}
    for v in range(n):
        if v in members:
            continue
        nbrs = [u for u in range(n) if adj[v] >> u & 1]
        if dom_req >> v & 1 and not any(u in members for u in nbrs):
            return False
        if res_req >> v & 1 and all(u in members for u in nbrs):
            return False
    return True


def seed_solve_min(n, adj, dom_req, res_req, force_in=0, force_out=0):
    """Node-by-node reference for ``rdom.kernels.solve_min``: every search
    node rescans all n vertices. Kept verbatim from the solver it replaced,
    so the differential test can demand the same ``(size, bits)``.

    Minimize |S| over vertex sets S subject to the parametric constraints.

    Constraints:
      * ``force_in`` is a subset of S and S avoids ``force_out``;
      * every vertex flagged in ``dom_req`` is dominated: N[v] meets S;
      * every vertex flagged in ``res_req`` that lies outside S has a
        neighbor outside S.

    Returns ``(size, bits)`` for an optimal S, or ``None`` when no S
    satisfies the constraints. Among optimal sets the one with the smallest
    bitmask value wins, so the witness is independent of search order.

    Search: depth-first branch and bound over IN/OUT/UNDECIDED labels. The
    branch vertex is the lowest-index undecided vertex adjacent to (or
    itself carrying) a constraint still in jeopardy, IN tried before OUT.
    When nothing is in jeopardy, sending all undecided vertices OUT is
    feasible, which closes the node. Lower bound: |IN| plus
    ceil(undominated / (max degree + 1)).
    """
    if force_in & force_out:
        return None
    full = (1 << n) - 1
    closed = [adj[v] | (1 << v) for v in range(n)]
    maxdeg = 0
    for v in range(n):
        d = adj[v].bit_count()
        if d > maxdeg:
            maxdeg = d
    denom = maxdeg + 1
    best_size = n + 1
    best_bits = -1

    def search(inb, outb, cnt):
        nonlocal best_size, best_bits
        und = full & ~(inb | outb)
        undominated = 0
        branch = n
        for v in range(n):
            bv = 1 << v
            if dom_req & bv and not closed[v] & inb:
                cand = closed[v] & und
                if not cand:
                    return  # v can never be dominated on this path
                undominated += 1
                low = (cand & -cand).bit_length() - 1
                if low < branch:
                    branch = low
            if res_req & bv and not inb & bv:
                if not adj[v] & ~inb:
                    # all neighbors IN: v cannot sit outside S
                    if outb & bv:
                        return
                    if v < branch:
                        branch = v
        if undominated:
            if cnt + (undominated + denom - 1) // denom > best_size:
                return
        if branch == n:
            if cnt < best_size or (cnt == best_size and (best_bits < 0 or inb < best_bits)):
                best_size = cnt
                best_bits = inb
            return
        bv = 1 << branch
        if cnt < best_size:
            search(inb | bv, outb, cnt + 1)
        search(inb, outb | bv, cnt)

    search(force_in, force_out, force_in.bit_count())
    if best_bits < 0:
        return None
    return best_size, best_bits


def _seed_refine(n, adj, cells):
    """Stabilize an ordered partition under neighbor-count signatures."""
    while True:
        masks = []
        for cell in cells:
            m = 0
            for v in cell:
                m |= 1 << v
            masks.append(m)
        changed = False
        out = []
        for cell in cells:
            if len(cell) == 1:
                out.append(cell)
                continue
            sig = {}
            for v in cell:
                av = adj[v]
                key = tuple((av & m).bit_count() for m in masks)
                sig.setdefault(key, []).append(v)
            if len(sig) == 1:
                out.append(cell)
            else:
                changed = True
                for key in sorted(sig):
                    out.append(tuple(sig[key]))
        cells = tuple(out)
        if not changed:
            return cells


def _seed_pack(n, adj, perm):
    # canonical form: n, then upper-triangle bits column-major, MSB first
    buf = bytearray(1 + (n * (n - 1) // 2 + 7) // 8)
    buf[0] = n
    k = 0
    for j in range(1, n):
        aj = adj[perm[j]]
        for i in range(j):
            if aj >> perm[i] & 1:
                buf[1 + (k >> 3)] |= 0x80 >> (k & 7)
            k += 1
    return bytes(buf)


def seed_canonical_form(n, adj):
    """Unpruned reference for ``rdom.kernels.canonical_form``: every
    round refines against every cell, and every leaf is visited. Kept
    verbatim from the labeling it replaced, so the differential test can
    demand the same ``(cert, perm)``.

    Canonical labeling for graphs with at most CERT_MAX_N vertices.

    Returns ``(cert, perm)``: ``cert`` is equal for two graphs iff they are
    isomorphic, and ``perm[i]`` is the original id of the vertex occupying
    position ``i`` in the canonical labeling. Vertices are first partitioned
    by degree, the partition is refined to stability, and every vertex of
    the first non-singleton cell is individualized in turn; the
    lexicographically least packed adjacency over all leaves is the
    certificate.
    """
    if n > 16:
        raise ValueError(f"canonical labeling supports n <= 16, got {n}")
    if n == 0:
        return b"\x00", ()
    by_degree = {}
    for v in range(n):
        by_degree.setdefault(adj[v].bit_count(), []).append(v)
    cells = tuple(tuple(by_degree[d]) for d in sorted(by_degree))
    best_cert = None
    best_perm = None

    def descend(cells):
        nonlocal best_cert, best_perm
        cells = _seed_refine(n, adj, cells)
        for idx, cell in enumerate(cells):
            if len(cell) > 1:
                for v in cell:
                    rest = tuple(u for u in cell if u != v)
                    descend(cells[:idx] + ((v,), rest) + cells[idx + 1:])
                return
        perm = tuple(c[0] for c in cells)
        cert = _seed_pack(n, adj, perm)
        if best_cert is None or cert < best_cert:
            best_cert = cert
            best_perm = perm

    descend(cells)
    return best_cert, best_perm


def brute_isomorphic(g1: Graph, g2: Graph) -> bool:
    """Exhaustive search over degree-preserving bijections (every
    isomorphism preserves degrees, so nothing is lost by skipping the
    rest)."""
    if g1.n != g2.n or g1.edge_count() != g2.edge_count():
        return False
    by_degree1: dict[int, list[int]] = {}
    by_degree2: dict[int, list[int]] = {}
    for v in range(g1.n):
        by_degree1.setdefault(g1.adj[v].bit_count(), []).append(v)
        by_degree2.setdefault(g2.adj[v].bit_count(), []).append(v)
    if sorted(by_degree1) != sorted(by_degree2):
        return False
    if any(len(by_degree1[d]) != len(by_degree2[d]) for d in by_degree1):
        return False
    degrees = sorted(by_degree1)
    e2 = {frozenset(e) for e in g2.edges()}
    edges1 = g1.edges()

    def assign(idx: int, phi: dict[int, int]):
        if idx == len(degrees):
            return all(frozenset((phi[a], phi[b])) in e2 for a, b in edges1)
        d = degrees[idx]
        side1 = by_degree1[d]
        for perm in permutations(by_degree2[d]):
            for a, b in zip(side1, perm):
                phi[a] = b
            if assign(idx + 1, phi):
                return True
        return False

    return assign(0, {})


def brute_automorphisms(n: int, adj, u: int | None = None, w: int | None = None):
    """Every automorphism of the graph with these rows, as tuples g with
    g[v] the image of v, lazily; with u and w only those mapping u to w.
    Vertices get their images one at a time in breadth-first order from u
    (or 0); an image must have the same degree and the same adjacency to
    every vertex mapped before it."""
    order = []
    for start in ([u] if u is not None else []) + list(range(n)):
        if start in order:
            continue
        i = len(order)
        order.append(start)
        while i < len(order):
            x = order[i]
            i += 1
            order += [y for y in range(n) if adj[x] >> y & 1 and y not in order]
    image = [-1] * n

    def extend(i, used):
        if i == n:
            yield tuple(image)
            return
        x = order[i]
        for y in ([w] if i == 0 and u is not None else range(n)):
            if used >> y & 1 or adj[y].bit_count() != adj[x].bit_count():
                continue
            if any((adj[x] >> z & 1) != (adj[y] >> image[z] & 1) for z in order[:i]):
                continue
            image[x] = y
            yield from extend(i + 1, used | 1 << y)
        image[x] = -1

    return extend(0, 0)


def brute_orbits(n: int, adj) -> list[int]:
    """The orbits of Aut(G) as vertex masks, in order of their least
    vertex: v and w share an orbit iff some automorphism maps v to w."""
    orbits = []
    for v in range(n):
        if any(orbit >> v & 1 for orbit in orbits):
            continue
        orbit = 1 << v
        for w in range(v + 1, n):
            if next(brute_automorphisms(n, adj, v, w), None) is not None:
                orbit |= 1 << w
        orbits.append(orbit)
    return orbits


def mask_graphs(n: int):
    """Every labeled simple graph on n vertices whose degree sequence is
    already non-increasing (each isomorphism class keeps at least one such
    labeling, so certificate dedupe over these recovers all classes)."""
    pairs = list(combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        rows = [0] * n
        m = mask
        while m:
            low = m & -m
            i, j = pairs[low.bit_length() - 1]
            rows[i] |= 1 << j
            rows[j] |= 1 << i
            m ^= low
        ok = True
        prev = n
        for v in range(n):
            d = rows[v].bit_count()
            if d > prev:
                ok = False
                break
            prev = d
        if ok:
            yield rows


def _connected(n: int, rows) -> bool:
    if n == 0:
        return False
    seen = 1
    frontier = 1
    while frontier:
        nxt = 0
        f = frontier
        while f:
            low = f & -f
            nxt |= rows[low.bit_length() - 1]
            f ^= low
        frontier = nxt & ~seen
        seen |= frontier
    return seen == (1 << n) - 1


def mask_connected_classes(n: int, predicate=None) -> dict[str, Graph]:
    """Isomorphism classes of connected graphs on n vertices by exhaustive
    labeled enumeration plus certificate dedupe (the naive oracle)."""
    classes: dict[str, Graph] = {}
    for rows in mask_graphs(n):
        if not _connected(n, rows):
            continue
        g = Graph(n, rows)
        if predicate is not None and not predicate(g):
            continue
        cert = canonical_certificate(g)
        if cert not in classes:
            classes[cert] = g
    return classes


def labeled_cubic_classes(n: int, connected_only: bool = True) -> dict[str, Graph]:
    """Cubic isomorphism classes by backtracking over labeled edge slots."""
    classes: dict[str, Graph] = {}
    pairs = list(combinations(range(n), 2))

    def backtrack(idx: int, degs: list[int], rows: list[int]):
        remaining_slots = len(pairs) - idx
        deficit = sum(3 - d for d in degs)
        if deficit > 2 * remaining_slots:
            return
        if idx == len(pairs):
            if all(d == 3 for d in degs) and (not connected_only or _connected(n, rows)):
                g = Graph(n, list(rows))
                cert = canonical_certificate(g)
                if cert not in classes:
                    classes[cert] = g
            return
        i, j = pairs[idx]
        backtrack(idx + 1, degs, rows)
        if degs[i] < 3 and degs[j] < 3:
            degs[i] += 1
            degs[j] += 1
            rows[i] |= 1 << j
            rows[j] |= 1 << i
            backtrack(idx + 1, degs, rows)
            degs[i] -= 1
            degs[j] -= 1
            rows[i] &= ~(1 << j)
            rows[j] &= ~(1 << i)

    backtrack(0, [0] * n, [0] * n)
    return classes


def encode_graph6_oracle(g: Graph) -> str:
    """Bit-level graph6 encoder written directly from the format rules."""
    assert g.n <= 62
    bits = ""
    for j in range(1, g.n):
        for i in range(j):
            bits += "1" if g.has_edge(i, j) else "0"
    while len(bits) % 6:
        bits += "0"
    out = chr(g.n + 63)
    for k in range(0, len(bits), 6):
        out += chr(int(bits[k:k + 6], 2) + 63)
    return out


def dedupe_augment_classes(n: int, cls: str) -> list[Graph]:
    """Reference for ``rdom.enumeration._augment_classes``: every child is
    labeled and a global certificate set removes the duplicates. Kept
    verbatim from the generator that canonical construction paths replaced,
    so the differential test can demand the same streams.

    Connected classes of order n for cubic / special-subcubic / all.

    Each class of a level is kept with the automorphisms its labeling
    found. Subsets that one of them maps onto each other give isomorphic
    children, so a parent is extended by the first subset of each orbit
    only. The certificate dedupe removes any isomorphic children that
    remain, so this does not rely on the automorphisms generating all of
    Aut(parent).
    """
    if n < _MIN_ORDER[cls]:
        return []
    if cls == "cubic" and n % 2:
        return []
    level: dict[str, tuple[tuple[int, ...], list]] = {"@": ((0,), [])}
    for size in range(1, n):
        r_after = n - size - 1
        nxt: dict[str, tuple[tuple[int, ...], list]] = {}
        for rows, autos in level.values():
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
                for combo, attach in _one_per_orbit(combinations(eligible, sz), autos):
                    new_rows = list(rows)
                    for u in combo:
                        new_rows[u] |= 1 << size
                    new_rows.append(attach)
                    if cls == "cubic":
                        degs = [row.bit_count() for row in new_rows]
                        if not _feasible_cubic(degs, r_after):
                            continue
                    elif cls == "special-subcubic":
                        degs = [row.bit_count() for row in new_rows]
                        if max(degs) > 3 or not _feasible_ss(degs, r_after):
                            continue
                    cert, _, found = kernels.canonical_form(size + 1, new_rows)
                    if cert not in nxt:
                        nxt[cert] = (tuple(new_rows), found)
        level = nxt
    predicate = {"cubic": is_cubic, "special-subcubic": is_special_subcubic, "all": lambda g: True}[cls]
    out = []
    for cert in sorted(level):
        g = parse_graph6(cert)
        if predicate(g):
            out.append(g)
    return out
