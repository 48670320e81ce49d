"""Pure-Python compute kernels.

Two hot paths live here: the exact set-minimization search behind every
solver variant, and canonical labeling by refinement plus branching over
color classes. ``rdom._kernels`` is a compiled twin with identical
signatures and identical deterministic behaviour; ``rdom.kernels`` picks
whichever is available at import time.

Graphs arrive as ``(n, adj)`` where ``adj`` is a sequence of ``n`` ints,
bit ``u`` of ``adj[v]`` set iff ``uv`` is an edge. Vertex sets are plain
ints with vertex 0 in the least significant bit.
"""

from __future__ import annotations

CERT_MAX_N = 16


def solve_min(n, adj, dom_req, res_req, force_in=0, force_out=0):
    """Minimize |S| over vertex sets S subject to the parametric constraints.

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
    ceil(undominated / (max degree + 1)), pruning only on a strict ``>``.

    State is carried down the recursion rather than rescanned per node.
    Besides the IN/OUT masks each node gets two masks:
      * ``dom``, the union of N[v] over the IN vertices;
      * ``trapped``, the ``res_req`` vertices outside IN whose neighbors
        are all IN (such a vertex has to join S).
    Closed neighborhoods are symmetric, so the lowest undecided vertex
    whose N[u] meets an undominated ``dom_req`` vertex is the least
    candidate of any undominated vertex, and the branch vertex is the
    smaller of that and the lowest trapped vertex. A node dies when an
    undominated vertex has no undecided candidate left or a trapped vertex
    is OUT. Only the last decision can make either true, so the root checks
    every vertex once and each edge checks the few it touches: OUT on ``b``
    the undominated vertices of N[b] and ``b`` itself, IN on ``b`` the
    ``res_req`` neighbors of ``b`` it traps. Branch order, bound and
    tie-break are those of a per-node rescan, so the search tree and the
    result are the same.
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

    def search(inb, outb, cnt, dom, trapped):
        nonlocal best_size, best_bits
        undom = dom_req & ~dom
        und = full & ~(inb | outb)
        branch = n
        if undom:
            if cnt + (undom.bit_count() + denom - 1) // denom > best_size:
                return
            rest = und
            while rest:
                low = rest & -rest
                u = low.bit_length() - 1
                if closed[u] & undom:
                    branch = u
                    break
                rest ^= low
        if trapped:
            t = (trapped & -trapped).bit_length() - 1
            if t < branch:
                branch = t
        if branch == n:
            if cnt < best_size or (cnt == best_size and (best_bits < 0 or inb < best_bits)):
                best_size = cnt
                best_bits = inb
            return
        bv = 1 << branch
        if cnt < best_size:
            # IN on branch: trap the res_req neighbors it leaves enclosed
            inb2 = inb | bv
            trapped2 = trapped & ~bv
            nbrs = adj[branch] & res_req & ~inb2
            while nbrs:
                low = nbrs & -nbrs
                if not adj[low.bit_length() - 1] & ~inb2:
                    trapped2 |= low
                nbrs ^= low
            if not trapped2 & outb:
                search(inb2, outb, cnt + 1, dom | closed[branch], trapped2)
        # OUT on branch: dead if branch is trapped or leaves an undominated
        # vertex of N[branch] without an undecided candidate
        if trapped & bv:
            return
        und &= ~bv
        hit = closed[branch] & undom
        while hit:
            low = hit & -hit
            if not closed[low.bit_length() - 1] & und:
                return
            hit ^= low
        search(inb, outb | bv, cnt, dom, trapped)

    # the root checks every vertex once; below it each edge checks only
    # what its own decision can have changed
    dom = trapped = 0
    for v in range(n):
        bv = 1 << v
        if force_in & bv:
            dom |= closed[v]
        elif res_req & bv and not adj[v] & ~force_in:
            trapped |= bv
    if trapped & force_out:
        return None
    und = full & ~(force_in | force_out)
    for v in range(n):
        if dom_req >> v & 1 and not dom >> v & 1 and not closed[v] & und:
            return None
    search(force_in, force_out, force_in.bit_count(), dom, trapped)
    if best_bits < 0:
        return None
    return best_size, best_bits


def _refine(n, adj, cells):
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


def _pack(n, adj, perm):
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


def canonical_form(n, adj):
    """Canonical labeling for graphs with at most CERT_MAX_N vertices.

    Returns ``(cert, perm)``: ``cert`` is equal for two graphs iff they are
    isomorphic, and ``perm[i]`` is the original id of the vertex occupying
    position ``i`` in the canonical labeling. Vertices are first partitioned
    by degree, the partition is refined to stability, and every vertex of
    the first non-singleton cell is individualized in turn; the
    lexicographically least packed adjacency over all leaves is the
    certificate.
    """
    if n > CERT_MAX_N:
        raise ValueError(f"canonical labeling supports n <= {CERT_MAX_N}, got {n}")
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
        cells = _refine(n, adj, cells)
        for idx, cell in enumerate(cells):
            if len(cell) > 1:
                for v in cell:
                    rest = tuple(u for u in cell if u != v)
                    descend(cells[:idx] + ((v,), rest) + cells[idx + 1:])
                return
        perm = tuple(c[0] for c in cells)
        cert = _pack(n, adj, perm)
        if best_cert is None or cert < best_cert:
            best_cert = cert
            best_perm = perm

    descend(cells)
    return best_cert, best_perm
