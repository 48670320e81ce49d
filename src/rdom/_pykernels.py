"""The compute kernels, in pure Python.

Two hot paths live here: the exact set-minimization search behind every
solver variant, and canonical labeling by refinement plus branching over
color classes, pruned by the automorphisms it finds. This is rdom's only
kernel. The rest of the library calls it through ``rdom.kernels``, which
validates ``solve_min``'s arguments first: the search trusts its rows to
be symmetric and does not check them.

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


def _refine(adj, cells, splitters):
    """Stabilize an ordered partition under neighbor-count signatures.

    Cells and splitters are vertex masks; within a cell, vertices are taken
    in increasing id order. Each round splits every cell by the vertices'
    neighbor counts in the ``splitters`` and orders the parts by those
    count tuples. The caller passes the cells that can still tell the
    vertices of one cell apart: vertices sharing a cell already agree on
    their counts in every other cell, and on the total over the parts the
    last round made of a cell. The next round's splitters are therefore the
    parts split off in this round, in cell order, minus the last part of
    each split cell. Lex order on those short keys is lex order on the keys
    over every cell, so each round yields the same partition as a round
    that counts against all cells. A cell with no neighbor in any splitter
    cannot split and is passed over. Stops after a round that splits
    nothing.
    """
    while splitters:
        touched = 0
        for s in splitters:
            while s:
                low = s & -s
                touched |= adj[low.bit_length() - 1]
                s ^= low
        single = splitters[0] if len(splitters) == 1 else 0
        out = []
        nxt = []
        for cell in cells:
            if not cell & touched or not cell & (cell - 1):
                out.append(cell)
                continue
            sig = {}
            rest = cell
            while rest:
                low = rest & -rest
                av = adj[low.bit_length() - 1]
                if single:
                    key = (av & single).bit_count()
                else:
                    # one 5-bit digit per splitter: a count is at most
                    # n - 1 < 32, so the integers order as the tuples do
                    key = 0
                    for s in splitters:
                        key = key << 5 | (av & s).bit_count()
                sig[key] = sig.get(key, 0) | low
                rest ^= low
            if len(sig) == 1:
                out.append(cell)
                continue
            parts = [sig[key] for key in sorted(sig)]
            out += parts
            nxt += parts[:-1]
        if len(out) == len(adj):
            return out
        cells = out
        splitters = nxt
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


def canonical_form(n, adj, autos=None):
    """Canonical labeling for graphs with at most CERT_MAX_N vertices.

    Returns ``(cert, perm)``: ``cert`` is equal for two graphs iff they are
    isomorphic, and ``perm[i]`` is the original id of the vertex occupying
    position ``i`` in the canonical labeling. Vertices are first partitioned
    by degree, the partition is refined to stability (``_refine``), and
    every vertex of the first non-singleton cell is individualized in turn,
    depth first and in increasing id order; the lexicographically least
    packed adjacency over all leaves is the certificate, and ``perm`` is the
    first leaf in search order that reaches it.

    After individualizing ``v`` in a stable partition, ``{v}`` is the only
    splitter the refinement needs. A leaf whose packed adjacency equals the
    best one so far yields the automorphism ``g[best_perm[i]] = perm[i]``.
    A child ``v`` of a node is skipped when the automorphisms recorded so
    far that fix the node's individualized vertices pointwise map an
    earlier-tried sibling onto ``v``: its subtree is that sibling's subtree
    relabeled, so it holds the same certificates and only later in search
    order. The first least leaf is never skipped, so ``(cert, perm)`` is
    what the unpruned search returns.

    When ``autos`` is a list, the automorphisms found are appended to it as
    tuples ``g`` with ``g[v]`` the image of ``v``. They generate a subgroup
    of Aut(G), not necessarily all of it.
    """
    if n > CERT_MAX_N:
        raise ValueError(f"canonical labeling supports n <= {CERT_MAX_N}, got {n}")
    if n == 0:
        return b"\x00", ()
    by_degree = {}
    for v in range(n):
        d = adj[v].bit_count()
        by_degree[d] = by_degree.get(d, 0) | 1 << v
    cells = [by_degree[d] for d in sorted(by_degree)]
    found = []  # (g, mask of the fixed points of g)
    best_cert = None
    best_perm = None

    def descend(cells, splitters, fixed):
        nonlocal best_cert, best_perm
        cells = _refine(adj, cells, splitters)
        for idx, cell in enumerate(cells):
            if cell & (cell - 1):
                orbit = None  # union-find over the stabilizer's orbits, once one is found
                used = 0
                tried = []
                rest = cell
                while rest:
                    low = rest & -rest
                    rest ^= low
                    v = low.bit_length() - 1
                    while used < len(found):
                        g, stable = found[used]
                        used += 1
                        if not fixed & ~stable:
                            if orbit is None:
                                orbit = list(range(n))
                            for u in range(n):
                                if g[u] != u:
                                    a, b = _root(orbit, u), _root(orbit, g[u])
                                    if a != b:
                                        orbit[max(a, b)] = min(a, b)
                    if orbit is not None:
                        r = _root(orbit, v)
                        if any(_root(orbit, w) == r for w in tried):
                            continue
                    tried.append(v)
                    descend(cells[:idx] + [low, cell ^ low] + cells[idx + 1:], [low], fixed | low)
                return
        perm = tuple(c.bit_length() - 1 for c in cells)
        cert = _pack(n, adj, perm)
        if best_cert is None or cert < best_cert:
            best_cert = cert
            best_perm = perm
        elif cert == best_cert:
            g = [0] * n
            stable = 0
            for i in range(n):
                g[best_perm[i]] = perm[i]
                if best_perm[i] == perm[i]:
                    stable |= 1 << perm[i]
            found.append((tuple(g), stable))

    # the degree cells agree on their totals over the whole vertex set
    descend(cells, cells[:-1], 0)
    if autos is not None:
        autos.extend(g for g, _ in found)
    return best_cert, best_perm


def _root(parent, u):
    while parent[u] != u:
        parent[u] = parent[parent[u]]
        u = parent[u]
    return u
