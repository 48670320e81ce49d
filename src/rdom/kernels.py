"""The compute kernels, in pure Python.

Two hot paths live here: the set-minimization search behind every exact
solver, and canonical labeling by refinement plus branching over color
classes, pruned by the automorphisms it finds. This is rdom's only
kernel. ``solve_min`` validates its arguments before it searches: the
search trusts its rows to be symmetric and does not check them.
``canonical_form`` goes unguarded: it sits on the enumeration hot path and
checks its own ``CERT_MAX_N``. The rest of rdom calls both as
``kernels.<name>``, so a wrapper installed here (a tracer, a test's
stand-in labeler) sees every call.

Graphs arrive as ``(n, adj)`` where ``adj`` is a sequence of ``n`` ints,
bit ``u`` of ``adj[v]`` set iff ``uv`` is an edge. Vertex sets are plain
ints with vertex 0 in the least significant bit.

``ACTIVE`` names the kernel and is always ``"python"``. It stays because
benchmark runs record it in their metadata.
"""

from __future__ import annotations

from rdom.graph import MAX_N
from rdom.graph6 import pack_graph6

ACTIVE = "python"
CERT_MAX_N = 16


def solve_min(n, adj, dom_req, res_req, force_in=0, force_out=0):
    """Minimize |S| over vertex sets S subject to the parametric constraints.

    Constraints:
      * ``force_in`` is a subset of S and S avoids ``force_out``;
      * every vertex flagged in ``dom_req`` is dominated: N[v] meets S;
      * every vertex flagged in ``res_req`` that lies outside S has a
        neighbor outside S.

    ``adj`` must hold ``n <= MAX_N`` (64, one machine word per row)
    symmetric loop-free rows over ``range(n)``, and every mask must lie
    inside ``range(n)``; anything else raises ``ValueError`` before the
    search starts, since the search relies on the symmetry.

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
    if not 0 <= n <= MAX_N:
        raise ValueError(f"solve_min supports 0 <= n <= {MAX_N}, got {n}")
    if len(adj) != n:
        raise ValueError(f"expected {n} adjacency rows, got {len(adj)}")
    for v, row in enumerate(adj):
        if row >> n or row >> v & 1:
            raise ValueError(f"row {v} has a loop or a bit outside range({n})")
        rest = row
        while rest:
            low = rest & -rest
            if not adj[low.bit_length() - 1] >> v & 1:
                raise ValueError(f"asymmetric adjacency at vertex {v}")
            rest ^= low
    for name, mask in (("dom_req", dom_req), ("res_req", res_req),
                       ("force_in", force_in), ("force_out", force_out)):
        if mask >> n:
            raise ValueError(f"{name} has bits outside range({n})")
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


def _degree_cells(n, adj):
    """The vertices grouped by degree, as masks by increasing degree: the
    partition canonical labeling starts from."""
    by_degree = {}
    for v in range(n):
        d = adj[v].bit_count()
        by_degree[d] = by_degree.get(d, 0) | 1 << v
    return [by_degree[d] for d in sorted(by_degree)]


def canonical_form(n, adj):
    """Canonical labeling for graphs with at most CERT_MAX_N vertices.

    Returns ``(cert, perm, autos)``: ``cert`` is equal for two graphs iff
    they are isomorphic, ``perm[i]`` is the original id of the vertex
    occupying position ``i`` in the canonical labeling, and ``autos`` holds
    the automorphisms the search found. Vertices are first partitioned
    by degree, the partition is refined to stability (``_refine``), and
    every vertex of the first non-singleton cell is individualized in turn,
    depth first and in increasing id order. Each leaf is packed as the
    graph6 line of the graph it labels (``rdom.graph6.pack_graph6``); the
    least graph6 line over all leaves is the certificate, so
    ``parse_graph6(cert)`` is the canonically labeled graph, and ``perm``
    is the first leaf in search order that reaches it.

    After individualizing ``v`` in a stable partition, ``{v}`` is the only
    splitter the refinement needs. A leaf whose graph6 line equals the
    best one so far yields the automorphism ``g[best_perm[i]] = perm[i]``.
    A child ``v`` of a node is skipped when the automorphisms recorded so
    far that fix the node's individualized vertices pointwise map an
    earlier-tried sibling onto ``v``: its subtree is that sibling's subtree
    relabeled, so it holds the same certificates and only later in search
    order. The first least leaf is never skipped, so ``(cert, perm)`` is
    what the unpruned search returns.

    The automorphisms come as a tuple of tuples ``g``, ``g[v]`` the image
    of ``v``. They generate all of Aut(G), so their orbits are the orbits
    of Aut(G); the enumerator's deletion test relies on this. Proof (as for
    nauty: McKay & Piperno, *Practical graph isomorphism II*, JSC 60,
    2014): refinement and the choice of the target cell are
    label-invariant, so an automorphism that fixes a node's individualized
    vertices pointwise maps the subtree of each child onto the subtree of
    its image, leaf certificates included.
    Let ``b`` be the first least leaf, on the path ``m_0 (the root), m_1,
    ..., m_k = b``, and ``S_i`` the automorphisms that fix the
    individualized vertices of ``m_i`` pointwise.
    Show by induction from ``i = k`` down that the found automorphisms in
    ``S_i`` generate ``S_i``; ``S_k`` is trivial, since the partition at a
    leaf is discrete, and ``S_0`` is Aut(G). Let ``m_(i+1)`` individualize
    ``v``, and ``w`` be another vertex of ``v``'s ``S_i``-orbit.

    * A skipped child is the image of a tried sibling under automorphisms
      that fix the node, so a node whose unpruned subtree holds a leaf
      with ``b``'s certificate has one in its searched subtree as well.
    * So ``w < v`` cannot be: ``w``, or the tried sibling it is skipped
      for, would have shown such a leaf before ``b``, which is the first.
    * If ``w`` is tried, its subtree shows a leaf ``l`` with ``b``'s
      certificate, after ``b`` and while ``b`` is the best leaf, so
      ``l`` yields ``g`` with ``g[b_perm[i]] = l_perm[i]``. The two leaves
      share the ordered partition of ``m_i``, and each cell keeps its
      positions down to a leaf, so ``g`` fixes ``m_i``'s individualized
      vertices and maps ``v`` to ``w``: ``g`` is found and lies in ``S_i``.
    * If ``w`` is skipped, found automorphisms in ``S_i`` map a tried
      sibling ``u`` onto it. Then ``u`` is in the same orbit, so it is
      ``v`` or, by the bullet above, the image of ``v`` under found
      automorphisms in ``S_i``.

    So the group that the found automorphisms in ``S_i`` generate contains
    ``S_(i+1)``, the stabilizer of ``v`` in ``S_i`` (by induction), and it
    moves ``v`` over the whole ``S_i``-orbit of ``v``: it is ``S_i``.
    """
    if n > CERT_MAX_N:
        raise ValueError(f"canonical labeling supports n <= {CERT_MAX_N}, got {n}")
    cells = _degree_cells(n, adj)
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
        cert = pack_graph6(n, adj, perm)
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
    return best_cert, best_perm, tuple(g for g, _ in found)


def _root(parent, u):
    while parent[u] != u:
        parent[u] = parent[parent[u]]
        u = parent[u]
    return u
