"""graph6 encoding and decoding.

The format packs the upper triangle of the adjacency matrix column-major,
(0,1), (0,2), (1,2), (0,3), ... into 6-bit groups, MSB first, each group
offset by 63 into the printable range 63..126. Orders up to 62 use a single
length byte; 63 and 64 use the long form ``126 b b b`` carrying 18 bits.
The optional ``>>graph6<<`` header is accepted on input and never written.
``pack_graph6`` is rdom's one writer of this bit order and ``parse_graph6``
its one reader; the canonical certificates of ``rdom.iso`` are graph6 lines
that the labeler builds with ``pack_graph6``.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from rdom.graph import MAX_N, Graph

HEADER = ">>graph6<<"


class Graph6Error(ValueError):
    """Malformed graph6 input."""


def _to_text(data: str | bytes) -> str:
    if isinstance(data, bytes):
        try:
            return data.decode("ascii")
        except UnicodeDecodeError as exc:
            raise Graph6Error("graph6 data is not ASCII") from exc
    return data


def parse_graph6(data: str | bytes) -> Graph:
    """Decode one graph6 value (optionally ``>>graph6<<``-prefixed)."""
    s = _to_text(data).strip()
    if s.startswith(HEADER):
        s = s[len(HEADER):].lstrip()
    if not s:
        raise Graph6Error("empty graph6 input")
    vals = []
    for ch in s:
        code = ord(ch)
        if not 63 <= code <= 126:
            raise Graph6Error(f"character {ch!r} outside graph6 range 63..126")
        vals.append(code - 63)
    if vals[0] < 63:
        n = vals[0]
        body = vals[1:]
    else:
        if len(vals) < 4 or vals[1] == 63:
            raise Graph6Error("malformed long-form length header")
        n = (vals[1] << 12) | (vals[2] << 6) | vals[3]
        body = vals[4:]
    if n > MAX_N:
        raise Graph6Error(f"order {n} exceeds the {MAX_N}-vertex cap")
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    if len(body) != need:
        raise Graph6Error(f"expected {need} payload characters for n={n}, got {len(body)}")
    rows = [0] * n
    k = 0
    for j in range(1, n):
        for i in range(j):
            if body[k // 6] >> (5 - k % 6) & 1:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
            k += 1
    # trailing padding bits must be zero
    for k in range(nbits, need * 6):
        if body[k // 6] >> (5 - k % 6) & 1:
            raise Graph6Error("nonzero padding bits")
    return Graph(n, rows)


def pack_graph6(n: int, adj, perm) -> str:
    """The graph6 line of the graph whose vertex ``i`` is ``perm[i]`` of the
    graph with rows ``adj``. The canonical labeling packs every leaf with
    it, so among graphs of one order its lines compare as their adjacency
    bit strings do."""
    if n <= 62:
        buf = bytearray((63 + n,))
    else:
        buf = bytearray((126, 63 + (n >> 12), 63 + (n >> 6 & 63), 63 + (n & 63)))
    # payload bit k goes to bit 5 - k % 6 of character k // 6; k starts at
    # six bits per header character, so it skips the order header
    k = 6 * len(buf)
    buf += b"?" * ((n * (n - 1) // 2 + 5) // 6)
    for j in range(1, n):
        aj = adj[perm[j]]
        for i in range(j):
            if aj >> perm[i] & 1:
                buf[k // 6] += 32 >> k % 6
            k += 1
    return buf.decode("ascii")


def write_graph6(g: Graph) -> str:
    """Encode a graph; inverse of parse_graph6 on canonical encodings."""
    return pack_graph6(g.n, g.adj, range(g.n))


def iter_graph6(lines: Iterable[str | bytes]) -> Iterator[tuple[int, Graph | None, str | None]]:
    """Parse newline-separated graph6 values.

    Yields ``(lineno, graph, None)`` for good lines and
    ``(lineno, None, message)`` for bad ones; blank lines are skipped.
    """
    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped:
            continue
        try:
            yield lineno, parse_graph6(stripped), None
        except Graph6Error as exc:
            yield lineno, None, str(exc)
