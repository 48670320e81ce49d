"""The compute kernels as the rest of rdom calls them.

``rdom._pykernels`` is the one kernel; this module re-exports its
``CERT_MAX_N`` and ``canonical_form`` and puts an input guard in front of
its ``solve_min``. ``canonical_form`` goes unguarded: it sits on the
enumeration hot path and checks its own ``CERT_MAX_N``. Callers go through
these names, so a wrapper installed here (a tracer, a test's stand-in
labeler) sees every call.

``ACTIVE`` names the kernel and is always ``"python"``. It stays because
benchmark runs record it in their metadata.
"""

from __future__ import annotations

from rdom import _pykernels
from rdom._pykernels import CERT_MAX_N, canonical_form
from rdom.graph import MAX_N

ACTIVE = "python"


def solve_min(n, adj, dom_req, res_req, force_in=0, force_out=0):
    """``rdom._pykernels.solve_min`` behind a guard: ``adj`` must hold
    ``n <= MAX_N`` (64, one machine word per row) symmetric loop-free rows
    over ``range(n)``, and every mask must lie inside ``range(n)``. The
    search relies on the symmetry."""
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
    return _pykernels.solve_min(n, adj, dom_req, res_req, force_in, force_out)
