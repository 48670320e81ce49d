"""Kernel selection: compiled extension when available, pure Python otherwise.

Set ``RDOM_PURE=1`` in the environment to force the pure-Python kernels even
when the compiled module is importable. ``ACTIVE`` reports which one won.

``solve_min`` validates its arguments before handing them to the selected
kernel, so malformed input raises ``ValueError`` in both modes instead of
reaching the compiled kernel's fixed-width arrays. ``canonical_form`` is
not validated: it sits on the enumeration hot path and guards its own
``CERT_MAX_N``. It takes ``canonical_form(n, adj, autos=None)`` in both
modes. The pure kernel appends the automorphisms its search found to a
list passed as ``autos``; the compiled kernel keeps its ``(n, adj)``
signature and finds none, so the list stays empty: the enumerator's
orbit pruning is off, and its canonical test labels the child minus its
deletion vertex whenever that vertex is not the new one.
"""

from __future__ import annotations

import os

from rdom.graph import MAX_N

if os.environ.get("RDOM_PURE", "") in ("1", "true", "yes"):
    from rdom import _pykernels as _impl

    ACTIVE = "python"
else:
    try:
        from rdom import _kernels as _impl  # type: ignore[attr-defined]

        ACTIVE = "compiled"
    except ImportError:
        from rdom import _pykernels as _impl

        ACTIVE = "python"

CERT_MAX_N = _impl.CERT_MAX_N
if ACTIVE == "python":
    canonical_form = _impl.canonical_form
else:

    def canonical_form(n, adj, autos=None):
        return _impl.canonical_form(n, adj)


def solve_min(n, adj, dom_req, res_req, force_in=0, force_out=0):
    """The selected kernel's ``solve_min`` (see ``rdom._pykernels``) behind
    a guard: ``adj`` must hold ``n <= MAX_N`` (64, the compiled kernel's
    row array) symmetric loop-free rows over ``range(n)``, and every mask
    must lie inside ``range(n)``. The search relies on the symmetry."""
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
    return _impl.solve_min(n, adj, dom_req, res_req, force_in, force_out)
