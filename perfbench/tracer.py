"""Per-layer tracing by wrapping rdom's functions at their module boundaries.

Nothing in rdom changes. ``Tracer.install`` replaces each traced function
with a wrapper in every ``rdom`` module that holds it under some name (the
library imports functions by name, so patching only the defining module
would miss most calls), and ``uninstall`` puts the originals back.

Each wrapper opens a span on a stack and, when it closes, adds to its
layer's totals:

* ``calls``  spans closed;
* ``busy``   wall time inside the layer, counted once when the layer
  re-enters itself;
* ``self``   wall time inside the layer minus the time covered by the
  traced spans it called;
* ``items``  for layers given an ``items`` function, the sum of that
  function over the results (graphs returned by the enumerator).

Totals are kept in memory, not as a span log, so a traced pass costs a few
microseconds per call. Sweeps that fan out to worker processes ship each
worker's totals back with its result (see ``pool_sweep``) and the parent
adds them in, so ``busy`` and ``self`` of layers that ran in workers are
CPU-side sums over processes while the parent's own spans stay wall time.
"""

from __future__ import annotations

import functools
import sys
import time

# (defining module, attribute, layer name). Graph construction is traced
# through ``Graph.__init__``, so every constructor call counts wherever the
# class was imported.
TARGETS = (
    ("rdom.kernels", "canonical_form", "kernels.canonical_form"),
    ("rdom.kernels", "solve_min", "kernels.solve_min"),
    ("rdom.enumeration", "connected_classes", "enumeration.connected_classes"),
    ("rdom.iso", "canonical_graph", "iso.canonical_graph"),
    ("rdom.iso", "are_isomorphic", "iso.are_isomorphic"),
    ("rdom.solvers", "gamma_r_exact", "solvers.gamma_r_exact"),
    ("rdom.solvers", "gamma_r_nerd_exact", "solvers.gamma_r_nerd_exact"),
    ("rdom.harness", "exists_set_of_size", "harness.exists_set_of_size"),
    ("rdom.family", "classify_brdom", "family.classify_brdom"),
    ("rdom.family", "all_family_members", "family.all_family_members"),
    ("rdom.family", "weight", "family.weight"),
    ("rdom.graph6", "parse_graph6", "graph6.parse_graph6"),
    ("rdom.graph6", "write_graph6", "graph6.write_graph6"),
    ("rdom.harness", "verify_cubic_bound", "harness"),
    ("rdom.harness", "verify_key_theorem", "harness"),
    ("rdom.harness", "verify_observation_1", "harness"),
    ("rdom.harness", "verify_observations_2_to_6", "harness"),
)
ITEM_COUNTERS = {"enumeration.connected_classes": len}
# the kernel implementations are the layer itself, not a place it is used
_NOT_USE_SITES = ("rdom._pykernels", "rdom._kernels")

_active: Tracer | None = None  # the installed tracer, found by pool workers


class Tracer:
    def __init__(self):
        self.totals: dict[str, list] = {}  # name -> [calls, busy, self, items]
        self._stack: list[list[float]] = []  # per open span: [child time]
        self._open: dict[str, int] = {}
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, name, fn, items=None):
        totals = self.totals.setdefault(name, [0, 0.0, 0.0, 0])
        self._open.setdefault(name, 0)
        stack, open_, clock = self._stack, self._open, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            open_[name] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                open_[name] -= 1
                if stack:
                    stack[-1][0] += dur
                totals[0] += 1
                totals[2] += dur - frame[0]
                if not open_[name]:
                    totals[1] += dur
            if items is not None:
                totals[3] += items(result)
            return result

        return traced

    def install(self) -> None:
        global _active
        if self._patches:
            raise RuntimeError("tracer already installed")
        import rdom.graph
        import rdom.harness

        use_sites = [
            mod for name, mod in list(sys.modules.items())
            if (name == "rdom" or name.startswith("rdom.")) and name not in _NOT_USE_SITES
        ]
        for modname, attr, layer in TARGETS:
            original = getattr(sys.modules[modname], attr)
            wrapper = self.wrap(layer, original, ITEM_COUNTERS.get(layer))
            for mod in use_sites:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original))
                        setattr(mod, key, wrapper)
        graph_cls = rdom.graph.Graph
        self._patches.append((graph_cls, "__init__", graph_cls.__init__))
        graph_cls.__init__ = self.wrap("graph.Graph", graph_cls.__init__)
        self._patches.append((rdom.harness, "_run_sweep", rdom.harness._run_sweep))
        rdom.harness._run_sweep = functools.partial(pool_sweep, rdom.harness._run_sweep)
        _active = self

    def uninstall(self) -> None:
        global _active
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()
        _active = None

    def reset(self) -> None:
        for row in self.totals.values():
            row[:] = [0, 0.0, 0.0, 0]

    def snapshot(self) -> dict[str, list]:
        return {name: list(row) for name, row in self.totals.items()}

    def merge(self, other: dict[str, list]) -> None:
        for name, row in other.items():
            mine = self.totals.setdefault(name, [0, 0.0, 0.0, 0])
            for i, value in enumerate(row):
                mine[i] += value


def pool_sweep(run_sweep, worker, items, jobs):
    """Stands in for ``rdom.harness._run_sweep`` while tracing. Serial
    sweeps go straight through; pooled ones run each item through
    ``_traced_item`` so the worker's layer totals come back with it."""
    if jobs <= 1:
        return run_sweep(worker, items, jobs)
    tracer = _active
    out = []
    for result, totals in run_sweep(functools.partial(_traced_item, worker), items, jobs):
        tracer.merge(totals)
        out.append(result)
    return out


def _traced_item(worker, item):
    """Runs in a pool worker. A forked worker inherits the parent's
    installed tracer; a spawned one installs its own on first use."""
    global _active
    if _active is None:
        Tracer().install()
    _active.reset()
    _active._stack.clear()
    result = worker(item)
    return result, _active.snapshot()
