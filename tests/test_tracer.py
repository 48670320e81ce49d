"""The benchmark's tracer patches rdom functions by name. If one of them is
renamed or moved, installing the tracer fails here rather than only when a
traced benchmark run is asked for."""

from __future__ import annotations

import importlib.util
import subprocess
import sys
from pathlib import Path

from rdom import graph, harness, iso, kernels, solvers

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls():
    tracer_mod = load_tracer()
    originals = (kernels.canonical_form, kernels.solve_min, iso.canonical_graph,
                 harness._run_sweep, graph.Graph.__init__)
    tracer = tracer_mod.Tracer()
    tracer.install()
    try:
        patched = {layer for _, _, layer in tracer_mod.TARGETS}
        assert set(tracer.totals) == patched | {"graph.Graph"}
        # rdom.kernels defines the kernel, and the wrappers sit there
        assert kernels.canonical_form.__wrapped__ is originals[0]
        assert kernels.solve_min.__wrapped__ is originals[1]
        iso.canonical_graph(graph.petersen_graph())
        assert tracer.totals["iso.canonical_graph"][0] == 1
        assert tracer.totals["kernels.canonical_form"][0] == 1
        solvers.gamma_r_exact(graph.petersen_graph())
        assert tracer.totals["solvers.gamma_r_exact"][0] == 1
        assert tracer.totals["kernels.solve_min"][0] == 1
    finally:
        tracer.uninstall()
    assert (kernels.canonical_form, kernels.solve_min, iso.canonical_graph,
            harness._run_sweep, graph.Graph.__init__) == originals


def test_perfbench_selftest_passes():
    # among its checks: traced serial and pooled sweeps count the same
    # calls per layer, enumeration included, so a pool splits the work of a
    # sweep and repeats none of it
    done = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr[-3000:]
