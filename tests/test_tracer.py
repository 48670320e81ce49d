"""The benchmark's tracer patches rdom functions by name. If one of them is
renamed or moved, installing the tracer fails here rather than only when a
traced benchmark run is asked for."""

from __future__ import annotations

import importlib.util
from pathlib import Path

from rdom import _pykernels, graph, harness, iso, kernels

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls():
    tracer_mod = load_tracer()
    originals = (kernels.canonical_form, iso.canonical_graph, harness._run_sweep, graph.Graph.__init__)
    tracer = tracer_mod.Tracer()
    tracer.install()
    try:
        patched = {layer for _, _, layer in tracer_mod.TARGETS}
        assert set(tracer.totals) == patched | {"graph.Graph"}
        assert kernels.canonical_form is not _pykernels.canonical_form
        iso.canonical_graph(graph.petersen_graph())
        assert tracer.totals["iso.canonical_graph"][0] == 1
        assert tracer.totals["kernels.canonical_form"][0] == 1
    finally:
        tracer.uninstall()
    assert (kernels.canonical_form, iso.canonical_graph, harness._run_sweep,
            graph.Graph.__init__) == originals
