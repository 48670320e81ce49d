"""The benchmark's tracer patches rdom functions by name. If one of them is
renamed or moved, installing the tracer fails here rather than only when a
traced benchmark run is asked for. Every other rdom name the benchmark
reads is resolved here too, so a deleted name fails the gate rather than
only the benchmark run that reads it."""

from __future__ import annotations

import ast
import contextlib
import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import rdom
from rdom import graph, harness, iso, kernels, solvers
from named_graphs import petersen_graph

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
        iso.canonical_graph(petersen_graph())
        assert tracer.totals["iso.canonical_graph"][0] == 1
        assert tracer.totals["kernels.canonical_form"][0] == 1
        solvers.gamma_r_exact(petersen_graph())
        assert tracer.totals["solvers.gamma_r_exact"][0] == 1
        assert tracer.totals["kernels.solve_min"][0] == 1
    finally:
        tracer.uninstall()
    assert (kernels.canonical_form, kernels.solve_min, iso.canonical_graph,
            harness._run_sweep, graph.Graph.__init__) == originals


def _resolve(where: str, owner, names: list[str]):
    """``owner.<names[0]>.<names[1]>...``, importing a submodule where an
    ``import`` or ``from ... import`` statement would."""
    for name in names:
        if not hasattr(owner, name) and isinstance(owner, ModuleType):
            with contextlib.suppress(ImportError):
                importlib.import_module(f"{owner.__name__}.{name}")
        assert hasattr(owner, name), f"{where}: {name} does not resolve"
        owner = getattr(owner, name)
    return owner


def test_perfbench_names_resolve():
    # the benchmark binds rdom by ``rdom = import_rdom()`` and rdom's modules
    # by ``from rdom[.<mod>] import <name>``; every such import and every
    # attribute read through one of those names must resolve
    read = 0
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        bound = {"rdom": rdom}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module and node.module.split(".")[0] == "rdom":
                module = _resolve(f"{path.name}:{node.lineno}", rdom, node.module.split(".")[1:])
                for alias in node.names:
                    bound[alias.asname or alias.name] = _resolve(f"{path.name}:{node.lineno}", module, [alias.name])
                    read += 1
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)):
                continue
            chain, root = [], node
            while isinstance(root, ast.Attribute):
                chain.insert(0, root.attr)
                root = root.value
            if isinstance(root, ast.Name) and root.id in bound:
                _resolve(f"{path.name}:{node.lineno} {root.id}.{'.'.join(chain)}", bound[root.id], chain)
                read += 1
    # among them pin.py's rdom.weight, which no other gate test reaches
    assert read > 20


def test_perfbench_selftest_passes():
    # among its checks: traced serial and pooled sweeps count the same
    # calls per layer, enumeration included, so a pool splits the work of a
    # sweep and repeats none of it
    done = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr[-3000:]
