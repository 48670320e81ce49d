"""rdom benchmark: one workload per invocation, checked and timed.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

It times passes of one workload (see workloads.py) until S seconds have
gone, checks every pass against perfbench/reference.json, and prints a
metadata line and then, as the last line, one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. ``failed / attempted``
is the fail ratio. With ``--trace 0`` the metrics are the end-to-end ones,
every time in them taken to the host's reference speed (probe.py);
with ``--trace 1`` passes alternate untraced and traced on the same input
and the metrics are the per-layer split of the traced passes.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from bootstrap import import_rdom
from probe import Sampler

SETUP_SAMPLES = 15
REFERENCE = Path(__file__).resolve().parent / "reference.json"
# one fresh interpreter: import rdom (kernel selection included) and the
# harness module behind every sweep, timed from inside, then three probe
# units to take that time to the reference speed (probe.py)
SETUP_PROBE = (
    "import sys, time\n"
    "t0 = time.perf_counter()\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import rdom, rdom.harness\n"
    "seconds = time.perf_counter() - t0\n"
    "sys.path.insert(0, sys.argv[2])\n"
    "from probe import Sampler\n"
    "sampler = Sampler()\n"
    "for _ in range(3):\n"
    "    sampler.unit()\n"
    "print(seconds * sampler.scale())\n"
)
# per-layer metrics: (layer, field, metric suffix, unit)
LAYER_FIELDS = (
    ("kernels.canonical_form", 0, "calls", "count"),
    ("kernels.canonical_form", 1, "busy_s", "s"),
    ("enumeration.connected_classes", 2, "self_s", "s"),
    ("iso.canonical_graph", 0, "calls", "count"),
    ("iso.canonical_graph", 1, "busy_s", "s"),
    ("kernels.solve_min", 0, "calls", "count"),
    ("kernels.solve_min", 1, "busy_s", "s"),
    ("solvers.gamma_r_exact", 0, "calls", "count"),
    ("solvers.gamma_r_exact", 1, "busy_s", "s"),
    ("solvers.gamma_r_nerd_exact", 0, "calls", "count"),
    ("solvers.gamma_r_nerd_exact", 1, "busy_s", "s"),
    ("harness.exists_set_of_size", 0, "calls", "count"),
    ("harness.exists_set_of_size", 1, "busy_s", "s"),
    ("family.classify_brdom", 0, "calls", "count"),
    ("family.classify_brdom", 2, "self_s", "s"),
    ("family.all_family_members", 0, "calls", "count"),
    ("family.weight", 1, "busy_s", "s"),
    ("iso.are_isomorphic", 0, "calls", "count"),
    ("graph6.parse_graph6", 0, "calls", "count"),
    ("graph6.parse_graph6", 1, "busy_s", "s"),
    ("graph6.write_graph6", 0, "calls", "count"),
    ("graph6.write_graph6", 1, "busy_s", "s"),
    ("graph.Graph", 0, "calls", "count"),
    ("graph.Graph", 1, "busy_s", "s"),
    ("harness", 2, "self_s", "s"),
)


def setup_seconds(src: Path) -> float:
    """Median in-interpreter import time at the reference speed over fresh
    interpreters, after one untimed run that leaves the bytecode cache warm."""
    samples = []
    here = Path(__file__).resolve().parent
    for i in range(SETUP_SAMPLES + 1):
        done = subprocess.run([sys.executable, "-c", SETUP_PROBE, str(src), str(here)],
                              capture_output=True, text=True, check=True, timeout=60)
        if i:
            samples.append(float(done.stdout))
    return statistics.median(samples)


def peak_rss_mb() -> float:
    """Peak resident set of this process or any child (pool workers), MB."""
    kib = max(resource.getrusage(who).ru_maxrss
              for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    return kib / 1024


def tail(samples: list[float]) -> tuple[float, str]:
    """The highest percentile with at least ten samples beyond it, and its
    label. Below 100 samples that percentile is under p90 and no tail at
    all, so the maximum is reported instead."""
    ordered = sorted(samples)
    n = len(ordered)
    if n >= 100:
        return ordered[n - 11], f"p{100 * (n - 10) / n:.1f}"
    return ordered[-1], "max"


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(passes, scales: list[float], setup_s: float) -> tuple[dict, dict]:
    """Every pass of a run repeats the same input. A query is one line of
    solve-stream, with its median latency over the passes, or one whole
    pass of a sweep. Every time is already at the reference speed: a pass
    by ``scales``, a query's latency as ``run_pass`` left it."""
    walls = [p.seconds * k for p, k in zip(passes, scales)]
    if passes[0].latencies:
        queries = [statistics.median(col) for col in zip(*(p.latencies for p in passes))]
    else:
        queries = walls
    tail_s, tail_name = tail(queries)
    metrics = {
        "wall_s": metric(statistics.median(walls), "s"),
        "graphs_per_s": metric(sum(p.checked for p in passes) / sum(walls), "1/s"),
        "latency_ms_p50": metric(1e3 * statistics.median(queries), "ms"),
        "latency_ms_tail": metric(1e3 * tail_s, "ms"),
        "setup_s": metric(setup_s, "s"),
        "peak_rss_mb": metric(peak_rss_mb(), "MB"),
    }
    notes = {"passes": len(passes), "queries": len(queries), "tail_percentile": tail_name,
             "pass_seconds": walls, "raw_pass_seconds": [p.seconds for p in passes],
             "scales": scales}
    return metrics, notes


def per_layer(traced, untraced) -> tuple[dict, dict]:
    """The split of the fastest traced pass; ``traced`` holds (pass, totals)."""
    done, totals = min(traced, key=lambda pt: pt[0].seconds)

    def field(layer, i):
        return totals.get(layer, (0, 0.0, 0.0, 0))[i]

    metrics = {f"{layer}.{suffix}": metric(field(layer, i), unit)
               for layer, i, suffix, unit in LAYER_FIELDS}
    classes = field("enumeration.connected_classes", 3)
    metrics["enumeration.classes_out"] = metric(classes, "count")
    metrics["kernels.canonical_form.calls_per_class"] = metric(
        field("kernels.canonical_form", 0) / classes if classes else 0.0, "calls/class")
    for layer in ("kernels.canonical_form", "kernels.solve_min"):
        metrics[f"{layer}.share"] = metric(field(layer, 1) / done.seconds, "ratio")
    metrics["traced_wall_s"] = metric(done.seconds, "s")
    metrics["trace_overhead_ratio"] = metric(
        done.seconds / min(p.seconds for p in untraced), "ratio")
    return metrics, {"passes": len(traced), "pass_seconds": [p.seconds for p, _ in traced]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    rdom = import_rdom()
    from rdom import kernels
    import tracer
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")
    reference = load_reference()
    workload = workloads.WORKLOADS[args.workload](reference, args.seed)
    start = time.perf_counter()  # the set-up probes count toward --seconds
    if not args.trace:
        sampler, scales = Sampler(), []
        setup_s = setup_seconds(Path.cwd() / "src")

    attempted, failures = 0, []
    untraced, traced = [], []
    trc = tracer.Tracer()
    while True:  # stop before an iteration that would overrun --seconds
        began = time.perf_counter()
        if args.trace:
            done = workload.run_pass()
        else:
            with sampler:
                done = workload.run_pass(sampler.held)
            scales.append(sampler.scale())
            done.latencies = [t * sampler.scale(*span) for t, span in zip(done.latencies, done.spans)]
        untraced.append(done)
        checks = [done]
        if args.trace:
            trc.reset()
            trc.install()
            try:
                done = workload.run_pass()
            finally:
                trc.uninstall()
            traced.append((done, trc.snapshot()))
            checks.append(done)
        for p in checks:
            n, bad = workload.check(p.outcome, reference)
            attempted += n
            failures.extend(bad)
        now = time.perf_counter()
        if now - start + (now - began) > args.seconds:
            break

    if args.trace:
        metrics, notes = per_layer(traced, untraced)
    else:
        metrics, notes = end_to_end(untraced, scales, setup_s)
    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "jobs": workload.jobs, "kernels": kernels.ACTIVE,
        "rdom_version": rdom.__version__, "python": sys.version.split()[0],
        "cpu_count": os.cpu_count(), **notes,
        "fail_ratio": len(failures) / attempted, "failures": failures[:20],
    }
    print(json.dumps({"meta": meta}))
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
