"""Self-test of the benchmark itself (not of rdom). Run from the
repository root:

    python3 perfbench/selftest.py

Checks that the tracer's totals are consistent and survive the process
pool, that a wrong pinned value shows up as a failure in the result line,
that the speed sampler leaves its own time out and puts the timer back, and
that the corpus generator is byte-stable.
"""

from __future__ import annotations

import contextlib
import copy
import hashlib
import io
import json
import signal
import statistics
import sys
import time
import unittest

from bootstrap import import_rdom

rdom = import_rdom()

from rdom import harness  # noqa: E402

import corpus  # noqa: E402
import pin  # noqa: E402
import probe  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

REFERENCE = run.load_reference()


def traced_key_theorem(jobs: int) -> tuple[float, dict]:
    trc = tracer.Tracer()
    workloads.clear_enumeration_cache()
    trc.install()
    try:
        wall = workloads.Sweep("key-theorem", [
            ("verify_key_theorem", {"max_n": 8, "jobs": jobs})]).run_pass().seconds
    finally:
        trc.uninstall()
    return wall, trc.snapshot()


def rdom_namespaces() -> dict:
    return {(name, key): value for name, mod in sys.modules.items()
            if name == "rdom" or name.startswith("rdom.")
            for key, value in vars(mod).items()}


class TracerTest(unittest.TestCase):
    def test_self_time_within_busy_and_wall(self):
        wall, totals = traced_key_theorem(jobs=1)
        for name, (_, busy, self_s, _) in totals.items():
            self.assertLessEqual(self_s, busy + 1e-9, name)
        self.assertGreater(totals["kernels.canonical_form"][0], 0)
        self.assertLessEqual(sum(row[2] for row in totals.values()), wall + 1e-9)

    def test_pool_workers_report_the_same_counts(self):
        _, serial = traced_key_theorem(jobs=1)
        _, pooled = traced_key_theorem(jobs=2)
        self.assertEqual({k: (v[0], v[3]) for k, v in serial.items()},
                         {k: (v[0], v[3]) for k, v in pooled.items()})
        self.assertGreater(pooled["kernels.solve_min"][0], 0)

    def test_uninstall_restores_every_name(self):
        before = rdom_namespaces()
        graph_init = rdom.Graph.__init__
        trc = tracer.Tracer()
        trc.install()
        self.assertIsNot(harness.gamma_r_exact, before[("rdom.harness", "gamma_r_exact")])
        trc.uninstall()
        self.assertEqual(rdom_namespaces(), before)
        self.assertIs(rdom.Graph.__init__, graph_init)


class PinnedReferenceTest(unittest.TestCase):
    def run_benchmark(self, reference: dict, workload: str) -> dict:
        out = io.StringIO()
        saved = run.load_reference
        run.load_reference = lambda: reference
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                run.main(["--workload", workload, "--seed", "1", "--seconds", "0", "--trace", "1"])
        finally:
            run.load_reference = saved
        return json.loads(out.getvalue().splitlines()[-1])

    def test_seed_reference_passes(self):
        result = self.run_benchmark(REFERENCE, "catalog-claims")
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)

    def test_wrong_sweep_value_is_a_failure(self):
        wrong = copy.deepcopy(REFERENCE)
        wrong["sweeps"]["catalog-claims"][0]["checked"] += 1
        result = self.run_benchmark(wrong, "catalog-claims")
        self.assertFalse(result["correct"])
        # one untraced and one traced pass, each with one wrong field
        self.assertEqual(result["failed"], 2)
        self.assertEqual(result["attempted"], 2 * 14 * len(workloads.REPORT_FIELDS))

    def test_wrong_gamma_is_a_failure(self):
        line = workloads.SolveStream(REFERENCE, 1).lines[0]
        wrong = copy.deepcopy(REFERENCE)
        for entry in wrong["solve_pool"]["lines"]:
            if entry[0] == line:
                entry[1] += 1
        stream = workloads.SolveStream(wrong, 1)
        outcome = stream.run_pass().outcome
        attempted, failures = stream.check(outcome, wrong)
        self.assertEqual((attempted, len(failures)), (len(outcome), 1))


class SamplerTest(unittest.TestCase):
    def test_scale_uses_the_units_near_a_stretch(self):
        sampler = probe.Sampler()
        sampler.samples = [(0.0, 0.010), (5.0, 0.005)]
        self.assertAlmostEqual(sampler.scale(0.0, 0.1), probe.NOMINAL_S / 0.010)
        self.assertAlmostEqual(sampler.scale(), probe.NOMINAL_S * statistics.fmean([100, 200]))
        self.assertAlmostEqual(sampler.scale(2.0, 2.5), sampler.scale())

    def test_timer_runs_only_inside_and_handler_is_restored(self):
        before = signal.getsignal(signal.SIGALRM)
        sampler = probe.Sampler()
        with sampler:
            end = time.perf_counter() + 3.5 * probe.INTERVAL_S
            while time.perf_counter() < end:
                pass
        self.assertEqual(signal.getitimer(signal.ITIMER_REAL), (0.0, 0.0))
        self.assertIs(signal.getsignal(signal.SIGALRM), before)
        self.assertGreaterEqual(len(sampler.samples), 4)  # start, ticks, end
        self.assertGreater(sampler.held(), 0.0)

    def test_held_time_is_left_out_of_a_pass(self):
        stream = workloads.SolveStream(REFERENCE, 1)
        stream.lines = stream.lines[-12:]
        sampler = probe.Sampler()
        t0 = time.perf_counter()
        with sampler:
            done = stream.run_pass(sampler.held)
            held = sampler.held()
        wall = time.perf_counter() - t0
        self.assertGreater(held, 0.0)
        self.assertLessEqual(done.seconds, wall - held + 1e-9)
        self.assertLessEqual(sum(done.latencies), done.seconds + 1e-9)
        _, failures = stream.check(done.outcome, REFERENCE)
        self.assertEqual(failures, [])


class GeneratorTest(unittest.TestCase):
    def test_pool_is_byte_stable(self):
        pool = REFERENCE["solve_pool"]
        lines = corpus.cubic_lines(pool["seed"], pool["per_order"])
        self.assertEqual(lines, [g6 for g6, _, _ in pool["lines"]])
        self.assertEqual(hashlib.sha256("\n".join(lines).encode()).hexdigest(), pool["sha256"])
        self.assertEqual((pool["seed"], pool["per_order"]), (pin.POOL_SEED, pin.POOL_PER_ORDER))

    def test_generated_graphs_are_connected_cubic(self):
        for line in corpus.cubic_lines(7, 5):
            g = rdom.parse_graph6(line)
            self.assertTrue(rdom.is_cubic(g) and len(rdom.components(g)) == 1, line)
            self.assertIn(g.n, corpus.ORDERS)


if __name__ == "__main__":
    unittest.main()
