"""The four workloads, each a closed loop with one client in one process.

A workload runs passes. ``run_pass`` times one pass through rdom's public
entry points and returns a ``Pass``; ``held`` reads how long a sampler
running in the main thread (probe.py) has held it, and that time, shared
over the ``jobs`` processors the pass keeps busy, is left out of the pass; ``check`` compares its outcome with
the pinned reference and returns ``(attempted, failures)``. Every sweep
pass starts with a cold enumeration cache, as every ``rdom verify``
invocation does.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field

from rdom import enumeration, graph6, harness, solvers

# Bound before any tracer is installed: the traced stand-in for
# connected_classes does not carry the cache's methods.
clear_enumeration_cache = enumeration.connected_classes.cache_clear

# lines of each order in a solve-stream corpus: 120, weighted so that the
# median query falls among the order-20 graphs rather than in the gap
# between the costs of the order-18 and order-20 ones
SOLVE_MIX = {16: 20, 18: 30, 20: 40, 22: 30}
REPORT_FIELDS = ("checked", "violations", "notes")


@dataclass
class Pass:
    seconds: float
    checked: int  # graphs (or catalog checks) the pass verified
    outcome: object
    latencies: list[float] = field(default_factory=list)  # per query, if any
    spans: list[tuple[float, float]] = field(default_factory=list)  # perf_counter start, end


class Sweep:
    """One or more ``harness.verify_*`` calls, checked report by report."""

    def __init__(self, name: str, calls: list[tuple[str, dict]]):
        self.name, self.calls = name, calls
        self.jobs = max(kwargs.get("jobs", 1) for _, kwargs in calls)

    def run_pass(self, held=lambda: 0.0) -> Pass:
        clear_enumeration_cache()
        h0, t0 = held(), time.perf_counter()
        reports = [r for fn, kwargs in self.calls for r in getattr(harness, fn)(**kwargs)]
        seconds = time.perf_counter() - t0 - (held() - h0) / self.jobs
        return Pass(seconds, sum(r.checked for r in reports), [r.to_dict() for r in reports])

    def check(self, outcome: list[dict], reference: dict) -> tuple[int, list[str]]:
        pinned = reference["sweeps"][self.name]
        attempted = len(pinned) * len(REPORT_FIELDS)
        if [r["claim_id"] for r in outcome] != [r["claim_id"] for r in pinned]:
            return attempted, ["report list differs from the pinned claim ids"] * attempted
        failures = []
        for got, want in zip(outcome, pinned):
            for key in REPORT_FIELDS:
                if got[key] != want[key]:
                    failures.append(f"{want['claim_id']}: {key} differs from the pinned reference")
        return attempted, failures


class SolveStream:
    """The ``rdom solve`` path: graph6 line -> parse_graph6 -> gamma_r_exact.

    A run's corpus is SOLVE_MIX[n] lines of each order n, drawn from the
    pinned pool of seeded random cubic graphs. Each order's pool lines are
    sorted by their pinned solve cost and cut into SOLVE_MIX[n] strata;
    the seed picks one line per stratum, so every seed gets different
    graphs with the same mix of orders and difficulty. Every pass runs the
    whole corpus.
    """

    name = "solve-stream"
    jobs = 1

    def __init__(self, reference: dict, seed: int):
        rng = random.Random(seed)
        pool = reference["solve_pool"]["lines"]
        self.expected = {g6: gamma_r for g6, gamma_r, _ in pool}
        self.lines = []
        for n, count in SOLVE_MIX.items():
            ranked = sorted((cost, g6) for g6, _, cost in pool if ord(g6[0]) - 63 == n)
            for k in range(count):
                stratum = ranked[k * len(ranked) // count:(k + 1) * len(ranked) // count]
                self.lines.append(rng.choice(stratum)[1])

    def run_pass(self, held=lambda: 0.0) -> Pass:
        clear_enumeration_cache()
        results, latencies, spans = [], [], []
        clock = time.perf_counter
        h0, t0 = held(), clock()
        for line in self.lines:
            hq, q0 = held(), clock()
            g = graph6.parse_graph6(line)
            out = solvers.gamma_r_exact(g)
            q1 = clock()
            latencies.append(q1 - q0 - (held() - hq))
            spans.append((q0, q1))
            results.append((line, g, out))
        seconds = clock() - t0 - (held() - h0)
        return Pass(seconds, len(self.lines), results, latencies, spans)

    def check(self, outcome, reference: dict) -> tuple[int, list[str]]:
        failures = []
        for line, g, out in outcome:
            want = self.expected[line]
            if not out.optimal or out.size != want:
                failures.append(f"{line}: gamma_r {out.size}, pinned {want}")
            elif out.witness.bit_count() != want or not solvers.is_restrained_dominating(g, out.witness):
                failures.append(f"{line}: witness is not a restrained dominating set of size {want}")
        return len(outcome), failures


WORKLOADS = {
    "cubic-sweep": lambda reference, seed: Sweep(
        "cubic-sweep", [("verify_cubic_bound", {"max_n": 12, "jobs": 1})]),
    "key-theorem": lambda reference, seed: Sweep(
        "key-theorem", [("verify_key_theorem", {"max_n": 10, "jobs": 2})]),
    "catalog-claims": lambda reference, seed: Sweep(
        "catalog-claims", [("verify_observation_1", {}), ("verify_observations_2_to_6", {})]),
    # the sweeps take their inputs from the enumerator or the catalog, so
    # only solve-stream uses the seed
    "solve-stream": SolveStream,
}
