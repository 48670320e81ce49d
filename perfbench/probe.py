"""Sampling how fast the host runs the interpreter while a pass runs.

The hosts this benchmark runs on are shared: the same pure-Python loop can
take anything from one to two times as long from one second to the next,
in spells that often outlast a run. A ``Sampler`` times a small fixed unit
of work as a pass starts, on every tick of a real-time interval timer while
it runs, and as it ends. ``run.py`` subtracts the time the sampler held the
pass and scales what is left by the mean speed of the units, so a reported
time reads as it would at one fixed speed: the speed at which a unit takes
``NOMINAL_S``.

The unit's work is the benchmark's own, never rdom's, so a change to rdom
cannot change the yardstick: a brute-force search for the smallest
restrained dominating set of a fixed random cubic graph, the same mix of
small-integer bit operations, tuples and generator calls that rdom's
pure-Python kernels spend their time in.
"""

from __future__ import annotations

import random
import signal
import statistics
import time
from itertools import combinations

from corpus import random_cubic_rows

PROBE_SEED = 17
INTERVAL_S = 0.1  # between ticks; a unit takes 4 to 8 ms, so it holds a pass 4 to 8%
NOMINAL_S = 0.005  # unit time that defines the reference speed
WIDEN_S = 2 * INTERVAL_S  # a short stretch is scaled by the units this near it


def brute_gamma_r(rows: list[int]) -> int:
    """Smallest restrained dominating set size by plain subset search."""
    n = len(rows)
    for size in range(n + 1):
        for combo in combinations(range(n), size):
            s = sum(1 << v for v in combo)
            out = (1 << n) - 1 & ~s
            if all(rows[v] & s and rows[v] & out for v in range(n) if out >> v & 1):
                return size
    raise AssertionError("the whole vertex set always qualifies")


class Sampler:
    """Context manager around one pass.

    ``held()`` is the time the timer's units have taken from the main
    thread so far in the pass; after the pass, ``scale()`` is the factor
    that takes a time measured in it to the reference speed, and
    ``scale(start, end)`` the same for a stretch of it, from the units
    taken within two ticks of that stretch.
    """

    def __init__(self):
        self.rows = random_cubic_rows(16, random.Random(PROBE_SEED))
        self.answer = brute_gamma_r(self.rows)  # untimed warm-up
        self.samples: list[tuple[float, float]] = []  # (midpoint, seconds)
        self._held = 0.0
        self._previous = None

    def unit(self) -> float:
        t0 = time.perf_counter()
        answer = brute_gamma_r(self.rows)
        seconds = time.perf_counter() - t0
        if answer != self.answer:
            raise RuntimeError("the probe unit computed a different answer")
        self.samples.append((t0 + seconds / 2, seconds))
        return seconds

    def _tick(self, signum, frame) -> None:
        self._held += self.unit()

    def held(self) -> float:
        return self._held

    def __enter__(self) -> Sampler:
        self.samples.clear()
        self._held = 0.0
        self.unit()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.unit()

    def scale(self, start: float = float("-inf"), end: float = float("inf")) -> float:
        """NOMINAL_S times the mean speed (units per second) of the units
        taken between ``start`` and ``end``, perf_counter times, widened by
        two ticks on either side (all units, if none fall there)."""
        near = [s for mid, s in self.samples if start - WIDEN_S <= mid <= end + WIDEN_S]
        return NOMINAL_S * statistics.fmean(1 / s for s in near or [s for _, s in self.samples])
