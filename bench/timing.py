"""Timing that holds up on a host whose shared cores change speed.

On the reference host the same Python work runs up to twice as slow at
some moments as at others, and a speed holds for one to several seconds
(see README).  A timing that averages over whole seconds moves with the
share of slow time in the run, not with the program.

So every sample is taken between two runs of a fixed probe that reads
the current speed, and is reported in reference seconds:

    seconds * P_REF / probe

where probe is the mean of the two probe times around the sample and
P_REF about the probe's median time on the reference host when it is
calm.  A change
to the program scales the samples and leaves the probes alone, so it
shows in full.  The probe mixes the kinds of work the workloads do:
interpreter arithmetic, reads scattered over a list larger than the L2
cache, and building a dict of tuple keys.
"""

from __future__ import annotations

import statistics
from random import Random
from time import perf_counter

P_REF = 1.0e-3


class Probe:
    """A fixed mix of Python work, about 1 ms on the reference host when it is calm."""

    def __init__(self):
        rng = Random(12345)
        self.values = [rng.random() for _ in range(200_000)]
        self.order = rng.sample(range(200_000), 2_000)
        self.keys = [(i % 97, i // 97) for i in range(3_000)]

    def __call__(self) -> float:
        start = perf_counter()
        acc = 0
        for i in range(4_000):
            acc += i * i % 7
        values = self.values
        total = 0.0
        for i in self.order:
            total += values[i]
        table = {}
        for key in self.keys:
            table[key] = table.get(key, 0) + 1
        return perf_counter() - start


class Probed:
    """Timed samples, each with the probe times taken just before and after it."""

    def __init__(self, probe: Probe):
        self.probe = probe
        self.keys = []
        self.seconds = []
        self.before = []
        self.after = []
        self._last = self.probe()

    def add(self, key, seconds: float):
        after = self.probe()
        self.keys.append(key)
        self.seconds.append(seconds)
        self.before.append(self._last)
        self.after.append(after)
        self._last = after

    def scale(self, i: int) -> float:
        """Reference seconds per wall second for sample i."""
        return 2 * P_REF / (self.before[i] + self.after[i])

    def scaled(self, i: int) -> float:
        return self.seconds[i] * self.scale(i)

    def median_scale(self) -> float:
        return statistics.median(self.scale(i) for i in range(len(self.keys)))

    def median_by_key(self):
        """Per key, the median of its samples in reference seconds."""
        by_key = {}
        for i, key in enumerate(self.keys):
            by_key.setdefault(key, []).append(self.scaled(i))
        return {key: statistics.median(v) for key, v in by_key.items()}

    def raw(self):
        return {"keys": self.keys, "seconds": self.seconds,
                "before": self.before, "after": self.after}
