"""A fixed reference computation, timed next to the program's work.

On the shared 2-vCPU virtual machine this benchmark was built on, the speed
of the CPU drifts by up to 1.5x over spells that last from seconds to
minutes, and process CPU time drifts with wall time, so neither clock can
tell a slower program from a slower machine. The yardstick is a small,
fixed mix of the kinds of work the program does (hashing tokens in an
interpreter loop, row gathers and scatter-adds, a matrix-vector scan and a
sort), made from inputs that do not depend on the program or on --seed.
The untraced run times it before and after every timed operation and
scales that operation's wall time by REFERENCE_S over the mean of the two,
so a time reads as it would at the yardstick's reference speed.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# About the yardstick's median time on the machine the README's figures
# come from; scaled times read like wall times measured there.
REFERENCE_S = 0.004
REPEATS = 3  # one measurement is the median of this many passes
MASK = (1 << 64) - 1


class Yardstick:
    def __init__(self) -> None:
        rng = np.random.default_rng(20190702)
        self.table = rng.standard_normal((5_000, 64))
        self.rank = np.arange(5_000)
        self.bags = rng.integers(0, 5_000, size=(64, 12))
        self.words = [f"word{i % 997}" for i in range(1_000)]
        self.samples: list[float] = []  # every measurement, in seconds
        self.measure()  # the first pass pays for lazy set-up

    def _pass(self) -> float:
        """About half interpreter work and half array work, as the program's
        operations are on the workloads."""
        start = time.perf_counter()
        # As in tokenizing: FNV-1a over each word's bytes, counted in a dict.
        counts: dict[int, int] = {}
        for word in self.words:
            h = 0xCBF29CE484222325
            for byte in word.encode():
                h = ((h ^ byte) * 0x100000001B3) & MASK
            counts[h % 4096] = counts.get(h % 4096, 0) + 1
        # As in training and ranking: gather and pool rows, scatter-add them
        # back onto the unique ids, then a matrix-vector scan and a lexsort.
        pooled = self.table[self.bags].sum(axis=1)
        rows, inverse = np.unique(self.bags.ravel(), return_inverse=True)
        grad = np.zeros((len(rows), 64))
        np.add.at(grad, inverse, np.repeat(pooled, 12, axis=0))
        scores = self.table @ pooled[0]
        np.lexsort((self.rank, -scores))
        return time.perf_counter() - start

    def measure(self) -> float:
        """One measurement in seconds; it is also kept in `samples`."""
        elapsed = statistics.median(self._pass() for _ in range(REPEATS))
        self.samples.append(elapsed)
        return elapsed
