"""Host-speed probe: how fast this host runs the interpreter right now.

The sandbox shares its host: the same pure-Python loop takes from 0.7 to 2
times its median between one minute and the next, in step with the
library's own code in the same process.  ``HostSpeed`` times a fixed
kernel between queries and scales each query's time to a reference speed.

Imports only ``math`` and ``time``, so a fresh interpreter can probe before
it imports anything the library also imports.
"""
from __future__ import annotations

import math
import time


def _probe_loop() -> float:
    """A fixed pure-Python kernel of integer, float and tuple work, in the
    mix of the library's series loops; it never calls the library."""
    acc = 0.0
    rows = ((1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (1.0, 2.0), (2.0, 1.0))
    for a in range(30):
        for b in range(20):
            d = 1.0
            for r0, r1 in rows:
                d *= (a * r0 + b * r1 + 1.5) / 1.5
            acc += math.exp(-0.7 * math.log(d)) + (a * b) % 7
    return acc


def median(xs) -> float:
    ys = sorted(xs)
    mid = len(ys) // 2
    return ys[mid] if len(ys) % 2 else 0.5 * (ys[mid - 1] + ys[mid])


class HostSpeed:
    """Probes of the host's speed and the scale factors derived from them.

    Probes run between queries, at most every ``EVERY_S`` and after every
    longer query.  A query's time is scaled by ``REF_S`` over the median of
    the probes around it, from ``SPAN`` before to ``SPAN`` after; the median
    over several probes tracks the drift better than the nearest two, which
    follow short spikes.  Scaled times are seconds on a host where the probe
    takes ``REF_S``, about the speed of the 2-core sandbox this was tuned on.
    """

    REF_S = 1e-3
    EVERY_S = 0.15
    SPAN = 3

    def __init__(self):
        self.samples: list[float] = []
        self._last = -1.0

    def probe(self) -> int:
        """Run one probe (best of three kernels); return its index."""
        best = math.inf
        for _ in range(3):
            t0 = time.perf_counter()
            _probe_loop()
            best = min(best, time.perf_counter() - t0)
        self.samples.append(best)
        self._last = time.perf_counter()
        return len(self.samples) - 1

    def due(self) -> bool:
        return time.perf_counter() - self._last >= self.EVERY_S

    def factor(self, before: int, after: int) -> float:
        """Scale for work done between probes ``before`` and ``after``."""
        window = self.samples[max(0, before - self.SPAN + 1):after + self.SPAN]
        return self.REF_S / median(window)

    def summary(self) -> dict:
        xs = self.samples
        return {"ref_s": self.REF_S, "probes": len(xs), "median_s": median(xs),
                "min_s": min(xs), "max_s": max(xs),
                "first5_median_s": median(xs[:5]), "last5_median_s": median(xs[-5:])}
