"""Host-speed reference measured around the timed work.

The host's speed drifts: in its slow state the same work takes 1.6-1.8x as
long, and slow stretches can fill a whole run (see README).  A reference
kernel of about 2 ms, owned by the benchmark and shaped like the program's
inner loop (tuple-keyed dicts of complex coefficients, merged and
multiplied), is timed ``REPS`` times just before and just after each
in-process operation, after one untimed call that refills the caches the
operation left.  The mean of those timings is the host's speed level
around the operation, and the operation's host-corrected time is its wall
time scaled by ``REF_S / level``: its time on a host on which the kernel
takes ``REF_S``.  Work too far from this process to follow the level next
to it (a child process) is scaled by ``REF_S / run_level()``, the median of
a calibration sample of ``BURST`` back-to-back timings made once per second
of the run (``run.py`` schedules them).  The kernel does not touch the
program, so a change to the program moves the corrected time as much as the
wall time.
"""

from __future__ import annotations

import statistics
import time

REPS = 6
BURST = 20
REF_S = 2.0e-3  # near the kernel's time on the 2-vCPU VM the README's figures come from

_A = {((complex(0.1 * i, 0.05 * i), i % 3),): complex(1.0 / (i + 1), 0.1) for i in range(10)}
_B = {((complex(-0.07 * i, 0.02 * i), i % 2),): complex(0.5, 1.0 / (i + 2)) for i in range(10)}


def _canonical(terms):
    merged = {}
    for key, c in terms.items():
        k = tuple((complex(mu), int(p)) for mu, p in key)
        merged[k] = merged.get(k, 0j) + complex(c)
    return {k: c for k, c in merged.items() if abs(c) > 1e-14}


def kernel():
    a, b = _canonical(_A), _canonical(_B)
    for _ in range(2):
        raw = {}
        for ka, ca in a.items():
            for kb, cb in b.items():
                key = tuple((m1 + m2, p1 + p2) for (m1, p1), (m2, p2) in zip(ka, kb))
                raw[key] = raw.get(key, 0j) + ca * cb
        a = _canonical(raw)
    return len(a)


class HostProbe:
    def __init__(self):
        self.sample = []

    def level(self):
        """Mean kernel time now."""
        kernel()
        total = 0.0
        for _ in range(REPS):
            t0 = time.perf_counter()
            kernel()
            total += time.perf_counter() - t0
        return total / REPS

    def burst(self):
        """One calibration burst, after untimed calls that refill the caches
        the work before it left."""
        for _ in range(3):
            kernel()
        for _ in range(BURST):
            t0 = time.perf_counter()
            kernel()
            self.sample.append(time.perf_counter() - t0)

    def run_level(self):
        return statistics.median(self.sample)

    def around(self, fn):
        """Run ``fn`` between two level measurements; returns (result, level)."""
        before = self.level()
        out = fn()
        return out, (before + self.level()) / 2
