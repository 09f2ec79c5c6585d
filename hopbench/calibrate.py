"""A fixed calibration probe timed around every round.

The shared 2-core machine this benchmark was tuned on drifts in speed by
±15-30% over windows of about ten seconds (the same loop timed for 90 s had
10-second medians from 0.0155 to 0.0209 s), and by as much within a second.
A 20-second run cannot average that out, so every phase of a round (or
every segment of a long phase) is timed between two probe readings and
reported at a reference speed:

    reported = measured * PROBE_REFERENCE_S / mean of the two probe readings

The probe mixes the kinds of work hoptrace does: interpreted Python (the
autodiff tape, per-example loops), small BLAS matmuls (d=64 encoders and
heads), and scatter/gather in cache and over 8 MB (the transfer kernels).  It is the
benchmark's own code, so a change to hoptrace cannot move it.  The raw
medians and the probe's own median go to the results file as well.
"""

from __future__ import annotations

import statistics
import time
from contextlib import contextmanager

import numpy as np

# what the probe took on the reference machine (2 cores, Python 3.11, numpy 2.4, OpenBLAS 0.3.31)
PROBE_REFERENCE_S = 0.010


class Probe:
    """Allocates all its arrays once, so a round's freed heap (and the page
    faults of fresh allocations) cannot change what the probe measures."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.m = rng.random((64, 192))
        self.v = rng.random((192, 64))
        self.prod = np.empty((64, 64))
        idx = rng.integers(0, 500, size=2000)
        self.flat_idx = (np.arange(64)[:, None] * 500 + idx[None, :]).ravel()
        self.w = rng.random(64 * 2000)
        self.out = np.empty(64 * 500)
        self.gathered = np.empty(64 * 2000)
        # a random gather over 8 MB, past the caches, as the transfers over
        # tens of thousands of edges are
        self.big = rng.random(1 << 20)
        self.big_idx = rng.integers(0, 1 << 20, size=1 << 18)
        self.big_out = np.empty(1 << 18)

    def _once(self) -> float:
        t0 = time.perf_counter()
        d: dict = {}
        for i in range(30000):
            k = i % 97
            d[k] = d.get(k, 0) + i
        for _ in range(80):
            np.matmul(self.m, self.v, out=self.prod)
        self.out.fill(0.0)
        np.add.at(self.out, self.flat_idx, self.w)
        np.take(self.out, self.flat_idx, out=self.gathered)
        np.multiply(self.gathered, self.w, out=self.gathered)
        np.take(self.big, self.big_idx, out=self.big_out)
        return time.perf_counter() - t0

    def seconds(self) -> float:
        """Median of three passes."""
        return statistics.median(self._once() for _ in range(3))


class Clock:
    """Times the phases of one round, each between two probe readings.

    A phase may be cut into segments: ``cut()`` (what ``phase`` yields) closes
    the running segment at a fresh probe reading, which also opens the next
    one.  The speed drifts within a second, so a long phase cut into short
    segments is scaled more closely to the speed it actually ran at.
    """

    def __init__(self, probe: Probe):
        self.probe = probe
        self.raw: dict = {}  # phase -> seconds as measured
        self.at_reference: dict = {}  # phase -> seconds at the probe's reference speed
        self.probes: list = []  # every probe reading

    def _read_probe(self) -> float:
        self.probes.append(self.probe.seconds())
        return self.probes[-1]

    @contextmanager
    def phase(self, name: str):
        raw = at_reference = 0.0
        before = self._read_probe()
        t0 = time.perf_counter()

        def cut():
            nonlocal raw, at_reference, before, t0
            took = time.perf_counter() - t0
            after = self._read_probe()
            raw += took
            at_reference += took * PROBE_REFERENCE_S / ((before + after) / 2)
            before = after
            t0 = time.perf_counter()

        yield cut
        cut()
        self.raw[name] = raw
        self.at_reference[name] = at_reference

    def scaled(self, *names: str) -> float:
        """Seconds of the named phases at the probe's reference speed."""
        return sum(self.at_reference[n] for n in names)
