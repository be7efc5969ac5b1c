"""A machine-speed probe that puts the benchmark's timings on one scale.

On the shared machine the reference figures come from, the same
CPU-bound code ran at different speeds, up to about 1.7x apart, each
lasting from seconds to minutes (most likely another tenant on the same
physical core).  Measuring CPU time instead of wall time does not remove
that: the process runs, only slower.  So the benchmark also times a
fixed kernel that uses none of curie (JSON encoding, SHA-256, a 1024-bit
modular power, a Python loop and small numpy solves, the kinds of work
the pipeline does) before, during and after each operation, and scales
the operation's CPU time by the kernel's ``REFERENCE_S`` over its median
time.  A timing thus reads as CPU seconds at the kernel's full speed on
that machine.  Over five seeds, this cut the spread of the run medians
of worked_example_dp's simulate time from 0.19 of the median (CPU time)
to 0.02.

Not all work slows alike: from the fastest state to the slowest,
interpreter work (JSON, hashing, Python loops) took about 1.7x as long
and the modular power about 1.2x.  Set-up and negotiation are
interpreter work, so they are scaled by the ``interpreter`` kernel, the
same kernel without its modular power.  The simulate calls mix
encryption, numpy and interpreter work and are scaled by the ``mixed``
kernel; the interpreter kernel over-corrected them (a spread of 0.38 of
the median over five seeds on worked_example_dp's simulate).
"""

from __future__ import annotations

import gc
import hashlib
import json
import random
import signal
import statistics
import time
from typing import Callable

import numpy as np

clock = time.process_time

# Each kernel's CPU time in the machine's fast state; it only sets the
# scale of the timings.  The interpreter kernel's is its shortest time
# over 300 passes.
REFERENCE_S = {"mixed": 0.0175, "interpreter": 0.0050}
SAMPLE_EVERY_S = 0.5


class Probe:
    """Times operations against one kernel: ``mixed`` (with the modular
    power) or ``interpreter`` (without it)."""

    def __init__(self, kind: str):
        self._reference_s = REFERENCE_S[kind]
        self._modpow = kind == "mixed"
        rng = random.Random(5)
        self._floats = [rng.random() * 100 for _ in range(3000)]
        self._modulus = rng.getrandbits(1024) | 1 | (1 << 1023)
        self._base = rng.getrandbits(1000)
        self._matrix = np.random.default_rng(1).random((15, 15)) + np.eye(15)
        self._kernel()

    def _kernel(self) -> float:
        t0 = clock()
        json.dumps(self._floats)
        for i in range(300):
            hashlib.sha256(b"probe %d" % i).digest()
        if self._modpow:
            pow(self._base, self._modulus, self._modulus * self._modulus)
        total = 0
        for i in range(30000):
            total += i % 7
        for _ in range(200):
            np.linalg.solve(self._matrix, self._matrix[0])
        return clock() - t0

    def timed(self, op: Callable, sample_inside: bool = True):
        """Run *op*; returns (its result, its CPU seconds, the same scaled
        to the probe's reference speed, its wall-clock seconds).

        The speed is the median of single probe passes: three before,
        three after and, with *sample_inside*, one every
        ``SAMPLE_EVERY_S`` of CPU time while *op* runs (from a SIGPROF
        handler; their CPU and wall time are taken out of the op's).
        Garbage left by earlier work is collected first, so that *op* does
        not pay for it.
        """
        gc.collect()
        readings = [self._kernel() for _ in range(3)]
        spent = spent_wall = 0.0

        def on_tick(signum, frame):
            nonlocal spent, spent_wall
            w0 = time.perf_counter()
            reading = self._kernel()
            spent_wall += time.perf_counter() - w0
            readings.append(reading)
            spent += reading

        if sample_inside:
            previous = signal.signal(signal.SIGPROF, on_tick)
            signal.setitimer(signal.ITIMER_PROF, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        w0, t0 = time.perf_counter(), clock()
        try:
            result = op()
        finally:
            cpu, wall = clock() - t0, time.perf_counter() - w0
            if sample_inside:
                signal.setitimer(signal.ITIMER_PROF, 0.0)
                signal.signal(signal.SIGPROF, previous)
        cpu -= spent
        wall -= spent_wall
        readings += [self._kernel() for _ in range(3)]
        return result, cpu, cpu * self._reference_s / statistics.median(readings), wall
