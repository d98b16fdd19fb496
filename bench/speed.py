"""Machine-speed probe, used to put wall times on a common scale.

The virtual CPUs of a shared host change speed by up to ~1.8x for seconds to
minutes at a time, because other tenants load the physical cores. Run-to-run
spreads of raw wall times are then far wider than any useful regression
bound. A probe process pinned to the same CPU as a serial workload runs a
fixed kernel every ``PERIOD_S`` seconds and times it in its own thread CPU
time, which counts the CPU's speed but not the time the probe waits for it. A
span of wall time [a, b] is rescaled to seconds at reference speed by the
mean of ``REFERENCE_S / probe`` over the probe samples taken during it.

The kernel is the benchmark's own code, so a change to tppat cannot move it.
Running this file starts one probe: ``python3 speed.py <cpu>``; it samples
until its standard input closes, then prints the samples as JSON after a
``ready`` line.
"""

from __future__ import annotations

import bisect
import json
import os
import select
import subprocess
import sys
import time
from pathlib import Path

PERIOD_S = 0.2
# CPU seconds of one kernel call at reference speed (the fast state of the
# 2-vCPU Xeon virtual machine the first baseline was measured on)
REFERENCE_S = 0.004
MIN_SAMPLES = 3


def _kernel_setup():
    import numpy as np
    import scipy.sparse as sp
    n = 40
    T = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n))
    A = (sp.kron(T, sp.eye(n)) + sp.kron(sp.eye(n), T)).tocsr()
    return A, np.ones(n * n)


def kernel(A, b) -> float:
    """100 CG steps on a 2D Laplacian plus a Python loop: sparse, vector, interpreter."""
    x = 0.0 * b
    r = b.copy()
    p = r.copy()
    rr = r @ r
    for _ in range(100):
        Ap = A @ p
        alpha = rr / (p @ Ap)
        x += alpha * p
        r -= alpha * Ap
        rr_new = r @ r
        p = r + (rr_new / rr) * p
        rr = rr_new
    total = 0
    for i in range(12000):
        total += i
    return float(x[0]) + total


def sample(cpu: int) -> list:
    """Time the kernel every PERIOD_S on ``cpu`` until stdin closes."""
    os.sched_setaffinity(0, {cpu})
    A, b = _kernel_setup()
    kernel(A, b)
    print("ready", flush=True)
    samples = []
    while True:
        wall = time.perf_counter()
        cpu_start = time.thread_time()
        kernel(A, b)
        cpu_s = time.thread_time() - cpu_start
        samples.append((0.5 * (wall + time.perf_counter()), cpu_s))
        if select.select([sys.stdin], [], [], PERIOD_S)[0]:
            return samples


class SpeedProbe:
    """One probe process per CPU in ``cpus``; none leaves times unscaled."""

    def __init__(self, cpus):
        self.samples: list = []
        self._procs = [
            subprocess.Popen([sys.executable, str(Path(__file__).resolve()), str(cpu)],
                             stdin=subprocess.PIPE, stdout=subprocess.PIPE)
            for cpu in sorted(cpus)]
        for proc in self._procs:          # wait until each probe has warmed up
            proc.stdout.readline()

    def stop(self) -> None:
        try:
            for proc in self._procs:
                out, _ = proc.communicate(timeout=30)
                self.samples += json.loads(out)
        finally:
            for proc in self._procs:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        self.samples.sort()

    def normalize(self, start: float, end: float) -> float:
        """Seconds at reference speed for the wall interval [start, end]."""
        if not self.samples:
            return end - start
        times = [t for t, _ in self.samples]
        lo, hi = bisect.bisect_left(times, start), bisect.bisect_right(times, end)
        while hi - lo < MIN_SAMPLES and (lo > 0 or hi < len(times)):
            # widen towards whichever neighbour is closer to the interval
            if hi >= len(times) or (lo > 0 and start - times[lo - 1] <= times[hi] - end):
                lo -= 1
            else:
                hi += 1
        picked = self.samples[lo:hi]
        return (end - start) * sum(REFERENCE_S / cpu_s for _, cpu_s in picked) / len(picked)


if __name__ == "__main__":
    json.dump(sample(int(sys.argv[1])), sys.stdout)
