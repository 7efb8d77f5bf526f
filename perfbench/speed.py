"""A fixed NumPy probe that tracks how fast the machine runs right now.

On a shared 2-vCPU Intel Xeon virtual machine the speed was seen to switch
between a fast and a slow state 1.3x to 1.6x apart every few seconds to
minutes, on both cores at once, so whole runs could land in one state or
the other. The probe is a small two-hidden-layer training step in plain
NumPy plus the parsing of a small CSV text: the same mix of small matmuls,
elementwise work, Python calls and text parsing as the program's, so its
time moves with the program's. Each pass is scaled by PROBE_REF_S over the
mean of the probes taken just before and just after it. The probe does not
touch the program, so a change to the program cannot move it.
"""

from __future__ import annotations

import csv
import statistics
import time

import numpy as np

# a chunk's time at the reference speed; on a 2-vCPU Intel Xeon with one
# OpenBLAS thread a chunk took about 8 ms in the fast state and 13 ms in the slow one
PROBE_REF_S = 0.010
_CHUNKS = 5
_STEPS = 10
_CSV = "\n".join(",".join(repr(0.001 * (7 * i + j)) for j in range(20)) for i in range(360))


class _Net:
    def __init__(self):
        rng = np.random.default_rng(0)
        widths = (92, 90, 90, 30)
        self.w = [rng.uniform(-0.1, 0.1, (a, b)) for a, b in zip(widths, widths[1:])]
        self.m = [np.zeros_like(w) for w in self.w]
        self.v = [np.zeros_like(w) for w in self.w]
        self.x = rng.random((128, widths[0]))
        self.target = rng.random((128, widths[-1]))

    def step(self) -> None:
        acts, z = [self.x], self.x
        for w in self.w[:-1]:
            z = np.maximum(z @ w, 0.0)
            acts.append(z)
        out = 1.0 / (1.0 + np.exp(-(z @ self.w[-1])))
        np.log(np.clip(out, 1e-8, 1.0 - 1e-8)).sum()
        grad = (out - self.target) * out * (1.0 - out)
        for k in reversed(range(len(self.w))):
            gw = acts[k].T @ grad
            grad = (grad @ self.w[k].T) * (acts[k] > 0)
            self.m[k] *= 0.9
            self.m[k] += 0.1 * gw
            self.v[k] *= 0.999
            self.v[k] += 0.001 * gw * gw
            self.w[k] -= 1e-3 * self.m[k] / (np.sqrt(self.v[k]) + 1e-8)


def probe() -> float:
    """Median seconds of _CHUNKS chunks: _STEPS steps of a fresh probe net, one CSV parse."""
    net = _Net()
    times = []
    for _ in range(_CHUNKS):
        t0 = time.perf_counter()
        for _ in range(_STEPS):
            net.step()
        [[float(cell) for cell in row] for row in csv.reader(_CSV.splitlines())]
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def factors(probes: list[float]) -> list[float]:
    """Scale of each pass from the probes around it (len(probes) - 1 passes)."""
    return [PROBE_REF_S / ((a + b) / 2) for a, b in zip(probes, probes[1:])]
