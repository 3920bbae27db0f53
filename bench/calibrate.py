"""Calibration kernel: a fixed chunk of work that measures the machine's speed.

The benchmark runs on a few cores of a shared host whose speed drifts: the
same job runs 10-20% faster or slower for minutes at a time, which no median
over one run can remove. ``run.py`` therefore times this kernel between jobs
and reports its end-to-end times at the reference speed, scaled by
``REFERENCE_S / median chunk time`` of the run.

The chunk mixes the kinds of work the workloads do: interpreter loops over
small objects, small-vector numpy steps, batch-32 BLAS layers and array
copies. It calls no deep_euler code, so a change to the program cannot move
it; a change that leaves work running between jobs would, and the raw wall
times printed on the ``#`` lines show that.
"""

from __future__ import annotations

import time

import numpy as np

# Median chunk time on the machine the benchmark was set up on (2-vCPU Xeon
# guest, 2.1 GHz, one BLAS thread). Scaled figures read in seconds at that speed.
REFERENCE_S = 0.0075

_RNG = np.random.default_rng(12345)
_W = _RNG.standard_normal((80, 80)) * 0.1
_X = _RNG.standard_normal((32, 80))
_BUF = _RNG.standard_normal(1 << 19)  # 4 MB


def chunk() -> float:
    """Seconds taken by one fixed chunk of work."""
    t0 = time.perf_counter()
    total = 0.0
    for _, half, _ in [(i, float(i) * 0.5, [i]) for i in range(6000)]:
        total += half
    y = np.ones(4)
    for _ in range(600):
        y = y + 0.001 * np.tanh(y)
    h = _X
    for _ in range(150):
        h = np.maximum(h @ _W, 0.0)
    for _ in range(4):
        _BUF.copy()
    return time.perf_counter() - t0


def sample(seconds: float) -> list[float]:
    """Chunk times over about ``seconds``, at least one chunk."""
    start = time.perf_counter()
    times = [chunk()]
    while time.perf_counter() - start < seconds:
        times.append(chunk())
    return times
