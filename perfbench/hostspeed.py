"""Host speed, from a fixed kernel timed between the workload's passes.

The shared host the benchmark was tuned on (2 vCPUs) runs the same code up
to 1.9x slower for tens of seconds to minutes at a time, longer than one
run, so even each input's best latency in a run moves with the host.  A
fixed kernel of interpreted Python and a LAPACK least-squares solve slows
with it: timed next to the estimate and distance workloads, the ratio of
their latency to the kernel's varied by 1.25x where each alone varied by
1.8-1.9x.  The end-to-end latencies are scaled by ``REFERENCE_MS`` over the
kernel's best time in the run, which gives them at the host speed at which
the kernel takes ``REFERENCE_MS``.

The kernel belongs to the benchmark, not to ``qoverlap``: a change to the
program does not change it.
"""
from __future__ import annotations

import time

import numpy as np

#: The kernel's best time on the quiet host it was tuned on.
REFERENCE_MS = 8.5
REPS_PER_PASS = 10

_LSTSQ = np.linalg.lstsq  # before the traced run wraps it
_RNG = np.random.default_rng(0x5EED)
_A = _RNG.standard_normal((400, 60))
_B = _RNG.standard_normal(400)


def kernel_seconds() -> float:
    """One timed run of the kernel."""
    t0 = time.perf_counter()
    x = 0
    for i in range(60_000):
        x += i * i % 7
    for _ in range(6):
        _LSTSQ(_A, _B, rcond=None)
    return time.perf_counter() - t0
