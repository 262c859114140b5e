"""A fixed reference loop that gauges how fast the host runs at the moment.

The host this benchmark runs on is shared, and the speed it gives one
process drifts by 1.5x and more over minutes, with the same work and the
CPU time following the wall time (the process runs slower; it does not
wait).  `run.py` times this loop once before the first op and once after
each round of ops, and reports the mean op time in units of the mean loop
time measured in the same window, so the drift cancels out of the ratio.

The loop imports nothing from fireflynet, so a change to the program
moves the ratio by exactly as much as it moves the op time.  Its work is
of the kind the program does: an Euler-like update of an n x n matrix
(a matrix product, elementwise arithmetic, a clip, a zeroed diagonal)
with a small dataclass and dict made per step, on the workload's own
network size n.  Its size matters: on recall-11x11 (n = 121) a 25 x 25
loop left a ratio spread of 0.067 across runs, the 121 x 121 one 0.035.
"""

from __future__ import annotations

import time
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

WORK = 3000  # steps per pass times n: a pass takes about 4 ms at n = 25, 7 ms at n = 121


@dataclass
class _Step:
    w: np.ndarray
    change: float


def make_reference_loop(n: int) -> Callable[[], float]:
    """The reference loop on n x n arrays: each call runs one pass and
    returns its wall time in seconds."""
    b = np.random.default_rng(0).random((n, n))
    steps = WORK // n

    def reference_loop() -> float:
        t0 = time.perf_counter()
        w = b.copy()
        trail = []
        for _ in range(steps):
            dw = 0.1 * w - 0.05 * w * w + 0.01 * (b @ w)
            w = np.clip(w + 0.01 * dw, 0.0, 1.0)
            np.fill_diagonal(w, 0.0)
            step = _Step(w, float(np.abs(dw).max()))
            counts = {f"k{i}": i for i in range(20)}
            step.change += sum(counts.values())
            trail.append(step)
        return time.perf_counter() - t0

    return reference_loop
