"""A fixed calibration kernel that measures the machine's current speed.

On a shared host the same ``multiport run`` call can take up to twice as
long from one minute to the next, and CPU time drifts with wall time, so
a run's median cannot remove the drift. The benchmark therefore runs this
kernel between every two timed calls and reports call time on a
calibrated clock: wall seconds scaled by ``REFERENCE_S`` divided by the
kernel time measured around the call.

The kernel does a fixed amount of the kinds of work a ``multiport run``
does: interpreter-bound Python, small complex linear algebra at the
array sizes of the workloads, small elementwise numpy expressions and
float formatting. It uses no code of the package, so a change to the
package cannot change it.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

REFERENCE_S = 0.03
"""Kernel time that defines one calibrated second: about its median on a
2-core Intel Xeon VM with Python 3.11 and single-thread OpenBLAS."""

SIZE = 33
ROUNDS = 24


class Kernel:
    """The kernel's fixed inputs; ``run()`` returns one timing in seconds."""

    def __init__(self) -> None:
        rng = np.random.default_rng(20190724)
        a = rng.standard_normal((SIZE, SIZE)) + 1j * rng.standard_normal((SIZE, SIZE))
        self.a = a
        self.h = a @ a.conj().T + SIZE * np.eye(SIZE)
        self.v = rng.standard_normal(SIZE)
        self.run()  # first-call costs (LAPACK workspace queries, caches)

    def run(self) -> float:
        t0 = perf_counter()
        for _ in range(ROUNDS):
            np.linalg.eigh(self.h)
            np.linalg.svd(self.a)
            np.linalg.solve(self.h, self.a)
            np.linalg.cholesky(self.h)
            x = self.v
            for _ in range(16):
                x = np.maximum(x * 0.5 + 1.0, 0.0)
                x.sum()
            table = {}
            acc = 0.0
            for i in range(1500):
                k = i % 97
                table[k] = table.get(k, 0.0) + i * 0.5
                acc += (i & 7) * 1.5
            ",".join(f"{value:.17g}" for value in x)
        return perf_counter() - t0
