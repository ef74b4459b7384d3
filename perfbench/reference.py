"""Fixed numpy-only reference kernel that calibrates the machine's speed.

Every job time is divided by the mean time of this kernel, run in the
same process right before and right after the job, and multiplied by
``R_NOM``.  The kernel imports no gyrospec code.  Its parts mirror the
program's mix of work: batched small-matrix products and elementwise
complex arithmetic (chart sweeps), many small numpy calls (per-point
solves, Newton iterations, RK4 steps) and a plain Python loop with float
formatting (CSV emission).  Each part alone followed a repeated job's
time no better than their sum did.
"""

from __future__ import annotations

import time

import numpy as np

# Median kernel time in seconds on the reference machine (README.md).
R_NOM = 0.02


class ReferenceKernel:
    """Holds the kernel's fixed inputs so that each call does the same work."""

    def __init__(self):
        k = np.arange(2048 * 16, dtype=float).reshape(2048, 4, 4)
        self.batch = np.sin(k) / 4.0
        self.z = np.exp(1j * np.linspace(0.0, 40.0, 2048 * 4)).reshape(2048, 4)
        self.small = [np.cos(k[i]) for i in range(64)]
        self.values = [float(x) for x in np.linspace(-1.0, 1.0, 4500)]

    def __call__(self) -> float:
        """Run the kernel once; returns its wall time in seconds."""
        t0 = time.perf_counter()
        m = self.batch
        for _ in range(20):
            m = 0.5 * (m @ self.batch) + self.batch
        z = self.z
        for _ in range(60):
            z = z - (z * z - 1.0) / (2.0 * z + 3.0)
        acc = 0.0
        for _ in range(8):
            for a in self.small:
                b = a @ a
                acc += float(np.trace(b)) + float(np.abs(b).max())
                acc += float(np.linalg.norm(a[0]))
        parts = []
        for x in self.values:
            y = x * x - 0.25 * x + acc * 1e-9
            parts.append(f"{y:.17g}")
        ",".join(parts)
        if not (np.isfinite(z).all() and np.isfinite(m).all()):
            raise RuntimeError("reference kernel produced a non-finite value")
        return time.perf_counter() - t0
