"""The reference-speed clock.

On a small shared VM the CPU speed drifts by up to 2x over tens of seconds, so
a wall-clock interval says as much about the machine as about the code.  Every
interval the benchmark reports is therefore read against a fixed reference
kernel that runs on the same thread right before and right after it: the raw
interval is divided by the kernel's measured duration (the mean of the two
runs) and multiplied by the kernel's nominal duration ``NOMINAL_S``.  A
rescaled second is a second of a machine that runs the kernel in exactly
``NOMINAL_S``.

The kernel mixes the three kinds of work relaybound does, in about equal
shares: an interpreter loop (an entropy sum over numpy scalars with
``math.log2``), small dense factorizations reached through numpy's per-call
dispatch (``np.ix_`` subsets of 6x6 matrices, Cholesky, log of the
diagonal), and a streaming array reduction that adds an array into an
accumulator row by row.  README.md gives the measurements behind the mix.
"""

from __future__ import annotations

import math
import time

import numpy as np

#: Nominal duration of one kernel run, in seconds: a constant of the
#: benchmark, close to the kernel's median duration on the 2-CPU VM the
#: reference figures in README.md were taken on.
NOMINAL_S = 0.004

_ENTROPY_PASSES = 12
_FACTOR_PASSES = 3
_SUBSET = [0, 2, 3, 5]


class RefClock:
    """Times intervals against the reference kernel and keeps every kernel
    duration it measured, so a run can report how unsteady the machine was."""

    def __init__(self) -> None:
        rng = np.random.default_rng(1510_00832)
        a = rng.standard_normal((24, 6, 6))
        self._mats = a @ a.transpose(0, 2, 1) + 6.0 * np.eye(6)
        self._probs = rng.random(400)
        self._rows = rng.random((2048, 8))
        self.kernel_s: list[float] = []
        self._last: float | None = None
        for _ in range(3):  # let lazy numpy and BLAS set-up finish
            self._run_kernel()

    def _run_kernel(self) -> float:
        t0 = time.perf_counter()
        entropy = 0.0
        for _ in range(_ENTROPY_PASSES):
            for p in self._probs:
                if p >= 1e-15:
                    entropy -= p * math.log2(p)
        logdet = 0.0
        for _ in range(_FACTOR_PASSES):
            for m in self._mats:
                chol = np.linalg.cholesky(m[np.ix_(_SUBSET, _SUBSET)])
                logdet += float(np.sum(np.log2(np.diag(chol))))
        acc = np.zeros(self._rows.shape[1])
        for row in self._rows:
            acc += row
        elapsed = time.perf_counter() - t0
        if not np.isfinite(entropy + logdet + float(acc.sum())):
            raise RuntimeError("reference kernel produced a non-finite result")
        return elapsed

    def kernel(self) -> float:
        """Run the kernel once; record and return its duration in seconds."""
        d = self._run_kernel()
        self.kernel_s.append(d)
        self._last = d
        return d

    def invalidate(self) -> None:
        """Forget the last kernel run: work outside timed intervals ran since."""
        self._last = None

    def time(self, fn):
        """Run ``fn()`` between two kernel runs.

        Returns ``(result, rescaled_s, raw_s, scale)`` where ``scale`` is the
        factor that turns raw seconds measured inside the interval into
        rescaled seconds.  The closing kernel run opens the next interval
        unless ``invalidate`` is called in between.
        """
        before = self._last if self._last is not None else self.kernel()
        t0 = time.perf_counter()
        result = fn()
        raw = time.perf_counter() - t0
        after = self.kernel()
        scale = NOMINAL_S / (0.5 * (before + after))
        return result, raw * scale, raw, scale
