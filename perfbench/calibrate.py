"""Machine-speed calibration for the benchmark's timings.

The host's speed drifts by tens of percent over minutes when other tenants
load the machine, which moves a pass's time as much as a code change would.
A fixed kernel is therefore timed between passes, and each timing is also
reported in reference seconds: the time it would take on a host that runs
the kernel in ``REFERENCE_S``.  The kernel is a miniature of one federated
round written here, not imported from airmeta, so that no change to the
package changes it: per-device seeded generators, mini-batch draws, small
gradient and Hessian products, a top-1 sparsifier, a partial-DFT matrix and
a small linear solve.  It tracks the host-speed swings that airmeta sees
much more closely than a plain numeric loop does.
"""
from __future__ import annotations

import concurrent.futures
import multiprocessing
import statistics
import time

import numpy as np

REFERENCE_S = 0.1
_ROUNDS = 180
_DIM, _USES, _ACTIVE, _STEPS, _BATCH = 20, 8, 3, 5, 16


def kernel_seconds() -> float:
    """Host time of one run of the calibration kernel."""
    t0 = time.perf_counter()
    x = np.random.default_rng(7).standard_normal((150, _DIM))
    y = x @ np.ones(_DIM)
    acc = 0.0
    for t in range(_ROUNDS):
        for i in range(_ACTIVE):
            gen = np.random.default_rng(np.random.SeedSequence([123, 3, t, i]))
            theta = np.zeros(_DIM)
            for _ in range(_STEPS):
                idx = gen.choice(75, size=_BATCH, replace=False)
                xb = x[idx]
                grad = xb.T @ (xb @ theta - y[idx]) / _BATCH
                hess = xb.T @ xb / _BATCH
                theta = theta - 0.01 * (grad - 0.4 * (hess @ grad))
            keep = np.argsort(-np.abs(theta), kind="stable")[:1]
            sparse = np.zeros_like(theta)
            sparse[keep] = theta[keep]
            acc += float(sparse @ sparse)
        gen = np.random.default_rng(np.random.SeedSequence([123, 6, t]))
        rows = np.sort(gen.choice(_DIM, size=_USES, replace=False))
        a = np.exp(-2j * np.pi * np.outer(rows, np.arange(_DIM)) / _DIM) / np.sqrt(_DIM)
        b = np.vstack([a.real, a.imag])
        sol = np.linalg.solve(b @ b.T + 0.1 * np.eye(2 * _USES),
                              np.column_stack([b @ theta, b]))
        acc += float(np.sum(sol)) + sum(float(v) for v in theta)
    elapsed = time.perf_counter() - t0
    if not np.isfinite(acc):
        raise RuntimeError("calibration kernel diverged")
    return elapsed


class Calibrator:
    """Times the kernel under the same concurrency as the passes it calibrates.

    A pass that keeps ``processes`` CPUs busy is calibrated with that many
    copies of the kernel running at once in a pool of its own, because a
    host runs each core slower when all of them are busy.  ``close`` stops
    the pool.
    """

    def __init__(self, processes: int = 1):
        self.processes = processes
        self._pool = None
        if processes > 1:
            ctx = multiprocessing.get_context("spawn")
            self._pool = concurrent.futures.ProcessPoolExecutor(processes, mp_context=ctx)
            self.sample(0.0)  # start the workers before anything is timed

    def sample(self, seconds: float, at_least: int = 1) -> list[float]:
        """Kernel timings until about ``seconds`` of host time is spent."""
        out: list[float] = []
        while len(out) < at_least or sum(out) < seconds:
            if self._pool is None:
                out.append(kernel_seconds())
            else:
                futures = [self._pool.submit(kernel_seconds) for _ in range(self.processes)]
                out.append(statistics.fmean(f.result() for f in futures))
        return out

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def __enter__(self) -> "Calibrator":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def to_reference(samples: list[float]) -> float:
    """Factor from host seconds to reference seconds for a stretch of time
    over which ``samples`` were taken.

    It uses the mean: the samples are spread evenly over the stretch, so
    their mean is the host's time-averaged speed, which is what the mean
    pass time over the same stretch is subject to.
    """
    return REFERENCE_S / statistics.fmean(samples)
