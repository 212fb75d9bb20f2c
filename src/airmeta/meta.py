"""Per-device MAML computations and the ideal (noiseless) aggregation.

Every function works on a stack of devices with a leading device axis; one
device is a stack with one row.

The stochastic meta-gradient uses three mini-batches per step: one from the
training split for the adaptation gradient, and two from disjoint halves of
the validation split for the post-adaptation gradient and the Hessian
correction.  Disjoint pools are the strongest implementable form of the
independence the analysis assumes.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tasks
from .tasks import Dataset


@dataclass(frozen=True)
class LocalConfig:
    """Knobs of the per-device local update."""

    alpha: float          # inner (adaptation) step size
    local_steps: int      # outer SGD steps per round
    batch_size: int       # mini-batch size for every gradient/Hessian estimate
    first_order: bool = False  # drop the Hessian correction factor

    def __post_init__(self):
        if self.alpha < 0:
            raise ValueError("alpha must be >= 0")
        if self.local_steps < 1:
            raise ValueError("local_steps must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")


def _check_finite(theta: np.ndarray, what: str = "theta"):
    if not np.all(np.isfinite(theta)):
        raise ValueError(f"{what} contains non-finite entries")


def batch_pools(dataset: Dataset, batch_size: int):
    """Index pools for the three per-step mini-batches.

    The adaptation batch comes from the training split; the validation split
    is halved deterministically into pools for the post-adaptation gradient
    and the Hessian estimate, so the three draws never share a point.  Each
    pool is a contiguous index range, shared by every device of a stack.
    """
    m_tr, m_va = dataset.m_tr, dataset.m_va
    half = m_va // 2
    pools = (
        np.arange(m_tr),
        m_tr + np.arange(half),
        m_tr + half + np.arange(m_va - half),
    )
    for pool in pools:
        if pool.size < batch_size:
            raise ValueError(
                f"dataset too small for three disjoint batches of size {batch_size} "
                f"(m_tr={m_tr}, m_va={m_va})"
            )
    return pools


def meta_grad_estimate(thetas: np.ndarray, data: Dataset, pools, cfg: LocalConfig,
                       rngs) -> np.ndarray:
    """Stochastic meta-gradients (I - alpha*H_hat) g_hat' of a stack of devices.

    Row i is device i of the stacked ``data`` at ``thetas[i]``: g_hat' is its
    mini-batch gradient at the adapted point theta - alpha * g_hat(B), and
    H_hat its mini-batch Hessian at theta.  Device i draws its adaptation,
    outer-gradient and Hessian batches from ``rngs[i]``, in that order, out
    of the three ``pools`` of ``batch_pools``.  With ``first_order`` the
    Hessian factor is replaced by the identity.  The estimate is biased for
    curved losses; that is accepted, not corrected.
    """
    thetas = np.asarray(thetas, dtype=float)
    _check_finite(thetas)
    if not thetas.shape[0] == data.x.shape[0] == len(rngs):
        raise ValueError("one theta, one device dataset and one rng per row required")
    size = cfg.batch_size
    # offset + choice(pool.size) draws what choice(pool) draws, and leaves the
    # generator in the same state, without indexing the pool
    idx = np.array([[pool[0] + gen.choice(pool.size, size=size, replace=False)
                     for pool in pools] for gen in rngs]).reshape(len(rngs), len(pools), size)
    rows = np.arange(thetas.shape[0])[:, None]

    def batch(k):
        return data.x[rows, idx[:, k]], data.y[rows, idx[:, k]]

    phi = thetas - cfg.alpha * tasks.batch_grad(thetas, *batch(0))
    g_outer = tasks.batch_grad(phi, *batch(1))
    if cfg.first_order:
        return g_outer
    h_hat = tasks.batch_hessian(thetas, *batch(2))
    return g_outer - cfg.alpha * (h_hat @ g_outer[..., None])[..., 0]


def local_rounds(theta_start: np.ndarray, data: Dataset, pools, cfg: LocalConfig, eta: float,
                 rngs):
    """Run the local SGD steps of a stack of devices in lockstep.

    Every device of the stacked ``data`` starts from ``theta_start`` and
    draws its batches from its own generator in ``rngs``.  Returns
    (deltas, iterates): deltas (n, d) holds theta_start - theta_end, the
    model differences the devices would report, and iterates (Q, n, d) the
    points the steps started from (used for empirical constant estimation).
    A device whose iterate leaves the finite range stops there, so it
    reports a non-finite delta; its iterates from that step on are NaN.
    """
    theta_start = np.asarray(theta_start, dtype=float)
    _check_finite(theta_start)
    n = len(rngs)
    theta = np.tile(theta_start, (n, 1))
    iterates = np.full((cfg.local_steps, n, theta_start.size), np.nan)
    rows = np.arange(n)  # devices still running; data and rngs follow it
    for step in range(cfg.local_steps):
        if step:
            ok = np.all(np.isfinite(theta[rows]), axis=1)
            if not ok.all():
                rows, data = rows[ok], data.devices(ok)
                rngs = [gen for gen, keep in zip(rngs, ok) if keep]
        if not rows.size:
            break
        iterates[step, rows] = theta[rows]
        theta[rows] = theta[rows] - eta * meta_grad_estimate(theta[rows], data, pools, cfg, rngs)
    return theta_start - theta, iterates


def ideal_aggregate(theta: np.ndarray, deltas) -> np.ndarray:
    """Noiseless server update: subtract the mean reported difference of the
    (n, d) stack ``deltas``."""
    deltas = np.asarray(deltas, dtype=float)
    if deltas.shape[0] == 0:
        raise ValueError("no model differences to aggregate")
    theta = np.asarray(theta, dtype=float)
    _check_finite(theta)
    return theta - np.mean(deltas, axis=0)
