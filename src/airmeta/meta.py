"""Per-device MAML computations and the ideal (noiseless) aggregation.

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
    and the Hessian estimate, so the three draws never share a point.
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


def meta_grad_estimate(theta: np.ndarray, dataset: Dataset, cfg: LocalConfig,
                       rng: np.random.Generator) -> np.ndarray:
    """Stochastic meta-gradient (I - alpha*H_hat) g_hat' at theta.

    g_hat' is the mini-batch gradient at the adapted point
    theta - alpha * g_hat(B); H_hat is the mini-batch Hessian at theta.
    With ``first_order`` the Hessian factor is replaced by the identity.
    The estimate is biased for curved losses; that is accepted, not corrected.
    """
    theta = np.asarray(theta, dtype=float)
    _check_finite(theta)
    pool_b, pool_g, pool_h = batch_pools(dataset, cfg.batch_size)
    idx_b = rng.choice(pool_b, size=cfg.batch_size, replace=False)
    idx_g = rng.choice(pool_g, size=cfg.batch_size, replace=False)
    idx_h = rng.choice(pool_h, size=cfg.batch_size, replace=False)

    phi = theta - cfg.alpha * tasks.batch_grad(theta, dataset.x[idx_b], dataset.y[idx_b])
    g_outer = tasks.batch_grad(phi, dataset.x[idx_g], dataset.y[idx_g])
    if cfg.first_order:
        return g_outer
    h_hat = tasks.batch_hessian(theta, dataset.x[idx_h], dataset.y[idx_h])
    return g_outer - cfg.alpha * (h_hat @ g_outer)


def local_rounds(theta_start: np.ndarray, dataset: Dataset, cfg: LocalConfig, eta: float,
                 rng: np.random.Generator):
    """Run the local SGD steps and return (theta_end, delta, iterates).

    delta = theta_start - theta_end is the model difference the device would
    report; iterates are the points the steps started from (used for
    empirical constant estimation).  A step that leaves theta non-finite
    ends the loop, so a diverging device reports a non-finite delta.
    """
    theta = np.asarray(theta_start, dtype=float).copy()
    _check_finite(theta)
    iterates = []
    for step in range(cfg.local_steps):
        if step and not np.all(np.isfinite(theta)):
            break
        iterates.append(theta.copy())
        step = meta_grad_estimate(theta, dataset, cfg, rng)
        theta = theta - eta * step
    delta = np.asarray(theta_start, dtype=float) - theta
    return theta, delta, iterates


def ideal_aggregate(theta: np.ndarray, deltas) -> np.ndarray:
    """Noiseless server update: subtract the mean reported difference."""
    if len(deltas) == 0:
        raise ValueError("no model differences to aggregate")
    theta = np.asarray(theta, dtype=float)
    _check_finite(theta)
    return theta - np.mean(np.stack([np.asarray(d, dtype=float) for d in deltas]), axis=0)
