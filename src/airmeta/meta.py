"""Per-device MAML computations: stochastic meta-gradients and local SGD rounds.

Every function works on a stack of devices with a leading device axis; one
device is a stack with one row.

The stochastic meta-gradient uses three mini-batches per step: one from the
training split for the adaptation gradient, and two from disjoint halves of
the validation split for the post-adaptation gradient and the Hessian
correction.  Disjoint pools are the strongest implementable form of the
independence the analysis assumes.

The batches are index arrays drawn before the steps run, by
``rng.draw_batches`` or ``rng.stream_batches``.
"""
from __future__ import annotations

import numpy as np

from . import tasks
from .tasks import Dataset


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


def local_rounds(theta_start: np.ndarray, data: Dataset, idx: np.ndarray, alpha: float,
                 eta: float, devices: np.ndarray):
    """Run the local SGD steps of a stack of devices in lockstep.

    Row i runs device ``devices[i]`` of the stacked ``data`` from row i of
    the finite float ``theta_start`` (n, d), or every row from one (d,)
    start, at inner rate ``alpha`` >= 0; step q of row i uses the batches
    ``idx[q, i]`` of an index array (Q >= 1, n, 3, m_B >= 1).  Returns
    (deltas, iterates): deltas (n, d) holds theta_start - theta_end, the
    model differences the devices would report, and iterates (Q, n, d) the
    points the steps started from (used for empirical constant estimation).
    A device whose iterate leaves the finite range stops there, so it
    reports theta_start minus its first non-finite iterate; its iterates
    from that step on are NaN.

    Every step's batches are gathered at once (``_gather``); each step is
    ``meta_grad_estimate`` on its rows of them.  The steps run on every row
    unchecked: a non-finite entry stays non-finite under the steps, so only
    a non-finite end iterate sends its row through the one pass that stops
    it where it left the finite range.
    """
    n, steps = len(devices), idx.shape[0]
    x, y = _gather(data, idx, devices)
    # row q is the point step q starts from, the last one the end iterate
    chain = np.empty((steps + 1, n, theta_start.shape[-1]))
    chain[0] = theta_start
    for step in range(steps):
        np.subtract(chain[step], eta * meta_grad_estimate(chain[step], x[step], y[step], alpha),
                    out=chain[step + 1])
    stopped = np.flatnonzero(~np.isfinite(chain[-1]).all(axis=1))
    if stopped.size:
        # the first non-finite iterate of each stopped row (the start is finite)
        first = np.isfinite(chain[:, stopped]).all(axis=-1).argmin(axis=0)
        chain[-1, stopped] = chain[first, stopped]
        after = np.arange(steps)[:, None] >= first
        chain[:-1, stopped] = np.where(after[..., None], np.nan, chain[:-1, stopped])
    return theta_start - chain[-1], chain[:-1]


def _gather(data: Dataset, idx: np.ndarray, devices: np.ndarray):
    """The float points (..., n, 3, m_B, d) and the labels (..., n, 3, m_B)
    of the batch indices ``idx`` (..., n, 3, m_B), row i on device
    ``devices[i]``: one ``take`` of the flat indices ``device * m + idx``
    from the stack's points and one from its labels."""
    flat = devices[:, None, None] * data.m + idx
    return (np.asarray(data.x.reshape(-1, data.x.shape[-1]).take(flat, axis=0), dtype=float),
            data.y.reshape(-1).take(flat))


def meta_grad_estimate(thetas: np.ndarray, x: np.ndarray, y: np.ndarray,
                       alpha: float) -> np.ndarray:
    """Stochastic meta-gradients (I - alpha*H_hat) g_hat' of a stack of devices.

    Row i is taken at row i of the float ``thetas`` (n, d), on its
    adaptation, outer-gradient and Hessian batches ``x[i, k]``, ``y[i, k]``
    for k = 0, 1, 2, gathered (``_gather``) from the three pools of
    ``batch_pools``: g_hat' is its mini-batch gradient at the adapted point
    theta - alpha * g_hat(B), and H_hat its mini-batch Hessian at theta,
    X'X / m_B on the Hessian batch X, applied to g_hat' as X'(X g_hat') / m_B
    without forming it.  Assumes alpha >= 0 and nonempty batches.  The
    estimate is biased for curved losses; that is accepted, not corrected.
    """
    phi = thetas - alpha * tasks.batch_grad(thetas, x[:, 0], y[:, 0])
    g_outer = tasks.batch_grad(phi, x[:, 1], y[:, 1])
    x_h = x[:, 2]
    h_g = (x_h.swapaxes(-1, -2) @ (x_h @ g_outer[..., None]))[..., 0] / x_h.shape[-2]
    return g_outer - alpha * h_g
