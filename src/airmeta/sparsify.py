"""k-sparsification with error feedback and transmit power scaling.

``comp_k`` keeps the k largest-magnitude entries and zeroes the rest, so it
is a contraction: ||x - comp_k(x)||^2 <= (1 - k/d) ||x||^2 for every x.

The per-device memory accumulates what sparsification dropped and is folded
back in before the next selection, so the updates telescope:
sum_t delta_t = sum_t g_t + memory_T.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class PowerPolicy:
    """Average power budget of every device over a block of channel uses."""

    power: float          # per-device budget P
    channel_uses: int     # block length M
    rho_max: float = 1e12  # scale used when every update is all-zero

    def __post_init__(self):
        if not self.power > 0:
            raise ValueError("power budget must be > 0")
        if self.channel_uses < 1:
            raise ValueError("channel_uses must be >= 1")


def comp_k(x: np.ndarray, k: int) -> np.ndarray:
    """Keep the k largest-magnitude entries of each row of x (n, d), ties
    broken by lowest index; dense output, zeros elsewhere."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise ValueError(f"x must be a (n, d) stack, got shape {x.shape}")
    d = x.shape[1]
    if not 1 <= k <= d:
        raise ValueError(f"k must be in [1, {d}], got {k}")
    if k == d:
        return x.copy()
    # stable sort on -|x| keeps the lowest index among ties
    keep = np.argsort(-np.abs(x), axis=1, kind="stable")[:, :k]
    rows = np.arange(x.shape[0])[:, None]
    out = np.zeros_like(x)
    out[rows, keep] = x[rows, keep]
    return out


def memory_fold(memory: np.ndarray, delta: np.ndarray, k: int):
    """Fold the accumulated error into the update before sparsifying.

    ``memory`` and ``delta`` are (n, d) stacks, one row per device.  Returns
    (g, next_memory) with g = comp_k(memory + delta) and
    next_memory = memory + delta - g.
    """
    memory = np.asarray(memory, dtype=float)
    delta = np.asarray(delta, dtype=float)
    if memory.shape != delta.shape:
        raise ValueError("memory and delta must have the same shape")
    folded = memory + delta
    g = comp_k(folded, k)
    return g, folded - g


def energies(g: np.ndarray) -> np.ndarray:
    """||g_i||^2 of each row of the (n, d) stack g."""
    g = np.asarray(g, dtype=float)
    return (g[:, None, :] @ g[:, :, None])[:, 0, 0]


def rate_sq(eta: float) -> float:
    """eta**2, or inf where the square leaves the float range (a Python float
    power raises OverflowError there)."""
    try:
        return eta**2
    except OverflowError:
        return float("inf")


def power_scale(updates, eta: float, policy: PowerPolicy) -> float:
    """Common scale rho so every device meets its average power budget.

    ``updates`` is the (n, d) stack of the devices' updates.
    rho = min over devices of eta^2 * M * P / ||g||^2; the binding device
    transmits at exactly its budget, all others strictly below.  If every
    update is zero (a zero transmission costs no power) the configured
    rho_max is returned to keep the downstream division well defined.  When
    eta^2, an update's ||g||^2 or rho itself falls below the normal float
    range (a tiny nonzero update is not a zero one), too few bits are left
    for the budget to hold to rounding, and the result is nan.  It is nan
    too when eta^2 overflows.
    """
    if eta < 0:
        raise ValueError("eta must be >= 0")
    g = np.asarray(updates, dtype=float)
    if not np.all(np.isfinite(g)):
        raise ValueError("update contains non-finite entries")
    nrm = energies(g)
    norms = nrm[(nrm > 0.0) | np.any(g, axis=1)]  # a tiny nonzero g can have nrm == 0
    if not norms.size:
        return policy.rho_max
    if eta == 0:
        raise ValueError("nonzero updates cannot be power-scaled at eta == 0")
    tiny = np.finfo(float).tiny
    eta_sq = rate_sq(eta)
    if not tiny <= eta_sq < np.inf or norms.min() < tiny:
        return float("nan")
    rho = float(np.min(eta_sq * policy.channel_uses * policy.power / norms))
    return rho if rho >= tiny else float("nan")


def phase_precompensate(g: np.ndarray, rho: float, eta: float, gains) -> np.ndarray:
    """Scale and counter-rotate each device's update so it arrives co-phased.

    Row i of the (n, d) stack g is sent over the channel coefficient
    ``gains[i]``.  Returns (sqrt(rho) * e^{-j arg(h_i)} / eta) * g_i per row;
    multiplying by h_i leaves |h_i| * (sqrt(rho)/eta) * g_i, real up to
    rounding.
    """
    g = np.asarray(g, dtype=float)
    gains = np.asarray(gains, dtype=complex)
    if g.ndim != 2 or gains.shape != (g.shape[0],):
        raise ValueError("one channel coefficient per update row required")
    if np.any(gains == 0):
        raise ValueError("zero channel coefficient; treat the device as inactive")
    if rho <= 0:
        raise ValueError("rho must be > 0")
    out = np.zeros(g.shape, dtype=complex)  # a zero row needs no scaling
    live = np.any(g, axis=1)
    if live.any():
        if eta <= 0:
            raise ValueError("eta must be > 0 for a nonzero update")
        # per scalar: the vectorized quotient differs from it in the last bit
        phase = np.array([np.conj(h) / abs(h) for h in gains[live]])
        out[live] = ((np.sqrt(rho) / eta) * phase)[:, None] * g[live]
    return out
