"""k-sparsification with error feedback and transmit power scaling.

``comp_k`` keeps k entries and zeroes the rest; both selection rules satisfy
the contraction property ||x - comp_k(x)||^2 <= (1 - k/d) ||x||^2 (surely for
top-k, in expectation for random-k).  The random rule is unscaled: it is a
contraction, not an unbiased sketch.

The per-device memory accumulates what sparsification dropped and is folded
back in before the next selection, so the updates telescope:
sum_t delta_t = sum_t g_t + memory_T.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

COMP_MODES = ("topk", "randk")


@dataclass(frozen=True)
class PowerPolicy:
    """Per-device average power budget over a block of channel uses.

    ``power`` is either one budget shared by all devices or a sequence with
    one entry per transmitting device.
    """

    power: object         # float, or per-device sequence
    channel_uses: int     # block length M
    rho_max: float = 1e12  # scale used when every update is all-zero

    def __post_init__(self):
        if np.any(np.asarray(self.power, dtype=float) <= 0):
            raise ValueError("power budgets must be > 0")
        if self.channel_uses < 1:
            raise ValueError("channel_uses must be >= 1")

    def budget(self, idx: int, n_devices: int) -> float:
        p = np.asarray(self.power, dtype=float)
        if p.ndim == 0:
            return float(p)
        if p.shape != (n_devices,):
            raise ValueError("need one power budget per device")
        return float(p[idx])


def comp_k(x: np.ndarray, k: int, mode: str = "topk",
           rng: np.random.Generator | None = None) -> np.ndarray:
    """Keep k entries of x (dense output, zeros elsewhere).

    topk keeps the k largest-magnitude entries, ties broken by lowest index;
    randk keeps k uniformly chosen indices.
    """
    x = np.asarray(x, dtype=float)
    d = x.shape[0]
    if not 1 <= k <= d:
        raise ValueError(f"k must be in [1, {d}], got {k}")
    if mode not in COMP_MODES:
        raise ValueError(f"unknown mode {mode!r}")
    if k == d and mode == "topk":
        return x.copy()
    if mode == "topk":
        # stable sort on -|x| keeps the lowest index among ties
        keep = np.argsort(-np.abs(x), kind="stable")[:k]
    else:
        if rng is None:
            raise ValueError("randk needs an rng")
        keep = rng.choice(d, size=k, replace=False)
    out = np.zeros_like(x)
    out[keep] = x[keep]
    return out


def memory_fold(memory: np.ndarray, delta: np.ndarray, k: int, mode: str = "topk",
                rng: np.random.Generator | None = None):
    """Fold the accumulated error into the update before sparsifying.

    Returns (g, next_memory) with g = comp_k(memory + delta) and
    next_memory = memory + delta - g.
    """
    memory = np.asarray(memory, dtype=float)
    delta = np.asarray(delta, dtype=float)
    if memory.shape != delta.shape:
        raise ValueError("memory and delta must have the same shape")
    folded = memory + delta
    g = comp_k(folded, k, mode, rng)
    return g, folded - g


def rate_sq(eta: float) -> float:
    """eta**2, or inf where the square leaves the float range (a Python float
    power raises OverflowError there)."""
    try:
        return eta**2
    except OverflowError:
        return float("inf")


def power_scale(updates, eta: float, policy: PowerPolicy) -> float:
    """Common scale rho so every device meets its average power budget.

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
    norms = []
    for idx, g in enumerate(updates):
        g = np.asarray(g, dtype=float)
        if not np.all(np.isfinite(g)):
            raise ValueError("update contains non-finite entries")
        nrm = float(g @ g)
        if nrm > 0.0 or np.any(g):  # a tiny nonzero g can have nrm == 0
            norms.append((idx, nrm))
    if not norms:
        return policy.rho_max
    if eta == 0:
        raise ValueError("nonzero updates cannot be power-scaled at eta == 0")
    tiny = np.finfo(float).tiny
    eta_sq = rate_sq(eta)
    if not tiny <= eta_sq < np.inf or min(nrm for _, nrm in norms) < tiny:
        return float("nan")
    n = len(updates)
    rho = min(eta_sq * policy.channel_uses * policy.budget(idx, n) / nrm
              for idx, nrm in norms)
    return rho if rho >= tiny else float("nan")


def phase_precompensate(g: np.ndarray, rho: float, eta: float, h: complex) -> np.ndarray:
    """Scale and counter-rotate an update so it arrives co-phased.

    Returns (sqrt(rho) * e^{-j arg(h)} / eta) * g; multiplying by the channel
    coefficient h leaves |h| * (sqrt(rho)/eta) * g, real up to rounding.
    """
    if abs(h) == 0:
        raise ValueError("zero channel coefficient; treat the device as inactive")
    if rho <= 0:
        raise ValueError("rho must be > 0")
    g = np.asarray(g, dtype=float)
    if not np.any(g):
        return np.zeros(g.shape, dtype=complex)  # a zero block needs no scaling
    if eta <= 0:
        raise ValueError("eta must be > 0 for a nonzero update")
    phase = np.conj(h) / abs(h)
    return (np.sqrt(rho) / eta) * phase * g
