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

_TINY = np.finfo(float).tiny  # smallest normal float


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
    """Keep the k largest-magnitude entries of each row of the float stack x
    (..., n, d), ties broken by lowest index; dense output, zeros elsewhere.
    Assumes 1 <= k <= d.  A new array also at k == d, where it equals x."""
    d = x.shape[-1]
    flat = x.reshape(-1, d)
    # stable sort on -|x| keeps the lowest index among ties
    keep = (-np.abs(flat)).argsort(axis=1, kind="stable")[:, :k]
    keep += np.arange(0, flat.size, d)[:, None]
    out = np.zeros(flat.size, dtype=flat.dtype)
    out[keep] = flat.reshape(-1)[keep]
    return out.reshape(x.shape)


def memory_fold(memory: np.ndarray, delta: np.ndarray, k: int):
    """Fold the accumulated error into the update before sparsifying.

    ``memory`` and ``delta`` are float (..., n, d) stacks of one shape, one
    row per device.  Returns (g, next_memory) with g = comp_k(memory + delta)
    and next_memory = memory + delta - g.  Assumes 1 <= k <= d.
    """
    folded = memory + delta
    g = comp_k(folded, k)
    return g, folded - g


def energies(g: np.ndarray) -> np.ndarray:
    """||g_i||^2 of each row of the (..., n, d) stack g."""
    g = np.asarray(g, dtype=float)
    return (g[..., None, :] @ g[..., :, None])[..., 0, 0]


def rate_sq(eta: float) -> float:
    """eta**2, or inf where the square leaves the float range (a Python float
    power raises OverflowError there)."""
    try:
        return eta**2
    except OverflowError:
        return float("inf")


def power_scale(live: np.ndarray, nrm: np.ndarray, eta_sq: float,
                policy: PowerPolicy) -> np.ndarray:
    """Common scale rho so every device meets its average power budget.

    Of the float (..., n, d) stack g of the devices' updates, ``live`` is
    ``g.any(axis=-1)`` (..., n) and ``nrm`` their ``energies``; ``eta_sq``
    is the ``rate_sq(eta)`` of an eta >= 0.  The result is an array (...)
    of the scale of each (n, d) stack.
    rho = min over devices of eta^2 * M * P / ||g||^2; the binding device
    transmits at exactly its budget, all others strictly below.  If every
    update is zero (a zero transmission costs no power) the configured
    rho_max is returned to keep the downstream division well defined.  When
    eta^2, an update's ||g||^2 or rho itself falls below the normal float
    range (a tiny nonzero update is not a zero one), too few bits are left
    for the budget to hold to rounding, and the result is nan.  It is nan
    too when eta^2 overflows, for a stack with a non-finite entry, and for
    a nonzero update at eta == 0: such a stack cannot send.
    """
    some = live.any(axis=-1)  # a tiny nonzero g can have nrm == 0
    scalable = some & ~(live & (nrm < _TINY)).any(axis=-1) & (_TINY <= eta_sq < np.inf)
    # the least eta^2 M P / ||g||^2 over the devices is the quotient by the
    # largest energy: rounding keeps the order of the quotients
    top = np.where(scalable, nrm.max(axis=-1, initial=0.0), 1.0)
    rho = eta_sq * policy.channel_uses * policy.power / top
    return np.where(some, np.where(scalable & (rho >= _TINY), rho, np.nan), policy.rho_max)


def phase_precompensate(g: np.ndarray, live: np.ndarray, rho: np.ndarray, eta: float,
                        phases: np.ndarray) -> np.ndarray:
    """Scale and counter-rotate each device's update so it arrives co-phased.

    Row i of the float (..., n, d) stack g, nonzero where ``live`` =
    ``g.any(axis=-1)`` (..., n), is sent over a coefficient h_i of
    ``phase`` phases[..., i] = e^{-j arg(h_i)}.  Returns
    (sqrt(rho) * e^{-j arg(h_i)} / eta) * g_i per row, with a scale rho (...)
    per (n, d) stack; multiplying by h_i leaves |h_i| * (sqrt(rho)/eta) * g_i,
    real up to rounding.  Assumes rho > 0, nonzero coefficients, and eta > 0
    when any update is nonzero.  A zero row transmits zeros, also where its
    factor is not finite (eta == 0).
    """
    factor = (np.sqrt(rho) / eta)[..., None] * phases
    return np.where(live[..., None], factor[..., None] * g, 0.0)


def phase(h: np.ndarray, abs_h: np.ndarray) -> np.ndarray:
    """conj(h) / abs(h) per entry of a complex array h, from its moduli
    ``abs_h`` = np.hypot(h.real, h.imag): bit for bit numpy's scalar
    quotient, the complex division by hypot(h.real, h.imag) + 0j.
    ``np.abs(h)`` can differ from the hypot in the last bit, and
    ``conj(h) * (1 / abs(h))`` from the quotient."""
    return np.conj(h) / (abs_h + 0j)
