"""Synthetic linear-regression tasks with exact loss, gradient, and Hessian
oracles.

Inputs are isotropic Gaussian, x ~ N(0, s * I), labels are
``y = <w, x> + eps`` and the loss is squared error.  Every population
quantity (test loss, meta loss after one adaptation step, smoothness
constants) has a closed form, which makes exact bound evaluation possible at
desk scale.

Device task vectors are drawn i.i.d. from N(center, task_spread * I); the
spread is the heterogeneity knob.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import _chi2_moments


@dataclass(frozen=True)
class TaskEnvironment:
    """Data-generating law shared by all devices of an experiment."""

    dim: int
    center: np.ndarray            # mean task vector w0
    task_spread: float            # variance of task vectors around w0
    input_cov: float = 1.0        # inputs x ~ N(0, input_cov * I)
    label_noise_var: float = 0.0  # variance of additive label noise

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if self.task_spread < 0:
            raise ValueError("task_spread must be >= 0")
        if self.label_noise_var < 0:
            raise ValueError("label_noise_var must be >= 0")
        center = np.asarray(self.center, dtype=float).reshape(-1)
        if center.shape != (self.dim,):
            raise ValueError("center must have length dim")
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "input_cov", float(self.input_cov))
        if self.input_cov < 0:
            raise ValueError("input_cov must be >= 0")

    @property
    def smoothness(self) -> float:
        """Lipschitz constant of the population gradient."""
        return smoothness_of(self.input_cov)


def smoothness_of(input_cov: float) -> float:
    """Lipschitz constant L_G of the population gradient of the squared loss
    under inputs N(0, input_cov * I), whatever the task vectors: input_cov."""
    return float(input_cov)


@dataclass(frozen=True)
class Dataset:
    """Local samples with a fixed train/validation split.

    ``x`` is (m, d) for one device or (n, m, d) for a stack of n devices
    that share the split sizes, with ``y`` shaped like ``x`` without its last
    axis.  Along the sample axis, rows [0, m_tr) are the training split and
    rows [m_tr, m) the validation split; the two are disjoint by
    construction.
    """

    x: np.ndarray  # (m, d) or (n, m, d)
    y: np.ndarray  # (m,) or (n, m)
    m_tr: int
    m_va: int

    def __post_init__(self):
        if self.x.ndim not in (2, 3) or self.y.shape != self.x.shape[:-1]:
            raise ValueError("x must be (m, d) or (n, m, d) and y (m,) or (n, m)")
        if self.m_tr < 1 or self.m_va < 1:
            raise ValueError("both splits need at least one point")
        if self.m_tr + self.m_va != self.x.shape[-2]:
            raise ValueError("m_tr + m_va must equal the number of points")

    @property
    def m(self) -> int:
        return self.x.shape[-2]

    @property
    def train(self):
        return self.x[..., : self.m_tr, :], self.y[..., : self.m_tr]

    @property
    def val(self):
        return self.x[..., self.m_tr :, :], self.y[..., self.m_tr :]

    def devices(self, rows) -> "Dataset":
        """The stack of the devices ``rows`` of a stacked dataset."""
        return Dataset(x=self.x[rows], y=self.y[rows], m_tr=self.m_tr, m_va=self.m_va)


def stack_datasets(datasets) -> Dataset:
    """One (n, m, d) stack of per-device datasets with equal split sizes."""
    first = datasets[0]
    if any((ds.m_tr, ds.m_va) != (first.m_tr, first.m_va) for ds in datasets):
        raise ValueError("stacked datasets must share their split sizes")
    return Dataset(x=np.stack([ds.x for ds in datasets]),
                   y=np.stack([ds.y for ds in datasets]), m_tr=first.m_tr, m_va=first.m_va)


def sample_device(env: TaskEnvironment, rng: np.random.Generator) -> np.ndarray:
    """Draw one device task vector w ~ N(center, task_spread * I)."""
    return env.center + np.sqrt(env.task_spread) * rng.standard_normal(env.dim)


def sample_dataset(w: np.ndarray, env: TaskEnvironment, m: int, m_tr: int, m_va: int,
                   rng: np.random.Generator) -> Dataset:
    """Draw m i.i.d. points from the law of the device with task vector w and
    split them."""
    x, y = sample_points(w, env, m, rng)
    return Dataset(x=x, y=y, m_tr=m_tr, m_va=m_va)


def sample_points(w: np.ndarray, env: TaskEnvironment, m: int,
                  rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Draw m i.i.d. points (x of shape (m, d), y of shape (m,)) from the law
    of the device with task vector w: all inputs first, then all label draws."""
    x = np.sqrt(env.input_cov) * rng.standard_normal((m, env.dim))
    y = x @ w + np.sqrt(env.label_noise_var) * rng.standard_normal(m)
    return x, y


# ---------------------------------------------------------------------------
# batch oracles


def batch_loss(phi, x, y):
    """Mean per-sample loss over a batch; x is (m, d), or (n, m, d) with phi
    (n, d) or (d,) for one mean per device of a stack; phi and x share d."""
    phi = np.asarray(phi, dtype=float)
    x = np.asarray(x, dtype=float)
    return np.mean(0.5 * (y - (x @ phi[..., None])[..., 0]) ** 2, axis=-1)


def batch_grad(phi: np.ndarray, x: np.ndarray, y) -> np.ndarray:
    """Mean gradient over a batch; x is (m, d), or (n, m, d) with phi (n, d)
    or (d,) for one gradient per device of a stack.  Assumes float phi and
    x that share d."""
    resid = y - (x @ phi[..., None])[..., 0]
    return -(x.swapaxes(-1, -2) @ resid[..., None])[..., 0] / x.shape[-2]


# ---------------------------------------------------------------------------
# population oracles
#
# With inputs N(0, s*I) every curvature below is a multiple of the identity,
# so each is the scalar that multiplies it.


def population_loss(phi: np.ndarray, w: np.ndarray, env: TaskEnvironment) -> float:
    """Exact expected per-sample loss: (s/2)||phi - w||^2 + noise/2."""
    e = np.asarray(phi, dtype=float) - w
    return 0.5 * float((env.input_cov * e) @ e) + 0.5 * env.label_noise_var


def meta_curvature(env: TaskEnvironment, alpha: float) -> float:
    """Curvature (1 - a*s) s (1 - a*s) of the post-adaptation loss."""
    s = env.input_cov
    return (1.0 - alpha * s) * s * (1.0 - alpha * s)


def population_meta_loss(theta: np.ndarray, w: np.ndarray, env: TaskEnvironment,
                         alpha: float) -> float:
    """Population loss after one exact adaptation step from theta."""
    u = np.asarray(theta, dtype=float) - w
    return 0.5 * float((meta_curvature(env, alpha) * u) @ u) + 0.5 * env.label_noise_var


def population_meta_grad(theta: np.ndarray, w: np.ndarray, env: TaskEnvironment,
                         alpha: float) -> np.ndarray:
    return meta_curvature(env, alpha) * (np.asarray(theta, dtype=float) - w)


def mean_meta_loss(theta, ws, env: TaskEnvironment, alpha: float) -> float:
    """Population meta loss averaged over devices with task vectors ws (n, d)."""
    return float(np.mean([population_meta_loss(theta, w, env, alpha) for w in ws]))


def mean_meta_grad(theta, ws, curvature: float) -> np.ndarray:
    """Population meta-gradient averaged over devices with task vectors ws
    (n, d), given the curvature ``meta_curvature(env, alpha)``; (d,) at one
    iterate ``theta``, (T, d) at a stack of T iterates."""
    u = np.asarray(theta, dtype=float)[..., None, :] - np.asarray(ws, dtype=float)
    return np.mean(curvature * u, axis=-2)


def meta_loss_minimum(ws, env: TaskEnvironment, alpha: float) -> float:
    """Exact minimum of the population meta loss averaged over devices with
    task vectors ws (n, d).

    The averaged quadratic is minimized at the mean task vector; the residual
    value is the curvature-weighted spread of the task vectors plus the label
    noise floor.
    """
    dev = ws - ws.mean(axis=0)
    spread = float(np.mean(np.sum(dev**2, axis=1)))
    return 0.5 * meta_curvature(env, alpha) * spread + 0.5 * env.label_noise_var


def analytic_meta_test_loss(env: TaskEnvironment, theta: np.ndarray, alpha: float,
                            m_tr: int) -> float:
    """Exact expected meta-test loss on a fresh device.

    Averages, in closed form, over the fresh task vector, the m_tr adaptation
    samples actually used by the one-step base learner, and the evaluation
    point.  Fourth-moment terms of the Gaussian inputs give the 1/m_tr
    corrections relative to the infinite-data adaptation.
    """
    s, d = env.input_cov, env.dim
    # E[(I - a*S_hat) s (I - a*S_hat)] / I with S_hat the empirical second moment
    curv = s - 2.0 * alpha * s**2 + alpha**2 * ((m_tr + 1) / m_tr * s**3 + d * s**3 / m_tr)
    u = np.asarray(theta, dtype=float) - env.center
    quad = 0.5 * curv * float(u @ u) + 0.5 * env.task_spread * d * curv
    noise = 0.5 * alpha**2 * env.label_noise_var * d * s**2 / m_tr + 0.5 * env.label_noise_var
    return quad + noise


# ---------------------------------------------------------------------------
# per-point assumption constants


def grad_moment_forms(env: TaskEnvironment) -> tuple[float, float, float]:
    """Closed forms of the per-sample gradient moments at offset e = phi - w.

    E ||grad loss(phi; Z)||^2 = (2 s^2 + d s^2) ||e||^2 + noise * d s
    and its variance is (s^2 + d s^2) ||e||^2 + noise * d s.
    Returns (second-moment factor, variance factor, noise term).
    """
    s = env.input_cov
    tr = env.dim * s
    return 2.0 * (s * s) + tr * s, s * s + tr * s, env.label_noise_var * tr


def hessian_spectral_variance(env: TaskEnvironment) -> float:
    """E ||per-sample Hessian - s*I||_2^2 (spectral norm).

    The spectral norm is max(|s*u - s|, s) with u chi-squared on dim degrees
    of freedom, so this is s^2 times ``_chi2_spectral_moment(dim)``: a table
    entry for dim <= 256, one split quadrature over the chi-squared density
    past it.
    """
    s = env.input_cov
    return float(s * s * _chi2_spectral_moment(env.dim))


def _chi2_spectral_moment(d: int) -> float:
    """E max((u - 1)^2, 1) for u chi-squared with d degrees of freedom.

    For d <= 256 this is ``_chi2_moments.MOMENTS[d - 1]``, the floats that
    ``_chi2_quadrature`` returns, so neither ``scipy.integrate`` nor
    ``scipy.special`` is imported; past the table it is the quadrature.
    """
    if d <= len(_chi2_moments.MOMENTS):
        return _chi2_moments.MOMENTS[d - 1]
    return _chi2_quadrature(d)


@functools.cache
def _chi2_quadrature(d: int) -> float:
    """The one definition of ``_chi2_spectral_moment(d)``.

    This is the computation of scipy's ``stats.chi2(d).expect`` without
    importing ``scipy.stats``: three ``quad`` calls of f(u)*pdf(u), split at
    the 5% and 95% quantiles, with the density written as scipy's own
    ``chi2._logpdf``.  Every operation is the same, so the result is the same
    float, and the bound constants keep their bits; a closed form would move
    them in the last bits.  scipy is imported here, on the first d past the
    table, not with the module.
    """
    from scipy import integrate, special

    a = d / 2.0
    lgam, lnorm = special.gammaln(a), np.log(2) * d / 2.0

    def f(u):
        pdf = np.exp(special.xlogy(a - 1.0, u) - u / 2.0 - lgam - lnorm)
        return max((u - 1.0) ** 2, 1.0) * pdf

    c, e = 2 * special.gammaincinv(a, [0.05, 0.95])
    return float(integrate.quad(f, 0, c)[0] + integrate.quad(f, c, e)[0]
                 + integrate.quad(f, e, np.inf)[0])
