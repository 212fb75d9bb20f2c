"""Synthetic task families with exact loss, gradient, and Hessian oracles.

Two families are supported:

* ``quadratic`` -- linear regression with squared loss.  Inputs are Gaussian,
  labels are ``y = <w, x> + eps``.  Every population quantity (test loss,
  meta loss after one adaptation step, smoothness constants) has a closed
  form, which makes exact bound evaluation possible at desk scale.
* ``logistic`` -- binary labels through a logistic link.  Pointwise oracles
  exist; population quantities must be estimated by sampling.

Device task vectors are drawn i.i.d. from N(center, task_spread * I); the
spread is the heterogeneity knob.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import stats

FAMILIES = ("quadratic", "logistic")


class NoClosedFormError(NotImplementedError):
    """Requested a closed-form population quantity for a family without one."""


def _as_cov(input_cov, dim: int) -> np.ndarray:
    cov = np.asarray(input_cov, dtype=float)
    if cov.ndim == 0:
        cov = float(cov) * np.eye(dim)
    if cov.shape != (dim, dim):
        raise ValueError(f"input covariance must be {dim}x{dim}, got {cov.shape}")
    if not np.allclose(cov, cov.T, atol=1e-10):
        raise ValueError("input covariance must be symmetric")
    if np.linalg.eigvalsh(cov).min() < -1e-10:
        raise ValueError("input covariance must be positive semi-definite")
    return cov


@dataclass(frozen=True)
class TaskEnvironment:
    """Data-generating family shared by all devices of an experiment."""

    family: str
    dim: int
    center: np.ndarray            # mean task vector w0
    task_spread: float            # variance of task vectors around w0
    input_cov: np.ndarray = field(default=None)  # covariance of inputs x
    label_noise_var: float = 0.0  # variance of additive label noise (quadratic only)

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
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
        cov = _as_cov(self.input_cov if self.input_cov is not None else 1.0, self.dim)
        object.__setattr__(self, "input_cov", cov)

    @property
    def cov_sqrt(self) -> np.ndarray:
        vals, vecs = np.linalg.eigh(self.input_cov)
        return (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.T

    @property
    def smoothness(self) -> float:
        """Lipschitz constant of the population gradient (quadratic family)."""
        if self.family != "quadratic":
            raise NoClosedFormError("analytic smoothness only for the quadratic family")
        return float(np.linalg.eigvalsh(self.input_cov).max())

    def isotropic_scale(self):
        """Return s if input_cov == s*I, else None."""
        s = float(self.input_cov[0, 0])
        if np.allclose(self.input_cov, s * np.eye(self.dim), atol=1e-12):
            return s
        return None


@dataclass(frozen=True)
class DeviceDistribution:
    """One device's data-generation law: its task vector plus the environment."""

    w: np.ndarray
    env: TaskEnvironment

    def __post_init__(self):
        w = np.asarray(self.w, dtype=float).reshape(-1)
        if w.shape != (self.env.dim,):
            raise ValueError("task vector length must match environment dim")
        object.__setattr__(self, "w", w)


@dataclass(frozen=True)
class Dataset:
    """Local samples with a fixed train/validation split.

    Rows [0, m_tr) are the training split, rows [m_tr, m) the validation
    split; the two are disjoint by construction.
    """

    x: np.ndarray  # (m, d)
    y: np.ndarray  # (m,)
    m_tr: int
    m_va: int

    def __post_init__(self):
        if self.x.ndim != 2 or self.y.shape != (self.x.shape[0],):
            raise ValueError("x must be (m, d) and y (m,)")
        if self.m_tr < 1 or self.m_va < 1:
            raise ValueError("both splits need at least one point")
        if self.m_tr + self.m_va != self.x.shape[0]:
            raise ValueError("m_tr + m_va must equal the number of points")

    @property
    def m(self) -> int:
        return self.x.shape[0]

    @property
    def train(self):
        return self.x[: self.m_tr], self.y[: self.m_tr]

    @property
    def val(self):
        return self.x[self.m_tr :], self.y[self.m_tr :]


def sample_device(env: TaskEnvironment, rng: np.random.Generator) -> DeviceDistribution:
    """Draw one device task vector w ~ N(center, task_spread * I)."""
    w = env.center + np.sqrt(env.task_spread) * rng.standard_normal(env.dim)
    return DeviceDistribution(w=w, env=env)


def sample_dataset(dist: DeviceDistribution, m: int, m_tr: int, m_va: int,
                   rng: np.random.Generator) -> Dataset:
    """Draw m i.i.d. points from the device law and split them."""
    if m != m_tr + m_va:
        raise ValueError("m must equal m_tr + m_va")
    if m_tr < 1 or m_va < 1:
        raise ValueError("both the training and validation split need data")
    x, y = sample_points(dist, m, rng)
    return Dataset(x=x, y=y, m_tr=m_tr, m_va=m_va)


def sample_points(dist: DeviceDistribution, m: int,
                  rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Draw m i.i.d. points (x of shape (m, d), y of shape (m,)) from the
    device law: all inputs first, then all label draws."""
    env = dist.env
    x = rng.standard_normal((m, env.dim)) @ env.cov_sqrt.T
    z = x @ dist.w
    if env.family == "quadratic":
        y = z + np.sqrt(env.label_noise_var) * rng.standard_normal(m)
    else:
        y = (rng.random(m) < sigmoid(z)).astype(float)
    return x, y


# ---------------------------------------------------------------------------
# pointwise oracles


def sigmoid(z):
    """Logistic link 1 / (1 + e^-z), in its overflow-free tanh form."""
    return 0.5 * (1.0 + np.tanh(0.5 * np.asarray(z, dtype=float)))


def _check_dims(phi: np.ndarray, x: np.ndarray):
    if phi.shape[-1] != x.shape[-1]:
        raise ValueError(f"dimension mismatch: phi has {phi.shape[-1]}, x has {x.shape[-1]}")


def loss(phi: np.ndarray, x: np.ndarray, y: float, family: str = "quadratic") -> float:
    """Per-sample loss at model phi."""
    phi = np.asarray(phi, dtype=float)
    x = np.asarray(x, dtype=float)
    _check_dims(phi, x)
    z = float(x @ phi)
    if family == "quadratic":
        return 0.5 * (float(y) - z) ** 2
    # - y*z + log(1 + e^z), computed stably
    return float(np.logaddexp(0.0, z) - float(y) * z)


def grad(phi: np.ndarray, x: np.ndarray, y: float, family: str = "quadratic") -> np.ndarray:
    phi = np.asarray(phi, dtype=float)
    x = np.asarray(x, dtype=float)
    _check_dims(phi, x)
    z = float(x @ phi)
    if family == "quadratic":
        return -(float(y) - z) * x
    return (float(sigmoid(z)) - float(y)) * x


def hessian(phi: np.ndarray, x: np.ndarray, y: float, family: str = "quadratic") -> np.ndarray:
    phi = np.asarray(phi, dtype=float)
    x = np.asarray(x, dtype=float)
    _check_dims(phi, x)
    if family == "quadratic":
        return np.outer(x, x)  # independent of phi
    s = float(sigmoid(float(x @ phi)))
    return s * (1.0 - s) * np.outer(x, x)


def batch_loss(phi, x, y, family="quadratic"):
    """Mean per-sample loss over a batch; x is (m, d)."""
    phi = np.asarray(phi, dtype=float)
    x = np.asarray(x, dtype=float)
    _check_dims(phi, x)
    z = x @ phi
    if family == "quadratic":
        return float(np.mean(0.5 * (y - z) ** 2))
    return float(np.mean(np.logaddexp(0.0, z) - y * z))


def batch_grad(phi, x, y, family="quadratic"):
    """Mean gradient over a batch; x is (m, d)."""
    phi = np.asarray(phi, dtype=float)
    x = np.asarray(x, dtype=float)
    _check_dims(phi, x)
    z = x @ phi
    if family == "quadratic":
        resid = y - z
        return -(x.T @ resid) / x.shape[0]
    return (x.T @ (sigmoid(z) - y)) / x.shape[0]


def batch_hessian(phi, x, y, family="quadratic"):
    """Mean Hessian over a batch; x is (m, d)."""
    phi = np.asarray(phi, dtype=float)
    x = np.asarray(x, dtype=float)
    _check_dims(phi, x)
    if family == "quadratic":
        return (x.T @ x) / x.shape[0]
    s = sigmoid(x @ phi)
    return (x.T * (s * (1.0 - s))) @ x / x.shape[0]


# ---------------------------------------------------------------------------
# population oracles (quadratic family)


def _require_quadratic(env: TaskEnvironment):
    if env.family != "quadratic":
        raise NoClosedFormError(
            "no closed form for the %r family; use a large-sample estimate" % env.family
        )


def population_loss(phi: np.ndarray, dist: DeviceDistribution) -> float:
    """Exact expected per-sample loss: (1/2)(phi-w)' Cov (phi-w) + noise/2."""
    _require_quadratic(dist.env)
    e = np.asarray(phi, dtype=float) - dist.w
    return 0.5 * float(e @ dist.env.input_cov @ e) + 0.5 * dist.env.label_noise_var


def population_grad(phi: np.ndarray, dist: DeviceDistribution) -> np.ndarray:
    _require_quadratic(dist.env)
    return dist.env.input_cov @ (np.asarray(phi, dtype=float) - dist.w)


def meta_curvature(env: TaskEnvironment, alpha: float) -> np.ndarray:
    """Curvature (I - a*Cov) Cov (I - a*Cov) of the post-adaptation loss."""
    _require_quadratic(env)
    cov = env.input_cov
    shrink = np.eye(env.dim) - alpha * cov
    return shrink @ cov @ shrink


def population_meta_loss(theta: np.ndarray, dist: DeviceDistribution, alpha: float) -> float:
    """Population loss after one exact adaptation step from theta."""
    _require_quadratic(dist.env)
    u = np.asarray(theta, dtype=float) - dist.w
    b = meta_curvature(dist.env, alpha)
    return 0.5 * float(u @ b @ u) + 0.5 * dist.env.label_noise_var


def population_meta_grad(theta: np.ndarray, dist: DeviceDistribution, alpha: float) -> np.ndarray:
    _require_quadratic(dist.env)
    b = meta_curvature(dist.env, alpha)
    return b @ (np.asarray(theta, dtype=float) - dist.w)


def mean_meta_loss(theta, dists, alpha: float) -> float:
    """Population meta loss averaged over devices."""
    return float(np.mean([population_meta_loss(theta, d, alpha) for d in dists]))


def mean_meta_grad(theta, dists, alpha: float) -> np.ndarray:
    return np.mean([population_meta_grad(theta, d, alpha) for d in dists], axis=0)


def meta_loss_minimum(dists, alpha: float) -> float:
    """Exact minimum of the device-averaged population meta loss.

    The averaged quadratic is minimized at the mean task vector; the residual
    value is the curvature-weighted spread of the task vectors plus the label
    noise floor.
    """
    env = dists[0].env
    _require_quadratic(env)
    b = meta_curvature(env, alpha)
    ws = np.stack([d.w for d in dists])
    w_bar = ws.mean(axis=0)
    dev = ws - w_bar
    return 0.5 * float(np.mean(np.einsum("id,de,ie->i", dev, b, dev))) + 0.5 * env.label_noise_var


def analytic_meta_test_loss(env: TaskEnvironment, theta: np.ndarray, alpha: float,
                            m_tr: int) -> float:
    """Exact expected meta-test loss on a fresh device.

    Averages, in closed form, over the fresh task vector, the m_tr adaptation
    samples actually used by the one-step base learner, and the evaluation
    point.  Fourth-moment terms of the Gaussian inputs give the 1/m_tr
    corrections relative to the infinite-data adaptation.
    """
    _require_quadratic(env)
    cov = env.input_cov
    d = env.dim
    theta = np.asarray(theta, dtype=float)
    cov2 = cov @ cov
    cov3 = cov2 @ cov
    tr_cov2 = float(np.trace(cov2))
    # E[(I - a*S_hat) Cov (I - a*S_hat)] with S_hat the empirical second moment
    m_mat = cov - 2.0 * alpha * cov2 + alpha**2 * (
        (m_tr + 1) / m_tr * cov3 + tr_cov2 / m_tr * cov
    )
    u = theta - env.center
    quad = 0.5 * float(u @ m_mat @ u) + 0.5 * env.task_spread * float(np.trace(m_mat))
    noise = 0.5 * alpha**2 * env.label_noise_var * tr_cov2 / m_tr + 0.5 * env.label_noise_var
    return quad + noise


# ---------------------------------------------------------------------------
# per-point assumption constants (quadratic family)


def grad_second_moment(phi_minus_w: np.ndarray, env: TaskEnvironment) -> float:
    """E ||grad loss(phi; Z)||^2 at offset e = phi - w, in closed form."""
    _require_quadratic(env)
    cov = env.input_cov
    e = np.asarray(phi_minus_w, dtype=float)
    tr = float(np.trace(cov))
    return float(e @ (2.0 * cov @ cov + tr * cov) @ e) + env.label_noise_var * tr


def grad_variance(phi_minus_w: np.ndarray, env: TaskEnvironment) -> float:
    """Var of the per-sample gradient at offset e = phi - w, in closed form."""
    _require_quadratic(env)
    cov = env.input_cov
    e = np.asarray(phi_minus_w, dtype=float)
    tr = float(np.trace(cov))
    return float(e @ (cov @ cov + tr * cov) @ e) + env.label_noise_var * tr


def hessian_spectral_variance(env: TaskEnvironment, rng: np.random.Generator | None = None,
                              n_samples: int = 10000) -> tuple[float, str]:
    """E ||per-sample Hessian - Cov||_2^2 (spectral norm).

    For isotropic covariance s*I the spectral norm is max(|s*u - s|, s) with
    u chi-squared, evaluated by quadrature.  Otherwise falls back to Monte
    Carlo over sampled inputs.
    Returns (value, provenance).
    """
    _require_quadratic(env)
    d = env.dim
    s = env.isotropic_scale()
    if s is not None:
        if s == 0.0:
            return 0.0, "analytic"
        val = stats.chi2(d).expect(lambda u: max((u - 1.0) ** 2, 1.0), lb=0, ub=np.inf)
        return float(s * s * val), "analytic"
    if rng is None:
        rng = np.random.default_rng(0)
    x = rng.standard_normal((n_samples, d)) @ env.cov_sqrt.T
    norms = np.empty(n_samples)
    for i in range(n_samples):
        norms[i] = np.abs(np.linalg.eigvalsh(np.outer(x[i], x[i]) - env.input_cov)).max()
    return float(np.mean(norms**2)), "empirical"
