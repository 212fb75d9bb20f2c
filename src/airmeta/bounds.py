"""Assumption constants and closed-form bound evaluators.

The convergence evaluators reproduce, term by term, the printed upper bounds
on the average (constant rates) and minimum (adaptive rates) squared
meta-gradient norm.  The generalization evaluator reproduces the mutual-
information bound on the meta-generalization error.  Constants are analytic
where a closed form exists, and otherwise maxima over a run's trajectory,
flagged empirical.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tasks


# whether ``estimate_constants`` gives each AssumptionConstants field in
# closed form or as an empirical surrogate (a maximum over trajectory probes,
# for constants that are not globally finite on quadratic losses)
PROVENANCE = {
    "l_g": "analytic", "l_h": "analytic", "g_sq": "empirical", "sigma_g_sq": "empirical",
    "sigma_h_sq": "analytic", "gamma_g_sq": "analytic", "gamma_h_sq": "analytic",
}


@dataclass(frozen=True)
class AssumptionConstants:
    """Gradient/Hessian moment and heterogeneity constants."""

    l_g: float          # gradient Lipschitz constant of the per-device test loss
    l_h: float          # Hessian Lipschitz constant
    g_sq: float         # bound on E||grad loss||^2
    sigma_g_sq: float   # per-sample gradient variance bound
    sigma_h_sq: float   # per-sample Hessian variance bound (spectral)
    gamma_g_sq: float   # device-to-mean gradient heterogeneity
    gamma_h_sq: float   # device-to-mean Hessian heterogeneity

    def __post_init__(self):
        for name in ("l_g", "l_h", "g_sq", "sigma_g_sq", "sigma_h_sq",
                     "gamma_g_sq", "gamma_h_sq"):
            v = getattr(self, name)
            if not np.isfinite(v) or v < 0:
                raise ValueError(f"{name} must be finite and >= 0, got {v}")


def estimate_constants(env: tasks.TaskEnvironment, ws: np.ndarray,
                       probe: dict) -> AssumptionConstants:
    """Assumption constants of a run.

    Smoothness, Hessian and heterogeneity constants are analytic in the
    environment and the realized (n, d) task vectors ``ws``.  The gradient
    moment bounds are not globally finite on quadratic losses, so they are the
    run's ``probe`` maxima of the analytic per-point values along the
    trajectory (``g_sq``, ``sigma_g_sq``), flagged empirical.
    """
    ws = np.asarray(ws, dtype=float)
    gamma_g_sq = float(np.max(np.sum((env.input_cov * (ws - ws.mean(axis=0))) ** 2, axis=1)))
    return AssumptionConstants(
        l_g=env.smoothness, l_h=0.0, g_sq=float(probe["g_sq"]),
        sigma_g_sq=float(probe["sigma_g_sq"]),
        sigma_h_sq=tasks.hessian_spectral_variance(env), gamma_g_sq=gamma_g_sq,
        gamma_h_sq=0.0,
    )


def midpoint_c(lam: float) -> float:
    """Midpoint of the admissible interval (0, lam/(1-lam)) for c."""
    if lam >= 1.0:
        return float("inf")
    return lam / (2.0 * (1.0 - lam))


def memory_gain(lam: float, c: float) -> float:
    """Geometric amplification of the error-feedback memory.

    (1-lam)(1+1/c) / (1 - (1-lam)(1+c)); zero when nothing is dropped
    (lam = 1).  c must lie in (0, lam/(1-lam)) so the recursion contracts.
    """
    if not 0 < lam <= 1:
        raise ValueError("lam must be in (0, 1]")
    if lam == 1.0:
        return 0.0
    if not 0 < c < lam / (1.0 - lam):
        raise ValueError(f"c must be in (0, {lam / (1 - lam)}), got {c}")
    return (1.0 - lam) * (1.0 + 1.0 / c) / (1.0 - (1.0 - lam) * (1.0 + c))


@dataclass(frozen=True)
class DerivedConstants:
    """Constants of the meta objective derived from the assumption set."""

    l_f: float          # smoothness of the post-adaptation objective
    sigma_f_sq: float   # meta-gradient estimate variance
    gamma_f_sq: float   # meta-gradient heterogeneity
    lam: float          # kept fraction k/d
    c: float
    gain: float         # memory amplification factor


def derived_constants(ac: AssumptionConstants, alpha: float, k: int, d: int,
                      batch_size: int) -> DerivedConstants:
    """Derived constants at inner rate alpha and sparsification level k/d."""
    if not 0 <= alpha <= (1.0 / ac.l_g if ac.l_g > 0 else np.inf):
        raise ValueError("alpha must lie in [0, 1/l_g]")
    lam = k / d
    c = midpoint_c(lam)
    gain = memory_gain(lam, c)
    g = math.sqrt(ac.g_sq)
    l_f = 4.0 * ac.l_g + alpha * ac.l_h * g
    gamma_f_sq = 3.0 * ac.g_sq * alpha**2 * ac.gamma_h_sq + 192.0 * ac.gamma_g_sq
    sigma_f_sq = (
        12.0 * ac.sigma_g_sq * ((1.0 + (alpha * ac.l_g) ** 2) / batch_size)
        * (1.0 + ac.sigma_h_sq * alpha**2 / (4.0 * batch_size))
        + 12.0 * ac.g_sq * ac.sigma_h_sq * alpha**2 / (4.0 * batch_size)
    )
    return DerivedConstants(l_f=l_f, sigma_f_sq=sigma_f_sq, gamma_f_sq=gamma_f_sq,
                            lam=lam, c=c, gain=gain)


def _sgd_moment_factor(ac: AssumptionConstants, alpha: float, batch_size: int) -> float:
    """(1 + alpha*l_g)^2 + alpha^2 sigma_h^2 / m_B, common to several terms."""
    return (1.0 + alpha * ac.l_g) ** 2 + alpha**2 * ac.sigma_h_sq / batch_size


# the terms of each schedule's convergence bound in their printed order;
# summary.json stores them sorted by name
TERMS = {
    "constant": ("initialization", "outer_sgd_heterogeneity", "estimation",
                 "outer_sgd_heterogeneity_sq", "sparsification", "inner_sgd_floor"),
    "adaptive": ("initialization", "inner_sgd", "sparsification", "estimation",
                 "outer_sgd_heterogeneity_sq", "outer_sgd_heterogeneity"),
}


@dataclass(frozen=True)
class BoundReport:
    """Per-term decomposition of a closed-form bound; the total is the sum
    of the terms in their order."""

    terms: dict

    @property
    def total(self) -> float:
        return float(sum(self.terms.values()))


def constant_rate_bound(dc: DerivedConstants, ac: AssumptionConstants, *, q: int,
                        r: float, n: int, d: int, m_uses: int, p_min: float,
                        eta: float, alpha: float, batch_size: int, t_rounds: int,
                        f_init: float, f_star: float, v_mean: float,
                        abs_mean: float, abs_power: float) -> BoundReport:
    """Upper bound on the T-round average squared meta-gradient norm under
    constant rates, decomposed into its printed terms."""
    if t_rounds < 1:
        raise ValueError("t_rounds must be >= 1")
    for name, val in (("eta", eta), ("p_min", p_min)):
        if val <= 0:
            raise ValueError(f"{name} must be > 0")
    fac = _sgd_moment_factor(ac, alpha, batch_size)
    c0 = 8.0 * (f_init - f_star) / q
    c_alpha = 48.0 * alpha**2 * ac.l_g**2 * ac.sigma_g_sq / batch_size
    c_lam = 32.0 * q**2 * dc.l_f**2 * dc.gain / r**2 * fac * ac.g_sq
    c_v = (
        16.0 * dc.l_f * q * ac.g_sq * (dc.gain + 1.0) * fac
        * (d / (r**2 * n**2 * m_uses * p_min) * v_mean + 2.0 * abs_power / abs_mean**2 - 2.0)
    )
    c_n = 32.0 * q * dc.l_f * (dc.sigma_f_sq + dc.gamma_f_sq)
    c_f = (480.0 * q**2 * dc.l_f**2 + 1280.0 * q**3 * dc.l_f**2) * (dc.sigma_f_sq + dc.gamma_f_sq)
    terms = {
        "initialization": c0 / (eta * t_rounds),
        "outer_sgd_heterogeneity": eta * c_n,
        "estimation": eta * c_v,
        "outer_sgd_heterogeneity_sq": eta**2 * c_f,
        "sparsification": eta**2 * c_lam,
        "inner_sgd_floor": c_alpha,
    }
    return BoundReport({name: terms[name] for name in TERMS["constant"]})


def adaptive_floor_c(lam: float, a: float, q: int) -> float:
    """Smallest admissible contraction constant for the adaptive analysis."""
    if a * lam <= 4 * q:
        raise ValueError(f"need a * (k/d) > 4 * Q, got a*lam = {a * lam}, 4Q = {4 * q}")
    return 4.0 * a * lam * (1.0 - lam**2) / (a * lam - 4.0 * q)


def adaptive_rate_bound(dc: DerivedConstants, ac: AssumptionConstants, *, q: int,
                        r: float, n: int, d: int, m_uses: int, p_min: float,
                        xi: float, a: float, xi_inner: float, a_inner: float,
                        batch_size: int, t_rounds: int, f_init: float, f_star: float,
                        v_max: float, abs_mean: float, abs_power: float) -> BoundReport:
    """Upper bound on the best squared meta-gradient norm under 1/t rates.

    Each term is divided by xi * ln((T + a - 1)/a), so the total is the full
    right-hand side C_ada / (xi * ln((T + a - 1)/a)).
    """
    if a <= 1 or a_inner <= 1:
        raise ValueError("schedule offsets must exceed 1")
    if t_rounds < 2:  # the normalizer ln((T + a - 1)/a) vanishes at T = 1
        raise ValueError("t_rounds must be >= 2")
    big_c = adaptive_floor_c(dc.lam, a, q)
    hess_fac = 1.0 + ac.sigma_h_sq / (ac.l_g**2 * batch_size) if ac.l_g > 0 else 1.0
    noise_fac = d / (r**2 * n**2 * m_uses * p_min) * v_max + 2.0 * abs_power / abs_mean**2 - 2.0
    terms = {
        "initialization": 8.0 * (f_init - f_star) / q,
        "inner_sgd": 48.0 * ac.l_g * ac.sigma_g_sq / batch_size * xi_inner**2 / (a_inner - 1.0),
        "sparsification": 64.0 * q**2 * dc.l_f**2 * ac.g_sq * big_c / (r**2 * dc.lam**2)
        * hess_fac * xi**3 / (a - 1.0),
        "estimation": 4.0 * dc.l_f * q * ac.g_sq * hess_fac * (big_c / dc.lam**2 + 2.0)
        * xi**2 / (a - 1.0) * noise_fac,
        "outer_sgd_heterogeneity_sq": (480.0 * q**2 * dc.l_f**2 + 1280.0 * q**3 * dc.l_f**2)
        * (dc.sigma_f_sq + dc.gamma_f_sq) * xi**3 / (a - 1.0) ** 2,
        "outer_sgd_heterogeneity": 32.0 * q * dc.l_f * xi**2 / (a - 1.0)
        * (dc.sigma_f_sq + dc.gamma_f_sq),
    }
    denom = xi * math.log((t_rounds + a - 1.0) / a)
    return BoundReport({name: terms[name] / denom for name in TERMS["adaptive"]})


def sparsified_update_energy(ac: AssumptionConstants, dc: DerivedConstants, *,
                             q: int, alpha: float, batch_size: int) -> float:
    """Bound on the transmitted update energy entering the information bound."""
    return 4.0 * q**2 * ac.g_sq * (dc.gain + 1.0) * _sgd_moment_factor(ac, alpha, batch_size)


def generalization_bound(*, d: int, n: int, sigma_sq: float, m_uses: int,
                         p_max: float, rn: int, c_g: float, sum_abs_h_sq,
                         v_series, eps_g: float) -> float:
    """Mutual-information bound on the meta-generalization error.

    sqrt((d sigma^2 / n) * sum_t log(1 + M P_max rn C_g S_t / (d v_t eps_g)))
    with S_t the realized sum of squared channel magnitudes.  A noiseless
    round (v_t = 0) makes the bound vacuous; +inf is returned.
    """
    s = np.asarray(sum_abs_h_sq, dtype=float)
    v = np.asarray(v_series, dtype=float)
    if s.shape != v.shape:
        raise ValueError("per-round series must align")
    if eps_g <= 0:
        raise ValueError("eps_g must be > 0")
    if s.size == 0:
        return 0.0
    if np.any(v <= 0.0):
        return float("inf")
    inner = np.log1p(m_uses * p_max * rn * c_g * s / (d * v * eps_g))
    return float(np.sqrt(d * sigma_sq / n * np.sum(inner)))


def sub_gaussian_proxy(clip_bound: float) -> float:
    """Variance proxy for losses clipped to [0, b]: b^2 / 4."""
    if clip_bound <= 0:
        raise ValueError("clip bound must be > 0")
    return clip_bound**2 / 4.0
