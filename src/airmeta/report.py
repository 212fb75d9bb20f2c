"""Turn a finished trajectory into measured constants and bound reports."""
from __future__ import annotations

import dataclasses

import numpy as np

from . import bounds, channel, metrics
from .protocol import Trajectory, lr_schedule


def run_constants(traj: Trajectory):
    """(AssumptionConstants, DerivedConstants) measured on one run.

    Gradient moment surrogates are the run's probe maxima: the analytic
    per-point values tracked along the optimization trajectory (iterates and
    adapted points).
    """
    cfg = traj.config
    ac = bounds.estimate_constants(cfg.env(), traj.device_ws, traj.probe)
    return ac, bounds.derived_constants(ac, lr_schedule(cfg, 0)[1], cfg.sparsify_k,
                                        cfg.dim, cfg.batch_size)


def bound_entries(traj: Trajectory, ac, dc) -> dict:
    """Every bound of one run, keyed as in summary.json.

    The result holds ``bound_constant`` and, on adaptive schedules,
    ``bound_adaptive`` (or ``bound_adaptive_error`` when its precondition
    fails) as BoundReports, plus ``bound_generalization`` and the ``eps_g``
    it used.
    """
    cfg = traj.config
    v = traj.records["v"].copy()  # contiguous, as in stationary_convergence_error
    mu, pw = channel.fading_moments(cfg.fading)
    eta0, alpha0 = lr_schedule(cfg, 0)
    common = dict(
        q=cfg.local_steps, r=cfg.active_fraction, n=cfg.n_devices, d=cfg.dim,
        m_uses=cfg.channel_uses, p_min=cfg.power_per_use, batch_size=cfg.batch_size,
        t_rounds=max(v.size, 1), f_init=traj.f_init, f_star=traj.f_star, abs_mean=mu,
        abs_power=pw,
    )
    out = {"bound_constant": bounds.constant_rate_bound(
        dc, ac, eta=eta0, alpha=alpha0, v_mean=float(np.mean(v)) if v.size else 0.0,
        **common)}
    if cfg.lr_schedule == "adaptive":
        try:
            out["bound_adaptive"] = bounds.adaptive_rate_bound(
                dc, ac, xi=cfg.eta_scale, a=cfg.eta_offset, xi_inner=cfg.alpha_scale,
                a_inner=cfg.alpha_offset, v_max=float(np.max(v)) if v.size else 0.0,
                **common)
        except ValueError as exc:
            out["bound_adaptive_error"] = str(exc)
    g_ratio = traj.records["min_g_sq_over_eta_sq"]
    g_ratio = g_ratio[np.isfinite(g_ratio)]
    eps_g = max(float(g_ratio.min()), 1e-12) if g_ratio.size else 1e-12
    c_g = bounds.sparsified_update_energy(ac, dc, q=cfg.local_steps, alpha=alpha0,
                                          batch_size=cfg.batch_size)
    out["bound_generalization"] = bounds.generalization_bound(
        d=cfg.dim, n=cfg.n_devices, sigma_sq=bounds.sub_gaussian_proxy(cfg.loss_clip),
        m_uses=cfg.channel_uses, p_max=cfg.power_per_use, rn=cfg.n_active, c_g=c_g,
        sum_abs_h_sq=traj.records["sum_abs_h_sq"], v_series=v, eps_g=eps_g,
    )
    out["eps_g"] = eps_g
    return out


def constant_bound_report(traj: Trajectory) -> bounds.BoundReport:
    """Constant-rate convergence bound of one run, with measured constants."""
    return bound_entries(traj, *run_constants(traj))["bound_constant"]


def summarize(traj: Trajectory) -> dict:
    """Summary dictionary for one run: final losses, convergence error, and
    (for completed runs) the measured constants and, once a round has run,
    the bound reports; when a precondition of those fails, a warning says
    why they are missing."""
    with np.errstate(over="ignore", invalid="ignore"):
        out: dict = {
            "rounds_completed": len(traj.records),
            "aborted_at": traj.aborted_at,
            "warnings": list(traj.warnings),
            "convergence_error": metrics.stationary_convergence_error(traj),
            "f_init": traj.f_init,
            "f_star": traj.f_star,
            "metric_alpha": traj.metric_alpha,
        }
        if len(traj.records):
            out["final_grad_norm_sq"] = float(traj.records["grad_norm_sq"][-1])
        if traj.aborted_at is None:
            test, train = metrics.trial_gap(traj)
            out["final_test_loss"] = test
            out["final_train_loss"] = train
            out["generalization_gap"] = test - train
        elif len(traj.records):
            out["final_train_loss"] = metrics.meta_training_loss(
                traj.theta_final, traj.datasets, traj.metric_alpha,
            )
        # constants and bounds describe a completed run
        if traj.aborted_at is not None:
            return out
        try:
            ac, dc = run_constants(traj)
            entries = bound_entries(traj, ac, dc) if len(traj.records) else {}
        except ValueError as exc:  # a precondition of the constants or bounds fails
            out["warnings"].append(f"constants and bounds are not evaluated for this run: {exc}")
            return out
        out["constants"] = dataclasses.asdict(ac) | {
            "l_f": dc.l_f, "sigma_f_sq": dc.sigma_f_sq, "gamma_f_sq": dc.gamma_f_sq,
            "memory_gain": dc.gain, "lam": dc.lam, "c": dc.c,
        }
        return out | entries
