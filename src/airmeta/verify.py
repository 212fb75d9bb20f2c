"""Invariant verification suite behind ``airmeta verify``.

Each check is a pure function returning a VerifyResult, so tests can reuse
them and negative controls can corrupt inputs to prove a check can fail.
"""
from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import channel, meta, metrics, report, rng, sparsify, sweeps, tasks
from .protocol import (ExperimentConfig, constant_rate_limit, lr_schedule,
                       memory_identity_residuals, run_experiment, run_stack)


@dataclass(frozen=True)
class VerifyResult:
    name: str
    passed: bool
    detail: str
    seconds: float


def _result(name, passed, detail, t0):
    return VerifyResult(name=name, passed=bool(passed), detail=detail,
                        seconds=time.perf_counter() - t0)


def check_contraction(seed: int = 0, n_vectors: int = 1000, dim: int = 20) -> VerifyResult:
    """Top-k loses at most a (1 - k/d) fraction of every vector's energy."""
    t0 = time.perf_counter()
    gen = np.random.default_rng(seed)
    worst = np.inf
    detail = []
    for k in sorted({1, dim // 4, dim // 2, dim}):
        x = gen.standard_normal((n_vectors, dim)) * gen.choice([0.1, 1.0, 10.0], (n_vectors, 1))
        resid = x - sparsify.comp_k(x, k)
        margin = (1 - k / dim) - float(np.max(np.sum(resid**2, axis=1) / np.sum(x**2, axis=1)))
        worst = min(worst, margin)
        detail.append(f"k={k}: margin {margin:.2e}")
    return _result("contraction", worst >= -1e-12, "; ".join(detail), t0)


def check_rayleigh_moments(seed: int = 0, n_draws: int = 10**6) -> VerifyResult:
    """Realized |h| moments match E|h| = sqrt(pi)/2 and E|h|^2 = 1 within 1%."""
    t0 = time.perf_counter()
    gen = np.random.default_rng(seed)
    h = (gen.standard_normal(n_draws) + 1j * gen.standard_normal(n_draws)) / np.sqrt(2)
    a = np.abs(h)
    m1, m2 = float(a.mean()), float((a**2).mean())
    e1, e2 = channel.RAYLEIGH_ABS_MEAN, channel.RAYLEIGH_ABS_POWER
    passed = abs(m1 - e1) / e1 < 0.01 and abs(m2 - e2) / e2 < 0.01
    return _result("rayleigh_moments", passed,
                   f"E|h|={m1:.5f} (target {e1:.5f}), E|h|^2={m2:.5f} (target {e2:.5f})", t0)


def check_power_constraint(seed: int = 0, rounds: int = 200,
                           traj=None) -> VerifyResult:
    """Every transmitted block respects (1/M)||x||^2 <= P + 1e-12."""
    t0 = time.perf_counter()
    if traj is None:
        traj = run_experiment(default_convergence_config(master_seed=seed, rounds=rounds))
    power_margin = traj.records["power_margin"]
    margin = float(np.max(power_margin))
    return _result("power_constraint", margin <= 1e-12,
                   f"max margin {margin:.3e} over {power_margin.size} rounds", t0)


def check_unbiased_aggregation(seed: int = 0, n_draws: int = 10**4) -> VerifyResult:
    """With fixed updates, the mean effective update over fading and noise
    matches the plain average of the updates (3 standard errors, per
    component).  Uses the matched estimator so the reconstruction error is
    zero-mean by construction.  The ``n_draws`` rounds run as one stack
    that shares the updates and the compression of one round."""
    t0 = time.perf_counter()
    gen = np.random.default_rng(seed)
    d, n_active, eta, power = 20, 3, 0.05, 1.0
    gs = sparsify.comp_k(gen.standard_normal((n_active, d)), 5)
    policy = sparsify.PowerPolicy(power=power, channel_uses=d)
    live = gs.any(axis=-1)
    rho = sparsify.power_scale(live, sparsify.energies(gs), sparsify.rate_sq(eta), policy)
    rows = np.sort(gen.choice(d, size=d, replace=False))
    matrix, adjoint, modes, _ = channel.compression_block(d, rows[None])  # a stack of one round
    mu, pw = channel.fading_moments("rayleigh")
    noise_var = channel.snr_noise_var(10.0, n_active, power, pw)
    target = np.mean(gs, axis=0)
    # each round's normals, in the order of a round at a time
    z = gen.standard_normal((n_draws, channel.channel_normals(n_active, "rayleigh", d)))
    gains, noise = channel.channel_draws(z, n_active, "rayleigh", noise_var)
    phases = sparsify.phase(gains, np.hypot(gains.real, gains.imag))
    signals = channel.compress(matrix, sparsify.phase_precompensate(gs, live, rho, eta, phases))
    y = channel.transmit_mac(signals, gains, noise)
    x_hat = channel.estimate_stack(y, adjoint, modes, np.zeros(n_draws), noise_var, "matched")
    theta = np.zeros(d)
    samples = theta - channel.global_update(theta, x_hat, eta, rho, mu, n_active)
    mean = samples.mean(axis=0)
    se = samples.std(axis=0, ddof=1) / np.sqrt(n_draws)
    z = np.abs(mean - target) / se
    passed = bool(np.all(z <= 3.0))
    return _result("aggregation_unbiased", passed,
                   f"max |z| = {float(z.max()):.2f} over {d} components", t0)


def check_memory_identity(seed: int = 0, rounds: int = 100,
                          traj=None) -> VerifyResult:
    """Gap between the iterate and the noise-free virtual iterate equals the
    averaged error-feedback memories at every round (1e-8)."""
    t0 = time.perf_counter()
    if traj is None:
        cfg = default_convergence_config(master_seed=seed, rounds=rounds,
                                         active_fraction=1.0)
        traj = run_experiment(cfg)
    resid = memory_identity_residuals(traj)
    worst = float(resid.max()) if resid.size else 0.0
    return _result("memory_identity", worst <= 1e-8,
                   f"max residual {worst:.3e} over {resid.size} rounds", t0)


def check_memory_bound(seed: int = 0, rounds: int = 200) -> VerifyResult:
    """Running max of the memory energy stays below its geometric-series
    bound evaluated with measured constants."""
    t0 = time.perf_counter()
    cfg = default_convergence_config(master_seed=seed, rounds=rounds)
    traj = run_experiment(cfg)
    ac, dc = report.run_constants(traj)
    eta0, alpha0 = lr_schedule(cfg, 0)
    limit = (2.0 * eta0**2 * dc.gain * cfg.local_steps**2
             * ((1 + alpha0 * ac.l_g) ** 2 + alpha0**2 * ac.sigma_h_sq / cfg.batch_size)
             * ac.g_sq)
    measured = float(np.max(traj.records["mem_norm_sq_max"]))
    return _result("memory_bound", measured <= limit,
                   f"max ||m||^2 = {measured:.3e}, bound {limit:.3e}", t0)


def check_local_drift(seed: int = 0, n_draws: int = 300) -> VerifyResult:
    """Measured drift of local iterates from the shared iterate stays below
    40 Q^2 eta^2 ((sigma_F^2 + gamma_F^2) + ||grad F||^2) with measured
    constants."""
    t0 = time.perf_counter()
    gen = np.random.default_rng(seed)
    env = tasks.TaskEnvironment(dim=20, center=np.ones(20), task_spread=0.5,
                                input_cov=1.0, label_noise_var=1.0)
    ws = np.stack([tasks.sample_device(env, gen) for _ in range(4)])
    datasets = [tasks.sample_dataset(w, env, 200, 100, 100, gen) for w in ws]
    q, m_b, alpha = 5, 16, 0.4
    l_f = 4.0 * env.smoothness
    eta = 0.9 / (10 * q * l_f)
    theta = 0.3 * np.ones(20)
    pools = meta.batch_pools(datasets[0], m_b)
    # measured variance / heterogeneity of the meta-gradient estimate at theta
    grad_mean = tasks.mean_meta_grad(theta, ws, tasks.meta_curvature(env, alpha))
    sigma_sq = 0.0
    gamma_sq = 0.0
    # one generator serves the devices in order; each device's draws run as
    # the rows of one stack
    for w, ds in zip(ws, datasets):
        per_dev = tasks.population_meta_grad(theta, w, env, alpha)
        gamma_sq = max(gamma_sq, float(np.sum((per_dev - grad_mean) ** 2)))
        # n_draws one-step estimates at theta: draw_batches' step axis is
        # the stack's row axis
        idx = rng.draw_batches(gen, pools, m_b, n_draws)
        ests = meta.meta_grad_estimate(np.tile(theta, (n_draws, 1)), ds.x[idx], ds.y[idx], alpha)
        sigma_sq = max(sigma_sq, float(np.mean(np.sum((ests - per_dev) ** 2, axis=1))))
    drift_sq = []
    runs = n_draws // 10
    for ds in datasets:
        # q local steps from theta, ``runs`` times; local_rounds takes all q
        # steps' batches up front, which draws what lazy per-step draws would
        # as long as no row stops early
        idx = rng.draw_batches(gen, pools, m_b, q * runs).reshape(runs, q, 3, m_b)
        _, iterates = meta.local_rounds(theta, tasks.stack_datasets([ds]), idx.swapaxes(0, 1),
                                        alpha, eta, np.zeros(runs, dtype=np.int64))
        drift_sq.extend(np.max(np.sum((iterates - theta) ** 2, axis=-1), axis=0).tolist())
    measured = float(np.mean(drift_sq))
    limit = 40 * q**2 * eta**2 * (sigma_sq + gamma_sq + float(grad_mean @ grad_mean))
    return _result("local_drift", measured <= limit,
                   f"mean max drift {measured:.3e}, bound {limit:.3e}", t0)


def check_bound_validity(seed: int = 0, n_seeds: int = 3, rounds: int = 200) -> VerifyResult:
    """Measured average squared meta-gradient stays below the constant-rate
    bound on ``n_seeds`` trials (``sweeps.trial_configs``, run as one stack)
    of the convergence setup at master seed ``seed``, which must satisfy the
    validity condition: a trial whose config gives a ``validate()`` warning
    fails the check."""
    t0 = time.perf_counter()
    configs = sweeps.trial_configs(default_convergence_config(master_seed=seed, rounds=rounds),
                                   n_seeds)
    warned = [s for s, cfg in enumerate(configs) if cfg.validate()]
    fails = []
    for s, traj in enumerate(run_stack(configs)):
        lhs = metrics.stationary_convergence_error(traj)
        rhs = report.constant_bound_report(traj).total
        if not lhs <= rhs:
            fails.append((s, lhs, rhs))
    detail = f"{n_seeds - len(fails)}/{n_seeds} runs below the bound"
    if warned:
        detail += f"; trials {warned} give config warnings"
    return _result("bound_validity", not fails and not warned, detail, t0)


def default_convergence_config(**overrides) -> ExperimentConfig:
    """Desk-scale convergence setup; outer rate sits at 90% of the validity
    limit."""
    base = ExperimentConfig(active_fraction=1.0 / 3.0)
    eta = 0.9 * constant_rate_limit(base.local_steps, 4.0 * base.env().smoothness)
    return base.replace(eta=eta, **overrides)


ALL_CHECKS = [
    check_contraction,
    check_rayleigh_moments,
    check_power_constraint,
    check_unbiased_aggregation,
    check_memory_identity,
    check_memory_bound,
    check_local_drift,
    check_bound_validity,
]


def run_all(seed: int = 0) -> list[VerifyResult]:
    return [chk(seed=seed) for chk in ALL_CHECKS]
