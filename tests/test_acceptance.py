"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Trend criteria run deterministic seeded sweeps with common random numbers
across sweep points; tolerances are stated inline.
"""
import os
from pathlib import Path

import numpy as np
import pytest

from airmeta import bounds, verify
from airmeta.bounds import constant_rate_bound, derived_constants, memory_gain
from airmeta.protocol import ExperimentConfig, run_experiment, run_stack
from airmeta.storage import read_config
from airmeta.sweeps import SweepSpec, run_sweep, run_trials, trial_configs

from noiseless import noiseless_thetas

THREADS = len(os.sched_getaffinity(0))  # seeded runs share one pool, a worker per core
CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def _report(num, name, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {num:02d} {name}: {status}  {detail}")
    assert passed, f"criterion {num} ({name}): {detail}"


def convergence_config(**overrides):
    """The shipped convergence setup at the trend rate eta = 0.01, which is
    above the validity limit."""
    return read_config(CONFIGS / "convergence.json").replace(
        **{"eta": 0.01, "master_seed": 1, **overrides})


def generalization_config(**overrides):
    """The shipped generalization setup as one trial, the unit a sweep seeds."""
    return read_config(CONFIGS / "generalization.json").replace(
        **{"master_seed": 2, "trials": 1, **overrides})


def test_01_ideal_chain_equivalence():
    base = dict(rounds=50, n_devices=4, active_fraction=1.0, dim=20,
                local_steps=5, batch_size=16, samples_per_device=150,
                train_samples=75, eta=0.001, alpha=0.4, sparsify_k=20,
                channel_uses=20, estimator="matched",
                fading="unit", noise_var=0.0, snr_db=None, master_seed=7)
    air = run_experiment(ExperimentConfig(**base))
    ideal = noiseless_thetas(air)
    denom = np.maximum(np.linalg.norm(ideal, axis=1), 1e-30)
    rel = float(np.max(np.linalg.norm(air.thetas - ideal, axis=1) / denom))
    _report(1, "ideal-chain-equivalence", rel <= 1e-10, f"max relative gap {rel:.2e}")


def test_02_contraction():
    res = verify.check_contraction(seed=0, n_vectors=1000, dim=20)
    _report(2, "k-contraction", res.passed, res.detail)


def test_03_virtual_sequence_identity():
    traj = run_experiment(convergence_config(active_fraction=1.0, rounds=100, snr_db=5.0))
    res = verify.check_memory_identity(traj=traj)
    _report(3, "virtual-sequence-identity", len(traj.records) == 100 and res.passed,
            res.detail)


def test_04_power_constraint():
    res = verify.check_power_constraint(traj=run_experiment(convergence_config(rounds=200)))
    _report(4, "power-constraint", res.passed, res.detail)


def test_05_aggregation_unbiasedness():
    res = verify.check_unbiased_aggregation(seed=0, n_draws=10_000)
    _report(5, "aggregation-unbiasedness", res.passed, res.detail)


def test_06_rayleigh_moments():
    res = verify.check_rayleigh_moments(seed=0, n_draws=10**6)
    _report(6, "rayleigh-moments", res.passed, res.detail)


def test_07_convergence_bound_validity():
    res = verify.check_bound_validity(seed=10, n_seeds=10, rounds=200)
    _report(7, "convergence-bound-validity", res.passed, res.detail)


def test_08_snr_convergence_trend():
    spec = SweepSpec(axis="snr_db", values=(0.0, 10.0, 20.0),
                     base=convergence_config(), seeds=10)
    errs = [p.conv_error_mean for p in run_sweep(spec, THREADS)]
    nonincreasing = all(a >= b for a, b in zip(errs, errs[1:]))
    reduction = (errs[0] - errs[-1]) / errs[0]
    _report(8, "snr-convergence-trend", nonincreasing and reduction >= 0.20,
            f"errors {['%.3f' % e for e in errs]}, reduction {reduction:.0%}")


def test_09_snr_generalization_trend():
    spec = SweepSpec(axis="snr_db", values=(0.0, 10.0, 20.0),
                     base=generalization_config(), seeds=20)
    points = list(run_sweep(spec, THREADS))
    abs_gaps = [p.gap_abs for p in points]
    bound_means = [p.gen_bound_mean for p in points]
    gap_ok = abs_gaps[-1] > abs_gaps[0]
    bound_ok = all(a < b for a, b in zip(bound_means, bound_means[1:]))
    _report(9, "snr-generalization-trend", gap_ok and bound_ok,
            f"|gap| {['%.3f' % g for g in abs_gaps]}, "
            f"bound {['%.1f' % b for b in bound_means]}")


def test_10_channel_use_tradeoff():
    spec = SweepSpec(axis="m_over_d", values=(0.2, 0.5, 1.0),
                     base=convergence_config(master_seed=3), seeds=10)
    points = list(run_sweep(spec, THREADS))
    errs = [p.conv_error_mean for p in points]
    bound_means = [p.gen_bound_mean for p in points]
    conv_ok = all(a >= b for a, b in zip(errs, errs[1:]))
    bound_ok = all(a < b for a, b in zip(bound_means, bound_means[1:]))
    _report(10, "channel-use-tradeoff", conv_ok and bound_ok,
            f"conv {['%.3f' % e for e in errs]}, bound {['%.1f' % b for b in bound_means]}")


def test_11_device_count_tradeoff():
    base = generalization_config(samples_per_device=32, train_samples=16,
                                 batch_size=8, rounds=600, eta=0.008, master_seed=4)
    spec = SweepSpec(axis="n_devices", values=(3, 6, 9), base=base, seeds=10)
    points = list(run_sweep(spec, THREADS))
    errs = [p.conv_error_mean for p in points]
    gaps = [p.gap_abs for p in points]
    conv_ok = all(a >= b for a, b in zip(errs, errs[1:]))
    gap_ok = all(a >= b for a, b in zip(gaps, gaps[1:]))
    _report(11, "device-count-tradeoff", conv_ok and gap_ok,
            f"conv {['%.3f' % e for e in errs]}, |gap| {['%.3f' % g for g in gaps]}")


def grad_norm_sq_series(configs):
    """Per-round squared meta-gradient norms of each run of one lockstep
    stack (a pool task)."""
    return [traj.series("grad_norm_sq") for traj in run_stack(configs)]


def test_12_adaptive_rate_removes_floor():
    base = ExperimentConfig(n_devices=9, active_fraction=1.0, dim=20, local_steps=1,
                            batch_size=8, samples_per_device=64, train_samples=32,
                            sparsify_k=1, channel_uses=8,
                            estimator="lmmse", fading="rayleigh", task_spread=0.5,
                            label_noise_var=1.0, rounds=2000, snr_db=19.0, master_seed=5)
    const = trial_configs(base.replace(lr_schedule="constant", eta=0.01, alpha=0.25), 5)
    adap = trial_configs(base.replace(lr_schedule="adaptive", eta_scale=8.0, eta_offset=400.0,
                                      alpha_scale=100.0, alpha_offset=400.0), 5)
    series = [s for stack in run_trials(grad_norm_sq_series, [const, adap], THREADS)
              for s in stack]
    floors = [float(np.mean(g[1500:])) for g in series[:5]]
    mins = [float(np.min(g)) for g in series[5:]]
    floor, best = float(np.mean(floors)), float(np.mean(mins))
    _report(12, "adaptive-rate-removes-floor", best < floor,
            f"constant floor {floor:.4f}, adaptive min {best:.4f}")


def test_13_formula_goldens():
    ok = True
    details = []
    # memory amplification at the interval midpoint
    ok &= memory_gain(0.5, 0.5) == pytest.approx(6.0, abs=0.0)
    details.append(f"gain(0.5,0.5)={memory_gain(0.5, 0.5)}")
    ac = bounds.AssumptionConstants(l_g=1.5, l_h=0.0, g_sq=4.0, sigma_g_sq=2.0,
                                    sigma_h_sq=3.0, gamma_g_sq=0.5, gamma_h_sq=0.7)
    dc0 = derived_constants(ac, alpha=0.0, k=10, d=20, batch_size=16)
    ok &= dc0.l_f == 4.0 * ac.l_g
    ok &= dc0.gamma_f_sq == 192.0 * ac.gamma_g_sq
    ok &= dc0.sigma_f_sq == 12.0 * ac.sigma_g_sq / 16
    args = dict(q=5, r=0.5, n=8, d=20, m_uses=8, p_min=1.0, eta=0.001, alpha=0.0,
                batch_size=16, t_rounds=200, f_init=10.0, f_star=1.0, v_mean=0.3,
                abs_mean=np.sqrt(np.pi) / 2, abs_power=1.0)
    rep = constant_rate_bound(dc0, ac, **args)
    ok &= rep.terms["inner_sgd_floor"] == 0.0  # alpha = 0
    dc_full = derived_constants(ac, alpha=0.0, k=20, d=20, batch_size=16)
    rep_full = constant_rate_bound(dc_full, ac, **args)
    ok &= rep_full.terms["sparsification"] == 0.0  # k = d
    rep_clean = constant_rate_bound(
        dc0, ac, **{**args, "v_mean": 0.0, "abs_mean": 1.0, "abs_power": 1.0})
    ok &= rep_clean.terms["estimation"] == 0.0  # unit fading, noiseless
    ac_quiet = bounds.AssumptionConstants(l_g=1.5, l_h=0.0, g_sq=4.0, sigma_g_sq=0.0,
                                          sigma_h_sq=3.0, gamma_g_sq=0.5, gamma_h_sq=0.7)
    rep_quiet = constant_rate_bound(derived_constants(ac_quiet, 0.4, 10, 20, 16),
                                    ac_quiet, **{**args, "alpha": 0.4})
    ok &= rep_quiet.terms["inner_sgd_floor"] == 0.0  # zero gradient variance
    _report(13, "formula-goldens", bool(ok), "; ".join(details))
