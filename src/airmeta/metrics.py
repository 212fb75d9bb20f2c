"""Empirical performance metrics: convergence error, meta losses, and the
meta-generalization gap."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import rng, tasks
from .tasks import TaskEnvironment


def stationary_convergence_error(traj) -> float:
    """Average squared meta-gradient norm over the recorded rounds."""
    vals = traj.series("grad_norm_sq")
    if vals.size == 0:
        return float("nan")
    return float(np.mean(vals))


def meta_training_loss(theta, data, alpha: float) -> float:
    """Empirical meta objective: validation loss after one adaptation step
    on the full training split, averaged over the devices of the stacked
    dataset ``data``."""
    theta = np.asarray(theta, dtype=float)
    x_tr, y_tr = data.train
    x_va, y_va = data.val
    if x_tr.shape[-2] == 0 or x_va.shape[-2] == 0:
        raise ValueError("meta training loss needs non-empty splits")
    phi = theta - alpha * tasks.batch_grad(theta, x_tr, y_tr)
    return float(np.mean(tasks.batch_loss(phi, x_va, y_va)))


def meta_test_loss(theta, env: TaskEnvironment, alpha: float, n_test: int, m_tr: int,
                   gen: np.random.Generator) -> float:
    """Monte Carlo meta-test loss on fresh devices.

    Each fresh device adapts from theta on m_tr newly drawn samples.  The
    innermost expectation over evaluation points is taken in closed form (an
    exact, lower-variance version of held-out evaluation).
    """
    if n_test < 1:
        raise ValueError("n_test must be >= 1")
    if m_tr < 1:
        raise ValueError("m_tr must be >= 1")
    theta = np.asarray(theta, dtype=float)
    vals = []
    for _ in range(n_test):
        w = tasks.sample_device(env, gen)
        x, y = tasks.sample_points(w, env, m_tr, gen)
        phi = theta - alpha * tasks.batch_grad(theta, x, y)
        vals.append(tasks.population_loss(phi, w, env))
    return float(np.mean(vals))


@dataclass(frozen=True)
class GapEstimate:
    """Meta-generalization error estimate with its standard error."""

    value: float
    stderr: float
    n_trials: int
    flagged: bool = False  # True when too few trials for an error bar

    @property
    def abs_value(self) -> float:
        return abs(self.value)


def meta_generalization_error(trial_gaps) -> GapEstimate:
    """Mean over trials of (meta-test loss - meta-training loss).

    ``trial_gaps`` holds one (test_loss, train_loss) pair per independent
    trial.  Fewer than two trials yields a flagged estimate without an error
    bar.
    """
    gaps = np.array([float(te) - float(tr) for te, tr in trial_gaps], dtype=float)
    if gaps.size == 0:
        raise ValueError("need at least one trial")
    if gaps.size == 1:
        return GapEstimate(value=float(gaps[0]), stderr=float("nan"), n_trials=1, flagged=True)
    return GapEstimate(
        value=float(gaps.mean()),
        stderr=float(gaps.std(ddof=1) / np.sqrt(gaps.size)),
        n_trials=int(gaps.size),
    )


def trial_gap(traj) -> tuple[float, float]:
    """(meta-test loss, meta-training loss) of one finished run.  Fresh
    devices adapt on as many points as the run's devices trained on."""
    cfg = traj.config
    env = cfg.env()
    alpha = traj.metric_alpha
    train = meta_training_loss(traj.theta_final, traj.datasets, alpha)
    test = meta_test_loss(traj.theta_final, env, alpha, cfg.n_test_devices,
                          cfg.train_samples, rng.substream(cfg.master_seed, rng.EVALUATION))
    return test, train

