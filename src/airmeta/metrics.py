"""Empirical performance metrics: convergence error, meta losses, the
meta-generalization gap of a run, and the mean and standard error over
trials."""
from __future__ import annotations

import numpy as np

from . import rng, tasks
from .tasks import TaskEnvironment


def stationary_convergence_error(traj) -> float:
    """Average squared meta-gradient norm over the recorded rounds."""
    # contiguous: numpy sums a strided record field in chunks of 8,192, which
    # would round a longer run's mean differently
    vals = traj.records["grad_norm_sq"].copy()
    if vals.size == 0:
        return float("nan")
    return float(np.mean(vals))


def meta_training_loss(theta, data, alpha: float):
    """Empirical meta objective: validation loss after one adaptation step
    on the full training split, averaged over the devices of the stacked
    dataset ``data``.  A float for one iterate ``theta`` (d,); for a stack
    (T, d) of iterates, their (T,) losses, each bit for bit its own call."""
    theta = np.asarray(theta, dtype=float)
    x_tr, y_tr = data.train
    x_va, y_va = data.val
    if x_tr.shape[-2] == 0 or x_va.shape[-2] == 0:
        raise ValueError("meta training loss needs non-empty splits")
    start = theta[..., None, :]  # every device adapts from its iterate
    phi = start - alpha * tasks.batch_grad(start, x_tr, y_tr)
    losses = np.mean(tasks.batch_loss(phi, x_va, y_va), axis=-1)
    return float(losses) if theta.ndim == 1 else losses


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


def mean_se(values) -> tuple[float, float]:
    """Mean and standard error (ddof=1) of independent trial values; nan
    where undefined: the mean of no values, the error of fewer than two."""
    vals = np.asarray(values, dtype=float)
    mean = float(np.mean(vals)) if vals.size else float("nan")
    se = float(np.std(vals, ddof=1) / np.sqrt(vals.size)) if vals.size > 1 else float("nan")
    return mean, se


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

