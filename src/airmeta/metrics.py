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
    start = theta[..., None, :]  # every device adapts from its iterate
    phi = start - alpha * tasks.batch_grad(start, x_tr, y_tr)
    losses = np.mean(tasks.batch_loss(phi, x_va, y_va), axis=-1)
    return float(losses) if theta.ndim == 1 else losses


# the most normals one chunk of fresh devices draws at once; bounds the
# memory of meta_test_loss for any number of devices
_TEST_NORMALS = 65_536


def meta_test_loss(theta, env: TaskEnvironment, alpha: float, n_test: int, m_tr: int,
                   gen: np.random.Generator) -> float:
    """Monte Carlo meta-test loss on fresh devices.

    Each fresh device adapts from theta on m_tr newly drawn samples.  The
    innermost expectation over evaluation points is taken in closed form (an
    exact, lower-variance version of held-out evaluation).  A chunk of
    devices draws its normals with one call, in the order of one device at a
    time (its task vector, its inputs, its label noise: ``tasks.sample_device``
    then ``tasks.sample_points``), and adapts and evaluates as one stack, each
    device bit for bit its own evaluation.
    """
    if n_test < 1:
        raise ValueError("n_test must be >= 1")
    if m_tr < 1:
        raise ValueError("m_tr must be >= 1")
    theta = np.asarray(theta, dtype=float)
    d = env.dim
    per_device = d + m_tr * d + m_tr
    per_chunk = max(1, _TEST_NORMALS // per_device)
    vals = []
    for start in range(0, n_test, per_chunk):
        n = min(per_chunk, n_test - start)
        z = gen.standard_normal(n * per_device).reshape(n, per_device)
        w = env.center + np.sqrt(env.task_spread) * z[:, :d]
        x = np.sqrt(env.input_cov) * z[:, d:d + m_tr * d].reshape(n, m_tr, d)
        y = (x @ w[:, :, None])[..., 0] + np.sqrt(env.label_noise_var) * z[:, d + m_tr * d:]
        e = theta - alpha * tasks.batch_grad(theta, x, y) - w
        # tasks.population_loss of each device
        vals.append(0.5 * ((env.input_cov * e)[:, None, :] @ e[:, :, None])[:, 0, 0]
                    + 0.5 * env.label_noise_var)
    return float(np.mean(np.concatenate(vals)))


def mean_se(values) -> tuple[float, float]:
    """Mean and standard error (ddof=1) of independent trial values; nan
    where undefined: the mean of no values, the error of fewer than two.

    Finite values give a finite mean and error, with no warning.  Where
    their sum or squared deviations leave the float range, that moment is
    taken of the values scaled by a power of two into it, exactly, and
    scaled back; a moment that is finite unscaled keeps its bytes."""
    vals = np.asarray(values, dtype=float)
    if vals.size < 2:
        return (float(np.mean(vals)) if vals.size else float("nan")), float("nan")
    mean, se = _mean_se(vals)
    if np.isfinite(vals).all() and not np.isfinite([mean, se]).all():
        exp = int(np.frexp(np.abs(vals).max())[1])
        scaled_mean, scaled_se = _mean_se(np.ldexp(vals, -exp))
        with np.errstate(over="ignore"):
            mean = mean if np.isfinite(mean) else float(np.ldexp(scaled_mean, exp))
            se = se if np.isfinite(se) else float(np.ldexp(scaled_se, exp))
    return mean, se


def _mean_se(vals: np.ndarray) -> tuple[float, float]:
    """``mean_se`` of two or more values as numpy computes it, inf or nan
    where a sum or square leaves the float range."""
    with np.errstate(over="ignore", invalid="ignore"):
        return float(np.mean(vals)), float(np.std(vals, ddof=1) / np.sqrt(vals.size))


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

