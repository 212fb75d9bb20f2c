"""Pointwise and moment oracles that only the tests evaluate.

The per-sample loss, gradient and Hessian of the squared loss, the
population gradient, the closed-form per-sample gradient moments, one
device's local steps on literal numpy batch draws, a uniform active set
drawn by numpy's ``choice``, the received SNR recovered from a run's fading
draws, the phase factors as numpy's scalar
quotient, and the CSV writers cell by cell through ``csv.writer``.  The
simulator computes batched versions of these (``tasks.batch_*``) or never
needs them; the tests check those batched paths and the closed forms
against these.
"""
import csv

import numpy as np

from airmeta import meta, storage, tasks
from airmeta.tasks import TaskEnvironment


def loss(phi: np.ndarray, x: np.ndarray, y: float) -> float:
    """Per-sample squared loss at model phi."""
    phi = np.asarray(phi, dtype=float)
    x = np.asarray(x, dtype=float)
    tasks._check_dims(phi, x)
    return 0.5 * (float(y) - float(x @ phi)) ** 2


def grad(phi: np.ndarray, x: np.ndarray, y: float) -> np.ndarray:
    phi = np.asarray(phi, dtype=float)
    x = np.asarray(x, dtype=float)
    tasks._check_dims(phi, x)
    return -(float(y) - float(x @ phi)) * x


def hessian(phi: np.ndarray, x: np.ndarray, y: float) -> np.ndarray:
    phi = np.asarray(phi, dtype=float)
    x = np.asarray(x, dtype=float)
    tasks._check_dims(phi, x)
    return np.outer(x, x)  # independent of phi


def population_grad(phi: np.ndarray, w: np.ndarray, env: TaskEnvironment) -> np.ndarray:
    return env.input_cov * (np.asarray(phi, dtype=float) - w)


def grad_second_moment(phi_minus_w: np.ndarray, env: TaskEnvironment) -> float:
    """E ||grad loss(phi; Z)||^2 at offset e = phi - w, in closed form."""
    second, _, noise = tasks.grad_moment_forms(env)
    e = np.asarray(phi_minus_w, dtype=float)
    return second * float(e @ e) + noise


def grad_variance(phi_minus_w: np.ndarray, env: TaskEnvironment) -> float:
    """Var of the per-sample gradient at offset e = phi - w, in closed form."""
    _, variance, noise = tasks.grad_moment_forms(env)
    e = np.asarray(phi_minus_w, dtype=float)
    return variance * float(e @ e) + noise


def local_rounds(theta_start, ds, alpha, eta, steps, batch_size, gen):
    """(delta, iterates) of one device's ``steps`` local steps, written with
    1-D vectors and 2-D batches of ``batch_size``, drawing each step's
    batches with ``gen.choice(pool, ...)`` only when the step starts."""
    def grad(phi, idx):
        x, y = ds.x[idx], ds.y[idx]
        return -(x.T @ (y - x @ phi)) / x.shape[0]

    theta, iterates = theta_start.copy(), []
    for step in range(steps):
        if step and not np.all(np.isfinite(theta)):
            break
        iterates.append(theta.copy())
        idx = [gen.choice(pool, size=batch_size, replace=False)
               for pool in meta.batch_pools(ds, batch_size)]
        g_outer = grad(theta - alpha * grad(theta, idx[0]), idx[1])
        x_h = ds.x[idx[2]]
        g_outer = g_outer - alpha * (((x_h.T @ x_h) / x_h.shape[0]) @ g_outer)
        theta = theta - eta * g_outer
    return theta_start - theta, iterates


def sample_active_set(n: int, r: float, gen: np.random.Generator) -> np.ndarray:
    """Uniform size-(r*n) subset of device ids, without replacement."""
    k = r * n
    if abs(k - round(k)) > 1e-9 or round(k) < 1:
        raise ValueError(f"r * n must be a positive integer, got {k}")
    return np.sort(gen.choice(n, size=int(round(k)), replace=False))


def measured_snr_db(traj, power: float) -> float:
    """Received SNR recovered from the realized fading draws.

    Averages the per-round sum of |h|^2 scaled by the power budget against
    the configured noise variance; validates the channel moments rather than
    the instantaneous transmit occupancy.
    """
    cfg = traj.config
    noise_var = cfg.effective_noise_var()
    if noise_var <= 0:
        return float("inf")
    mean_sum = float(np.mean(traj.records["sum_abs_h_sq"]))
    return 10.0 * np.log10(power * mean_sum / noise_var)


def phase(gains) -> np.ndarray:
    """conj(h) / abs(h), one numpy scalar at a time."""
    return np.array([np.conj(h) / abs(h) for h in np.asarray(gains, dtype=complex)],
                    dtype=complex)


def write_csv(columns, rows, path) -> None:
    """``storage.write_csv`` with every row through ``csv.writer``."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([v if isinstance(v, str) else storage._fmt(v) for v in row])


def write_replay_csv(traj, path) -> None:
    """``storage.write_replay_csv`` with every row through ``csv.writer``."""
    m = traj.config.channel_uses
    noise_cols = [f"noise_re_{j}" for j in range(m)] + [f"noise_im_{j}" for j in range(m)]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["round", "device_id", "re_h", "im_h"] + noise_cols)
        for t, drawn in enumerate(traj.replay):
            for dev, h in zip(drawn.active, drawn.gains):
                writer.writerow([t, int(dev), storage._fmt(h.real), storage._fmt(h.imag)]
                                + [""] * 2 * m)
            noise = [storage._fmt(v) for v in drawn.noise.real] + \
                [storage._fmt(v) for v in drawn.noise.imag]
            writer.writerow([t, -1, "", ""] + noise)
