"""Pointwise and moment oracles that only the tests evaluate.

The per-sample loss, gradient and Hessian of the squared loss, the
population gradient, the closed-form per-sample gradient moments, one
device's local steps on literal numpy batch draws, a run recomputed one
round at a time through the public stage functions, a uniform active set
drawn by numpy's ``choice``, the received SNR recovered from a run's fading
draws, the phase factors as numpy's scalar quotient, and the CSV writers
cell by cell through ``csv.writer``.  The simulator computes batched
versions of these (``tasks.batch_*``) or never needs them; the tests check
those batched paths and the closed forms against these.
"""
import csv
import functools

import numpy as np

from airmeta import channel, meta, metrics, protocol, rng, sparsify, storage, tasks
from airmeta.tasks import Dataset, TaskEnvironment


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


def rounds_of(traj):
    """(thetas, records, recon) of ``traj``'s run, recomputed one round at a
    time from its first iterate and its logged active sets, gains and noise.

    Each active device runs its literal local steps on its LOCAL_BATCH
    substream (``local_rounds``); the round's compression rows are numpy's
    sorted ``choice`` on its COMPRESSION substream.  The uplink goes through
    the public stages on the round's own (rn, ...) arrays: ``memory_fold``,
    ``power_scale``, ``phase_precompensate``, ``compress``, ``transmit_mac``,
    ``estimate_stack`` on a stack of one round and ``global_update``.  Every
    record field and identity vector is written out from its definition, a
    device at a time; vector sums run in device order.  A round whose model
    differences or scale leave the float range sends nothing, and a
    non-finite iterate stops the run, as in ``protocol.run_stack``."""
    cfg = traj.config
    rn, d, m_uses = cfg.n_active, cfg.dim, cfg.channel_uses
    mu_abs, abs_power = channel.fading_moments(cfg.fading)
    policy = sparsify.PowerPolicy(cfg.power_per_use, m_uses, cfg.rho_max)
    noise_var = cfg.effective_noise_var()
    curvature = tasks.meta_curvature(cfg.env(), traj.metric_alpha)
    def total(rows):
        """0 + rows[0] + rows[1] + ..., in order, as numpy sums along a
        leading axis."""
        return functools.reduce(np.add, rows, 0.0)

    records = np.zeros(len(traj.replay), dtype=protocol.ROUND_DTYPE)
    records["round"] = np.arange(len(records))
    for name in protocol.ROUND_DTYPE.names[1:-1]:
        records[name] = np.nan
    recon = {key: [] for key in protocol._RECON_KEYS}
    thetas = [traj.thetas[0]]
    memories = np.zeros((cfg.n_devices, d))
    for t, drawn in enumerate(traj.replay):
        theta, rec = thetas[-1], records[t]
        eta, alpha = protocol.lr_schedule(cfg, t)
        rec["eta"], rec["alpha"] = eta, alpha
        g = tasks.mean_meta_grad(theta, traj.device_ws, curvature)
        rec["grad_norm_sq"] = g @ g
        active, gains, noise = drawn["active"], drawn["gains"], drawn["noise"]
        deltas = np.array([local_rounds(
            theta, Dataset(x=traj.datasets.x[i], y=traj.datasets.y[i], m_tr=cfg.train_samples,
                           m_va=cfg.val_samples),
            alpha, eta, cfg.local_steps, cfg.batch_size,
            rng.substream(cfg.master_seed, rng.LOCAL_BATCH, t, int(i)))[0] for i in active])
        updates, mem_next = sparsify.memory_fold(memories[active], deltas, cfg.sparsify_k)
        rho = sparsify.power_scale(updates, eta, policy) if np.isfinite(deltas).all() else np.nan
        if not (np.isfinite(rho) and rho > 0):  # sends nothing
            thetas.append(np.full(d, np.nan))
            break
        rows = np.sort(rng.substream(cfg.master_seed, rng.COMPRESSION, t).choice(
            d, size=m_uses, replace=False))
        matrix, real, gram = channel.compression_block(d, rows)
        signals = channel.compress(matrix, sparsify.phase_precompensate(updates, rho, eta, gains))
        y = channel.transmit_mac(signals, gains, noise)
        energies = np.array([u @ u for u in updates])
        eta_sq, abs_h = sparsify.rate_sq(eta), np.abs(gains)
        if np.sum(energies) > 0:
            prior = abs_power * rho * np.sum(energies) / (eta_sq * d)
            signal_true = np.sqrt(rho) / eta * total(abs_h[:, None] * updates)
        else:  # no update energy: no prior power and no payload
            prior, signal_true = 0.0, np.zeros(d)
        est = channel.estimate_stack(y[None], matrix[None], real[None], gram[None],
                                     np.array([prior]), noise_var, cfg.estimator)
        thetas.append(channel.global_update(theta[None], est, eta, np.array([rho]), mu_abs,
                                            rn)[0])
        memories[active] = mem_next
        noise_term = est.x_hat[0] - signal_true
        rec["train_loss"] = metrics.meta_training_loss(theta, traj.datasets, traj.metric_alpha)
        rec["rho"], rec["v_model"] = rho, est.err_var[0]
        rec["pinv_fallback"] = est.pinv_fallback[0]
        rec["v"] = noise_term @ noise_term / d
        rec["min_g_sq_over_eta_sq"] = min(energies) / eta_sq if eta_sq > 0 else np.nan
        rec["mem_norm_sq_max"] = max(np.sum(m**2) for m in memories)
        rec["power_margin"] = max(np.vdot(s, s).real / m_uses - cfg.power_per_use
                                  for s in signals)
        rec["sum_abs_h_sq"] = np.sum(abs_h**2)
        for key, vec in zip(protocol._RECON_KEYS, (
                total(deltas), noise_term, total((abs_h[:, None] / mu_abs - 1.0) * updates),
                total(memories))):
            recon[key].append(vec)
        if not np.isfinite(thetas[-1]).all():
            break
    n_steps = len(thetas) - 1 - (not np.isfinite(thetas[-1]).all())
    return (np.array(thetas[:n_steps + 1]), records[:len(thetas) - 1],
            {key: np.array(vecs[:n_steps]).reshape(n_steps, d) for key, vecs in recon.items()})


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
            for dev, h in zip(drawn["active"], drawn["gains"]):
                writer.writerow([t, int(dev), storage._fmt(h.real), storage._fmt(h.imag)]
                                + [""] * 2 * m)
            noise = [storage._fmt(v) for v in drawn["noise"].real] + \
                [storage._fmt(v) for v in drawn["noise"].imag]
            writer.writerow([t, -1, "", ""] + noise)
