"""Pointwise and moment oracles that only the tests evaluate.

The per-sample loss, gradient and Hessian of the squared loss and the
mean batch Hessian as a matrix, the population gradient, the closed-form
per-sample gradient moments, one device's local steps on literal numpy
batch draws, a run recomputed one round at a time with each uplink stage
written out a device at a time (top-k, power scaling, estimation), the
LMMSE estimate in matrix form on the stacked real system, a uniform active set
drawn by numpy's ``choice``, one round's channel drawn by a
``standard_normal`` call per part, a run's moment probe recomputed from
its iterates, the received SNR recovered from a run's
fading draws, the phase factors as numpy's scalar quotient, the Monte Carlo
meta-test loss one fresh device at a time, and the CSV writers cell by cell
through ``csv.writer``.  The simulator computes batched
versions of these (``tasks.batch_*``) or never needs them; the tests check
those batched paths and the closed forms against these.
"""
import csv
import functools

import numpy as np

from airmeta import channel, meta, metrics, protocol, rng, sparsify, storage, tasks
from airmeta.tasks import Dataset, TaskEnvironment


def _check_dims(phi: np.ndarray, x: np.ndarray):
    if phi.shape[-1] != x.shape[-1]:
        raise ValueError(f"dimension mismatch: phi has {phi.shape[-1]}, x has {x.shape[-1]}")


def loss(phi: np.ndarray, x: np.ndarray, y: float) -> float:
    """Per-sample squared loss at model phi."""
    phi = np.asarray(phi, dtype=float)
    x = np.asarray(x, dtype=float)
    _check_dims(phi, x)
    return 0.5 * (float(y) - float(x @ phi)) ** 2


def grad(phi: np.ndarray, x: np.ndarray, y: float) -> np.ndarray:
    phi = np.asarray(phi, dtype=float)
    x = np.asarray(x, dtype=float)
    _check_dims(phi, x)
    return -(float(y) - float(x @ phi)) * x


def hessian(phi: np.ndarray, x: np.ndarray, y: float) -> np.ndarray:
    phi = np.asarray(phi, dtype=float)
    x = np.asarray(x, dtype=float)
    _check_dims(phi, x)
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
        g_outer = g_outer - alpha * (x_h.T @ (x_h @ g_outer) / x_h.shape[0])
        theta = theta - eta * g_outer
    return theta_start - theta, iterates


def top_k(x: np.ndarray, k: int) -> np.ndarray:
    """One row's k largest-magnitude entries, ties to the lowest index by
    Python's stable sort; zeros elsewhere."""
    keep = sorted(range(len(x)), key=lambda i: -abs(x[i]))[:k]
    out = np.zeros(len(x))
    out[keep] = x[keep]
    return out


def power_scale(updates: np.ndarray, eta: float, m_uses: int, power: float,
                rho_max: float) -> float:
    """One round's scale rho from its devices' updates, as the definition
    in ``sparsify.power_scale`` reads, a device at a time."""
    tiny, eta_sq = np.finfo(float).tiny, sparsify.rate_sq(eta)
    live = [(u @ u, u.any()) for u in updates]
    if not any(nonzero for _, nonzero in live):
        return rho_max
    if not tiny <= eta_sq < np.inf or any(nonzero and e < tiny for e, nonzero in live):
        return np.nan
    rho = eta_sq * m_uses * power / max(e for e, _ in live)
    return rho if rho >= tiny else np.nan


def estimate(y, matrix, rows, prior: float, noise_var: float, kind: str):
    """One round's (x_hat, err_var, pinv_fallback) from its block y (M,),
    partial DFT and DFT rows, written out from the definitions in
    ``channel.estimate_stack`` a channel use and a Fourier mode at a time:
    the weight (1[k in S] + 1[-k in S]) / 2 of each mode k, each use's
    filter weight, and the matched filter of the weighted block."""
    d, rows = matrix.shape[1], [int(j) for j in rows]
    modes = [(int(k in rows) + int(-k % d in rows)) / 2 for k in range(d)]
    n_zero, n_half, n_one = (sum(lam == value for lam in modes) for value in (0.0, 0.5, 1.0))
    if kind == "matched":
        w, err, pinv = [1.0] * len(rows), float(noise_var), False
    elif noise_var == 0.0:  # the pseudo-inverse of the measured modes
        w, err = [1.0 / modes[j] for j in rows], prior * n_zero / d
        pinv = n_half + n_one < 2 * len(rows) or prior == 0.0
    else:
        w = [prior / (prior * modes[j] + noise_var) for j in rows]
        p_noise = prior * noise_var
        err = (prior * n_zero + n_half * (p_noise / (prior * 0.5 + noise_var))
               + n_one * (p_noise / (prior + noise_var))) / d
        pinv = False
    weighted = np.array([complex(wj * v.real, wj * v.imag) for wj, v in zip(w, y)])
    return (matrix.conj().T @ weighted[:, None])[:, 0].real, err, pinv


def real_operator(matrix):
    """The stacked real operator B = [Re A; Im A] (2M, d) of a partial DFT A."""
    return np.concatenate([matrix.real, matrix.imag])


def estimate_solve(y, matrix, prior: float, noise_var: float):
    """One round's lmmse (x_hat, err_var) in matrix form on the stacked
    real system: p B'(p B B' + noise_var I)^-1 y_r and (p d - p^2 tr(B'
    C^-1 B)) / d; noiseless, the pseudo-inverse B^+ y_r and p (d - rank B)
    / d."""
    b, d = real_operator(matrix), matrix.shape[1]
    y_r = np.concatenate([y.real, y.imag])
    if noise_var == 0.0:  # singular values below 1e-12 are rounding, as B's are 0 or >= 0.7
        rank = np.linalg.matrix_rank(b, tol=1e-12)
        return np.linalg.pinv(b, rcond=1e-12) @ y_r, prior * (d - rank) / d
    sol = np.linalg.solve(prior * b @ b.T + noise_var * np.eye(len(y_r)),
                          np.column_stack([y_r, b]))
    return prior * b.T @ sol[:, 0], (prior * d - prior**2 * np.trace(b.T @ sol[:, 1:])) / d


def batch_hessian(x):
    """The mean Hessian X'X / m of the squared loss over a batch x (m, d)."""
    return (x.T @ x) / x.shape[0]


def rounds_of(traj):
    """(thetas, records, recon) of ``traj``'s run, recomputed one round at a
    time from its first iterate and its logged active sets, gains and noise.

    Each active device runs its literal local steps on its LOCAL_BATCH
    substream (``local_rounds``); the round's compression rows are numpy's
    sorted ``choice`` on its COMPRESSION substream.  The uplink is written
    out a device at a time from each stage's definition, without the
    simulator's stages: error feedback by ``top_k``, ``power_scale``, the
    phase factors as numpy's scalar quotient (``phase``), each device's
    compressed block, the superposition in device order, the ``estimate``
    and the server update.  Every record field and
    identity vector is written out from its definition, a device at a time;
    vector sums run in device order.  A round whose model differences or
    scale leave the float range sends nothing, and a non-finite iterate
    stops the run, as in ``protocol.run_stack``."""
    cfg = traj.config
    rn, d, m_uses = cfg.n_active, cfg.dim, cfg.channel_uses
    mu_abs, abs_power = channel.fading_moments(cfg.fading)
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
        folded = memories[active] + deltas
        updates = np.array([top_k(row, cfg.sparsify_k) for row in folded])
        mem_next = folded - updates
        rho = (power_scale(updates, eta, m_uses, cfg.power_per_use, cfg.rho_max)
               if np.isfinite(deltas).all() else np.nan)
        if not (np.isfinite(rho) and rho > 0):  # sends nothing
            thetas.append(np.full(d, np.nan))
            break
        rows = np.sort(rng.substream(cfg.master_seed, rng.COMPRESSION, t).choice(
            d, size=m_uses, replace=False))
        matrix = channel.compression_block(d, rows)[0]
        factor = np.sqrt(rho) / eta
        signals = np.array([matrix @ (factor * h_phase * u if u.any() else np.zeros(d, complex))
                            for h_phase, u in zip(phase(gains), updates)])
        y = total([h * s for h, s in zip(gains, signals)]) + noise
        energies = np.array([u @ u for u in updates])
        eta_sq, abs_h = sparsify.rate_sq(eta), np.hypot(gains.real, gains.imag)
        if np.sum(energies) > 0:
            prior = abs_power * rho * np.sum(energies) / (eta_sq * d)
            signal_true = np.sqrt(rho) / eta * total(abs_h[:, None] * updates)
        else:  # no update energy: no prior power and no payload
            prior, signal_true = 0.0, np.zeros(d)
        x_hat, err_var, pinv = estimate(y, matrix, rows, prior, noise_var, cfg.estimator)
        thetas.append(theta - eta / (mu_abs * np.sqrt(rho) * rn) * x_hat)
        memories[active] = mem_next
        noise_term = x_hat - signal_true
        rec["train_loss"] = metrics.meta_training_loss(theta, traj.datasets, traj.metric_alpha)
        rec["rho"], rec["v_model"], rec["pinv_fallback"] = rho, err_var, pinv
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


def probe_of(traj):
    """The moment probe of ``traj``'s run, from its definition: the running
    maxima, over every local iterate of every round the run recorded (the
    abort round's included), of ``form * |o|^2 + noise`` with the second
    moment's and the variance's ``tasks.grad_moment_forms``, at the offset
    o = e of the iterate from its device's task vector and at the offset
    e - alpha * s * e after an exact adaptation step at the round's inner
    rate.  Each round's literal ``local_rounds`` start from the run's own
    iterate and stop at a non-finite one, so the steps a device did not run
    are skipped."""
    cfg = traj.config
    env = cfg.env()
    second, variance, noise = tasks.grad_moment_forms(env)
    probe = {"g_sq": 0.0, "sigma_g_sq": 0.0}
    for t, drawn in enumerate(traj.replay):
        eta, alpha = protocol.lr_schedule(cfg, t)
        for i in drawn["active"]:
            ds = Dataset(x=traj.datasets.x[i], y=traj.datasets.y[i], m_tr=cfg.train_samples,
                         m_va=cfg.val_samples)
            _, iterates = local_rounds(traj.thetas[t], ds, alpha, eta, cfg.local_steps,
                                       cfg.batch_size,
                                       rng.substream(cfg.master_seed, rng.LOCAL_BATCH, t, int(i)))
            for theta in iterates:
                e = theta - traj.device_ws[i]
                for off in (e, e - alpha * (env.input_cov * e)):
                    for key, form in (("g_sq", second), ("sigma_g_sq", variance)):
                        probe[key] = max(probe[key], form * float(off @ off) + noise)
    return probe


def sample_active_set(n: int, r: float, gen: np.random.Generator) -> np.ndarray:
    """Uniform size-(r*n) subset of device ids, without replacement."""
    k = r * n
    if abs(k - round(k)) > 1e-9 or round(k) < 1:
        raise ValueError(f"r * n must be a positive integer, got {k}")
    return np.sort(gen.choice(n, size=int(round(k)), replace=False))


def sample_channel(n_active: int, fading: str, noise_var: float, m_uses: int,
                   gen: np.random.Generator):
    """One round's channel draw, ``channel.channel_draws`` of the round's
    normals, with one ``standard_normal`` call for each of the gains' real
    and imaginary parts and the noise's: (gains, noise)."""
    if fading == "rayleigh":
        gains = (gen.standard_normal(n_active) + 1j * gen.standard_normal(n_active)) / np.sqrt(2)
    else:
        gains = np.ones(n_active, dtype=complex)
    scale = np.sqrt(noise_var)
    noise = np.empty(m_uses, dtype=complex)
    noise.real = scale * gen.standard_normal(m_uses)
    noise.imag = scale * gen.standard_normal(m_uses)
    return gains, noise


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


def meta_test_loss(theta, env, alpha: float, n_test: int, m_tr: int,
                   gen: np.random.Generator) -> float:
    """``metrics.meta_test_loss`` one fresh device at a time: its task vector
    (``tasks.sample_device``), its points (``tasks.sample_points``), one
    adaptation step and its exact population loss."""
    theta = np.asarray(theta, dtype=float)
    vals = []
    for _ in range(n_test):
        w = tasks.sample_device(env, gen)
        x, y = tasks.sample_points(w, env, m_tr, gen)
        phi = theta - alpha * tasks.batch_grad(theta, x, y)
        vals.append(tasks.population_loss(phi, w, env))
    return float(np.mean(vals))


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
    """``storage.write_replay_csv`` with every round's line through
    ``csv.writer``: the round, the device ids, the gains' real and then
    imaginary parts, and the noise's."""
    log = traj.replay
    rn, m = log.dtype["gains"].shape[0], log.dtype["noise"].shape[0]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["round"] + [f"device_{i}" for i in range(rn)]
                        + [f"re_h_{i}" for i in range(rn)] + [f"im_h_{i}" for i in range(rn)]
                        + [f"noise_re_{j}" for j in range(m)]
                        + [f"noise_im_{j}" for j in range(m)])
        for t, drawn in enumerate(log):
            parts = (drawn["gains"].real, drawn["gains"].imag,
                     drawn["noise"].real, drawn["noise"].imag)
            writer.writerow([t] + [int(dev) for dev in drawn["active"]]
                            + [storage._fmt(float(v)) for part in parts for v in part])


def write_datasets_csv(data, path) -> None:
    """``storage.write_datasets_csv`` with every row through ``csv.writer``."""
    d = data.x.shape[-1]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["device_id", "split"] + [f"x_{j}" for j in range(d)] + ["y"])
        for dev_id, (x, y) in enumerate(zip(data.x, data.y)):
            for row_idx in range(data.m):
                split = "train" if row_idx < data.m_tr else "val"
                writer.writerow([dev_id, split] + [storage._fmt(v) for v in x[row_idx]]
                                + [storage._fmt(y[row_idx])])
