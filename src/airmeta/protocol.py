"""Full round loop: local updates, sparsify/scale/compress/transmit/estimate.

A run is reproducible from (config, master_seed): every stochastic component
draws from a child stream keyed by purpose, round, and device, so device
work can be scheduled in any order without changing the result.  Realized
channel draws are recorded per round; a replay consumes them instead of
sampling and must reproduce the trajectory bit for bit.
"""
from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from . import channel as ch
from . import meta, metrics, rng, sparsify, tasks

SCHEDULES = ("constant", "adaptive")
# rounds whose iterate-free inputs are drawn, and whose records are
# evaluated, together; a whole run at once would cost memory for little more
# speed
_BLOCK_ROUNDS = 64
# JSON value types accepted for each annotated ExperimentConfig field type
_JSON_TYPES = {"bool": bool, "int": int, "float": (int, float), "str": str}


@dataclass
class ExperimentConfig:
    """Everything needed to reproduce one experiment.

    Physical quantities carry units in the field name (snr_db, noise_var,
    power_per_use).  Exactly one of snr_db / noise_var determines the channel
    noise; noise_var wins when both are set.
    """

    # task population
    dim: int = 20
    center: float = 1.0              # mean task vector = center * ones(dim)
    task_spread: float = 0.5         # variance of task vectors (heterogeneity)
    input_cov_scale: float = 1.0     # inputs ~ N(0, scale * I)
    label_noise_var: float = 1.0
    # local data
    n_devices: int = 9
    samples_per_device: int = 150    # m
    train_samples: int = 75          # m_tr (validation gets the rest)
    # federated loop
    active_fraction: float = 1.0     # r; r * n_devices must be an integer
    rounds: int = 200                # T
    local_steps: int = 5             # Q
    batch_size: int = 16             # m_B
    # learning rates
    lr_schedule: str = "constant"
    eta: float = 0.001
    alpha: float = 0.4
    eta_scale: float = 0.1           # adaptive outer rate xi / (a + t)
    eta_offset: float = 100.0
    alpha_scale: float = 40.0        # adaptive inner rate xi' / (a' + t)
    alpha_offset: float = 100.0
    # uplink
    sparsify_k: int = 1              # top-k with error feedback
    channel_uses: int = 8            # M rows of the partial DFT
    estimator: str = "lmmse"
    fading: str = "rayleigh"
    power_per_use: float = 1.0
    snr_db: float | None = 19.0
    noise_var: float | None = None
    rho_max: float = 1e12
    # initialization, evaluation, bookkeeping
    theta_init: float = 0.0          # theta^(0) = theta_init * ones(dim)
    master_seed: int = 0
    trials: int = 1
    loss_clip: float = 4.0           # clip bound b; sub-Gaussian proxy b^2/4
    n_test_devices: int = 48

    # -- derived helpers ----------------------------------------------------

    @property
    def val_samples(self) -> int:
        return self.samples_per_device - self.train_samples

    @property
    def n_active(self) -> int:
        return int(round(self.active_fraction * self.n_devices))

    def env(self) -> tasks.TaskEnvironment:
        return tasks.TaskEnvironment(
            dim=self.dim,
            center=self.center * np.ones(self.dim),
            task_spread=self.task_spread,
            input_cov=self.input_cov_scale,
            label_noise_var=self.label_noise_var,
        )

    def effective_noise_var(self) -> float:
        if self.noise_var is not None:
            return float(self.noise_var)
        if self.snr_db is None:
            raise ValueError("one of noise_var / snr_db must be set")
        _, abs_power = ch.fading_moments(self.fading)
        return ch.snr_noise_var(self.snr_db, self.n_active, self.power_per_use, abs_power)

    def validate(self) -> list[str]:
        """Raise on hard contract violations; return soft warnings."""
        for name, value in vars(self).items():
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        k_active = self.active_fraction * self.n_devices
        if abs(k_active - round(k_active)) > 1e-9 or round(k_active) < 1:
            raise ValueError(
                f"active_fraction * n_devices must be a positive integer, got {k_active}"
            )
        if not 1 <= self.sparsify_k <= self.dim:
            raise ValueError("sparsify_k must be in [1, dim]")
        if not 1 <= self.channel_uses <= self.dim:
            raise ValueError("channel_uses must be in [1, dim]")
        if self.estimator == "matched" and self.channel_uses != self.dim:
            raise ValueError("matched estimator requires channel_uses == dim")
        if self.train_samples < 1 or self.val_samples < 1:
            raise ValueError("both data splits need at least one sample")
        for name, known in (("lr_schedule", SCHEDULES), ("estimator", ch.ESTIMATOR_KINDS),
                            ("fading", ch.FADING_MODELS)):
            if getattr(self, name) not in known:
                raise ValueError(f"unknown {name} {getattr(self, name)!r}")
        if min(self.local_steps, self.batch_size, self.n_test_devices) < 1:
            raise ValueError("local_steps, batch_size and n_test_devices must be >= 1")
        if min(self.eta, self.alpha, self.noise_var or 0.0) < 0:
            raise ValueError("eta, alpha and noise_var must be >= 0")
        if min(self.power_per_use, self.loss_clip, self.rho_max, self.input_cov_scale) <= 0:
            raise ValueError("power_per_use, loss_clip, rho_max and input_cov_scale must be > 0")
        if self.lr_schedule == "adaptive" and (self.eta_offset <= 1 or self.alpha_offset <= 1):
            raise ValueError("adaptive schedule offsets must exceed 1")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.rounds < 0:
            raise ValueError("rounds must be >= 0")
        # batch pools must be drawable
        meta.batch_pools(
            tasks.Dataset(
                x=np.zeros((self.samples_per_device, self.dim)),
                y=np.zeros(self.samples_per_device),
                m_tr=self.train_samples,
                m_va=self.val_samples,
            ),
            self.batch_size,
        )
        self.effective_noise_var()

        warnings = []
        l_g = self.env().smoothness
        eta0, alpha0 = lr_schedule(self, 0)
        if alpha0 > 1 / l_g + 1e-12:
            warnings.append(
                f"inner rate {alpha0} exceeds 1/L_G = {1 / l_g:.6g}; the smoothness "
                "precondition of the convergence analysis does not hold"
            )
        l_f = 4.0 * l_g  # squared loss has a constant Hessian
        if not meets_constant_rate(eta0, self.local_steps, l_f):
            warnings.append(
                f"outer rate {eta0} violates the constant-rate validity condition "
                f"(max {constant_rate_limit(self.local_steps, l_f):.6g}); "
                "bound evaluation on this run is not covered by the theory"
            )
        return warnings

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        """Config from parsed JSON.  Each value must have its field's type; none
        is coerced, so a valid config keeps its exact values and hash."""
        types = {f.name: f.type for f in dataclasses.fields(cls)}
        unknown = set(data) - set(types)
        if unknown:
            raise ValueError(f"unknown config fields: {sorted(unknown)}")
        for name, value in data.items():
            kind, _, optional = types[name].partition(" | ")
            if value is None and optional == "None":
                continue
            # bool is a subclass of int, but a JSON true is not a number
            if not isinstance(value, _JSON_TYPES[kind]) or (
                    isinstance(value, bool) and kind != "bool"):
                raise TypeError(f"config field {name!r} must be {types[name]}, "
                                f"got {value!r}")
        return cls(**data)

    def replace(self, **kw) -> "ExperimentConfig":
        return dataclasses.replace(self, **kw)


def lr_schedule(cfg: ExperimentConfig, t: int):
    """(eta_t, alpha_t) for round t.

    The adaptive schedule decays both rates as 1/t and caps the inner rate at
    1/L_G.
    """
    if cfg.lr_schedule == "constant":
        return float(cfg.eta), float(cfg.alpha)
    eta_t = cfg.eta_scale / (cfg.eta_offset + t)
    alpha_t = min(cfg.alpha_scale / (cfg.alpha_offset + t), 1.0 / cfg.env().smoothness)
    return float(eta_t), float(alpha_t)


def constant_rate_limit(q: int, l_f: float) -> float:
    """Largest constant outer rate admitted by the validity condition.

    Solves 160 x^3 + 60 x^2 + 4 x = 1/8 for x = eta*Q*L_F and intersects with
    eta <= 1/(10*Q*L_F).
    """
    roots = np.roots([160.0, 60.0, 4.0, -0.125])
    x = min(r.real for r in roots if abs(r.imag) < 1e-12 and r.real > 0)
    return float(min(x, 0.1) / (q * l_f))


def meets_constant_rate(eta: float, q: int, l_f: float) -> bool:
    x = eta * q * l_f
    return 0 < eta <= 1 / (10 * q * l_f) and 60 * x**2 + 160 * x**3 + 4 * x <= 0.125 + 1e-12


def sample_active_set(n: int, r: float, gen: np.random.Generator) -> np.ndarray:
    """Uniform size-(r*n) subset of device ids, without replacement."""
    k = r * n
    if abs(k - round(k)) > 1e-9 or round(k) < 1:
        raise ValueError(f"r * n must be a positive integer, got {k}")
    return np.sort(gen.choice(n, size=int(round(k)), replace=False))


@dataclass
class RoundRecord:
    """Scalar metrics of one round.

    ``grad_norm_sq`` is measured against the population meta objective at the
    run's initial inner rate so that constant and adaptive runs share one
    yardstick.
    """

    t: int
    eta_t: float
    alpha_t: float
    rho: float
    v_model: float
    v_realized: float
    grad_norm_sq: float
    train_loss: float
    sum_abs_h_sq: float
    min_g_sq_over_eta_sq: float
    mem_norm_sq_max: float
    power_margin: float
    pinv_fallback: bool


@dataclass
class Trajectory:
    """Recorded run: iterates, per-round metrics, and replayable channel draws."""

    config: ExperimentConfig
    thetas: np.ndarray                 # (rounds_done + 1, dim)
    records: list
    device_ws: np.ndarray              # (n, dim) task vectors
    datasets: tasks.Dataset            # (n, m, d) stack of the device datasets
    memories: np.ndarray               # final error-feedback memories (n, dim)
    replay: list                       # the ChannelRound of each round
    recon: list                        # per-round vectors for identity checks
    probe: dict                        # running maxima for constant estimation
    f_init: float
    f_star: float
    metric_alpha: float
    warnings: list
    aborted_at: int | None = None

    @property
    def theta_final(self) -> np.ndarray:
        return self.thetas[-1]

    def series(self, name: str) -> np.ndarray:
        return np.array([getattr(rec, name) for rec in self.records], dtype=float)


class _State:
    """Per-device data of a run, stacked along a leading device axis once,
    plus the evolving iterate, memories and moment probe."""

    def __init__(self, cfg: ExperimentConfig):
        self.env = cfg.env()
        seed = cfg.master_seed
        self.ws = np.stack([
            tasks.sample_device(self.env, rng.substream(seed, rng.DEVICE_TASK, i))
            for i in range(cfg.n_devices)
        ])
        self.data = tasks.stack_datasets([
            tasks.sample_dataset(
                w, self.env, cfg.samples_per_device, cfg.train_samples, cfg.val_samples,
                rng.substream(seed, rng.DEVICE_DATA, i),
            )
            for i, w in enumerate(self.ws)
        ])
        self.pools = meta.batch_pools(self.data, cfg.batch_size)
        self.theta = cfg.theta_init * np.ones(cfg.dim)
        self.memories = np.zeros((cfg.n_devices, cfg.dim))
        self.probe = {"g_sq": 0.0, "sigma_g_sq": 0.0}
        self.moment_forms = tasks.grad_moment_forms(self.env)
        # draws each round's channel, set to the seeded state of its stream
        self.channel_gen = np.random.Generator(np.random.PCG64(0))

    def update_probe(self, e: np.ndarray, alphas: np.ndarray):
        """Track analytic per-point gradient moments along the trajectory.

        Row r of ``e`` (R, d) is the offset of a local iterate from its
        device's task vector, and ``alphas[r]`` the inner rate of its round;
        NaN rows mark steps a device did not start, and are skipped like
        any NaN moment.
        """
        second, variance, noise = self.moment_forms
        # offsets after an exact adaptation step
        e_ad = e - alphas[:, None] * (self.env.input_cov * e)
        offs = np.concatenate([e, e_ad])
        for key, form in (("g_sq", second), ("sigma_g_sq", variance)):
            vals = ((form * offs)[:, None, :] @ offs[:, :, None])[:, 0, 0] + noise
            if vals.size:
                # fmax skips NaN, as the running max() over the points did
                self.probe[key] = max(self.probe[key], float(np.fmax.reduce(vals)))


# record fields of a round that blew up before its iterate could be formed
_ABORTED_FIELDS = dict(
    rho=float("nan"), v_model=float("nan"), v_realized=float("nan"),
    train_loss=float("nan"), sum_abs_h_sq=float("nan"),
    min_g_sq_over_eta_sq=float("nan"), mem_norm_sq_max=float("nan"),
    power_margin=float("nan"), pinv_fallback=False,
)


def run_experiment(cfg: ExperimentConfig, channel_replay: list | None = None) -> Trajectory:
    """Run the configured number of rounds and record the trajectory.

    ``channel_replay``, a list of recorded ChannelRounds, substitutes those
    draws for fresh sampling (deterministic replay); everything else still
    derives from the master seed.  A non-finite iterate aborts the run and
    stamps the failing round.
    """
    warnings = cfg.validate()
    state = _State(cfg)
    noise_var = cfg.effective_noise_var()
    metric_alpha = lr_schedule(cfg, 0)[1]
    curvature = tasks.meta_curvature(state.env, metric_alpha)

    with np.errstate(over="ignore", invalid="ignore"):
        f_init = tasks.mean_meta_loss(state.theta, state.ws, state.env, metric_alpha)
    f_star = tasks.meta_loss_minimum(state.ws, state.env, metric_alpha)

    thetas = [state.theta.copy()]
    records: list[RoundRecord] = []
    replay_out: list[ch.ChannelRound] = []
    recon: list[dict] = []
    aborted_at = None

    for t0 in range(0, cfg.rounds, _BLOCK_ROUNDS):
        block = _draw_block(cfg, state, t0, noise_var, channel_replay)
        done = []  # (t, eta_t, alpha_t, record fields) of the block's rounds so far
        probe = []  # (offsets, inner rate) of the block's local iterates
        for t, active, batch_idx, drawn, comp in zip(range(t0, cfg.rounds), *block):
            eta_t, alpha_t = lr_schedule(cfg, t)
            if channel_replay is not None and not np.array_equal(drawn.active, active):
                raise ValueError(f"replay log active set mismatch at round {t}")
            replay_out.append(drawn)
            # a zero channel coefficient drops the device for the round
            alive = np.abs(drawn.gains) > 0.0
            round_ch = dataclasses.replace(drawn, active=drawn.active[alive],
                                           gains=drawn.gains[alive])

            deltas, offsets = _local_updates(cfg, state, round_ch.active, batch_idx[alive],
                                             eta_t, alpha_t)
            probe.append((offsets, alpha_t))
            out = None if deltas is None else \
                _air_uplink(cfg, state, deltas, round_ch, comp, noise_var, eta_t)
            with np.errstate(over="ignore", invalid="ignore"):
                if out is None:
                    theta_next, fields = None, _ABORTED_FIELDS
                else:
                    theta_next, fields, noise_term, fading_dev = out
                    fields["sum_abs_h_sq"] = float(np.sum(np.abs(round_ch.gains) ** 2))
                    recon.append({
                        "sum_delta": np.sum(deltas, axis=0),
                        "noise_term": noise_term,
                        "fading_dev": fading_dev,
                        "mem_sum": state.memories.sum(axis=0),
                    })
            done.append((t, eta_t, alpha_t, fields))
            if theta_next is None or not np.all(np.isfinite(theta_next)):
                aborted_at = t
                break
            state.theta = theta_next
            thetas.append(state.theta.copy())
        records += _block_records(state, np.stack(thetas[t0:t0 + len(done)]), done, probe,
                                  metric_alpha, curvature)
        if aborted_at is not None:
            break

    return Trajectory(
        config=cfg,
        thetas=np.stack(thetas),
        records=records,
        device_ws=state.ws,
        datasets=state.data,
        memories=state.memories,
        replay=replay_out,
        recon=recon,
        probe=state.probe,
        f_init=f_init,
        f_star=f_star,
        metric_alpha=metric_alpha,
        warnings=warnings,
        aborted_at=aborted_at,
    )


def _draw_block(cfg: ExperimentConfig, state: _State, t0: int, noise_var: float,
                channel_replay: list | None):
    """Every input of rounds t0 .. t0 + _BLOCK_ROUNDS - 1 (fewer at the end
    of the run) that does not depend on the iterate: the active sets
    (rounds, n_active), the local batch indices (rounds, n_active, Q, 3,
    m_B), the ChannelRounds and the CompressionMatrices.  Each is what the
    round's own substream draws: ACTIVE_SET, LOCAL_BATCH per active device,
    CHANNEL (or the replay log's entry) and COMPRESSION.

    One seeding pass gives the round streams and one the device streams.
    Active sets, compression rows and batches are replayed on their raw
    words; the channel is drawn by ``ch.sample_channel`` on the run's
    generator, set to the CHANNEL stream's seeded state.  All Q steps are
    drawn up front; a substream serves one device in one round, so a
    device that stops early only leaves its later draws unused."""
    seed = cfg.master_seed
    rounds = np.arange(t0, min(t0 + _BLOCK_ROUNDS, cfg.rounds))
    n = rounds.size
    tags = [rng.ACTIVE_SET, rng.COMPRESSION] + ([rng.CHANNEL] if channel_replay is None else [])
    keys = np.column_stack([np.repeat(tags, n), np.tile(rounds, len(tags))])
    states = rng.seeded_states(seed, keys)
    actives = meta.stream_choices(seed, keys[:n], states[:n], cfg.n_devices, cfg.n_active)
    comps = [ch.CompressionMatrix(cfg.dim, rows) for rows in meta.stream_choices(
        seed, keys[n:2 * n], states[n:2 * n], cfg.dim, cfg.channel_uses)]
    if channel_replay is None:
        literal = not meta.replicas_hold()
        channels = []
        for t, active, seeded in zip(rounds.tolist(), actives, states[2 * n:]):
            if literal:
                gen = rng.substream(seed, rng.CHANNEL, t)
            else:
                gen = state.channel_gen
                gen.bit_generator.state = seeded
            channels.append(ch.sample_channel(active, cfg.fading, noise_var,
                                              cfg.channel_uses, gen))
    else:
        channels = channel_replay[t0:t0 + n]
    batch_keys = np.column_stack([np.full(actives.size, rng.LOCAL_BATCH),
                                  np.repeat(rounds, cfg.n_active), actives.reshape(-1)])
    batches = meta.stream_batches(seed, batch_keys, state.pools, cfg.batch_size,
                                  cfg.local_steps)
    return actives, batches.reshape((n, cfg.n_active) + batches.shape[1:]), channels, comps


def _block_records(state: _State, thetas: np.ndarray, done: list, probe: list,
                   metric_alpha: float, curvature: float) -> list:
    """RoundRecords of a block's rounds, whose iterates are ``thetas``
    (rounds, d): the meta-training loss and the squared meta-gradient of
    every iterate at once, each bit for bit its one-iterate value.  Folds
    the block's local iterates into the moment probe."""
    with np.errstate(over="ignore", invalid="ignore"):
        train_loss = metrics.meta_training_loss(thetas, state.data, metric_alpha)
        g = tasks.mean_meta_grad(thetas, state.ws, curvature)
        grad_norm_sq = (g[:, None, :] @ g[:, :, None])[:, 0, 0]
        state.update_probe(np.concatenate([e for e, _ in probe]),
                           np.concatenate([np.full(len(e), a) for e, a in probe]))
    # an aborted round's fields carry their own NaN training loss
    return [RoundRecord(t=t, eta_t=eta_t, alpha_t=alpha_t, grad_norm_sq=float(gn),
                        **({"train_loss": float(tl)} | fields))
            for (t, eta_t, alpha_t, fields), tl, gn in zip(done, train_loss, grad_norm_sq)]


def _local_updates(cfg: ExperimentConfig, state: _State, act_eff: np.ndarray,
                   batch_idx: np.ndarray, eta_t: float, alpha_t: float):
    """(n_active, d) model differences of the transmitting devices, in
    ``act_eff`` order, from their (n_active, Q, 3, m_B) batch indices, or
    None when one of them is non-finite; and the (Q * n_active, d) offsets
    of their local iterates from their task vectors, for the moment probe."""
    local_cfg = meta.LocalConfig(alpha=alpha_t, local_steps=cfg.local_steps,
                                 batch_size=cfg.batch_size)
    with np.errstate(over="ignore", invalid="ignore"):
        deltas, iterates = meta.local_rounds(state.theta, state.data.devices(act_eff),
                                             batch_idx.swapaxes(0, 1), local_cfg, eta_t)
        offsets = (iterates - state.ws[act_eff]).reshape(-1, cfg.dim)
    return (deltas if np.all(np.isfinite(deltas)) else None), offsets


def _air_uplink(cfg: ExperimentConfig, state: _State, deltas: np.ndarray,
                round_ch: ch.ChannelRound, comp: ch.CompressionMatrix, noise_var: float,
                eta_t: float):
    """Error-feedback sparsification, power scaling, phase pre-compensation and
    compression by ``comp``, MAC superposition, estimation and the server
    update, each on the (n_active, d) stack of the devices that transmit
    over ``round_ch``.

    Returns ``(theta_next, record fields, noise term, fading deviation)``,
    where the last two are the realized vectors the memory identity needs,
    or None when the update energy leaves the float range and no power
    scale exists.  Commits the devices' new error-feedback memories.
    """
    mu_abs, abs_power = ch.fading_moments(cfg.fading)
    policy = sparsify.PowerPolicy(
        power=cfg.power_per_use, channel_uses=cfg.channel_uses, rho_max=cfg.rho_max,
    )
    with np.errstate(over="ignore", invalid="ignore"):
        updates, mem_next = sparsify.memory_fold(state.memories[round_ch.active], deltas,
                                                 cfg.sparsify_k)
        rho = sparsify.power_scale(updates, eta_t, policy)
    if not (np.isfinite(rho) and rho > 0):
        return None

    gains = round_ch.gains
    signals = comp.compress(sparsify.phase_precompensate(updates, rho, eta_t, gains))
    block_power = (signals.conj()[:, None, :] @ signals[:, :, None])[:, 0, 0].real
    margins = block_power / cfg.channel_uses - cfg.power_per_use
    g_sq = sparsify.energies(updates)

    y = ch.transmit_mac(signals, round_ch)
    total_g_sq = float(np.sum(g_sq))
    eta_sq = sparsify.rate_sq(eta_t)
    prior_power = abs_power * rho * total_g_sq / (eta_sq * cfg.dim) \
        if total_g_sq > 0.0 else 0.0
    est = ch.estimate(y, comp, prior_power, noise_var, cfg.estimator)

    abs_h = np.abs(gains)[:, None]
    signal_true = (np.sqrt(rho) / eta_t) * np.sum(abs_h * updates, axis=0) \
        if total_g_sq > 0.0 else np.zeros(cfg.dim)
    noise_term = est.x_hat - signal_true
    fading_dev = np.sum((abs_h / mu_abs - 1.0) * updates, axis=0)
    theta_next = ch.global_update(state.theta, est, eta_t, rho, mu_abs, cfg.n_active)

    state.memories[round_ch.active] = mem_next

    fields = dict(
        rho=float(rho), v_model=float(est.err_var),
        v_realized=float(noise_term @ noise_term) / cfg.dim,
        min_g_sq_over_eta_sq=float(np.min(g_sq)) / eta_sq if g_sq.size and eta_sq > 0
        else float("nan"),
        mem_norm_sq_max=float(np.max(np.sum(state.memories**2, axis=1))),
        power_margin=float(np.max(margins)) if margins.size else 0.0,
        pinv_fallback=bool(est.pinv_fallback),
    )
    return theta_next, fields, noise_term, fading_dev


def replay_experiment(cfg: ExperimentConfig, replay: list) -> Trajectory:
    """Re-run using the recorded channel draws; must match bit for bit."""
    if len(replay) < cfg.rounds:
        raise ValueError("replay log shorter than the configured number of rounds")
    return run_experiment(cfg, channel_replay=replay)


def memory_identity_residuals(traj: Trajectory) -> np.ndarray:
    """Per-round residual of the error-feedback bookkeeping identity.

    Maintains the noise-free virtual iterate from the recorded realized
    terms; the gap to the true iterate must equal the device-averaged
    memories, so the residual is numerical noise when the implementation is
    faithful.
    """
    cfg = traj.config
    rn = cfg.n_active
    mu_abs, _ = ch.fading_moments(cfg.fading)
    theta_hat = traj.thetas[0].copy()
    residuals = []
    for t, (rec, extra) in enumerate(zip(traj.records, traj.recon)):
        theta_hat = (
            theta_hat
            - extra["sum_delta"] / rn
            - (rec.eta_t / (mu_abs * rn * np.sqrt(rec.rho))) * extra["noise_term"]
            - extra["fading_dev"] / rn
        )
        gap = traj.thetas[t + 1] - theta_hat
        residuals.append(float(np.linalg.norm(gap - extra["mem_sum"] / rn)))
    return np.array(residuals)
