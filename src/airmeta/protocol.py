"""Full round loop: local updates, sparsify/scale/compress/transmit/estimate.

A run is reproducible from (config, master_seed): every stochastic component
draws from a child stream keyed by purpose, round, and device, so device
work can be scheduled in any order without changing the result.  Realized
channel draws are recorded per round; a replay consumes them instead of
sampling and must reproduce the trajectory bit for bit.  Trials of one
setup can run in lockstep as one stack (``run_stack``), each trial still
bit for bit its own run.
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
# speed.  A stack of K trials takes _BLOCK_ROUNDS // K rounds (at least one)
# per block, which keeps a block's memory that of one trial's block
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


# one round's record, a field per trajectory.csv column but the run-level
# test_loss and snr_db; grad_norm_sq is measured against the population meta
# objective at the run's initial inner rate so that constant and adaptive
# runs share one yardstick
ROUND_DTYPE = np.dtype(
    [("round", np.int64)]
    + [(name, np.float64) for name in (
        "grad_norm_sq", "train_loss", "rho", "v", "eta", "alpha", "v_model", "sum_abs_h_sq",
        "min_g_sq_over_eta_sq", "mem_norm_sq_max", "power_margin")]
    + [("pinv_fallback", np.bool_)])
# the realized vectors of a round that the memory identity needs
_RECON_KEYS = ("sum_delta", "noise_term", "fading_dev", "mem_sum")


@dataclass
class Trajectory:
    """Recorded run: iterates, per-round metrics, and replayable channel draws."""

    config: ExperimentConfig
    thetas: np.ndarray                 # (rounds_done + 1, dim)
    records: np.recarray               # (rounds recorded,) of ROUND_DTYPE
    device_ws: np.ndarray              # (n, dim) task vectors
    datasets: tasks.Dataset            # (n, m, d) stack of the device datasets
    memories: np.ndarray               # final error-feedback memories (n, dim)
    replay: list                       # the ChannelRound of each round
    recon: dict                        # _RECON_KEYS -> (len(thetas) - 1, dim), the
                                       # realized vectors of the memory identity
    probe: dict                        # running maxima for constant estimation
    f_init: float
    f_star: float
    metric_alpha: float
    warnings: list
    aborted_at: int | None = None

    @property
    def theta_final(self) -> np.ndarray:
        return self.thetas[-1]


class _State:
    """Per-device data of a stack of K trials, stacked along one device
    axis once, trial by trial (device i of trial k is row k * n + i), plus
    each trial's evolving iterate, memories and moment probe."""

    def __init__(self, configs: list):
        cfg = configs[0]
        self.env = cfg.env()
        self.n = cfg.n_devices
        self.seeds = [c.master_seed for c in configs]
        self.ws = np.stack([
            tasks.sample_device(self.env, rng.substream(seed, rng.DEVICE_TASK, i))
            for seed in self.seeds for i in range(self.n)
        ])
        self.data = tasks.stack_datasets([
            tasks.sample_dataset(
                w, self.env, cfg.samples_per_device, cfg.train_samples, cfg.val_samples,
                rng.substream(seed, rng.DEVICE_DATA, i),
            )
            for seed, ws in zip(self.seeds, self.ws.reshape(len(configs), self.n, -1))
            for i, w in enumerate(ws)
        ])
        self.pools = meta.batch_pools(self.data, cfg.batch_size)
        self.theta = cfg.theta_init * np.ones((len(configs), cfg.dim))
        self.memories = np.zeros((len(configs) * self.n, cfg.dim))
        self.probes = [{"g_sq": 0.0, "sigma_g_sq": 0.0} for _ in configs]
        self.moment_forms = tasks.grad_moment_forms(self.env)
        # draws each round's channel, set to the seeded state of its stream
        self.channel_gen = np.random.Generator(np.random.PCG64(0))

    def devices(self, k: int) -> slice:
        """The rows of trial k's devices."""
        return slice(k * self.n, (k + 1) * self.n)

    def update_probes(self, trials: np.ndarray, e: np.ndarray, alphas: np.ndarray):
        """Track analytic per-point gradient moments along the trajectories.

        Row r of ``e[i]`` (K', R, d) is the offset of a local iterate of
        trial ``trials[i]`` from its device's task vector, and ``alphas[r]``
        the inner rate of its round; NaN rows mark steps a device did not
        start or a trial did not run, and are skipped like any NaN moment.
        """
        second, variance, noise = self.moment_forms
        # offsets after an exact adaptation step
        e_ad = e - alphas[:, None] * (self.env.input_cov * e)
        offs = np.concatenate([e, e_ad], axis=-2)
        for key, form in (("g_sq", second), ("sigma_g_sq", variance)):
            vals = ((form * offs)[..., None, :] @ offs[..., :, None])[..., 0, 0] + noise
            # fmax skips NaN, as the running max() over the points did
            for k, top in zip(trials.tolist(), np.fmax.reduce(vals, axis=-1).tolist()):
                self.probes[k][key] = max(self.probes[k][key], top)


def run_experiment(cfg: ExperimentConfig, channel_replay: list | None = None) -> Trajectory:
    """Run the configured number of rounds and record the trajectory.

    ``channel_replay``, a list of recorded ChannelRounds, one per round at
    least, substitutes those draws for fresh sampling (deterministic
    replay); everything else still derives from the master seed.  A
    non-finite iterate aborts the run and stamps the failing round.  The
    run is a stack of one trial (``run_stack``).
    """
    return run_stack([cfg], None if channel_replay is None else [channel_replay])[0]


def run_stack(configs: list, channel_replays: list | None = None) -> list:
    """Run K trials in lockstep and return the Trajectory of each, bit for
    bit what ``run_experiment`` gives for it alone.

    The configs may differ only in their master seed.  Each round steps the
    devices of every running trial as one stack and sends every uplink as
    one stack of (K, n_active, ...) arrays; a trial that aborts leaves the
    stack.  ``channel_replays`` holds one replay log per trial.  Every
    record and identity vector of a round is written by trial into a table
    of the run, and each trial's records are its rows of it.
    """
    cfg = configs[0]
    if any(c.replace(master_seed=cfg.master_seed) != cfg for c in configs):
        raise ValueError("the trials of a stack may differ only in master_seed")
    if channel_replays is not None and (len(channel_replays) != len(configs) or any(
            len(replay) < cfg.rounds for replay in channel_replays)):
        raise ValueError("need one replay log per trial, none shorter than the configured "
                         "number of rounds")
    warnings = cfg.validate()
    state = _State(configs)
    noise_var = cfg.effective_noise_var()
    metric_alpha = lr_schedule(cfg, 0)[1]
    curvature = tasks.meta_curvature(state.env, metric_alpha)

    trial_ws = [state.ws[state.devices(k)] for k in range(len(configs))]
    with np.errstate(over="ignore", invalid="ignore"):
        f_init = [tasks.mean_meta_loss(theta, ws, state.env, metric_alpha)
                  for theta, ws in zip(state.theta, trial_ws)]
    f_star = [tasks.meta_loss_minimum(ws, state.env, metric_alpha) for ws in trial_ws]

    n_trials, rn, q, d = len(configs), cfg.n_active, cfg.local_steps, cfg.dim
    thetas = np.empty((n_trials, cfg.rounds + 1, d))
    thetas[:, 0] = state.theta
    # the records and identity vectors of every (trial, round), preset to an
    # aborted round's values
    table = np.zeros((n_trials, cfg.rounds), dtype=ROUND_DTYPE)
    table["round"] = np.arange(cfg.rounds)
    for name in ROUND_DTYPE.names[1:-1]:  # the float fields
        table[name] = np.nan
    recon = np.full((len(_RECON_KEYS), n_trials, cfg.rounds, d), np.nan)
    sent = np.zeros((n_trials, cfg.rounds), dtype=bool)
    replay_out = [[] for _ in configs]
    aborted_at = [None] * n_trials
    running = np.arange(n_trials)

    t0 = 0
    while t0 < cfg.rounds and running.size:
        trials = running
        n_rounds = min(max(1, _BLOCK_ROUNDS // len(trials)), cfg.rounds - t0)
        actives, batches, channels, gains, noise, comps = _draw_block(
            cfg, state, trials, np.arange(t0, t0 + n_rounds), noise_var, channel_replays)
        # offsets of the block's local iterates; NaN where a trial did not run
        offsets = np.full((len(trials), n_rounds, q, rn, d), np.nan)
        # a zero channel coefficient drops the device for the round, so a
        # trial with one transmits in a group of its own
        alive = np.abs(gains) > 0.0
        full = alive.all(axis=2)
        no_drops = full.all(axis=0).tolist()
        live = np.arange(len(trials))  # block positions of the trials still running
        for j, t in enumerate(range(t0, t0 + n_rounds)):
            if not live.size:
                break
            eta_t, alpha_t = lr_schedule(cfg, t)
            table["eta"][:, t] = eta_t
            table["alpha"][:, t] = alpha_t
            for p in live.tolist():
                replay_out[trials[p]].append(channels[p][j])
            # groups of trials (block positions, devices) that transmit over
            # as many devices each
            if no_drops[j]:
                groups = [(slice(None) if live.size == len(trials) else live, slice(None))]
            else:
                sending = full[live, j]
                groups = [(live[sending], slice(None))] if sending.any() else []
                groups += [(np.array([p]), alive[p, j]) for p in live[~sending].tolist()]
            stopped = []
            for pos, devs in groups:
                ks, positions = trials[pos], live if isinstance(pos, slice) else pos
                active = actives[pos, j][:, devs]
                iterate_offsets, theta_next, sent_now, fields, vectors = _round(
                    cfg, state, ks, active, gains[pos, j][:, devs], noise[pos, j],
                    batches[pos, j][:, devs], tuple(c[pos, j] for c in comps), noise_var,
                    eta_t, alpha_t)
                offsets[pos, j, :, :active.shape[1]] = iterate_offsets
                senders = ks[sent_now]
                sent[senders, t] = True
                for name, column in fields.items():
                    table[name][senders, t] = column
                recon[:, senders, t] = vectors
                ok = np.isfinite(theta_next).all(axis=1)
                if not ok.all():
                    for p in positions[~ok].tolist():
                        aborted_at[trials[p]] = t
                        stopped.append(p)
                    ks, theta_next = ks[ok], theta_next[ok]
                state.theta[ks] = theta_next
                thetas[ks, t + 1] = theta_next
            if stopped:
                live = live[~np.isin(live, stopped)]
        # the meta-training loss and squared meta-gradient of every iterate
        # of a trial's block at once, each bit for bit its one-iterate value;
        # a round that sent nothing has no training loss
        with np.errstate(over="ignore", invalid="ignore"):
            for k in trials.tolist():
                block = slice(t0, t0 + n_rounds if aborted_at[k] is None else aborted_at[k] + 1)
                devices = state.devices(k)
                loss = metrics.meta_training_loss(thetas[k, block], state.data.devices(devices),
                                                  metric_alpha)
                table["train_loss"][k, block] = np.where(sent[k, block], loss, np.nan)
                g = tasks.mean_meta_grad(thetas[k, block], state.ws[devices], curvature)
                table["grad_norm_sq"][k, block] = (g[:, None, :] @ g[:, :, None])[:, 0, 0]
            # the rounds no trial ran have NaN offsets and rates, which it skips
            state.update_probes(trials, offsets.reshape(len(trials), -1, d),
                                np.repeat(table["alpha"][0, t0:t0 + n_rounds], q * rn))
        running = trials[live]
        t0 += n_rounds

    trajectories = []
    for k, c in enumerate(configs):
        n_records = cfg.rounds if aborted_at[k] is None else aborted_at[k] + 1
        n_steps = n_records - (aborted_at[k] is not None)  # rounds with a next iterate
        trajectories.append(Trajectory(
            config=c,
            thetas=thetas[k, :n_steps + 1].copy(),
            records=table[k, :n_records].copy().view(np.recarray),
            device_ws=trial_ws[k],
            datasets=state.data.devices(state.devices(k)),
            memories=state.memories[state.devices(k)],
            replay=replay_out[k],
            recon={key: vecs[k, :n_steps].copy() for key, vecs in zip(_RECON_KEYS, recon)},
            probe=state.probes[k],
            f_init=f_init[k],
            f_star=f_star[k],
            metric_alpha=metric_alpha,
            warnings=list(warnings),
            aborted_at=aborted_at[k],
        ))
    return trajectories


def _draw_block(cfg: ExperimentConfig, state: _State, trials: np.ndarray, rounds: np.ndarray,
                noise_var: float, channel_replays: list | None):
    """Every input of the consecutive ``rounds`` that does not depend on the
    iterate, for each of the K ``trials``: the active sets (K, rounds, n_active), the local batch
    indices (K, rounds, n_active, Q, 3, m_B), the ChannelRounds (K lists)
    with their gains (K, rounds, n_active) and noise (K, rounds, M), and
    the compression operators (``ch.compression_block``).  Each is what the
    round's own substream draws: ACTIVE_SET, LOCAL_BATCH per active device,
    CHANNEL (or the replay log's entry, which must draw the same active
    set) and COMPRESSION.

    One seeding pass gives the round streams of every trial and one the
    device streams.  Active sets, compression rows and batches are replayed
    on their raw words; the channel is drawn by ``ch.sample_channel`` on the
    run's generator, set to the CHANNEL stream's seeded state.  All Q steps
    are drawn up front; a substream serves one device in one round, so a
    device that stops early only leaves its later draws unused."""
    seeds = np.array([state.seeds[k] for k in trials.tolist()], dtype=object)
    n, n_trials = rounds.size, len(trials)
    tags = [rng.ACTIVE_SET, rng.COMPRESSION] + ([rng.CHANNEL] if channel_replays is None else [])
    # rows by tag, then trial, then round
    keys = np.column_stack([np.repeat(tags, n_trials * n), np.tile(rounds, len(tags) * n_trials)])
    key_seeds = np.tile(np.repeat(seeds, n), len(tags))
    states = rng.seeded_states(key_seeds, keys)
    kn = n_trials * n
    # np.sort(gen.choice(n_pool, m, replace=False)) on each stream
    actives = np.sort(meta.stream_batches(key_seeds[:kn], keys[:kn], states[:kn],
                                          (np.arange(cfg.n_devices),), cfg.n_active,
                                          1)[:, 0, 0], axis=1)
    comps = ch.compression_block(cfg.dim, np.sort(meta.stream_batches(
        key_seeds[kn:2 * kn], keys[kn:2 * kn], states[kn:2 * kn], (np.arange(cfg.dim),),
        cfg.channel_uses, 1)[:, 0, 0], axis=1).reshape(n_trials, n, -1))
    if channel_replays is None:
        literal = not meta.replicas_hold()
        drawn = []
        for seed, t, active, seeded in zip(key_seeds[:kn], np.tile(rounds, n_trials).tolist(),
                                           actives, states[2 * kn:]):
            if literal:
                gen = rng.substream(seed, rng.CHANNEL, t)
            else:
                gen = state.channel_gen
                gen.bit_generator.state = seeded
            drawn.append(ch.sample_channel(active, cfg.fading, noise_var, cfg.channel_uses,
                                           gen))
        channels = [drawn[i * n:(i + 1) * n] for i in range(n_trials)]
    else:
        channels = [channel_replays[k][rounds[0]:rounds[0] + n] for k in trials.tolist()]
        for t, entries, active in zip(np.tile(rounds, n_trials).tolist(),
                                      (c for chans in channels for c in chans), actives):
            if not np.array_equal(entries.active, active):
                raise ValueError(f"replay log active set mismatch at round {t}")
    batch_keys = np.column_stack([np.full(actives.size, rng.LOCAL_BATCH),
                                  np.repeat(np.tile(rounds, n_trials), cfg.n_active),
                                  actives.reshape(-1)])
    batch_seeds = np.repeat(seeds, n * cfg.n_active)
    batches = meta.stream_batches(batch_seeds, batch_keys,
                                  rng.seeded_states(batch_seeds, batch_keys), state.pools,
                                  cfg.batch_size, cfg.local_steps)
    shape = (n_trials, n, cfg.n_active)
    gains = np.array([[c.gains for c in chans] for chans in channels])
    noise = np.array([[c.noise for c in chans] for chans in channels])
    return (actives.reshape(shape), batches.reshape(shape + batches.shape[1:]), channels,
            gains, noise, comps)


def _round(cfg: ExperimentConfig, state: _State, ks: np.ndarray, active: np.ndarray,
           gains: np.ndarray, noise: np.ndarray, batch_idx: np.ndarray, comp: tuple,
           noise_var: float, eta_t: float, alpha_t: float):
    """One round of the G trials ``ks``, each with the same number rn of
    devices that transmit: their ids ``active`` and coefficients ``gains``
    (G, rn), each trial's noise block ``noise`` (G, M), their
    (G, rn, Q, 3, m_B) batch indices ``batch_idx`` and each trial's
    compression operators ``comp``.

    The devices of all G trials run their local steps as one stack.  Returns
    the (G, Q, rn, d) offsets of their local iterates from their task
    vectors, for the moment probe, and what ``_air_uplink`` returns.  Values
    that leave the float range raise no warning: they abort their trial, or
    are not used.
    """
    g, rn = active.shape
    rows = ks[:, None] * state.n + active  # the devices' rows of the state
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        deltas, iterates = meta.local_rounds(
            state.theta[np.repeat(ks, rn)], state.data,
            batch_idx.reshape((g * rn,) + batch_idx.shape[2:]).swapaxes(0, 1), alpha_t, eta_t,
            devices=rows.reshape(-1))
        offsets = iterates.reshape(cfg.local_steps, g, rn, cfg.dim) - state.ws[rows]
        out = _air_uplink(cfg, state, ks, rows, deltas.reshape(g, rn, cfg.dim), gains, noise,
                          comp, noise_var, eta_t)
    return (offsets.swapaxes(0, 1),) + out


def _air_uplink(cfg: ExperimentConfig, state: _State, ks: np.ndarray, rows: np.ndarray,
                deltas: np.ndarray, gains: np.ndarray, noise: np.ndarray, comp: tuple,
                noise_var: float, eta_t: float):
    """Error-feedback sparsification, power scaling, phase pre-compensation and
    compression, MAC superposition, estimation and the server update of the
    G trials ``ks``, each on the (rn, d) stack ``deltas[i]`` of its devices,
    whose rows of the state are ``rows[i]``, that transmit over the
    coefficients ``gains[i]`` with the noise block ``noise[i]``, compressed
    by its operators ``comp`` (``ch.compression_block``).

    A trial sends nothing when its model differences or its update energy
    leave the float range: it gets a NaN iterate and keeps its memories.
    Returns each trial's next iterate (G, d), the (G,) mask of the trials
    that sent, and for those, in order, their ``ROUND_DTYPE`` fields by name
    and their realized identity vectors (``_RECON_KEYS``, G', d).  Commits
    the new error-feedback memories of the trials that sent.
    """
    g = len(ks)
    mu_abs, abs_power = ch.fading_moments(cfg.fading)
    policy = sparsify.PowerPolicy(
        power=cfg.power_per_use, channel_uses=cfg.channel_uses, rho_max=cfg.rho_max,
    )
    finite = np.isfinite(deltas).all(axis=(1, 2))
    updates, mem_next = sparsify.memory_fold(state.memories[rows], deltas, cfg.sparsify_k)
    rho = sparsify.power_scale(
        updates if finite.all() else np.where(finite[:, None, None], updates, 0.0), eta_t, policy)
    sent = finite & np.isfinite(rho) & (rho > 0)
    if not sent.any():
        return np.full((g, cfg.dim), np.nan), sent, {}, np.empty((len(_RECON_KEYS), 0, cfg.dim))
    if not sent.all():
        ks, rows, deltas, updates, mem_next, rho, gains, noise = (
            a[sent] for a in (ks, rows, deltas, updates, mem_next, rho, gains, noise))
        comp = tuple(c[sent] for c in comp)

    signals = ch.compress(comp[0], sparsify.phase_precompensate(updates, rho, eta_t, gains))
    block_power = (signals.conj()[..., None, :] @ signals[..., :, None])[..., 0, 0].real
    margins = block_power / cfg.channel_uses - cfg.power_per_use
    g_sq = sparsify.energies(updates)

    y = ch.transmit_mac(signals, gains, noise)
    total_g_sq = g_sq.sum(axis=-1)
    eta_sq = sparsify.rate_sq(eta_t)
    abs_h = np.abs(gains)[..., None]
    prior_power = abs_power * rho * total_g_sq / (eta_sq * cfg.dim)
    signal_true = (np.sqrt(rho) / eta_t)[:, None] * (abs_h * updates).sum(axis=-2)
    silent = total_g_sq <= 0.0
    if silent.any():  # a trial without update energy has no prior power and no signal
        prior_power[silent] = 0.0
        signal_true[silent] = 0.0
    est = ch.estimate_stack(y, *comp, prior_power, noise_var, cfg.estimator)
    noise_term = est.x_hat - signal_true
    fading_dev = ((abs_h / mu_abs - 1.0) * updates).sum(axis=-2)
    theta_next = ch.global_update(state.theta[ks], est, eta_t, rho, mu_abs, cfg.n_active)

    state.memories[rows] = mem_next
    memories = state.memories.reshape(-1, state.n, cfg.dim)[ks]

    n_sent = gains.shape[1]
    fields = dict(
        rho=rho, v_model=est.err_var,
        v=(noise_term[:, None, :] @ noise_term[:, :, None])[:, 0, 0] / cfg.dim,
        min_g_sq_over_eta_sq=(g_sq.min(axis=-1) / eta_sq if n_sent and eta_sq > 0
                              else np.full(len(ks), np.nan)),
        mem_norm_sq_max=(memories**2).sum(axis=-1).max(axis=-1),
        power_margin=margins.max(axis=-1) if n_sent else np.zeros(len(ks)),
        pinv_fallback=est.pinv_fallback, sum_abs_h_sq=(np.abs(gains) ** 2).sum(axis=-1))
    vectors = np.stack([deltas.sum(axis=-2), noise_term, fading_dev, memories.sum(axis=-2)])
    if len(ks) < g:  # the trials that sent nothing take NaN iterates
        theta_all = np.full((g, cfg.dim), np.nan)
        theta_all[sent] = theta_next
        theta_next = theta_all
    return theta_next, sent, fields, vectors


def replay_experiment(cfg: ExperimentConfig, replay: list) -> Trajectory:
    """Re-run using the recorded channel draws; must match bit for bit."""
    return run_experiment(cfg, channel_replay=replay)


def memory_identity_residuals(traj: Trajectory) -> np.ndarray:
    """Per-round residual of the error-feedback bookkeeping identity, over
    the rounds that have a next iterate.

    Maintains the noise-free virtual iterate from the recorded realized
    terms; the gap to the true iterate must equal the device-averaged
    memories, so the residual is numerical noise when the implementation is
    faithful.
    """
    cfg = traj.config
    rn = cfg.n_active
    mu_abs, _ = ch.fading_moments(cfg.fading)
    recon = traj.recon
    n = len(recon["sum_delta"])
    records = traj.records[:n]
    scale = records["eta"] / (mu_abs * rn * np.sqrt(records["rho"]))
    # theta_hat_{t+1} = ((theta_hat_t - a_t) - b_t) - c_t, subtracted in that order
    terms = np.stack([recon["sum_delta"] / rn, scale[:, None] * recon["noise_term"],
                      recon["fading_dev"] / rn], axis=1).reshape(-1, cfg.dim)
    theta_hat = np.subtract.accumulate(np.concatenate([traj.thetas[:1], terms]))[3::3]
    gap = traj.thetas[1:n + 1] - theta_hat
    return np.array([float(np.linalg.norm(row)) for row in gap - recon["mem_sum"] / rn])
