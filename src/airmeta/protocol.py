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
import sys
from dataclasses import dataclass

import numpy as np

from . import channel as ch
from . import meta, metrics, rng, sparsify, tasks

SCHEDULES = ("constant", "adaptive")
# rounds whose local batches and compression operators are made, and whose
# records are evaluated, together (a run's other iterate-free draws are made
# once, before its first round): a one-trial run of either shipped config
# (200 or 300 rounds) is one block.  A stack of K trials takes
# _BLOCK_ROUNDS // K rounds (at least one) per block, which keeps a block's
# memory that of one trial's block; the largest part of it, the batch
# replay's temporaries, is bounded by row chunks (rng._REPLAY_DRAWS)
_BLOCK_ROUNDS = 320
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
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            # a JSON integer need fit no float, and every number field meets
            # float arithmetic; NaN fails the comparison
            if f.type.startswith(("float", "int")) and value is not None and not (
                    abs(value) <= sys.float_info.max):
                raise ValueError(f"{f.name} must be finite, got {value}")
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
        if min(self.eta, self.alpha, self.eta_scale, self.alpha_scale, self.noise_var or 0.0) < 0:
            raise ValueError("eta, alpha, eta_scale, alpha_scale and noise_var must be >= 0")
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
        if not isinstance(data, dict):
            raise TypeError("a config must be a JSON object")
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
    1/L_G, read from the input scale without building the task environment.
    """
    if cfg.lr_schedule == "constant":
        return float(cfg.eta), float(cfg.alpha)
    eta_t = cfg.eta_scale / (cfg.eta_offset + t)
    cap = 1.0 / tasks.smoothness_of(cfg.input_cov_scale)
    alpha_t = min(cfg.alpha_scale / (cfg.alpha_offset + t), cap)
    return float(eta_t), float(alpha_t)


def constant_rate_limit(q: int, l_f: float) -> float:
    """Largest constant outer rate admitted by the validity condition.

    Solves 160 x^3 + 60 x^2 + 4 x = 1/8 for x = eta*Q*L_F, whose positive
    root (sqrt(1.4) - 1)/8 is below 0.1, so eta <= 1/(10*Q*L_F) holds too.
    A tiny L_F gives inf: Python floats divide here, where numpy would warn.
    """
    roots = np.roots([160.0, 60.0, 4.0, -0.125])
    x = min(float(r.real) for r in roots if abs(r.imag) < 1e-12 and r.real > 0)
    return x / (q * float(l_f))


def meets_constant_rate(eta: float, q: int, l_f: float) -> bool:
    x = float(eta) * (q * float(l_f))
    # products of Python floats overflow to inf, where ``**`` would raise
    return 0 < eta and x * (4 + x * (60 + 160 * x)) <= 0.125 + 1e-12


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
    replay: np.ndarray                 # (rounds recorded,) of ch.replay_dtype
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
    each trial's evolving memories and moment probe, and the
    uplink's power policy, fading moments (E|h|, E|h|^2) and noise
    variance."""

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
        self.memories = np.zeros((len(configs) * self.n, cfg.dim))
        self.probes = [{"g_sq": 0.0, "sigma_g_sq": 0.0} for _ in configs]
        self.moment_forms = tasks.grad_moment_forms(self.env)
        self.policy = sparsify.PowerPolicy(power=cfg.power_per_use,
                                           channel_uses=cfg.channel_uses, rho_max=cfg.rho_max)
        self.fading = ch.fading_moments(cfg.fading)
        self.noise_var = cfg.effective_noise_var()

    def devices(self, k: int) -> slice:
        """The rows of trial k's devices."""
        return slice(k * self.n, (k + 1) * self.n)

    def update_probes(self, trials: np.ndarray, e: np.ndarray, alphas: np.ndarray):
        """Track analytic per-point gradient moments along the trajectories.

        Row r of ``e[i]`` (K', R, d) is the offset of a local iterate of
        trial ``trials[i]`` from its device's task vector, and ``alphas[r]``
        the inner rate of its round; NaN rows mark steps a trial did not
        run, and are skipped like any NaN moment.
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


def run_experiment(cfg: ExperimentConfig) -> Trajectory:
    """Run the configured number of rounds and record the trajectory.

    A round that cannot send, or that leaves a non-finite iterate, aborts
    the run and stamps the failing round.  The run is a stack of one trial
    (``run_stack``).
    """
    return run_stack([cfg])[0]


def run_stack(configs: list, channel_replays: list | None = None) -> list:
    """Run K trials in lockstep and return the Trajectory of each, bit for
    bit what ``run_experiment`` gives for it alone.

    The configs may differ only in their master seed.  Each round steps the
    devices of every running trial as one stack and sends every uplink as
    one stack of (K, n_active, ...) arrays.  ``channel_replays`` holds one
    replay log per trial; every scheduled device transmits, so a log with a
    gain whose modulus is zero or not finite, or with an active set other
    than the one its trial draws, raises ``ValueError`` naming the trial and
    the round before any round runs.

    Per run, before the first round: the rates, and every round's draws that do
    not depend on the iterates (``_round_draws``).  Per block, one fixed set of
    trials over consecutive rounds: its local batches (``_block_batches``) and
    compression operators.  A round computes only the block's chain of
    iterates: the local steps, the error-feedback fold and its memory
    commit, the power scaling and one call of each transmit stage, x_hat
    alone estimated.  No round checks anything.  After the block's last
    round, its buffers and chain give the first round t at which a trial
    could not send (non-finite model differences, or no finite rho > 0) or
    left a non-finite next iterate: that abort ends the block, before round
    t when a trial could not send, the others running round t again in the
    next block, and after round t otherwise.  The memories are restored to
    the last round the block keeps, and the rounds after t are dropped, so
    an aborting block computes all its rounds.  Trials leave the stack only
    at the end of a block.  The round a trial aborted at is stamped in
    ``aborted_at``; if it did not send, its records keep their preset
    values.  The stages check nothing; what they assume is checked per run
    (``validate``, the sampled gains), where a replay log enters, or by the
    block's abort search.  A block's iterates, and
    its records from the raw outputs of the rounds it sent (``_block_records``,
    the estimates' error model included), are written after its last round,
    the training loss and meta-gradient after the last block, into tables of
    the run by trial and round; each trial's outputs are its rows of them.
    """
    cfg = configs[0]
    if any(c.replace(master_seed=cfg.master_seed) != cfg for c in configs):
        raise ValueError("the trials of a stack may differ only in master_seed")
    warnings = cfg.validate()
    # a valid config's rates are all >= 0, as the local steps and the uplink
    # of a round assume
    rates = [lr_schedule(cfg, t) for t in range(cfg.rounds)]
    eta_sq = [sparsify.rate_sq(eta_t) for eta_t, _ in rates]
    replay, comp_rows = _round_draws(cfg, [c.master_seed for c in configs],
                                     channel_replays is None)
    if channel_replays is not None:
        # an empty log holds no draw that could disagree with the config
        if len(channel_replays) != len(configs) or any(
                len(log) < cfg.rounds or (len(log) and log.dtype != replay.dtype)
                for log in channel_replays):
            raise ValueError(f"need one replay log per trial, of dtype {replay.dtype} and "
                             "none shorter than the configured number of rounds")
        logs = np.zeros_like(replay)
        for k, log in enumerate(channel_replays):
            logs[k] = log[:cfg.rounds]
        # every scheduled device transmits, so each logged |h| must be finite
        # and nonzero; NaN fails both comparisons
        abs_h = np.abs(logs["gains"])
        for what, bad in (("a zero or non-finite gain", ~((abs_h > 0.0) & (abs_h < np.inf))),
                          ("an active set mismatch", logs["active"] != replay["active"])):
            at = np.argwhere(bad.any(axis=-1))
            if at.size:
                k, t = at[0].tolist()
                raise ValueError(f"replay log of trial {k} has {what} at round {t}")
        replay = logs
    state = _State(configs)
    metric_alpha = lr_schedule(cfg, 0)[1]
    curvature = tasks.meta_curvature(state.env, metric_alpha)

    n_trials, rn, q, d = len(configs), cfg.n_active, cfg.local_steps, cfg.dim
    mu_abs, abs_power = state.fading
    thetas = np.empty((n_trials, cfg.rounds + 1, d))
    thetas[:, 0] = cfg.theta_init
    trial_ws = [state.ws[state.devices(k)] for k in range(n_trials)]
    with np.errstate(over="ignore", invalid="ignore"):
        f_init = [tasks.mean_meta_loss(theta, ws, state.env, metric_alpha)
                  for theta, ws in zip(thetas[:, 0], trial_ws)]
    f_star = [tasks.meta_loss_minimum(ws, state.env, metric_alpha) for ws in trial_ws]
    # the records and identity vectors of every (trial, round), preset to an
    # aborted round's values
    table = np.zeros((n_trials, cfg.rounds), dtype=ROUND_DTYPE)
    table["round"] = np.arange(cfg.rounds)
    for name in ROUND_DTYPE.names[1:-1]:  # the float fields
        table[name] = np.nan
    table["eta"], table["alpha"] = np.reshape(rates, (-1, 2)).T
    recon = np.full((len(_RECON_KEYS), n_trials, cfg.rounds, d), np.nan)
    aborted_at = [None] * n_trials
    running = np.arange(n_trials)

    t0 = 0
    while t0 < cfg.rounds and running.size:
        trials = running
        n_rounds = min(max(1, _BLOCK_ROUNDS // len(trials)), cfg.rounds - t0)
        block = slice(t0, t0 + n_rounds)
        # release the previous block's arrays before this block's draws; not
        # at the end of a pass, which made one-block runs 1-2% slower
        batches = matrices = adjoints = modes = counts = None
        abs_h = phases = buffers = chain = iterates_of = block_rows = None
        active, gains, noise = (replay[name][trials, block]
                                for name in ("active", "gains", "noise"))
        batches = _block_batches(cfg, state, trials, t0, active)
        matrices, adjoints, modes, counts = ch.compression_block(d, comp_rows[trials, block])
        # one modulus per gain, for its phase and its records
        abs_h = np.hypot(gains.real, gains.imag)
        phases = sparsify.phase(gains, abs_h)
        buffers = _block_buffers(cfg, len(trials), n_rounds)
        # the block's iterate chain: row j is what round t0 + j starts from
        chain = np.empty((n_rounds + 1, len(trials), d))
        chain[0] = thetas[trials, t0]
        # the block's local iterates; NaN where a trial did not run
        iterates_of = np.empty((len(trials), n_rounds, q, rn, d))
        block_rows = trials[:, None, None] * state.n + active  # the devices' rows of the state
        starts = np.repeat(np.arange(len(trials)), rn)  # each device's trial in the block
        # the block's rounds run unchecked; an abort is found after the last
        # of them, and the memories the rounds after it commit are restored
        start_memories = state.memories.reshape(-1, state.n, d)[trials]
        # the devices of every trial step as one stack; values that leave
        # the float range raise no warning: they abort their trial, or are
        # not used
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            for j in range(n_rounds):
                t = t0 + j
                eta_t, alpha_t = rates[t]
                rows = block_rows[:, j]
                deltas, iterates = meta.local_rounds(
                    chain[j][starts], state.data,
                    batches[:, j].reshape((-1,) + batches.shape[3:]).swapaxes(0, 1), alpha_t,
                    eta_t, rows.reshape(-1))
                iterates_of[:, j] = iterates.reshape(q, len(trials), rn, d).swapaxes(0, 1)
                deltas = deltas.reshape(len(trials), rn, d)
                updates, state.memories[rows] = sparsify.memory_fold(state.memories[rows], deltas,
                                                                     cfg.sparsify_k)
                g_sq, live = sparsify.energies(updates), updates.any(axis=-1)
                rho = sparsify.power_scale(live, g_sq, eta_sq[t], state.policy)
                buffers["rho"][:, j], buffers["g_sq"][:, j] = rho, g_sq
                buffers["deltas"][:, j], buffers["updates"][:, j] = deltas, updates
                buffers["memories"][:, j] = state.memories.reshape(-1, state.n, d)[trials]
                signals = ch.compress(matrices[:, j], sparsify.phase_precompensate(
                    updates, live, rho, eta_t, phases[:, j]))
                buffers["signals"][:, j] = signals
                y = ch.transmit_mac(signals, gains[:, j], noise[:, j])
                total_g_sq = g_sq.sum(axis=-1)
                prior_power = abs_power * rho * total_g_sq / (eta_sq[t] * d)
                prior_power[total_g_sq <= 0.0] = 0.0  # a trial without update energy has none
                x_hat = ch.estimate_stack(y, adjoints[:, j], modes[:, j], prior_power,
                                          state.noise_var, cfg.estimator)
                buffers["prior_power"][:, j], buffers["x_hat"][:, j] = prior_power, x_hat
                chain[j + 1] = ch.global_update(chain[j], x_hat, eta_t, rho, mu_abs, rn)
            # the first round at which a trial cannot send (non-finite model
            # differences, or no finite rho > 0) ends the block before it
            # commits anything: the others run it again in the next block; a
            # trial whose next iterate is not finite ends it after that round
            unsent = ~(np.isfinite(buffers["deltas"]).all(axis=(2, 3)) & (buffers["rho"] > 0.0)
                       & (buffers["rho"] < np.inf))
            unfinite = ~np.isfinite(chain[1:]).all(axis=-1).T
            n_sent, stop = n_rounds, np.zeros(len(trials), dtype=bool)
            failed = np.flatnonzero((unsent | unfinite).any(axis=0))
            if failed.size:
                j = int(failed[0])
                n_sent, stop = (j, unsent[:, j]) if unsent[:, j].any() else (j + 1, unfinite[:, j])
                for k in trials[stop].tolist():
                    aborted_at[k] = t0 + j
                state.memories.reshape(-1, state.n, d)[trials] = (
                    buffers["memories"][:, n_sent - 1] if n_sent else start_memories)
                # no trial ran the rounds after the abort
                iterates_of[:, j + 1:] = np.nan
            sent = slice(t0, t0 + n_sent)
            thetas[trials, t0 + 1:t0 + n_sent + 1] = chain[1:n_sent + 1].swapaxes(0, 1)
            _block_records(cfg, state, trials, t0, rates[sent], eta_sq[sent], abs_h[:, :n_sent],
                           counts[:, :n_sent],
                           {name: b[:, :n_sent] for name, b in buffers.items()}, table, recon)
            # the offsets of the local iterates from their devices' task
            # vectors, in place; the rounds no trial ran are NaN, which it skips
            iterates_of -= state.ws[block_rows][:, :, None]
            state.update_probes(trials, iterates_of.reshape(len(trials), -1, d),
                                np.repeat(table["alpha"][0, block], q * rn))
        running = trials[~stop]
        t0 += n_sent
    comp_rows = None  # not held through the metric columns and the copies below

    # the meta-training loss and squared meta-gradient of every iterate of a
    # trial at once, each bit for bit its one-iterate value; a round that
    # sent nothing (rho not > 0) has no training loss
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n_trials):
            run = slice(0, cfg.rounds if aborted_at[k] is None else aborted_at[k] + 1)
            devices = state.devices(k)
            loss = metrics.meta_training_loss(thetas[k, run], state.data.devices(devices),
                                              metric_alpha)
            table["train_loss"][k, run] = np.where(table["rho"][k, run] > 0, loss, np.nan)
            g = tasks.mean_meta_grad(thetas[k, run], trial_ws[k], curvature)
            table["grad_norm_sq"][k, run] = (g[:, None, :] @ g[:, :, None])[:, 0, 0]

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
            replay=replay[k, :n_records].copy(),
            recon={key: vecs[k, :n_steps].copy() for key, vecs in zip(_RECON_KEYS, recon)},
            probe=state.probes[k],
            f_init=f_init[k],
            f_star=f_star[k],
            metric_alpha=metric_alpha,
            warnings=list(warnings),
            aborted_at=aborted_at[k],
        ))
    return trajectories


def _round_draws(cfg: ExperimentConfig, seeds: list, sampling: bool):
    """The draws of every round of the trials of master ``seeds`` that do
    not depend on the iterates, each what the round's own substream draws:
    the run's replay table (K, rounds) of ``ch.replay_dtype`` rows, with
    every active set (ACTIVE_SET) and, when ``sampling``, every channel
    (CHANNEL), and the compression rows (K, rounds, M) (COMPRESSION).

    One seeding pass gives every stream.  Active sets and compression rows
    are each ``np.sort(gen.choice(n, m, replace=False))``
    (``rng.stream_batches``); the channel's normals (``rng.stream_normals``)
    are made into every round's gains and noise at once
    (``ch.channel_draws``).  The sampled gains are checked nonzero once,
    since every scheduled device transmits."""
    n_trials, n_rounds = len(seeds), cfg.rounds
    rounds = np.tile(np.arange(n_rounds), n_trials)  # a trial's rounds, trial by trial
    tags = [rng.ACTIVE_SET, rng.COMPRESSION] + ([rng.CHANNEL] if sampling else [])
    keys = np.column_stack([np.repeat(tags, rounds.size), np.tile(rounds, len(tags))])
    key_seeds = np.tile(np.repeat(np.array(seeds, dtype=object), n_rounds), len(tags))
    # the master seeds, keys and seeded states of the rows, by tag
    key_seeds, keys, states = (a.reshape((len(tags), rounds.size) + a.shape[1:]) for a in
                               (key_seeds, keys, rng.seeded_states(key_seeds, keys)))
    replay = np.zeros((n_trials, n_rounds), dtype=ch.replay_dtype(cfg.n_active, cfg.channel_uses))
    replay["active"], comp_rows = (
        np.sort(rng.stream_batches(key_seeds[i], keys[i], states[i], (np.arange(n),), m, 1)
                ).reshape(n_trials, n_rounds, m)
        for i, (n, m) in enumerate([(cfg.n_devices, cfg.n_active), (cfg.dim, cfg.channel_uses)]))
    if sampling:
        z = rng.stream_normals(key_seeds[2], keys[2], states[2],
                               ch.channel_normals(cfg.n_active, cfg.fading, cfg.channel_uses))
        gains, noise = ch.channel_draws(z.reshape(n_trials, n_rounds, z.shape[1]), cfg.n_active,
                                        cfg.fading, cfg.effective_noise_var())
        if (gains == 0).any():
            raise ValueError("zero channel coefficient: it has no phase to pre-compensate")
        replay["gains"], replay["noise"] = gains, noise
    return replay, comp_rows


def _block_batches(cfg: ExperimentConfig, state: _State, trials: np.ndarray, t0: int,
                   active: np.ndarray) -> np.ndarray:
    """The local batch indices (K, rounds, n_active, Q, 3, m_B) of the
    consecutive rounds from t0 of each of the K ``trials``, whose active
    sets are ``active`` (K, rounds, n_active): what the LOCAL_BATCH
    substream of each active device in its round draws.

    One seeding pass gives every device stream, and
    ``rng.stream_batches`` the batches.  All Q steps are drawn up front; a
    substream serves one device in one round, so a device that stops early
    only leaves its later draws unused."""
    n_trials, n_rounds = active.shape[:2]
    keys = np.column_stack([np.full(active.size, rng.LOCAL_BATCH),
                            np.repeat(np.tile(np.arange(t0, t0 + n_rounds), n_trials),
                                      cfg.n_active),
                            active.reshape(-1)])
    seeds = np.repeat(np.array([state.seeds[k] for k in trials.tolist()], dtype=object),
                      n_rounds * cfg.n_active)
    batches = rng.stream_batches(seeds, keys, rng.seeded_states(seeds, keys), state.pools,
                                 cfg.batch_size, cfg.local_steps)
    return batches.reshape(active.shape + batches.shape[1:])


def _block_buffers(cfg: ExperimentConfig, n_trials: int, n_rounds: int) -> dict:
    """Buffers of a block's raw round outputs by (trial, round), by name:
    what ``_block_records`` reads.  Every trial of a block sends in each
    round the block records, so every cell read is written first."""
    rn, d, m_uses = cfg.n_active, cfg.dim, cfg.channel_uses
    shapes = dict(rho=(), prior_power=(), x_hat=(d,), updates=(rn, d), deltas=(rn, d),
                  signals=(rn, m_uses), g_sq=(rn,), memories=(cfg.n_devices, d))
    return {name: np.empty((n_trials, n_rounds) + shape,
                           dtype=complex if name == "signals" else float)
            for name, shape in shapes.items()}


def _block_records(cfg: ExperimentConfig, state: _State, trials: np.ndarray, t0: int,
                   rates: list, eta_sq: list, abs_h: np.ndarray, counts: np.ndarray,
                   buffers: dict, table: np.ndarray, recon: np.ndarray):
    """Write the records and identity vectors of the consecutive rounds from
    t0 that every one of the K ``trials`` sent, from their raw outputs
    ``buffers`` (``_block_buffers``, by (trial, round)), their rates and the
    squares ``eta_sq`` (``sparsify.rate_sq``), their gains' moduli ``abs_h``
    (K, rounds, rn) and their mode counts ``counts`` (K, rounds, 2)
    (``ch.compression_block``), into the run's ``table`` and ``recon``.

    Each field is computed for every cell at once, in its one-round form
    with a leading round axis (``v_model`` and ``pinv_fallback`` by
    ``ch.estimate_error``), so that a cell is bit for bit its one-round
    value; the rounds a trial did not send keep their presets.
    """
    cells = (trials[:, None], t0 + np.arange(len(rates)))
    eta = np.array([eta_t for eta_t, _ in rates])
    eta_sq = np.array(eta_sq)
    mu_abs, _ = state.fading
    updates, g_sq, signals = buffers["updates"], buffers["g_sq"], buffers["signals"]
    # the superposed payload the estimate targets; a trial without update
    # energy sends none
    signal_true = (np.sqrt(buffers["rho"]) / eta)[..., None] * (abs_h[..., None] * updates
                                                                ).sum(axis=-2)
    signal_true[g_sq.sum(axis=-1) <= 0.0] = 0.0
    noise_term = buffers["x_hat"] - signal_true
    block_power = (signals.conj()[..., None, :] @ signals[..., :, None])[..., 0, 0].real
    memories = buffers["memories"]
    v_model, pinv_fallback = ch.estimate_error(counts, buffers["prior_power"], state.noise_var,
                                               cfg.estimator, cfg.dim)
    fields = dict(
        rho=buffers["rho"], v_model=v_model, pinv_fallback=pinv_fallback,
        v=(noise_term[..., None, :] @ noise_term[..., :, None])[..., 0, 0] / cfg.dim,
        min_g_sq_over_eta_sq=np.where(eta_sq > 0, g_sq.min(axis=-1) / eta_sq, np.nan),
        mem_norm_sq_max=(memories**2).sum(axis=-1).max(axis=-1),
        power_margin=(block_power / cfg.channel_uses - cfg.power_per_use).max(axis=-1),
        sum_abs_h_sq=(abs_h**2).sum(axis=-1))
    for name, values in fields.items():
        table[name][cells] = values
    vectors = (buffers["deltas"].sum(axis=-2), noise_term,
               ((abs_h[..., None] / mu_abs - 1.0) * updates).sum(axis=-2), memories.sum(axis=-2))
    for vecs, values in zip(recon, vectors):
        vecs[cells] = values


def replay_experiment(cfg: ExperimentConfig, replay: np.ndarray) -> Trajectory:
    """Re-run using the recorded channel draws, a replay log
    (``ch.replay_dtype``) of a row per round at least; everything else still
    derives from the master seed, and the run must match bit for bit."""
    return run_stack([cfg], [replay])[0]


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
