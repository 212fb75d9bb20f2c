"""A run draws the iterate-free inputs of its rounds before the first one,
draws the local batches of a block of rounds together, and evaluates the
block's records together; none of this may move a number.

The block size is a constant of ``protocol``.  Runs with blocks of 1, 5 and
64 rounds, and of more rounds than the run has, must equal the shipped size
(320) bit for bit, on a constant and an adaptive schedule and on a run that
aborts inside a block,
and every record field and identity vector must equal its one-round
computation (``oracles.rounds_of``), also in a stack whose trials abort at
different rounds; the oracle cases also take the matched estimate and the
noiseless pseudo-inverse fallback.  A replay log whose active sets differ
from the drawn ones, or that holds a zero gain, is rejected before any round
runs, and every valid config's rates are >= 0.  A run seeds its active-set,
compression and channel streams in one pass before its first round, and
each block its batch streams in one more.  A numpy on which the replicas
fail their self-check must give the same runs.  A 5-trial stack of the
sweep base stays under a fixed memory peak.
"""
import dataclasses
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from airmeta import meta, metrics, protocol, rng, tasks
from airmeta.protocol import ExperimentConfig, run_experiment
from airmeta.sweeps import trial_configs

import oracles

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def config(**overrides):
    base = dict(rounds=70, n_devices=5, active_fraction=0.6, dim=6, local_steps=2,
                batch_size=4, samples_per_device=30, train_samples=15, eta=0.05, alpha=0.3,
                sparsify_k=2, channel_uses=4, snr_db=10.0, master_seed=21)
    return ExperimentConfig(**(base | overrides))


def run_fields(traj):
    """Every number a run produces, as bytes."""
    return (traj.thetas.tobytes(), traj.records.tobytes(), traj.memories.tobytes(),
            sorted(traj.probe.items()), traj.replay.tobytes(), traj.aborted_at)


CASES = {
    "constant": lambda: run_experiment(config()),
    "adaptive": lambda: run_experiment(config(lr_schedule="adaptive", eta_scale=0.5,
                                              alpha_scale=20.0)),
    "abort": lambda: run_experiment(config(eta=30.0, theta_init=1e100)),
}


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("block", [1, 5, 64, 100])
def test_block_size_moves_nothing(case, block, monkeypatch):
    """Blocks of 1, 5, 64 and 100 rounds against the shipped size (320, so
    the 70-round runs here are one block); the abort falls inside a block."""
    with np.errstate(all="ignore"):
        want = run_fields(CASES[case]())
        monkeypatch.setattr(protocol, "_BLOCK_ROUNDS", block)
        got = run_fields(CASES[case]())
    assert got == want
    if case == "abort":
        assert want[-1] == 19  # inside a block of 5, of 64 and of 320


def test_run_fields_see_every_record_field():
    """A change to any one field of one round's record, or to one entry of
    one round's channel draws, changes run_fields."""
    traj = CASES["constant"]()
    for field in protocol.ROUND_DTYPE.names:
        records = traj.records.copy()
        column = records[field]
        column[5] = ~column[5] if column.dtype == bool else column[5] + 1
        assert run_fields(dataclasses.replace(traj, records=records)) != run_fields(traj), field
    for field in traj.replay.dtype.names:
        replay = traj.replay.copy()
        replay[field][5, 1] += 1
        assert run_fields(dataclasses.replace(traj, replay=replay)) != run_fields(traj), field


@pytest.mark.parametrize("case", sorted(CASES))
def test_records_equal_their_per_round_values(case):
    """Each round's training loss and squared meta-gradient at its own
    iterate, and its sum of |h|^2 over its devices, each |h| the hypot of
    its parts, the modulus its phase is formed with."""
    with np.errstate(all="ignore"):
        traj = CASES[case]()
        curvature = tasks.meta_curvature(traj.config.env(), traj.metric_alpha)
        for t, rec in enumerate(traj.records):
            theta = traj.thetas[t]
            g = tasks.mean_meta_grad(theta, traj.device_ws, curvature)
            assert rec["grad_norm_sq"] == float(g @ g)
            gains = traj.replay["gains"][t]
            if np.isnan(rec["rho"]):  # the round aborted before its update
                assert np.isnan(rec["train_loss"]) and np.isnan(rec["sum_abs_h_sq"])
                continue
            assert rec["train_loss"] == metrics.meta_training_loss(theta, traj.datasets,
                                                                   traj.metric_alpha)
            assert rec["sum_abs_h_sq"] == float(np.sum(np.hypot(gains.real, gains.imag) ** 2))


def stack_with_a_mid_block_abort():
    """Three trials, of which the middle one aborts at round 66, inside the
    stack's block of rounds 63-69; the others complete."""
    configs = trial_configs(config(eta=8.0, theta_init=1e50), 5)
    with np.errstate(all="ignore"):
        stack = protocol.run_stack([configs[0], configs[1], configs[4]])
    assert [t.aborted_at for t in stack] == [None, 66, None]
    return stack


# the cases above, and one for each branch of the uplink stages they miss:
# the matched estimate on the full DFT with top-k keeping every entry over
# unit gains, and the noiseless estimate of a rank-deficient system (2M > d),
# which falls back to the pseudo-inverse
ORACLE_CASES = CASES | {
    "matched": lambda: run_experiment(config(channel_uses=6, sparsify_k=6, fading="unit",
                                             estimator="matched")),
    "noiseless": lambda: run_experiment(config(noise_var=0.0)),
}


@pytest.mark.parametrize("case", sorted(ORACLE_CASES) + ["stack"])
def test_every_round_equals_the_literal_round_oracle(case):
    """Every record field and identity vector of every round, and every
    iterate, bit for bit what ``oracles.rounds_of`` computes one round at a
    time, each stage written out a device at a time."""
    with np.errstate(all="ignore"):
        trajs = stack_with_a_mid_block_abort() if case == "stack" else [ORACLE_CASES[case]()]
        if case == "noiseless":
            assert trajs[0].records["pinv_fallback"].all()
        for traj in trajs:
            thetas, records, recon = oracles.rounds_of(traj)
            assert thetas.tobytes() == traj.thetas.tobytes()
            assert len(records) == len(traj.records)
            for name in protocol.ROUND_DTYPE.names:
                assert records[name].tobytes() == traj.records[name].tobytes(), name
            for key in protocol._RECON_KEYS:
                assert recon[key].tobytes() == traj.recon[key].tobytes(), key


@pytest.mark.parametrize("fault", ["a zero or non-finite gain", "an active set mismatch"])
def test_a_bad_replay_log_runs_no_local_step_kernel(fault, monkeypatch):
    """In a 2-trial stack whose trial 1 logs a zero gain, or its round-66
    devices in reverse, the stack names that trial and round before any
    local step (``meta.local_rounds``) runs."""
    configs = trial_configs(config(), 2)
    logs = [traj.replay for traj in protocol.run_stack(configs)]
    if "gain" in fault:
        logs[1]["gains"][66, 1] = 0.0
    else:
        logs[1]["active"][66] = logs[1]["active"][66][::-1].copy()
    calls = []
    local_rounds = meta.local_rounds
    monkeypatch.setattr(meta, "local_rounds",
                        lambda *args, **kw: calls.append(1) or local_rounds(*args, **kw))
    with pytest.raises(ValueError, match=rf"^replay log of trial 1 has {fault} at round 66$"):
        protocol.run_stack(configs, logs)
    assert calls == []


# a rate field of a valid config: any finite float >= 0, -0.0 included
RATES = st.one_of(st.sampled_from([-0.0, 0.0, 5e-324, 1e308]),
                  st.floats(min_value=0.0, allow_infinity=False))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.sampled_from(protocol.SCHEDULES), RATES, RATES, RATES, RATES,
       st.floats(min_value=1.0, exclude_min=True, allow_infinity=False),
       st.floats(min_value=1.0, exclude_min=True, allow_infinity=False),
       st.floats(min_value=5e-324, allow_infinity=False))
def test_every_valid_config_has_nonnegative_rates(schedule, eta, alpha, eta_scale, alpha_scale,
                                                  eta_offset, alpha_offset, input_cov_scale):
    """A round's stages assume rates >= 0, and ``validate`` establishes it:
    on either schedule, every round's rates of a config that validates are
    >= 0, so a run checks no rate."""
    cfg = config(lr_schedule=schedule, eta=eta, alpha=alpha, eta_scale=eta_scale,
                 alpha_scale=alpha_scale, eta_offset=eta_offset, alpha_offset=alpha_offset,
                 input_cov_scale=input_cov_scale, rounds=400)
    cfg.validate()
    rates = np.array([protocol.lr_schedule(cfg, t) for t in range(cfg.rounds)])
    assert (rates >= 0).all()


def test_one_seeding_pass_per_run_and_per_block(monkeypatch):
    """A 3-trial stack in blocks of one round (5 // 3) seeds the active-set,
    compression and channel streams of every trial and round with one
    ``rng.seeded_states`` call, and each block's batch streams with one."""
    configs = trial_configs(config(), 3)
    assert rng.replicas_hold()  # its own probe seeding happens once, not here
    calls = []
    seeded_states = rng.seeded_states
    monkeypatch.setattr(rng, "seeded_states",
                        lambda *args: calls.append(1) or seeded_states(*args))
    monkeypatch.setattr(protocol, "_BLOCK_ROUNDS", 5)
    protocol.run_stack(configs)
    assert len(calls) == 1 + configs[0].rounds


def test_sweep_stack_memory_is_bounded():
    """A 5-trial stack of the sweep base, in blocks of 64 rounds, allocates
    at most 24 MB at its peak: the batch replay runs in row chunks
    (``rng._REPLAY_DRAWS``), and a finished block's arrays are released
    before the next block is drawn.  It peaks at 12 MB.  With the finished
    block kept alive it peaks at 15 MB, with the replay in one piece as well
    at 28 MB, and as one block of the whole run at 62 MB."""
    base = ExperimentConfig.from_dict(json.loads((CONFIGS / "sweep_snr.json").read_text())["base"])
    configs = trial_configs(base, 5)
    assert protocol._BLOCK_ROUNDS // len(configs) == 64
    tracemalloc.start()
    try:
        protocol.run_stack(configs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 24e6, peak


def test_generalization_run_seeds_only_its_devices(monkeypatch):
    """With the round streams block-drawn, a run of the shipped
    generalization config makes a substream only for each device's task and
    data, unless a key takes the literal fallback (none does here)."""
    cfg = ExperimentConfig.from_dict(json.loads((CONFIGS / "generalization.json").read_text()))
    assert rng.replicas_hold()  # its own probe draws happen once, not here
    calls = []
    substream = rng.substream
    monkeypatch.setattr(rng, "substream", lambda *key: calls.append(key) or substream(*key))
    traj = run_experiment(cfg)
    assert len(traj.records) == cfg.rounds
    assert sorted(key[1] for key in calls) == \
        [rng.DEVICE_TASK] * cfg.n_devices + [rng.DEVICE_DATA] * cfg.n_devices


class TestSelfCheck:
    @pytest.fixture
    def fresh_check(self):
        rng.replicas_hold.cache_clear()
        yield
        rng.replicas_hold.cache_clear()

    def test_replicas_hold_on_this_numpy(self, fresh_check):
        assert rng.replicas_hold()

    @pytest.mark.parametrize("fault", ["seeding", "choice"])
    def test_a_failed_check_draws_everything_through_numpy(self, fault, monkeypatch,
                                                           fresh_check):
        """A replica that disagrees with numpy on the probe is never used:
        every stream of the run is drawn literally, and the run is the same."""
        want = run_fields(run_experiment(config()))
        if fault == "seeding":
            monkeypatch.setattr(rng, "_PCG64_MULT", rng._PCG64_MULT + 2)
        else:
            replay_choice = rng._replay_choice

            def reversed_replay(*args):
                idx, void = replay_choice(*args)
                return idx[..., ::-1], void

            monkeypatch.setattr(rng, "_replay_choice", reversed_replay)
        rng.replicas_hold.cache_clear()
        assert not rng.replicas_hold()
        assert run_fields(run_experiment(config())) == want
