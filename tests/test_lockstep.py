"""K trials of one setup run in lockstep as one stack (``protocol.run_stack``).

Each trial of a stack must be, bit for bit, its own one-row run: iterates,
every record field (NaNs included), the replay log, the memory-identity
vectors, the moment probe, the memories and the abort round.  That holds
for trials that abort at different rounds, for zero gains on the edges of
blocks of any size, and for noiseless stacks in which only some trials
fall back to the pseudo-inverse in a round.
"""
import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from airmeta import protocol
from airmeta.protocol import ExperimentConfig, replay_experiment, run_experiment, run_stack
from airmeta.sweeps import trial_configs

from test_protocol import small_configs


def config(**overrides):
    base = dict(rounds=70, n_devices=5, active_fraction=0.6, dim=6, local_steps=2,
                batch_size=4, samples_per_device=30, train_samples=15, eta=0.05, alpha=0.3,
                sparsify_k=2, channel_uses=4, snr_db=10.0, master_seed=21)
    return ExperimentConfig(**(base | overrides))


def trial_fields(traj):
    """Every number of one run that its row of a stack must reproduce."""
    recon = {key: vecs.tobytes() for key, vecs in traj.recon.items()}
    return (traj.thetas.tobytes(), traj.records.tobytes(), traj.replay.tobytes(), recon,
            repr(sorted(traj.probe.items())), traj.memories.tobytes(), traj.aborted_at,
            repr((traj.f_init, traj.f_star)), traj.device_ws.tobytes(),
            traj.datasets.x.tobytes(), traj.datasets.y.tobytes())


def test_trial_fields_see_every_record_field():
    """A change to any one field of one round's record, or to one entry of
    one round's channel draws, changes trial_fields."""
    traj = run_experiment(config(rounds=10))
    for field in protocol.ROUND_DTYPE.names:
        records = traj.records.copy()
        column = records[field]
        column[5] = ~column[5] if column.dtype == bool else column[5] + 1
        assert trial_fields(dataclasses.replace(traj, records=records)) != trial_fields(traj), \
            field
    for field in traj.replay.dtype.names:
        replay = traj.replay.copy()
        replay[field][5, 1] += 1
        assert trial_fields(dataclasses.replace(traj, replay=replay)) != trial_fields(traj), \
            field


def assert_lockstep(configs, replays=None):
    """Run ``configs`` as one stack and one at a time; return the stack."""
    with np.errstate(all="ignore"):
        stack = run_stack(configs, replays)
        ones = [run_experiment(c) if replays is None else replay_experiment(c, log)
                for c, log in zip(configs, replays or [None] * len(configs))]
    assert [trial_fields(t) for t in stack] == [trial_fields(t) for t in ones]
    return stack


@settings(max_examples=60, deadline=None, derandomize=True)
@given(small_configs(), st.sampled_from([1, 2, 5]), st.sampled_from([1, 5, 64]))
def test_each_trial_of_a_stack_is_its_own_run(cfg, k, block):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(protocol, "_BLOCK_ROUNDS", block)
        assert_lockstep(trial_configs(cfg, k))


@pytest.mark.parametrize("block", [1, 5, 64])
def test_trials_abort_at_their_own_rounds(block, monkeypatch):
    """Two trials complete and three abort, at rounds 63 and 66: on either
    side of the edge of a block of 64, and inside blocks of 5."""
    monkeypatch.setattr(protocol, "_BLOCK_ROUNDS", block)
    stack = assert_lockstep(trial_configs(config(eta=8.0, theta_init=1e50), 5))
    assert [t.aborted_at for t in stack] == [None, 66, 66, 63, None]


def with_zero_gains(cfg, zeros):
    """The run's own replay log with gain i of round t set to 0 for each
    (t, i) of ``zeros``."""
    log = run_experiment(cfg).replay
    for t, i in zeros:
        log["gains"][t, i] = 0.0
    return log


@pytest.mark.parametrize("block", [1, 5, 64])
def test_zero_gains_on_block_edges(block, monkeypatch):
    """Each trial drops devices in rounds of its own, on the edges of blocks
    of 1, 5 and 64 rounds; in round 9 trial 1 drops every device, and one
    trial drops none."""
    monkeypatch.setattr(protocol, "_BLOCK_ROUNDS", block)
    configs = trial_configs(config(), 4)
    zeros = [[(0, 0), (4, 1), (5, 0), (63, 2), (64, 0)],
             [(4, 0), (9, 0), (9, 1), (9, 2), (69, 1)],
             [],
             [(5, 2), (63, 0), (63, 1), (64, 2)]]
    logs = [with_zero_gains(c, z) for c, z in zip(configs, zeros)]
    silent = assert_lockstep(configs, logs)[1].records[9]
    assert (silent["sum_abs_h_sq"], silent["rho"]) == (0.0, config().rho_max)


def test_noiseless_stack_with_some_pinv_rounds():
    """At zero noise a round whose DFT rows leave the real system rank
    deficient falls back to the pseudo-inverse; in the same round another
    trial's rows may not."""
    stack = assert_lockstep(trial_configs(
        config(dim=8, channel_uses=3, snr_db=None, noise_var=0.0), 5))
    flags = np.array([t.records["pinv_fallback"] for t in stack])
    assert np.any(flags.min(axis=0) != flags.max(axis=0))


@pytest.mark.parametrize("change", [dict(eta=0.06), dict(rounds=69), dict(snr_db=11.0)])
def test_a_stack_differs_only_in_master_seed(change):
    configs = trial_configs(config(), 3)
    configs[1] = configs[1].replace(**change)
    with pytest.raises(ValueError, match="master_seed"):
        run_stack(configs)


def test_a_stack_needs_a_whole_replay_log_per_trial():
    configs = trial_configs(config(rounds=8), 2)
    logs = [run_experiment(c).replay for c in configs]
    with pytest.raises(ValueError, match="replay log"):
        run_stack(configs, logs[:1])
    with pytest.raises(ValueError, match="replay log"):
        run_stack(configs, [logs[0], logs[1][:7]])
