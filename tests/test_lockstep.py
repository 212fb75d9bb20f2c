"""K trials of one setup run in lockstep as one stack (``protocol.run_stack``).

Each trial of a stack must be, bit for bit, its own one-row run: iterates,
every record field (NaNs included), the replay log, the memory-identity
vectors, the moment probe, the memories and the abort round.  That holds
for trials that abort at different rounds and for noiseless stacks in which
only some trials fall back to the pseudo-inverse in a round.  Every
scheduled device transmits, so a stack rejects a replay log with a zero or
non-finite gain, naming its trial and round, and any other gain leaves a
run that completes or stops with its abort round.
"""
import dataclasses
import functools
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from airmeta import channel, meta, protocol, rng, sparsify, storage
from airmeta.protocol import ExperimentConfig, replay_experiment, run_experiment, run_stack
from airmeta.sweeps import trial_configs

import oracles
from strategies import small_configs


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


@settings(max_examples=150, deadline=None, derandomize=True)
@given(small_configs(), st.sampled_from([1, 2, 3]), st.sampled_from([1, 3, 320]))
# an inner rate above 2 / s, so that an adapted offset outgrows its iterate's
@example(ExperimentConfig(dim=3, n_devices=2, samples_per_device=9, train_samples=3, rounds=6,
                          local_steps=2, batch_size=2, eta=0.01, alpha=2.5, sparsify_k=2,
                          channel_uses=3, master_seed=4), 2, 3)
def test_every_round_of_a_stack_equals_the_literal_round_oracle(cfg, k, block):
    """Every iterate, record field and identity vector of each trial of a
    stack of 1 to 3 trials of any valid config, in blocks of 1, 3 or 320
    rounds, bit for bit what ``oracles.rounds_of`` computes one round at a
    time, each stage written out a device at a time; its moment probe what
    ``oracles.probe_of`` computes from its iterates, to rounding."""
    with pytest.MonkeyPatch.context() as patch, np.errstate(all="ignore"):
        patch.setattr(protocol, "_BLOCK_ROUNDS", block)
        for traj in run_stack(trial_configs(cfg, k)):
            thetas, records, recon = oracles.rounds_of(traj)
            assert thetas.tobytes() == traj.thetas.tobytes()
            assert len(records) == len(traj.records)
            for name in protocol.ROUND_DTYPE.names:
                assert records[name].tobytes() == traj.records[name].tobytes(), name
            for key in protocol._RECON_KEYS:
                assert recon[key].tobytes() == traj.recon[key].tobytes(), key
            assert traj.probe == pytest.approx(oracles.probe_of(traj), rel=1e-13)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(small_configs(), st.sampled_from([1, 3]), st.sampled_from([1, 3, 320]))
def test_the_numpy_fallback_runs_the_stack_the_replicas_run(cfg, k, block):
    """With ``rng.replicas_hold`` patched off, every draw goes through
    numpy, and each trial of a stack of any valid config, aborted ones
    included, has every field of its run with the replicas."""
    with pytest.MonkeyPatch.context() as patch, np.errstate(all="ignore"):
        patch.setattr(protocol, "_BLOCK_ROUNDS", block)
        replicas = run_stack(trial_configs(cfg, k))
        patch.setattr(rng, "replicas_hold", lambda: False)
        fallback = run_stack(trial_configs(cfg, k))
    assert [trial_fields(t) for t in fallback] == [trial_fields(t) for t in replicas]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(small_configs(), st.sampled_from([1, 3]), st.sampled_from([1, 3, 320]))
def test_a_stack_replays_from_its_written_logs(cfg, k, block):
    """Each trial's ``replay_log.csv``, written and read back, replays its
    iterates bit for bit and stops at its abort round, a Python int: the
    trials that completed as one stack, each aborted one alone over the
    rounds its log holds."""
    with pytest.MonkeyPatch.context() as patch, np.errstate(all="ignore"), \
            tempfile.TemporaryDirectory() as tmp:
        patch.setattr(protocol, "_BLOCK_ROUNDS", block)
        stack = run_stack(trial_configs(cfg, k))
        logs = []
        for i, traj in enumerate(stack):
            path = Path(tmp) / f"replay_log_{i}.csv"
            storage.write_replay_csv(traj, path)
            logs.append(storage.read_replay_csv(path))
        done = [i for i, traj in enumerate(stack) if traj.aborted_at is None]
        again = dict(zip(done, run_stack([stack[i].config for i in done],
                                         [logs[i] for i in done]) if done else []))
        for i, traj in enumerate(stack):
            if traj.aborted_at is not None:
                again[i] = replay_experiment(traj.config.replace(rounds=len(logs[i])), logs[i])
    for i, traj in enumerate(stack):
        assert again[i].thetas.tobytes() == traj.thetas.tobytes()
        assert again[i].aborted_at == traj.aborted_at
        assert traj.aborted_at is None or type(traj.aborted_at) is int


@pytest.mark.parametrize("block", [1, 5, 64])
def test_trials_abort_at_their_own_rounds(block, monkeypatch):
    """Two trials complete and three abort, at rounds 63 and 66, under
    round budgets of 1, 5 and 64 (the shipped budget is 320): in blocks of
    one round, of one round that grow to two once three trials have left,
    and of 12 rounds, the last of them rounds 60-69."""
    monkeypatch.setattr(protocol, "_BLOCK_ROUNDS", block)
    stack = assert_lockstep(trial_configs(config(eta=8.0, theta_init=1e50), 5))
    assert [t.aborted_at for t in stack] == [None, 66, 66, 63, None]


def test_a_trial_that_cannot_send_aborts_alone(monkeypatch):
    """Trial 1 of a stack of 3 gets an infinite update entry at round 40, so
    it has no finite power scale: it aborts there, and the stack goes on.
    Up to round 39 it is its own 40-round run; its round-40 record keeps the
    preset values but the rates and the squared meta-gradient of the iterate
    the round started from.  The other trials are their own runs.

    The fault is keyed on the iterate trial 1 starts round 40 from, as
    ``faulty_stages`` keys its faults, not on a count of calls: the others
    run round 40 again in the next block."""
    configs = trial_configs(config(), 3)
    ones = [run_experiment(c) for c in configs]
    before = run_experiment(configs[1].replace(rounds=40))
    local_rounds, fold, faulty = meta.local_rounds, sparsify.memory_fold, []

    def marking_local_rounds(theta_start, *args):
        """The local steps; marks the devices that start from trial 1's
        round-40 iterate."""
        faulty.append((theta_start == ones[1].thetas[40]).all(axis=-1))
        return local_rounds(theta_start, *args)

    def overflowing_fold(memory, delta, k):
        """The fold, with an infinite first entry in the update of every
        device the round's local steps marked."""
        updates, memory_next = fold(memory, delta, k)
        updates[faulty[-1].reshape(updates.shape[:-1]), 0] = np.inf
        return updates, memory_next

    monkeypatch.setattr(meta, "local_rounds", marking_local_rounds)
    monkeypatch.setattr(sparsify, "memory_fold", overflowing_fold)
    stack = run_stack(configs)
    assert [t.aborted_at for t in stack] == [None, 40, None]
    assert [trial_fields(stack[k]) for k in (0, 2)] == [trial_fields(ones[k]) for k in (0, 2)]
    aborted = stack[1]
    assert aborted.thetas.tobytes() == before.thetas.tobytes()
    assert aborted.memories.tobytes() == before.memories.tobytes()
    assert aborted.records[:40].tobytes() == before.records.tobytes()
    assert aborted.replay[:40].tobytes() == before.replay.tobytes()
    assert {key: vecs.tobytes() for key, vecs in aborted.recon.items()} == \
        {key: vecs.tobytes() for key, vecs in before.recon.items()}
    last = aborted.records[40]
    assert (last["round"], last["eta"], last["alpha"]) == (40, 0.05, 0.3)
    assert last["grad_norm_sq"] == ones[1].records["grad_norm_sq"][40]
    for name in set(protocol.ROUND_DTYPE.names[1:-1]) - {"eta", "alpha", "grad_norm_sq"}:
        assert np.isnan(last[name]), name
    assert not last["pinv_fallback"]


def faulty_stages(faults):
    """``meta.local_rounds`` and ``channel.global_update`` with the faults
    ``(cause, theta)``, each keyed on the iterate theta a round starts from,
    not on a trial's place in a stack: for "send", the devices that start
    from theta report infinite model differences, so their trial cannot
    send; for "iterate", the server update from theta gives an infinite
    next iterate."""
    local_rounds, global_update = meta.local_rounds, channel.global_update

    def faulty_local_rounds(theta_start, *args):
        deltas, iterates = local_rounds(theta_start, *args)
        for cause, theta in faults:
            if cause == "send":
                deltas[(theta_start == theta).all(axis=-1)] = np.inf
        return deltas, iterates

    def faulty_global_update(theta_now, *args):
        theta_next = global_update(theta_now, *args)
        for cause, theta in faults:
            if cause == "iterate":
                theta_next[(theta_now == theta).all(axis=-1)] = np.inf
        return theta_next

    return faulty_local_rounds, faulty_global_update


@pytest.mark.parametrize("faults, blocks", [
    # both in round 33, inside the block of rounds 32-47: trial 1's abort
    # ends it before round 33 commits, trial 2's ends the one the others
    # run round 33 in again
    ({1: ("send", 33), 2: ("iterate", 33)},
     [(0, 4), (16, 4), (32, 4), (33, 3), (34, 2), (66, 2)]),
    # each on the last round of its block: trial 1's in round 31, of rounds
    # 16-31, and trial 2's in round 52, of rounds 32-52
    ({1: ("iterate", 31), 2: ("send", 52)}, [(0, 4), (16, 4), (32, 3), (52, 2)]),
], ids=["one round", "block ends"])
def test_aborts_end_their_block_and_the_others_go_on(faults, blocks, monkeypatch):
    """In a stack of 4 under a budget of 64 rounds a block, trials 1 and 2
    abort, one because it cannot send and one because its next iterate is
    not finite.  Each abort ends its block, whose first round and number
    of trials are pinned, and each trial is bit for bit its own run under
    the same faults: the aborted ones stop at their fault's round, as
    their fault's cause shows, and the others are their fault-free runs."""
    configs = trial_configs(config(), 4)
    clean = [run_experiment(c) for c in configs]
    stages = faulty_stages([(cause, clean[k].thetas[t]) for k, (cause, t) in faults.items()])
    monkeypatch.setattr(meta, "local_rounds", stages[0])
    monkeypatch.setattr(channel, "global_update", stages[1])
    monkeypatch.setattr(protocol, "_BLOCK_ROUNDS", 64)
    seen, block_batches = [], protocol._block_batches

    def recorded_block_batches(cfg, state, trials, t0, active):
        seen.append((t0, len(trials)))
        return block_batches(cfg, state, trials, t0, active)

    monkeypatch.setattr(protocol, "_block_batches", recorded_block_batches)
    stack = run_stack(configs)
    assert seen == blocks
    assert [trial_fields(t) for t in stack] == [trial_fields(run_experiment(c)) for c in configs]
    assert [t.aborted_at for t in stack] == [faults.get(k, (None, None))[1] for k in range(4)]
    for k, traj in enumerate(stack):
        if k not in faults:
            assert trial_fields(traj) == trial_fields(clean[k])
            continue
        cause, t = faults[k]
        assert traj.thetas.tobytes() == clean[k].thetas[:t + 1].tobytes()
        assert traj.records[:t].tobytes() == clean[k].records[:t].tobytes()
        # a trial that could not send keeps its preset rho at round t
        assert np.isnan(traj.records["rho"][t]) == (cause == "send")


@pytest.mark.parametrize("block", [1, 5, 64])
def test_zero_gains_on_block_edges(block, monkeypatch):
    """In a stack of 4 only trial 2's log has zero gains, on the edges of
    blocks of 1, 5 and 64 rounds; the stack names its first."""
    configs = trial_configs(config(), 4)
    logs = [traj.replay for traj in run_stack(configs)]
    monkeypatch.setattr(protocol, "_BLOCK_ROUNDS", block)
    for t, i in [(63, 2), (64, 0), (69, 1)]:
        logs[2]["gains"][t, i] = 0.0
    with pytest.raises(ValueError, match=r"of trial 2 .* at round 63$"):
        run_stack(configs, logs)


@functools.cache
def own_logs():
    """The replay logs of a 2-trial stack, and the iterates of its trials."""
    configs = trial_configs(config(rounds=8), 2)
    stack = run_stack(configs)
    return configs, [t.replay for t in stack], [t.thetas for t in stack]


SPECIAL_GAINS = [0.0, complex(-0.0, -0.0), math.nan, complex(math.nan, 0.0), math.inf,
                 complex(1.0, -math.inf)]


@settings(max_examples=30, deadline=None, derandomize=True)
@example(0, 3, 1, complex(1.7e308, -1.7e308))  # finite parts, but |h| overflows
@example(1, 7, 2, complex(5e-324, 0.0))  # subnormal
@given(st.integers(0, 1), st.integers(0, 7), st.integers(0, 2),
       st.one_of(st.sampled_from(SPECIAL_GAINS),
                 st.complex_numbers(max_magnitude=1e-308, allow_subnormal=True),
                 st.complex_numbers(allow_nan=False, allow_infinity=False)))
def test_any_gain_is_rejected_or_runs(k, t, i, gain):
    """One logged gain of a 2-trial stack replaced by any complex value: the
    stack rejects it, naming its trial and round, exactly when its modulus is
    zero or not finite; otherwise each trial completes or stops at its abort
    round, and the other trial is its own unchanged run."""
    configs, own, thetas = own_logs()
    logs = [log.copy() for log in own]
    logs[k]["gains"][t, i] = gain
    if not 0.0 < np.abs(np.complex128(gain)) < math.inf:
        with pytest.raises(ValueError, match=fr"of trial {k} .* at round {t}$"):
            run_stack(configs, logs)
        return
    with np.errstate(all="ignore"):
        stack = run_stack(configs, logs)
    for traj in stack:
        assert len(traj.thetas) == (9 if traj.aborted_at is None else traj.aborted_at + 1)
        assert np.isfinite(traj.thetas).all()
    assert stack[1 - k].thetas.tobytes() == thetas[1 - k].tobytes()


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
