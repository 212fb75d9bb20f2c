"""Run-level oracle for the local mini-batches of a run.

Device i of round t draws its batches from the substream (master_seed,
LOCAL_BATCH, t, i).  Each round's local update is recomputed here one
device at a time, from the run's own iterate of that round, with the
literal ``gen.choice`` draws on that substream (``oracles.local_rounds``).
The sum of those model differences must equal, bit for bit, the sum the
run handed to its uplink (``recon``), on every round: a run of 70 rounds is
one block of the shipped size (320 rounds), and crosses one block edge in
blocks of 64.
"""
import functools
import math

import numpy as np
import pytest

from airmeta import protocol, rng
from airmeta.protocol import ExperimentConfig, lr_schedule, replay_experiment, run_experiment
from airmeta.tasks import Dataset

import oracles


def config(**overrides):
    base = dict(rounds=70, n_devices=4, active_fraction=1.0, dim=6, local_steps=2,
                batch_size=4, samples_per_device=40, train_samples=20, eta=0.5, alpha=0.3,
                sparsify_k=2, channel_uses=4, snr_db=10.0, master_seed=11)
    return ExperimentConfig(**(base | overrides))


def literal_sum_deltas(traj, t):
    """Device sum of round t's model differences, one device at a time from
    the run's iterate."""
    cfg = traj.config
    eta_t, alpha_t = lr_schedule(cfg, t)
    deltas = []
    for i in traj.replay["active"][t]:
        ds = Dataset(x=traj.datasets.x[i], y=traj.datasets.y[i], m_tr=cfg.train_samples,
                     m_va=cfg.val_samples)
        gen = rng.substream(cfg.master_seed, rng.LOCAL_BATCH, t, int(i))
        deltas.append(oracles.local_rounds(traj.thetas[t], ds, alpha_t, eta_t, cfg.local_steps,
                                           cfg.batch_size, gen)[0])
    return np.sum(np.array(deltas).reshape(len(deltas), cfg.dim), axis=0)


def assert_rounds_match_literal(traj):
    assert len(traj.recon["sum_delta"]) == len(traj.thetas) - 1
    for t, sum_delta in enumerate(traj.recon["sum_delta"]):
        assert sum_delta.tobytes() == literal_sum_deltas(traj, t).tobytes(), t


@pytest.mark.parametrize("overrides", [{}, {"active_fraction": 0.5}],
                         ids=["full", "half-active"])
def test_every_round_matches_literal_draws(overrides):
    traj = run_experiment(config(**overrides))
    assert traj.aborted_at is None
    assert_rounds_match_literal(traj)


def test_rounds_across_a_block_edge_match_literal_draws(monkeypatch):
    """In blocks of 64 rounds, round 64 starts the second block."""
    monkeypatch.setattr(protocol, "_BLOCK_ROUNDS", 64)
    traj = run_experiment(config(active_fraction=0.5))
    assert traj.aborted_at is None
    assert_rounds_match_literal(traj)


@functools.cache
def own_log():
    return run_experiment(config(active_fraction=0.5)).replay


@pytest.mark.parametrize("t_bad", [0, 63, 64, 69])
@pytest.mark.parametrize("gain", [0.0, complex(-0.0, 0.0), math.nan, complex(math.nan, 0.0),
                                  math.inf],
                         ids=["zero", "signed_zero", "nan", "complex_nan", "inf"])
def test_bad_gain_is_rejected_at_its_round(gain, t_bad):
    """Every scheduled device transmits, so a replay log with a gain that
    is zero or not finite, at round 0, on either side of round 64 or at the
    last round, is rejected before any round runs, naming the round; a NaN
    is not taken for a device that stays silent."""
    log = own_log().copy()
    log["gains"][t_bad, 0] = gain
    with pytest.raises(ValueError, match=fr"of trial 0 .* at round {t_bad}$"):
        replay_experiment(config(active_fraction=0.5), log)


def test_aborting_run_keeps_its_abort_round():
    """A far start with a large rate overflows in round 21, inside a block."""
    with np.errstate(all="ignore"):
        traj = run_experiment(config(active_fraction=0.5, eta=30.0, theta_init=1e100))
        assert traj.aborted_at == 21
        assert_rounds_match_literal(traj)
