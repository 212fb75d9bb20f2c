"""Run-level oracle for the local mini-batches of a run.

Device i of round t draws its batches from the substream (master_seed,
LOCAL_BATCH, t, i).  Each round's local update is recomputed here one
device at a time, from the run's own iterate of that round, with the
literal ``gen.choice`` draws on that substream (``oracles.local_rounds``).
The sum of those model differences must equal, bit for bit, the sum the
run handed to its uplink (``recon``), on every round: a run is drawn in
blocks of 64 rounds, and 70 rounds cross one block edge.
"""
import numpy as np
import pytest

from airmeta import rng
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
    the run's iterate, over the devices with a nonzero gain."""
    cfg = traj.config
    active, gains = traj.replay["active"][t], traj.replay["gains"][t]
    eta_t, alpha_t = lr_schedule(cfg, t)
    deltas = []
    for i in active[np.abs(gains) > 0.0]:
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


@pytest.mark.parametrize("t_zero", [0, 15, 16, 33, 63, 64, 69])
def test_zero_gain_device_drops_its_batches(t_zero):
    """A replayed round whose log has a zero gain runs without that device;
    the other devices keep their own streams."""
    cfg = config(active_fraction=0.5)
    log = run_experiment(cfg).replay
    log["gains"][t_zero, 0] = 0.0
    traj = replay_experiment(cfg, log)
    assert traj.aborted_at is None
    assert_rounds_match_literal(traj)


def test_aborting_run_keeps_its_abort_round():
    """A far start with a large rate overflows in round 21, inside a block."""
    with np.errstate(all="ignore"):
        traj = run_experiment(config(active_fraction=0.5, eta=30.0, theta_init=1e100))
        assert traj.aborted_at == 21
        assert_rounds_match_literal(traj)
