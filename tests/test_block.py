"""A run draws the iterate-free inputs of a block of rounds together and
evaluates the block's records together; neither may move a number.

The block size is a constant of ``protocol``.  Runs with blocks of 1, 5 and
more rounds than the run has must equal the shipped size bit for bit, and
every record field must equal its one-iterate computation.  A numpy on
which the replicas fail their self-check must give the same runs.
"""
import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from airmeta import meta, metrics, protocol, rng, tasks
from airmeta.protocol import ExperimentConfig, replay_experiment, run_experiment

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def config(**overrides):
    base = dict(rounds=70, n_devices=5, active_fraction=0.6, dim=6, local_steps=2,
                batch_size=4, samples_per_device=30, train_samples=15, eta=0.05, alpha=0.3,
                sparsify_k=2, channel_uses=4, snr_db=10.0, master_seed=21)
    return ExperimentConfig(**(base | overrides))


def with_zero_gains(cfg, rounds):
    """The run's own replay log, with the first gain of ``rounds`` set to 0."""
    log = list(run_experiment(cfg).replay)
    for t in rounds:
        gains = log[t].gains.copy()
        gains[0] = 0.0
        log[t] = dataclasses.replace(log[t], gains=gains)
    return log


def run_fields(traj):
    """Every number a run produces, as bytes."""
    replay = [np.concatenate([d.active, d.gains.view(float), d.noise.view(float)])
              for d in traj.replay]
    return (traj.thetas.tobytes(), traj.records.tobytes(), traj.memories.tobytes(),
            sorted(traj.probe.items()), [r.tobytes() for r in replay], traj.aborted_at)


CASES = {
    "constant": lambda: run_experiment(config()),
    "adaptive": lambda: run_experiment(config(lr_schedule="adaptive", eta_scale=0.5,
                                              alpha_scale=20.0)),
    "abort": lambda: run_experiment(config(eta=30.0, theta_init=1e100)),
    "zero_gains": lambda: replay_experiment(
        config(), with_zero_gains(config(), [0, 4, 5, 9, 63, 64, 69])),
}


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("block", [1, 5, 100])
def test_block_size_moves_nothing(case, block, monkeypatch):
    """Blocks of 1, 5 and 100 rounds against the shipped size (64): the
    zero gains sit on edges of both, and the abort falls inside a block."""
    with np.errstate(all="ignore"):
        want = run_fields(CASES[case]())
        monkeypatch.setattr(protocol, "_BLOCK_ROUNDS", block)
        got = run_fields(CASES[case]())
    assert got == want
    if case == "abort":
        assert want[-1] == 19  # inside a block of 5 and of 64


def test_run_fields_see_every_record_field():
    """A change to any one field of one round's record changes run_fields."""
    traj = CASES["constant"]()
    for field in protocol.ROUND_DTYPE.names:
        records = traj.records.copy()
        column = records[field]
        column[5] = ~column[5] if column.dtype == bool else column[5] + 1
        assert run_fields(dataclasses.replace(traj, records=records)) != run_fields(traj), field


@pytest.mark.parametrize("case", sorted(CASES))
def test_records_equal_their_per_round_values(case):
    """Each round's training loss and squared meta-gradient at its own
    iterate, and its sum of |h|^2 over the devices that transmitted."""
    with np.errstate(all="ignore"):
        traj = CASES[case]()
        curvature = tasks.meta_curvature(traj.config.env(), traj.metric_alpha)
        for t, rec in enumerate(traj.records):
            theta = traj.thetas[t]
            g = tasks.mean_meta_grad(theta, traj.device_ws, curvature)
            assert rec["grad_norm_sq"] == float(g @ g)
            gains = traj.replay[t].gains
            if np.isnan(rec["rho"]):  # the round aborted before its update
                assert np.isnan(rec["train_loss"]) and np.isnan(rec["sum_abs_h_sq"])
                continue
            assert rec["train_loss"] == metrics.meta_training_loss(theta, traj.datasets,
                                                                   traj.metric_alpha)
            assert rec["sum_abs_h_sq"] == float(np.sum(np.abs(gains[np.abs(gains) > 0]) ** 2))


def test_generalization_run_seeds_only_its_devices(monkeypatch):
    """With the round streams block-drawn, a run of the shipped
    generalization config makes a substream only for each device's task and
    data, unless a key takes the literal fallback (none does here)."""
    cfg = ExperimentConfig.from_dict(json.loads((CONFIGS / "generalization.json").read_text()))
    assert meta.replicas_hold()  # its own probe draws happen once, not here
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
        meta.replicas_hold.cache_clear()
        yield
        meta.replicas_hold.cache_clear()

    def test_replicas_hold_on_this_numpy(self, fresh_check):
        assert meta.replicas_hold()

    @pytest.mark.parametrize("fault", ["seeding", "choice"])
    def test_a_failed_check_draws_everything_through_numpy(self, fault, monkeypatch,
                                                           fresh_check):
        """A replica that disagrees with numpy on the probe is never used:
        every stream of the run is drawn literally, and the run is the same."""
        want = run_fields(run_experiment(config()))
        if fault == "seeding":
            monkeypatch.setattr(rng, "_PCG64_MULT", rng._PCG64_MULT + 2)
        else:
            replay_choice = meta._replay_choice

            def reversed_replay(*args):
                idx, void = replay_choice(*args)
                return idx[..., ::-1], void

            monkeypatch.setattr(meta, "_replay_choice", reversed_replay)
        meta.replicas_hold.cache_clear()
        assert not meta.replicas_hold()
        assert run_fields(run_experiment(config())) == want
