import pytest

from airmeta.protocol import ExperimentConfig
from airmeta.sweeps import run_trials, trial_configs


def master_seed(cfg):
    """A pool task that reports which config it was given."""
    return cfg.master_seed


def test_trial_configs_pin_the_trial_seeds():
    """Trial seeds are part of every multi-trial run's and sweep's output, so
    the derivation is pinned; the trials differ only in their master seed."""
    base = ExperimentConfig(master_seed=11, rounds=7)
    trials = trial_configs(base, 3)
    assert [cfg.master_seed for cfg in trials] == [
        6181084373365849592, 1534463101056052680, 6430986735720994553]
    assert all(cfg == base.replace(master_seed=cfg.master_seed) for cfg in trials)
    assert trial_configs(base, 0) == []


@pytest.mark.parametrize("threads", [1, 2])
def test_run_trials_yields_in_config_order(threads):
    configs = trial_configs(ExperimentConfig(master_seed=3), 5)
    assert list(run_trials(master_seed, configs, threads)) == [c.master_seed for c in configs]


def test_serial_trials_run_when_asked_for():
    calls = []
    results = run_trials(calls.append, trial_configs(ExperimentConfig(), 3))
    next(results)
    assert len(calls) == 1
