import pytest

from airmeta import metrics, report, verify
from airmeta.protocol import ExperimentConfig, run_experiment
from airmeta.sweeps import (PER_SEED, SweepSpec, _seed_summary, apply_axis, run_sweep,
                            run_trials, trial_configs)


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


def small_base(**overrides):
    base = dict(rounds=64, n_devices=5, active_fraction=0.6, dim=6, local_steps=2,
                batch_size=4, samples_per_device=30, train_samples=15, eta=0.05, alpha=0.3,
                sparsify_k=2, channel_uses=4, snr_db=10.0, master_seed=21)
    return ExperimentConfig(**(base | overrides))


def test_chunking_moves_no_number():
    """A point's 5 seeds run as 1, 2 or 3 lockstep chunks; every PointResult,
    per_seed included, is the one of the seeds run one at a time."""
    spec = SweepSpec(axis="snr_db", values=(0.0, 20.0), base=small_base(), seeds=5)
    results = {threads: repr(list(run_sweep(spec, threads))) for threads in (1, 2, 3)}
    assert results[2] == results[1] and results[3] == results[1]
    for point in run_sweep(spec, 1):
        one_by_one = [_seed_summary(run_experiment(c)) for c in trial_configs(
            apply_axis(spec.base, spec.axis, point.value), spec.seeds)]
        assert repr(point.per_seed) == repr({key: [s[key] for s in one_by_one]
                                             for key in PER_SEED})


def test_abort_in_a_later_chunk_names_its_trial():
    """Trial 3 of the second point aborts; at 2 threads it runs in the
    point's second chunk.  The first point is yielded, then the abort
    raises, naming the trial the one-by-one runs name."""
    spec = SweepSpec(axis="eta", values=(0.05, 8.0), base=small_base(theta_init=1e50),
                     seeds=5)
    aborts = [run_experiment(c).aborted_at
              for c in trial_configs(apply_axis(spec.base, "eta", 8.0), spec.seeds)]
    assert aborts == [None, None, None, 63, None]
    yielded = []
    with pytest.raises(RuntimeError) as err:
        for point in run_sweep(spec, 2):
            yielded.append(point.value)
    assert yielded == [0.05]
    assert str(err.value) == "trial 3 at eta=8.0 aborted at round 63"


def test_bound_validity_detail_matches_one_by_one_runs():
    """check_bound_validity runs its trials as one stack; its detail is the
    one its trials give when run one at a time."""
    res = verify.check_bound_validity(seed=3, n_seeds=3, rounds=60)
    below = 0
    for cfg in trial_configs(verify.default_convergence_config(master_seed=3, rounds=60), 3):
        traj = run_experiment(cfg)
        below += metrics.stationary_convergence_error(traj) <= \
            report.constant_bound_report(traj).total
    assert res.detail == f"{below}/3 runs below the bound" == "3/3 runs below the bound"
