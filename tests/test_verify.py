import copy

from airmeta import verify
from airmeta.protocol import run_experiment


class TestChecks:
    def test_memory_bound_holds(self):
        res = verify.check_memory_bound(seed=0, rounds=120)
        assert res.passed, res.detail

    def test_power_constraint_holds(self):
        res = verify.check_power_constraint(seed=0, rounds=80)
        assert res.passed, res.detail

    def test_memory_identity_holds(self):
        res = verify.check_memory_identity(seed=0, rounds=60)
        assert res.passed, res.detail

    def test_memory_identity_negative_control(self):
        """A corrupted memory record must make the identity check fail."""
        cfg = verify.default_convergence_config(master_seed=0, rounds=40,
                                                active_fraction=1.0)
        traj = run_experiment(cfg)
        bad = copy.deepcopy(traj)
        bad.recon[5]["mem_sum"] = bad.recon[5]["mem_sum"] + 0.01
        res = verify.check_memory_identity(traj=bad)
        assert not res.passed

    def test_bound_validity_small(self):
        res = verify.check_bound_validity(seed=3, n_seeds=2, rounds=120)
        assert res.passed, res.detail

    def test_default_config_meets_rate_condition(self):
        cfg = verify.default_convergence_config()
        assert cfg.validate() == []


class TestRunAll:
    def test_all_results_named_and_timed(self):
        names = [chk.__name__ for chk in verify.ALL_CHECKS]
        assert len(names) == len(set(names)) == 8
