import copy
import json
from pathlib import Path

import numpy as np
import pytest

from airmeta import verify
from airmeta.protocol import ExperimentConfig, memory_identity_residuals, run_experiment
from airmeta.storage import read_config

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


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
        bad.recon["mem_sum"][5] += 0.01
        res = verify.check_memory_identity(traj=bad)
        assert not res.passed

    def test_memory_identity_on_a_run_whose_abort_round_sent(self):
        """A round that sends its uplink and then overflows has realized
        vectors but no next iterate; the identity covers the rounds before
        it."""
        cfg = read_config(CONFIGS / "convergence.json").replace(eta=1.0, theta_init=1e153,
                                                                rounds=70)
        with np.errstate(all="ignore"):
            traj = run_experiment(cfg)
            resid = memory_identity_residuals(traj)
            res = verify.check_memory_identity(traj=traj)
        assert traj.aborted_at == 15 and len(traj.records) == 16
        assert np.isfinite(traj.records["rho"][-1])  # the abort round sent
        assert resid.size == len(traj.recon["sum_delta"]) == traj.aborted_at
        assert res.name == "memory_identity" and f"over {traj.aborted_at} rounds" in res.detail

    def test_bound_validity_small(self):
        res = verify.check_bound_validity(seed=3, n_seeds=2, rounds=120)
        assert res.passed, res.detail

    def test_bound_validity_negative_control(self, monkeypatch):
        """A trial outside the rate validity condition fails the check, even
        when its measured error stays below the bound."""
        default = verify.default_convergence_config
        monkeypatch.setattr(verify, "default_convergence_config",
                            lambda **overrides: default(**overrides).replace(eta=0.01))
        res = verify.check_bound_validity(seed=0, n_seeds=1, rounds=5)
        assert not res.passed and "config warnings" in res.detail

    def test_default_config_meets_rate_condition(self):
        """The in-package setup is the shipped convergence config with the
        unrounded rate, and the SNR sweep runs the same setup at eta = 0.01."""
        cfg = verify.default_convergence_config()
        assert cfg.validate() == []
        shipped = read_config(CONFIGS / "convergence.json")
        assert cfg.replace(eta=shipped.eta) == shipped
        assert shipped.eta == pytest.approx(cfg.eta, rel=1e-6, abs=0.0)
        sweep_base = json.loads((CONFIGS / "sweep_snr.json").read_text())["base"]
        assert ExperimentConfig.from_dict(sweep_base) == shipped.replace(eta=0.01)


class TestRunAll:
    def test_all_results_named_and_timed(self):
        names = [chk.__name__ for chk in verify.ALL_CHECKS]
        assert len(names) == len(set(names)) == 8
