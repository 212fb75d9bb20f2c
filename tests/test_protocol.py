import copy
import dataclasses
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from airmeta import report, storage
from airmeta.channel import compression_block
from airmeta import rng as streams
from airmeta.meta import batch_pools, draw_batches, local_rounds
from airmeta.protocol import (ExperimentConfig, constant_rate_limit, lr_schedule,
                              meets_constant_rate, memory_identity_residuals,
                              replay_experiment, run_experiment)

from noiseless import noiseless_thetas
from oracles import sample_active_set


def small_air_config(**overrides):
    base = dict(rounds=40, n_devices=4, active_fraction=1.0, dim=10,
                local_steps=2, batch_size=8, samples_per_device=60,
                train_samples=30, eta=0.01, alpha=0.3, sparsify_k=2,
                channel_uses=4, snr_db=10.0, master_seed=5)
    base.update(overrides)
    return ExperimentConfig(**base)


class TestActiveSet:
    def test_full_participation(self, rng):
        assert np.array_equal(sample_active_set(6, 1.0, rng), np.arange(6))

    def test_exact_cardinality(self, rng):
        for _ in range(50):
            ids = sample_active_set(9, 1 / 3, rng)
            assert ids.size == 3 and np.unique(ids).size == 3

    def test_uniform_inclusion(self):
        gen = np.random.default_rng(0)
        n, r, draws = 8, 0.5, 100_000
        counts = np.zeros(n)
        for _ in range(draws):
            counts[sample_active_set(n, r, gen)] += 1
        freq = counts / draws
        se = np.sqrt(r * (1 - r) / draws)
        assert np.all(np.abs(freq - r) < 3 * se)

    def test_non_integer_rejected(self, rng):
        with pytest.raises(ValueError):
            sample_active_set(9, 0.3, rng)


class TestSchedules:
    def test_constant(self):
        cfg = ExperimentConfig(lr_schedule="constant", eta=0.01, alpha=0.3)
        assert lr_schedule(cfg, 0) == (0.01, 0.3)
        assert lr_schedule(cfg, 100) == (0.01, 0.3)

    def test_adaptive_start_and_decay(self):
        cfg = ExperimentConfig(lr_schedule="adaptive", eta_scale=0.5, eta_offset=10.0,
                               alpha_scale=2.0, alpha_offset=8.0)
        eta0, _ = lr_schedule(cfg, 0)
        assert eta0 == pytest.approx(0.05)
        etas = [lr_schedule(cfg, t)[0] for t in range(50)]
        assert all(a > b for a, b in zip(etas, etas[1:]))

    def test_adaptive_inner_rate_capped_at_inverse_smoothness(self):
        cfg = ExperimentConfig(lr_schedule="adaptive", alpha_scale=100.0, alpha_offset=2.0,
                               input_cov_scale=2.0)
        _, alpha0 = lr_schedule(cfg, 0)
        assert alpha0 == pytest.approx(0.5)  # 1 / L_G

    def test_rate_sum_lower_bound(self):
        xi, a, big_t = 0.7, 5.0, 1000
        cfg = ExperimentConfig(lr_schedule="adaptive", eta_scale=xi, eta_offset=a)
        total = sum(lr_schedule(cfg, t)[0] for t in range(big_t))
        assert total >= xi * np.log((big_t + a - 1) / a)

    def test_validity_limit_is_tight(self):
        q, l_f = 5, 4.0
        limit = constant_rate_limit(q, l_f)
        assert meets_constant_rate(limit * 0.999, q, l_f)
        assert not meets_constant_rate(limit * 1.01, q, l_f)


class TestRunExperiment:
    def test_zero_rounds(self):
        traj = run_experiment(small_air_config(rounds=0))
        assert len(traj.records) == 0
        assert np.array_equal(traj.thetas[0], traj.theta_final)

    def test_determinism(self):
        t1 = run_experiment(small_air_config())
        t2 = run_experiment(small_air_config())
        assert np.array_equal(t1.thetas, t2.thetas)
        assert t1.records["rho"].tolist() == t2.records["rho"].tolist()

    def test_replay_bit_identical(self):
        cfg = small_air_config(active_fraction=0.5)
        t1 = run_experiment(cfg)
        t2 = replay_experiment(cfg, t1.replay)
        assert np.array_equal(t1.thetas, t2.thetas)

    @pytest.mark.parametrize("fading", ["rayleigh", "unit"])
    def test_zero_gain_replay_round(self, tmp_path, fading):
        """A replayed round in which every gain is zero has no transmitting
        device, so the server receives the noise alone: the run completes,
        that round leaves the iterate where it was, and the log round-trips
        through its CSV form.  A device whose gain is zero stays in the log."""
        cfg = small_air_config(rounds=8, fading=fading)
        log = run_experiment(cfg).replay
        log[3] = dataclasses.replace(log[3], gains=np.zeros_like(log[3].gains))  # no device
        dropped = log[5].gains.copy()
        dropped[1] = 0.0  # one device of four drops
        log[5] = dataclasses.replace(log[5], gains=dropped)
        traj = replay_experiment(cfg, log)
        assert traj.aborted_at is None and len(traj.records) == cfg.rounds
        assert np.array_equal(traj.thetas[4], traj.thetas[3])
        assert not np.array_equal(traj.thetas[6], traj.thetas[5])
        storage.write_replay_csv(traj, tmp_path / "replay_log.csv")
        read = storage.read_replay_csv(tmp_path / "replay_log.csv")
        for drawn in (traj.replay[5], read[5]):
            assert drawn.active.tolist() == [0, 1, 2, 3]
            assert np.count_nonzero(drawn.gains) == 3
        again = replay_experiment(cfg, read)
        assert again.thetas.tobytes() == traj.thetas.tobytes()
        assert again.records.tobytes() == traj.records.tobytes()  # NaN cells included

    def test_zero_gain_round_matched_estimate_is_the_noise(self):
        """With no transmitting device the matched estimator reconstructs the
        complex noise block through the round's DFT rows, as in any round."""
        cfg = small_air_config(rounds=5, channel_uses=10, estimator="matched")
        log = run_experiment(cfg).replay
        log[3] = dataclasses.replace(log[3], gains=np.zeros_like(log[3].gains))
        traj = replay_experiment(cfg, log)
        gen = streams.substream(cfg.master_seed, streams.COMPRESSION, 3)
        matrix = compression_block(10, np.sort(gen.choice(10, size=10, replace=False)))[0]
        y = log[3].noise
        assert np.array_equal(traj.recon["noise_term"][3], (matrix.conj().T @ y).real)

    def test_degenerate_chain_equals_ideal(self):
        base = dict(rounds=30, n_devices=4, active_fraction=1.0, dim=10,
                    local_steps=3, batch_size=8, samples_per_device=60,
                    train_samples=30, eta=0.005, alpha=0.3, sparsify_k=10,
                    channel_uses=10, estimator="matched",
                    fading="unit", noise_var=0.0, snr_db=None, master_seed=2)
        air = run_experiment(ExperimentConfig(**base))
        ideal = noiseless_thetas(air)
        denom = np.maximum(np.linalg.norm(ideal, axis=1), 1e-30)
        rel = np.linalg.norm(air.thetas - ideal, axis=1) / denom
        assert rel.max() < 1e-10

    def test_zero_rate_keeps_iterate_and_memories(self):
        traj = run_experiment(small_air_config(eta=0.0, rounds=5))
        assert np.array_equal(traj.thetas[0], traj.thetas[-1])
        assert np.all(traj.memories == 0)

    def test_divergence_aborts_with_round_index(self):
        traj = run_experiment(small_air_config(eta=50.0, rounds=300))
        assert traj.aborted_at is not None
        assert traj.records["round"][-1] == traj.aborted_at

    def test_power_constraint_every_round(self):
        traj = run_experiment(small_air_config(rounds=60))
        assert np.max(traj.records["power_margin"]) <= 1e-12

    def test_memory_not_exploding(self):
        traj = run_experiment(small_air_config(rounds=120))
        mem = traj.records["mem_norm_sq_max"]
        assert np.max(mem) <= 1e6 * (mem[9] + 1e-9)

    def test_inactive_memories_frozen(self):
        cfg = small_air_config(active_fraction=0.25, rounds=6)
        traj = run_experiment(cfg)
        # devices never selected must keep their zero initial memory
        never_active = set(range(cfg.n_devices)) - {
            int(i) for drawn in traj.replay for i in drawn.active}
        assert never_active, "fixture needs at least one never-active device"
        for i in never_active:
            assert np.all(traj.memories[i] == 0)

    def test_unknown_config_field_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig.from_dict({"bogus_field": 1})

    def test_invalid_fraction_rejected(self):
        with pytest.raises(ValueError):
            small_air_config(active_fraction=0.3, n_devices=9).validate()

    def test_rate_warning_surfaced(self):
        warnings = small_air_config(eta=0.4, local_steps=5).validate()
        assert any("validity" in w for w in warnings)

    def test_convergence_smoke_at_rate_limit(self):
        """Noiseless chain at the largest valid constant rate: the gradient-norm
        reduction at t=200 matches the linear-dynamics prediction.

        The supremum of the reduction over all valid rates is about 9.9x at
        t=200 (a 10x target is unattainable by ~1% even in the deterministic
        limit), so the assertion pins >= 9x plus agreement with the
        closed-form factor.
        """
        q, alpha = 1, 0.01
        eta = 0.999 * constant_rate_limit(q, 4.0)
        cfg = ExperimentConfig(rounds=200, n_devices=4, active_fraction=1.0,
                               dim=20, local_steps=q, batch_size=64,
                               samples_per_device=400, train_samples=200,
                               eta=eta, alpha=alpha, task_spread=0.0,
                               label_noise_var=0.0, sparsify_k=20, channel_uses=20,
                               estimator="matched", fading="unit",
                               noise_var=0.0, snr_db=None, master_seed=3)
        assert cfg.validate() == []
        traj = run_experiment(cfg)
        from airmeta import tasks

        curvature = tasks.meta_curvature(cfg.env(), traj.metric_alpha)

        def gsq(theta):
            v = tasks.mean_meta_grad(theta, traj.device_ws, curvature)
            return float(v @ v)

        ratio = gsq(traj.thetas[200]) / gsq(traj.thetas[0])
        predicted = (1 - eta * (1 - alpha) ** 2) ** (2 * q * 200)
        assert ratio <= 1 / 9
        assert abs(np.log(ratio) - np.log(predicted)) <= 0.3


class TestMemoryIdentity:
    def test_identity_holds_on_noisy_run(self):
        cfg = small_air_config(rounds=100, snr_db=5.0)
        traj = run_experiment(cfg)
        resid = memory_identity_residuals(traj)
        assert resid.size == 100
        assert resid.max() <= 1e-8

    def test_corrupted_memories_fail_the_check(self):
        cfg = small_air_config(rounds=30)
        traj = run_experiment(cfg)
        bad = copy.deepcopy(traj)
        bad.recon["mem_sum"][10] += 0.05
        resid = memory_identity_residuals(bad)
        assert resid.max() > 1e-4

    def test_identity_with_partial_participation(self):
        cfg = small_air_config(rounds=60, active_fraction=0.5, snr_db=5.0)
        traj = run_experiment(cfg)
        assert memory_identity_residuals(traj).max() <= 1e-8


class TestSchedulingInvariance:
    def test_device_results_independent_of_order(self):
        """Per-device streams are keyed by (seed, round, device), so the
        order of the devices in a lockstep stack cannot change any device's
        local result: two orderings give the same rows, permuted."""
        cfg = small_air_config()
        traj = run_experiment(cfg)
        pools = batch_pools(traj.datasets, cfg.batch_size)
        theta0 = traj.thetas[0]
        results = []
        for order in (np.array([0, 1, 2, 3]), np.array([3, 1, 0, 2])):
            idx = np.stack([draw_batches(streams.substream(cfg.master_seed, streams.LOCAL_BATCH,
                                                           0, i),
                                         pools, cfg.batch_size, cfg.local_steps)
                            for i in order], axis=1)
            results.append(local_rounds(theta0, traj.datasets.devices(order), idx, cfg.alpha,
                                        cfg.eta))
        (deltas_a, iterates_a), (deltas_b, iterates_b) = results
        assert deltas_b.tobytes() == deltas_a[[3, 1, 0, 2]].tobytes()
        assert iterates_b.tobytes() == iterates_a[:, [3, 1, 0, 2]].tobytes()
        # the run's first round stacked the same four devices in id order
        assert np.array_equal(np.sum(deltas_a, axis=0), traj.recon["sum_delta"][0])


@st.composite
def small_configs(draw):
    """Valid configs up to dim 8 and 20 rounds, from tame to divergent rates
    and initial iterates up to 1e200."""
    dim = draw(st.integers(1, 8))
    n_devices = draw(st.integers(1, 4))
    batch = draw(st.integers(1, 3))
    m_tr = batch + draw(st.integers(0, 3))
    m_va = 2 * batch + draw(st.integers(0, 3))  # two disjoint validation pools
    square = draw(st.booleans())
    snr_db = draw(st.one_of(st.none(), st.floats(-10, 30)))
    return ExperimentConfig(
        dim=dim,
        n_devices=n_devices, active_fraction=draw(st.integers(1, n_devices)) / n_devices,
        samples_per_device=m_tr + m_va, train_samples=m_tr,
        rounds=draw(st.integers(0, 20)), local_steps=draw(st.integers(1, 3)),
        batch_size=batch,
        lr_schedule=draw(st.sampled_from(["constant", "adaptive"])),
        eta=draw(st.one_of(st.floats(0, 1), st.floats(0, 1e300))), alpha=draw(st.floats(0, 2)),
        sparsify_k=draw(st.integers(1, dim)),
        channel_uses=dim if square else draw(st.integers(1, dim)),
        estimator=draw(st.sampled_from(["lmmse", "matched"])) if square else "lmmse",
        fading=draw(st.sampled_from(["rayleigh", "unit"])),
        snr_db=snr_db, noise_var=None if snr_db is not None else draw(st.floats(0, 10)),
        theta_init=draw(st.floats(-1e200, 1e200)), master_seed=draw(st.integers(0, 2**32 - 1)),
    )


def _tiny_config(**overrides):
    base = dict(dim=1, n_devices=1, samples_per_device=3, train_samples=1, rounds=1,
                local_steps=1, batch_size=1, alpha=0.0, sparsify_k=1, channel_uses=1,
                snr_db=None, noise_var=0.0)
    return ExperimentConfig(**{**base, **overrides})


class TestRoundPipelineProperties:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(small_configs())
    # squared rate and update energy underflow to 0
    @example(_tiny_config(eta=3.5939894939765176e-177))
    # updates round to exactly 0 (zero-update cap) and the squared rate to 0
    @example(_tiny_config(eta=5e-324, master_seed=2))
    # subnormal squared rate and update energy
    @example(_tiny_config(eta=2.2901079242432356e-157, local_steps=2))
    # noise too small to regularize the conjugate rows of a full DFT
    @example(_tiny_config(dim=3, channel_uses=3, eta=1.0, noise_var=2.809447742253207e-17))
    # a local step overflows before the last one
    @example(small_air_config(theta_init=1e305, eta=100.0, alpha=1.5, sparsify_k=1,
                              rounds=20, master_seed=0))
    # the squared rate overflows
    @example(small_air_config(eta=1e160, rounds=3, local_steps=1))
    # a completed run whose moment probe overflows
    @example(small_air_config(theta_init=1e200, rounds=5, eta=1e-20))
    def test_run_stops_cleanly_and_replays(self, cfg):
        with np.errstate(all="ignore"), tempfile.TemporaryDirectory() as tmp:
            config_path, replay_path = Path(tmp) / "config.json", Path(tmp) / "replay_log.csv"
            storage.write_config(cfg, config_path)
            assert storage.read_config(config_path) == cfg
            traj = run_experiment(cfg)
            if traj.aborted_at is None:
                assert len(traj.records) == cfg.rounds
            else:
                assert traj.records["round"][-1] == traj.aborted_at
            report.summarize(traj)
            # an aborted run's log ends at the failing round
            storage.write_replay_csv(traj, replay_path)
            replay = storage.read_replay_csv(replay_path)
            # each draw read back has the bytes of the draw held in memory
            assert len(replay) == len(traj.replay)
            for back, drawn in zip(replay, traj.replay):
                for name in ("active", "gains", "noise"):
                    a, b = getattr(back, name), getattr(drawn, name)
                    assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
            again = replay_experiment(cfg.replace(rounds=len(replay)), replay)
            assert again.thetas.tobytes() == traj.thetas.tobytes()
            assert again.aborted_at == traj.aborted_at
            if traj.aborted_at is None and cfg.rounds:
                assert max(traj.records["power_margin"]) <= 1e-12
                # a floating-point difference of iterates: bounded relative to
                # their size, which is the absolute 1e-8 for unit-scale runs
                scale = max(1.0, float(np.max(np.abs(traj.thetas))))
                assert memory_identity_residuals(traj).max() <= 1e-8 * scale
