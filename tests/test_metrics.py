import math
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from airmeta import metrics, sweeps, tasks
from airmeta.metrics import (mean_se, meta_test_loss, meta_training_loss,
                             stationary_convergence_error, trial_gap)
from airmeta.protocol import ROUND_DTYPE, ExperimentConfig, run_experiment
from airmeta.tasks import Dataset, TaskEnvironment, sample_dataset, sample_device, stack_datasets

import oracles


class TestMetaTrainingLoss:
    def test_alpha_zero_is_mean_validation_loss(self, quad_w, quad_env, rng):
        datasets = [sample_dataset(quad_w, quad_env, 20, 10, 10, rng) for _ in range(3)]
        theta = rng.standard_normal(quad_env.dim)
        got = meta_training_loss(theta, stack_datasets(datasets), 0.0)
        want = np.mean([tasks.batch_loss(theta, *ds.val) for ds in datasets])
        assert got == pytest.approx(want, rel=1e-12)

    def test_zero_at_shared_truth(self, rng):
        env = TaskEnvironment(dim=3, center=np.ones(3),
                              task_spread=0.0, label_noise_var=0.0)
        w = sample_device(env, rng)
        datasets = [sample_dataset(w, env, 12, 6, 6, rng) for _ in range(2)]
        assert meta_training_loss(w, stack_datasets(datasets), 0.3) < 1e-24

    def test_hand_computed_single_device(self):
        # one device, two train points, two validation points, d = 1
        x = np.array([[1.0], [2.0], [1.0], [3.0]])
        y = np.array([2.0, 3.0, 1.0, 4.0])
        ds = Dataset(x=x, y=y, m_tr=2, m_va=2)
        theta, alpha = np.array([0.5]), 0.1
        g = 0.5 * (-(2.0 - 0.5) * 1.0 + -(3.0 - 1.0) * 2.0)  # mean train gradient
        phi = 0.5 - alpha * g
        want = 0.5 * ((1.0 - phi * 1.0) ** 2 + (4.0 - phi * 3.0) ** 2) / 2
        assert meta_training_loss(theta, stack_datasets([ds]), alpha) == \
            pytest.approx(want, rel=1e-12)

    def test_two_independent_routes_agree(self, quad_w, quad_env, rng):
        """Vectorized evaluation against a literal per-point double loop."""
        datasets = [sample_dataset(quad_w, quad_env, 14, 6, 8, rng) for _ in range(4)]
        theta = rng.standard_normal(quad_env.dim)
        alpha = 0.3
        acc = 0.0
        for ds in datasets:
            x_tr, y_tr = ds.train
            grad_sum = np.zeros_like(theta)
            for i in range(x_tr.shape[0]):
                grad_sum += oracles.grad(theta, x_tr[i], y_tr[i])
            phi = theta - (alpha / x_tr.shape[0]) * grad_sum
            x_va, y_va = ds.val
            dev_loss = 0.0
            for i in range(x_va.shape[0]):
                dev_loss += oracles.loss(phi, x_va[i], y_va[i])
            acc += dev_loss / x_va.shape[0]
        want = acc / len(datasets)
        assert meta_training_loss(theta, stack_datasets(datasets), alpha) == \
            pytest.approx(want, abs=1e-12)


class TestMetaTestLoss:
    def test_zero_in_degenerate_environment(self):
        env = TaskEnvironment(dim=3, center=np.ones(3),
                              task_spread=0.0, label_noise_var=0.0)
        val = meta_test_loss(np.ones(3), env, 0.2, n_test=10, m_tr=4,
                             gen=np.random.default_rng(0))
        assert val < 1e-24

    def test_matches_closed_form_expectation(self):
        env = TaskEnvironment(dim=4, center=np.array([1.0, 0.0, -1.0, 0.5]),
                              task_spread=0.3, label_noise_var=0.5)
        theta = np.array([0.2, 0.4, -0.2, 0.0])
        alpha, m_tr, n_test = 0.3, 6, 1000
        gen = np.random.default_rng(3)
        vals = [meta_test_loss(theta, env, alpha, 1, m_tr, gen) for _ in range(n_test)]
        want = tasks.analytic_meta_test_loss(env, theta, alpha, m_tr)
        se = np.std(vals, ddof=1) / np.sqrt(n_test)
        assert abs(np.mean(vals) - want) < 3 * se

    def test_more_adaptation_data_never_hurts_on_average(self):
        env = TaskEnvironment(dim=4, center=np.ones(4),
                              task_spread=0.3, label_noise_var=0.5)
        theta = 0.4 * np.ones(4)
        vals = [tasks.analytic_meta_test_loss(env, theta, 0.3, m_tr)
                for m_tr in (2, 4, 8, 16, 64)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))
        # and the Monte Carlo estimator agrees on direction for a large gap
        gen = np.random.default_rng(5)
        lo = meta_test_loss(theta, env, 0.3, 4000, 2, gen)
        hi = meta_test_loss(theta, env, 0.3, 4000, 64, gen)
        assert lo > hi


@st.composite
def loss_cases(draw):
    """(theta, env, alpha, n_test, m_tr) of a meta-test loss evaluation."""
    d = draw(st.integers(1, 60))
    unit = st.floats(-1.0, 1.0)
    env = TaskEnvironment(
        dim=d, center=np.array(draw(st.lists(unit, min_size=d, max_size=d))) * 1e3,
        task_spread=draw(st.one_of(st.just(0.0), st.floats(0.0, 1e3))),
        input_cov=draw(st.floats(0.0, 1e3)),
        label_noise_var=draw(st.one_of(st.just(0.0), st.floats(0.0, 1e3))))
    theta = np.array(draw(st.lists(unit, min_size=d, max_size=d))) * draw(st.sampled_from(
        [1.0, 1e3, 1e-3]))
    alpha = draw(st.floats(0.0, 1.0, exclude_max=True))
    return theta, env, alpha, draw(st.integers(1, 130)), draw(st.integers(1, 120))


def same_test_loss(theta, env, alpha, n_test, m_tr, seed):
    """The stacked estimate equals the one-device-at-a-time oracle bit for
    bit and leaves its generator where the oracle leaves it."""
    fast, slow = np.random.default_rng(seed), np.random.default_rng(seed)
    got = meta_test_loss(theta, env, alpha, n_test, m_tr, fast)
    want = oracles.meta_test_loss(theta, env, alpha, n_test, m_tr, slow)
    assert np.float64(got).tobytes() == np.float64(want).tobytes()
    assert fast.bit_generator.state == slow.bit_generator.state


@settings(max_examples=120, deadline=None, derandomize=True)
@given(case=loss_cases(), seed=st.integers(0, 2**32 - 1))
def test_meta_test_loss_is_the_per_device_oracle(case, seed):
    same_test_loss(*case, seed)


@pytest.mark.parametrize("normals", [1, 19, 40, 100])
def test_meta_test_loss_across_device_chunks(normals, monkeypatch):
    """Chunks of one device (a device's 19 normals exceed the budget), of
    exactly one budget, and of two and five devices with a partial last
    chunk."""
    monkeypatch.setattr(metrics, "_TEST_NORMALS", normals)
    env = TaskEnvironment(dim=3, center=np.array([1.0, -2.0, 0.5]), task_spread=0.3,
                          input_cov=1.5, label_noise_var=0.4)
    same_test_loss(np.array([0.2, 0.1, -0.3]), env, 0.25, 13, 4, 7)


class TestGeneralizationGap:
    def test_single_value_has_no_error_bar(self):
        mean, se = mean_se([0.6])
        assert mean == 0.6 and np.isnan(se)

    def test_mean_and_stderr(self):
        gaps = np.array([0.5, 1.0, 1.5])
        mean, se = mean_se(gaps)
        assert mean == pytest.approx(gaps.mean())
        assert se == pytest.approx(gaps.std(ddof=1) / np.sqrt(3))

    # the per-trial gaps of configs/generalization.json at eta 6 and
    # theta_init 1e40: every trial ends, and the squared deviations overflow
    OVERFLOWING_GAPS = [-4.855289922188936e+250, 1.5355123546504763e+273,
                        2.432692243100678e+251, -8.280937960456655e+267,
                        2.0266338088096248e+243, 8.824693038621945e+236,
                        5.601782555559371e+251, -6.106976948649675e+270,
                        1.0958726638443503e+239, 1.351184879104549e+254]

    def test_overflowing_values_give_the_exact_finite_error(self):
        """Finite values whose squared deviations overflow give, with no
        warning, what the values scaled by 2**-600 give, scaled back: the
        exact rational mean and error, to rounding.  The sweep's point
        result shares it."""
        gaps = np.array(self.OVERFLOWING_GAPS)
        mean, se = mean_se(gaps)
        scaled = [float(np.ldexp(v, 600)) for v in mean_se(np.ldexp(gaps, -600))]
        assert np.array([mean, se]).tobytes() == np.array(scaled).tobytes()
        exact = [Fraction(v) for v in self.OVERFLOWING_GAPS]
        exact_mean = sum(exact) / len(exact)
        exact_var = sum((v - exact_mean) ** 2 for v in exact) / (len(exact) - 1) / len(exact)
        assert mean == pytest.approx(float(exact_mean), rel=1e-15)
        assert se == pytest.approx(math.sqrt(exact_var / 2**1100) * 2**550, rel=1e-15)
        zero = [0.0] * len(gaps)
        point = sweeps._point_result("snr_db", 0.0, dict(
            conv_error=zero, test=list(gaps), train=zero, gen_bound=zero, conv_bound=zero))
        assert (point.gap_mean, point.gap_se) == (mean, se)

    def test_a_sum_that_overflows_gives_the_finite_mean(self):
        mean, se = mean_se([1e308, 1e308, 1e308])
        assert (mean, se) == (1e308, 0.0)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.lists(st.floats(-1e150, 1e150), min_size=2, max_size=40))
    def test_a_finite_error_keeps_numpy_bytes(self, values):
        vals = np.array(values)
        want = (float(np.mean(vals)), float(np.std(vals, ddof=1) / np.sqrt(vals.size)))
        assert np.array(mean_se(values)).tobytes() == np.array(want).tobytes()

    def test_data_independent_output_has_zero_gap(self):
        """With no training the gap is pure sampling noise around zero."""
        cfg = ExperimentConfig(rounds=0, n_devices=6, active_fraction=1.0, dim=8,
                               samples_per_device=400, train_samples=200,
                               task_spread=0.0, label_noise_var=0.5,
                               n_test_devices=400, batch_size=8)
        gaps = []
        for s in range(8):
            traj = run_experiment(cfg.replace(master_seed=s))
            test, train = trial_gap(traj)
            gaps.append(test - train)
        mean, se = mean_se(gaps)
        assert abs(mean) <= 3 * se

    def test_large_sample_limit_vanishes(self):
        """Plenty of data per device and homogeneous tasks: the measured gap
        sits within noise of zero even after training."""
        cfg = ExperimentConfig(rounds=60, n_devices=4, active_fraction=1.0, dim=8,
                               samples_per_device=10_000, train_samples=5_000,
                               task_spread=0.0, label_noise_var=0.5, eta=0.01,
                               alpha=0.3, batch_size=64, local_steps=1,
                               sparsify_k=8, channel_uses=8, snr_db=20.0,
                               n_test_devices=800)
        pairs = [trial_gap(run_experiment(cfg.replace(master_seed=s))) for s in range(4)]
        mean, se = mean_se([test - train for test, train in pairs])
        assert abs(mean) <= 3 * max(se, 1e-6)


class TestConvergenceError:
    def test_averages_recorded_series(self):
        cfg = ExperimentConfig(rounds=10, n_devices=4, active_fraction=1.0,
                               eta=0.005, master_seed=0)
        traj = run_experiment(cfg)
        want = float(np.mean(traj.records["grad_norm_sq"].tolist()))
        assert stationary_convergence_error(traj) == pytest.approx(want)

    def test_long_run_mean_sums_as_a_contiguous_column(self):
        """A record field is strided; over 8,192 rounds its mean must still be
        the mean of the column as one contiguous array."""
        gen = np.random.default_rng(3)
        records = np.zeros(9000, dtype=ROUND_DTYPE).view(np.recarray)
        records["grad_norm_sq"] = gen.standard_normal(9000) * np.exp(5 * gen.standard_normal(9000))
        want = float(np.mean(records["grad_norm_sq"].tolist()))
        assert stationary_convergence_error(SimpleNamespace(records=records)) == want

    def test_single_round_is_initial_gradient(self):
        cfg = ExperimentConfig(rounds=1, n_devices=4, active_fraction=1.0,
                               eta=0.005, master_seed=0)
        traj = run_experiment(cfg)
        w = tasks.mean_meta_grad(traj.thetas[0], traj.device_ws,
                                 tasks.meta_curvature(cfg.env(), traj.metric_alpha))
        assert stationary_convergence_error(traj) == pytest.approx(float(w @ w))

    def test_zero_at_stationary_point(self):
        cfg = ExperimentConfig(rounds=4, n_devices=3, active_fraction=1.0,
                               task_spread=0.0, center=0.75, theta_init=0.75,
                               eta=0.0, master_seed=0)
        traj = run_experiment(cfg)
        assert stationary_convergence_error(traj) < 1e-28


class TestMeasuredSnr:
    def test_recovers_configuration_within_tolerance(self):
        cfg = ExperimentConfig(rounds=500, snr_db=13.0, eta=0.001)
        traj = run_experiment(cfg)
        assert abs(oracles.measured_snr_db(traj, cfg.power_per_use) - 13.0) < 0.2
