import numpy as np
import pytest

from airmeta import tasks
from airmeta.tasks import (Dataset, DeviceDistribution, NoClosedFormError,
                           TaskEnvironment, sample_dataset, sample_device)


def finite_diff_grad(f, phi, h=1e-6):
    g = np.zeros_like(phi)
    for j in range(phi.size):
        e = np.zeros_like(phi)
        e[j] = h
        g[j] = (f(phi + e) - f(phi - e)) / (2 * h)
    return g


class TestEnvironment:
    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            TaskEnvironment(family="quadratic", dim=0, center=np.array([]), task_spread=0.0)
        with pytest.raises(ValueError):
            TaskEnvironment(family="quadratic", dim=2, center=np.zeros(2), task_spread=-1.0)
        with pytest.raises(ValueError):
            TaskEnvironment(family="mystery", dim=2, center=np.zeros(2), task_spread=0.0)
        bad_cov = np.array([[1.0, 2.0], [2.0, 1.0]])  # indefinite
        with pytest.raises(ValueError):
            TaskEnvironment(family="quadratic", dim=2, center=np.zeros(2),
                            task_spread=0.0, input_cov=bad_cov)

    def test_smoothness_is_top_eigenvalue(self):
        cov = np.diag([0.5, 2.0, 1.0])
        env = TaskEnvironment(family="quadratic", dim=3, center=np.zeros(3),
                              task_spread=0.0, input_cov=cov)
        assert env.smoothness == 2.0


class TestSampling:
    def test_zero_spread_returns_center_exactly(self):
        env = TaskEnvironment(family="quadratic", dim=2, center=np.array([1.0, 2.0]),
                              task_spread=0.0)
        dev = sample_device(env, np.random.default_rng(0))
        assert np.array_equal(dev.w, np.array([1.0, 2.0]))

    def test_device_mean_matches_center(self):
        env = TaskEnvironment(family="quadratic", dim=3, center=np.array([1.0, -2.0, 0.5]),
                              task_spread=1.0)
        gen = np.random.default_rng(7)
        draws = np.stack([sample_device(env, gen).w for _ in range(100_000)])
        se = 1.0 / np.sqrt(draws.shape[0])
        assert np.all(np.abs(draws.mean(axis=0) - env.center) < 3 * se)

    def test_same_seed_same_device(self, quad_env):
        a = sample_device(quad_env, np.random.default_rng(42))
        b = sample_device(quad_env, np.random.default_rng(42))
        assert np.array_equal(a.w, b.w)

    def test_split_sizes_and_disjointness(self, quad_device, rng):
        ds = sample_dataset(quad_device, 4, 2, 2, rng)
        assert ds.train[0].shape == (2, quad_device.env.dim)
        assert ds.val[0].shape == (2, quad_device.env.dim)
        assert ds.m == 4

    def test_rejects_empty_split(self, quad_device, rng):
        with pytest.raises(ValueError):
            sample_dataset(quad_device, 4, 4, 0, rng)
        with pytest.raises(ValueError):
            sample_dataset(quad_device, 5, 2, 2, rng)

    def test_noiseless_labels_exact(self, rng):
        env = TaskEnvironment(family="quadratic", dim=3, center=np.ones(3),
                              task_spread=0.3, label_noise_var=0.0)
        dev = sample_device(env, rng)
        ds = sample_dataset(dev, 50, 25, 25, rng)
        assert np.allclose(ds.y, ds.x @ dev.w, atol=0, rtol=0)

    def test_label_noise_variance(self, rng):
        env = TaskEnvironment(family="quadratic", dim=3, center=np.ones(3),
                              task_spread=0.0, label_noise_var=1.0)
        dev = sample_device(env, rng)
        ds = sample_dataset(dev, 100_000, 50_000, 50_000, rng)
        resid = ds.y - ds.x @ dev.w
        assert abs(resid.var() - 1.0) < 0.02

    def test_logistic_labels_binary(self, logistic_env, rng):
        dev = sample_device(logistic_env, rng)
        ds = sample_dataset(dev, 100, 50, 50, rng)
        assert set(np.unique(ds.y)) <= {0.0, 1.0}


class TestPointwiseOracles:
    def test_loss_golden(self):
        assert tasks.loss(np.zeros(2), np.array([1.0, 0.0]), 2.0) == 2.0

    def test_perfect_fit_zero_loss(self, rng):
        env = TaskEnvironment(family="quadratic", dim=3, center=np.ones(3),
                              task_spread=0.5, label_noise_var=0.0)
        dev = sample_device(env, rng)
        ds = sample_dataset(dev, 20, 10, 10, rng)
        for i in range(ds.m):
            assert tasks.loss(dev.w, ds.x[i], ds.y[i]) < 1e-24
            assert np.allclose(tasks.grad(dev.w, ds.x[i], ds.y[i]), 0.0, atol=1e-12)

    def test_loss_matches_scalar_recomputation(self, rng):
        for _ in range(50):
            phi = rng.standard_normal(4)
            x = rng.standard_normal(4)
            y = rng.standard_normal()
            expected = 0.5 * (y - sum(p * xx for p, xx in zip(phi, x))) ** 2
            assert tasks.loss(phi, x, y) == pytest.approx(expected, rel=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            tasks.loss(np.zeros(3), np.zeros(2), 1.0)

    @pytest.mark.parametrize("family", ["quadratic", "logistic"])
    def test_grad_matches_finite_differences(self, family, rng):
        for _ in range(100):
            phi = rng.standard_normal(4)
            x = rng.standard_normal(4)
            y = rng.standard_normal() if family == "quadratic" else float(rng.integers(2))
            g = tasks.grad(phi, x, y, family)
            fd = finite_diff_grad(lambda p: tasks.loss(p, x, y, family), phi)
            assert np.linalg.norm(g - fd) <= 1e-6 * max(np.linalg.norm(g), 1.0)

    @pytest.mark.parametrize("family", ["quadratic", "logistic"])
    def test_hessian_matches_grad_differences(self, family, rng):
        phi = rng.standard_normal(4)
        x = rng.standard_normal(4)
        y = 1.0
        hess = tasks.hessian(phi, x, y, family)
        for j in range(4):
            e = np.zeros(4)
            e[j] = 1e-6
            col = (tasks.grad(phi + e, x, y, family) - tasks.grad(phi - e, x, y, family)) / 2e-6
            assert np.allclose(hess[:, j], col, atol=1e-5)

    def test_quadratic_hessian_independent_of_phi(self, rng):
        x, y = rng.standard_normal(3), 0.7
        h1 = tasks.hessian(rng.standard_normal(3), x, y)
        h2 = tasks.hessian(rng.standard_normal(3), x, y)
        assert np.array_equal(h1, h2)


class TestPopulationOracles:
    def test_meta_grad_golden(self):
        env = TaskEnvironment(family="quadratic", dim=3, center=np.zeros(3), task_spread=0.0)
        dev = DeviceDistribution(w=np.zeros(3), env=env)
        theta = np.array([1.0, 0.0, 0.0])
        g = tasks.population_meta_grad(theta, dev, alpha=0.5)
        assert np.allclose(g, 0.25 * theta, atol=1e-15)

    def test_meta_grad_zero_at_task_vector(self, quad_device):
        g = tasks.population_meta_grad(quad_device.w, quad_device, alpha=0.3)
        assert np.allclose(g, 0.0, atol=1e-14)

    def test_alpha_zero_reduces_to_plain_gradient(self, quad_device, rng):
        theta = rng.standard_normal(quad_device.env.dim)
        g = tasks.population_meta_grad(theta, quad_device, alpha=0.0)
        assert np.allclose(g, tasks.population_grad(theta, quad_device), atol=1e-14)

    def test_meta_grad_matches_finite_differences(self, quad_device, rng):
        theta = rng.standard_normal(quad_device.env.dim)
        g = tasks.population_meta_grad(theta, quad_device, alpha=0.4)
        fd = finite_diff_grad(
            lambda p: tasks.population_meta_loss(p, quad_device, 0.4), theta)
        assert np.linalg.norm(g - fd) <= 1e-6 * max(np.linalg.norm(g), 1.0)

    def test_no_closed_form_for_logistic(self, logistic_env, rng):
        dev = sample_device(logistic_env, rng)
        with pytest.raises(NoClosedFormError):
            tasks.population_meta_loss(np.zeros(4), dev, 0.1)

    def test_population_grad_lipschitz_equals_top_eigenvalue(self, rng):
        cov = np.diag([0.4, 1.7, 0.9])
        env = TaskEnvironment(family="quadratic", dim=3, center=np.zeros(3),
                              task_spread=0.0, input_cov=cov)
        dev = DeviceDistribution(w=np.zeros(3), env=env)
        best = 0.0
        for _ in range(2000):
            a, b = rng.standard_normal(3), rng.standard_normal(3)
            num = np.linalg.norm(tasks.population_grad(a, dev) - tasks.population_grad(b, dev))
            best = max(best, num / np.linalg.norm(a - b))
        assert best <= env.smoothness + 1e-8
        # the supremum is attained along the top eigenvector
        top = np.array([0.0, 1.0, 0.0])
        attained = np.linalg.norm(tasks.population_grad(top, dev)) / 1.0
        assert abs(attained - env.smoothness) < 1e-8

    def test_zero_spread_devices_identical(self):
        env = TaskEnvironment(family="quadratic", dim=4, center=np.ones(4), task_spread=0.0)
        gen = np.random.default_rng(5)
        devs = [sample_device(env, gen) for _ in range(5)]
        probes = gen.standard_normal((10, 4))
        for theta in probes:
            grads = np.stack([tasks.population_grad(theta, d) for d in devs])
            gap = np.max(np.linalg.norm(grads - grads[0], axis=1))
            assert gap < 1e-12

    def test_meta_loss_minimum_is_a_lower_bound(self, rng):
        env = TaskEnvironment(family="quadratic", dim=4, center=np.ones(4),
                              task_spread=0.6, label_noise_var=0.3)
        gen = np.random.default_rng(9)
        devs = [sample_device(env, gen) for _ in range(6)]
        f_star = tasks.meta_loss_minimum(devs, alpha=0.3)
        w_bar = np.mean([d.w for d in devs], axis=0)
        assert tasks.mean_meta_loss(w_bar, devs, 0.3) == pytest.approx(f_star, rel=1e-12)
        for _ in range(20):
            theta = rng.standard_normal(4) * 3
            assert tasks.mean_meta_loss(theta, devs, 0.3) >= f_star - 1e-12


class TestMomentFormulas:
    def test_grad_moments_match_monte_carlo(self):
        env = TaskEnvironment(family="quadratic", dim=4, center=np.zeros(4),
                              task_spread=0.0, label_noise_var=0.7)
        dev = DeviceDistribution(w=np.array([0.2, -1.0, 0.5, 0.0]), env=env)
        phi = np.array([1.0, 0.3, -0.2, 0.8])
        gen = np.random.default_rng(11)
        n = 100_000
        x = gen.standard_normal((n, 4))
        y = x @ dev.w + np.sqrt(0.7) * gen.standard_normal(n)
        grads = -(y - x @ phi)[:, None] * x
        e = phi - dev.w
        second = float(np.mean(np.sum(grads**2, axis=1)))
        var = float(np.mean(np.sum((grads - grads.mean(axis=0)) ** 2, axis=1)))
        assert second == pytest.approx(tasks.grad_second_moment(e, env), rel=0.02)
        assert var == pytest.approx(tasks.grad_variance(e, env), rel=0.02)

    def test_hessian_spectral_variance_quadrature_matches_mc(self):
        env = TaskEnvironment(family="quadratic", dim=5, center=np.zeros(5),
                              task_spread=0.0, input_cov=1.3)
        val = tasks.hessian_spectral_variance(env)
        gen = np.random.default_rng(3)
        x = gen.standard_normal((40_000, 5)) * np.sqrt(1.3)
        norms_sq = np.maximum((np.sum(x**2, axis=1) - 1.3) ** 2, 1.3**2)
        assert val == pytest.approx(float(norms_sq.mean()), rel=0.05)

    def test_hessian_spectral_variance_needs_isotropic_covariance(self):
        env = TaskEnvironment(family="quadratic", dim=2, center=np.zeros(2),
                              task_spread=0.0, input_cov=np.diag([1.0, 2.0]))
        with pytest.raises(NoClosedFormError):
            tasks.hessian_spectral_variance(env)

    def test_meta_test_closed_form_matches_brute_force(self):
        env = TaskEnvironment(family="quadratic", dim=3, center=np.array([1.0, 0.0, -0.5]),
                              task_spread=0.4, label_noise_var=0.6)
        theta = np.array([0.5, 0.5, 0.5])
        alpha, m_tr = 0.3, 7
        gen = np.random.default_rng(21)
        n = 120_000
        vals = np.empty(n)
        for i in range(n):
            dev = sample_device(env, gen)
            x = gen.standard_normal((m_tr, 3))
            y = x @ dev.w + np.sqrt(0.6) * gen.standard_normal(m_tr)
            phi = theta - alpha * tasks.batch_grad(theta, x, y)
            vals[i] = tasks.population_loss(phi, dev)
        got = tasks.analytic_meta_test_loss(env, theta, alpha, m_tr)
        se = vals.std(ddof=1) / np.sqrt(n)
        assert abs(vals.mean() - got) < 3 * se
