import numpy as np
import pytest

from airmeta import tasks
from airmeta.tasks import TaskEnvironment, sample_dataset, sample_device

import oracles


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
            TaskEnvironment(dim=0, center=np.array([]), task_spread=0.0)
        with pytest.raises(ValueError):
            TaskEnvironment(dim=2, center=np.zeros(2), task_spread=-1.0)
        with pytest.raises(ValueError):  # s*I is indefinite for s < 0
            TaskEnvironment(dim=2, center=np.zeros(2),
                            task_spread=0.0, input_cov=-1.0)

    def test_smoothness_is_top_eigenvalue(self):
        env = TaskEnvironment(dim=3, center=np.zeros(3),
                              task_spread=0.0, input_cov=2.0)
        assert env.smoothness == 2.0


class TestSampling:
    def test_zero_spread_returns_center_exactly(self):
        env = TaskEnvironment(dim=2, center=np.array([1.0, 2.0]),
                              task_spread=0.0)
        w = sample_device(env, np.random.default_rng(0))
        assert np.array_equal(w, np.array([1.0, 2.0]))

    def test_device_mean_matches_center(self):
        env = TaskEnvironment(dim=3, center=np.array([1.0, -2.0, 0.5]),
                              task_spread=1.0)
        gen = np.random.default_rng(7)
        draws = np.stack([sample_device(env, gen) for _ in range(100_000)])
        se = 1.0 / np.sqrt(draws.shape[0])
        assert np.all(np.abs(draws.mean(axis=0) - env.center) < 3 * se)

    def test_same_seed_same_device(self, quad_env):
        a = sample_device(quad_env, np.random.default_rng(42))
        b = sample_device(quad_env, np.random.default_rng(42))
        assert np.array_equal(a, b)

    def test_split_sizes_and_disjointness(self, quad_w, quad_env, rng):
        ds = sample_dataset(quad_w, quad_env, 4, 2, 2, rng)
        assert ds.train[0].shape == (2, quad_env.dim)
        assert ds.val[0].shape == (2, quad_env.dim)
        assert ds.m == 4

    def test_rejects_empty_split(self, quad_w, quad_env, rng):
        with pytest.raises(ValueError):
            sample_dataset(quad_w, quad_env, 4, 4, 0, rng)
        with pytest.raises(ValueError):
            sample_dataset(quad_w, quad_env, 5, 2, 2, rng)

    @pytest.mark.parametrize("s", [0.5, 1.0, 1.3, 2.0])
    def test_inputs_scale_standard_normals(self, s):
        """x = sqrt(s) * z on the standard normals of the same stream."""
        env = TaskEnvironment(dim=5, center=np.zeros(5), task_spread=0.0, input_cov=s)
        x, _ = tasks.sample_points(np.zeros(5), env, 40, np.random.default_rng(8))
        z = np.random.default_rng(8).standard_normal((40, 5))
        assert np.array_equal(x, np.sqrt(s) * z)

    def test_noiseless_labels_exact(self, rng):
        env = TaskEnvironment(dim=3, center=np.ones(3),
                              task_spread=0.3, label_noise_var=0.0)
        w = sample_device(env, rng)
        ds = sample_dataset(w, env, 50, 25, 25, rng)
        assert np.allclose(ds.y, ds.x @ w, atol=0, rtol=0)

    def test_label_noise_variance(self, rng):
        env = TaskEnvironment(dim=3, center=np.ones(3),
                              task_spread=0.0, label_noise_var=1.0)
        w = sample_device(env, rng)
        ds = sample_dataset(w, env, 100_000, 50_000, 50_000, rng)
        resid = ds.y - ds.x @ w
        assert abs(resid.var() - 1.0) < 0.02


class TestPointwiseOracles:
    def test_loss_golden(self):
        assert oracles.loss(np.zeros(2), np.array([1.0, 0.0]), 2.0) == 2.0

    def test_perfect_fit_zero_loss(self, rng):
        env = TaskEnvironment(dim=3, center=np.ones(3),
                              task_spread=0.5, label_noise_var=0.0)
        w = sample_device(env, rng)
        ds = sample_dataset(w, env, 20, 10, 10, rng)
        for i in range(ds.m):
            assert oracles.loss(w, ds.x[i], ds.y[i]) < 1e-24
            assert np.allclose(oracles.grad(w, ds.x[i], ds.y[i]), 0.0, atol=1e-12)

    def test_loss_matches_scalar_recomputation(self, rng):
        for _ in range(50):
            phi = rng.standard_normal(4)
            x = rng.standard_normal(4)
            y = rng.standard_normal()
            expected = 0.5 * (y - sum(p * xx for p, xx in zip(phi, x))) ** 2
            assert oracles.loss(phi, x, y) == pytest.approx(expected, rel=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            oracles.loss(np.zeros(3), np.zeros(2), 1.0)

    @pytest.mark.parametrize("loss_kind", ["quadratic"])  # squared loss, the only one
    def test_grad_matches_finite_differences(self, loss_kind, rng):
        for _ in range(100):
            phi = rng.standard_normal(4)
            x = rng.standard_normal(4)
            y = rng.standard_normal()
            g = oracles.grad(phi, x, y)
            fd = finite_diff_grad(lambda p: oracles.loss(p, x, y), phi)
            assert np.linalg.norm(g - fd) <= 1e-6 * max(np.linalg.norm(g), 1.0)

    @pytest.mark.parametrize("loss_kind", ["quadratic"])  # squared loss, the only one
    def test_hessian_matches_grad_differences(self, loss_kind, rng):
        phi = rng.standard_normal(4)
        x = rng.standard_normal(4)
        y = 1.0
        hess = oracles.hessian(phi, x, y)
        for j in range(4):
            e = np.zeros(4)
            e[j] = 1e-6
            col = (oracles.grad(phi + e, x, y) - oracles.grad(phi - e, x, y)) / 2e-6
            assert np.allclose(hess[:, j], col, atol=1e-5)

    def test_quadratic_hessian_independent_of_phi(self, rng):
        x, y = rng.standard_normal(3), 0.7
        h1 = oracles.hessian(rng.standard_normal(3), x, y)
        h2 = oracles.hessian(rng.standard_normal(3), x, y)
        assert np.array_equal(h1, h2)


class TestPopulationOracles:
    def test_meta_grad_golden(self):
        env = TaskEnvironment(dim=3, center=np.zeros(3), task_spread=0.0)
        theta = np.array([1.0, 0.0, 0.0])
        g = tasks.population_meta_grad(theta, np.zeros(3), env, alpha=0.5)
        assert np.allclose(g, 0.25 * theta, atol=1e-15)

    def test_meta_grad_zero_at_task_vector(self, quad_w, quad_env):
        g = tasks.population_meta_grad(quad_w, quad_w, quad_env, alpha=0.3)
        assert np.allclose(g, 0.0, atol=1e-14)

    def test_alpha_zero_reduces_to_plain_gradient(self, quad_w, quad_env, rng):
        theta = rng.standard_normal(quad_env.dim)
        g = tasks.population_meta_grad(theta, quad_w, quad_env, alpha=0.0)
        assert np.allclose(g, oracles.population_grad(theta, quad_w, quad_env), atol=1e-14)

    def test_meta_grad_matches_finite_differences(self, quad_w, quad_env, rng):
        theta = rng.standard_normal(quad_env.dim)
        g = tasks.population_meta_grad(theta, quad_w, quad_env, alpha=0.4)
        fd = finite_diff_grad(
            lambda p: tasks.population_meta_loss(p, quad_w, quad_env, 0.4), theta)
        assert np.linalg.norm(g - fd) <= 1e-6 * max(np.linalg.norm(g), 1.0)

    def test_population_grad_lipschitz_equals_top_eigenvalue(self, rng):
        env = TaskEnvironment(dim=3, center=np.zeros(3),
                              task_spread=0.0, input_cov=1.7)
        w = np.zeros(3)
        best = 0.0
        for _ in range(2000):
            a, b = rng.standard_normal(3), rng.standard_normal(3)
            num = np.linalg.norm(oracles.population_grad(a, w, env)
                                 - oracles.population_grad(b, w, env))
            best = max(best, num / np.linalg.norm(a - b))
        assert best <= env.smoothness + 1e-8
        # every direction is a top eigenvector of s*I, so the supremum is attained
        attained = np.linalg.norm(oracles.population_grad(np.array([0.0, 1.0, 0.0]), w, env))
        assert abs(attained - env.smoothness) < 1e-8

    def test_zero_spread_devices_identical(self):
        env = TaskEnvironment(dim=4, center=np.ones(4), task_spread=0.0)
        gen = np.random.default_rng(5)
        ws = [sample_device(env, gen) for _ in range(5)]
        probes = gen.standard_normal((10, 4))
        for theta in probes:
            grads = np.stack([oracles.population_grad(theta, w, env) for w in ws])
            gap = np.max(np.linalg.norm(grads - grads[0], axis=1))
            assert gap < 1e-12

    def test_meta_loss_minimum_is_a_lower_bound(self, rng):
        env = TaskEnvironment(dim=4, center=np.ones(4),
                              task_spread=0.6, label_noise_var=0.3)
        gen = np.random.default_rng(9)
        ws = np.stack([sample_device(env, gen) for _ in range(6)])
        f_star = tasks.meta_loss_minimum(ws, env, alpha=0.3)
        w_bar = ws.mean(axis=0)
        assert tasks.mean_meta_loss(w_bar, ws, env, 0.3) == pytest.approx(f_star, rel=1e-12)
        for _ in range(20):
            theta = rng.standard_normal(4) * 3
            assert tasks.mean_meta_loss(theta, ws, env, 0.3) >= f_star - 1e-12


class TestScalarOracles:
    """The scalar oracles against the d x d forms of a general input
    covariance, evaluated at Cov = s*I."""

    S, D, ALPHA, M_TR = 1.3, 5, 0.3, 7

    @pytest.fixture
    def env(self):
        return TaskEnvironment(dim=self.D, center=np.array([1.0, 0.0, -0.5, 0.2, 0.7]),
                               task_spread=0.4, input_cov=self.S, label_noise_var=0.6)

    def cov(self):
        return self.S * np.eye(self.D)

    def curvature(self):
        shrink = np.eye(self.D) - self.ALPHA * self.cov()
        return shrink @ self.cov() @ shrink

    def test_meta_curvature(self, env):
        want = self.curvature()
        got = tasks.meta_curvature(env, self.ALPHA)
        assert np.allclose(got * np.eye(self.D), want, rtol=1e-14, atol=0)

    def test_grad_moment_forms(self, env):
        cov = self.cov()
        tr = np.trace(cov)
        second, variance, noise = tasks.grad_moment_forms(env)
        assert np.allclose(second * np.eye(self.D), 2 * cov @ cov + tr * cov, rtol=1e-14, atol=0)
        assert np.allclose(variance * np.eye(self.D), cov @ cov + tr * cov, rtol=1e-14, atol=0)
        assert noise == pytest.approx(env.label_noise_var * tr, rel=1e-14)

    def test_population_meta_loss_and_minimum(self, env):
        gen = np.random.default_rng(4)
        ws = np.stack([sample_device(env, gen) for _ in range(6)])
        theta = gen.standard_normal(self.D)
        b = self.curvature()
        for w in ws:
            u = theta - w
            want = 0.5 * u @ b @ u + 0.5 * env.label_noise_var
            got = tasks.population_meta_loss(theta, w, env, self.ALPHA)
            assert got == pytest.approx(want, rel=1e-14)
        dev = ws - ws.mean(axis=0)
        want = 0.5 * np.mean(np.einsum("id,de,ie->i", dev, b, dev)) + 0.5 * env.label_noise_var
        assert tasks.meta_loss_minimum(ws, env, self.ALPHA) == pytest.approx(want, rel=1e-14)

    def test_analytic_meta_test_loss(self, env):
        cov, alpha, m_tr = self.cov(), self.ALPHA, self.M_TR
        cov2 = cov @ cov
        tr_cov2 = np.trace(cov2)
        m_mat = cov - 2 * alpha * cov2 + alpha**2 * (
            (m_tr + 1) / m_tr * cov2 @ cov + tr_cov2 / m_tr * cov)
        theta = np.array([0.5, 0.5, 0.5, -0.2, 0.1])
        u = theta - env.center
        want = (0.5 * u @ m_mat @ u + 0.5 * env.task_spread * np.trace(m_mat)
                + 0.5 * alpha**2 * env.label_noise_var * tr_cov2 / m_tr
                + 0.5 * env.label_noise_var)
        got = tasks.analytic_meta_test_loss(env, theta, alpha, m_tr)
        assert got == pytest.approx(want, rel=1e-14)


class TestMomentFormulas:
    def test_grad_moments_match_monte_carlo(self):
        env = TaskEnvironment(dim=4, center=np.zeros(4),
                              task_spread=0.0, label_noise_var=0.7)
        w = np.array([0.2, -1.0, 0.5, 0.0])
        phi = np.array([1.0, 0.3, -0.2, 0.8])
        gen = np.random.default_rng(11)
        n = 100_000
        x = gen.standard_normal((n, 4))
        y = x @ w + np.sqrt(0.7) * gen.standard_normal(n)
        grads = -(y - x @ phi)[:, None] * x
        e = phi - w
        second = float(np.mean(np.sum(grads**2, axis=1)))
        var = float(np.mean(np.sum((grads - grads.mean(axis=0)) ** 2, axis=1)))
        assert second == pytest.approx(oracles.grad_second_moment(e, env), rel=0.02)
        assert var == pytest.approx(oracles.grad_variance(e, env), rel=0.02)

    def test_hessian_spectral_variance_quadrature_matches_mc(self):
        env = TaskEnvironment(dim=5, center=np.zeros(5),
                              task_spread=0.0, input_cov=1.3)
        val = tasks.hessian_spectral_variance(env)
        gen = np.random.default_rng(3)
        x = gen.standard_normal((40_000, 5)) * np.sqrt(1.3)
        norms_sq = np.maximum((np.sum(x**2, axis=1) - 1.3) ** 2, 1.3**2)
        assert val == pytest.approx(float(norms_sq.mean()), rel=0.05)

    def test_meta_test_closed_form_matches_brute_force(self):
        env = TaskEnvironment(dim=3, center=np.array([1.0, 0.0, -0.5]),
                              task_spread=0.4, label_noise_var=0.6)
        theta = np.array([0.5, 0.5, 0.5])
        alpha, m_tr = 0.3, 7
        gen = np.random.default_rng(21)
        n = 120_000
        vals = np.empty(n)
        for i in range(n):
            w = sample_device(env, gen)
            x = gen.standard_normal((m_tr, 3))
            y = x @ w + np.sqrt(0.6) * gen.standard_normal(m_tr)
            phi = theta - alpha * tasks.batch_grad(theta, x, y)
            vals[i] = tasks.population_loss(phi, w, env)
        got = tasks.analytic_meta_test_loss(env, theta, alpha, m_tr)
        se = vals.std(ddof=1) / np.sqrt(n)
        assert abs(vals.mean() - got) < 3 * se
