import numpy as np
import pytest

from airmeta import meta, tasks
from airmeta.meta import local_rounds, meta_grad_estimate
from airmeta.tasks import (Dataset, TaskEnvironment, sample_dataset, sample_device,
                           stack_datasets)

import oracles


def orthonormal_design(w, copies=1):
    """Dataset whose batches realize the population moments exactly.

    Points sqrt(d)*e_j have empirical second moment I for any full block, and
    noiseless labels make every batch gradient equal the population one.
    """
    d = w.size
    x = np.sqrt(d) * np.eye(d)
    blocks = np.vstack([x] * (1 + 2 * copies))
    y = blocks @ w
    return Dataset(x=blocks, y=y, m_tr=d, m_va=2 * copies * d)


def estimate(theta, ds, alpha, batch, gen):
    """meta_grad_estimate of one device, as a one-row stack, on one step's
    batches drawn from ``gen``."""
    idx = meta.draw_batches(gen, meta.batch_pools(ds, batch), batch, 1)
    return meta_grad_estimate(theta[None], stack_datasets([ds]), idx, alpha)[0]


def local(theta, ds, alpha, steps, batch, eta, gen):
    """(delta, iterates) of one device's local_rounds, as a one-row stack, on
    the batches of all its steps drawn from ``gen``."""
    idx = meta.draw_batches(gen, meta.batch_pools(ds, batch), batch, steps)
    delta, iterates = local_rounds(theta, stack_datasets([ds]), idx[:, None], alpha, eta)
    return delta[0], iterates[:, 0]


class TestInnerAdapt:
    """The adaptation step theta - alpha * batch_grad of meta_grad_estimate."""

    def test_matches_literal_summation(self, rng):
        theta = rng.standard_normal(3)
        x = rng.standard_normal((7, 3))
        y = rng.standard_normal(7)
        alpha = 0.3
        expected = theta - (alpha / 7) * sum(oracles.grad(theta, x[i], y[i]) for i in range(7))
        phi = theta - alpha * tasks.batch_grad(theta, x, y)
        assert np.allclose(phi, expected, rtol=0, atol=1e-14)


class TestBatchPools:
    def test_pools_are_disjoint(self):
        ds = Dataset(x=np.zeros((10, 2)), y=np.zeros(10), m_tr=4, m_va=6)
        pools = meta.batch_pools(ds, 2)
        flat = np.concatenate(pools)
        assert len(set(flat.tolist())) == flat.size
        assert set(pools[0].tolist()) == set(range(4))

    def test_too_small_dataset_rejected(self):
        ds = Dataset(x=np.zeros((6, 2)), y=np.zeros(6), m_tr=3, m_va=3)
        with pytest.raises(ValueError):
            meta.batch_pools(ds, 2)


class TestMetaGradEstimate:
    def test_exact_design_matches_population_meta_grad(self):
        w = np.array([0.0, 0.0, 0.0])
        theta = np.array([1.0, 0.0, 0.0])
        ds = orthonormal_design(w)
        est = estimate(theta, ds, 0.5, 3, np.random.default_rng(0))
        assert np.allclose(est, 0.25 * theta, atol=1e-12)

    def test_alpha_zero_is_plain_minibatch_gradient(self, rng):
        w = rng.standard_normal(3)
        ds = orthonormal_design(w)
        theta = rng.standard_normal(3)
        est = estimate(theta, ds, 0.0, 3, np.random.default_rng(0))
        # full-pool batch: the estimate is the batch gradient at theta itself
        assert np.allclose(est, theta - w, atol=1e-12)

    def test_conditional_mean_matches_exact_oracle(self, rng):
        """Mean of the estimator over batch draws from a frozen dataset equals
        the product of per-pool conditional expectations (quadratic family)."""
        d, m_b = 3, 4
        env = TaskEnvironment(dim=d, center=np.zeros(d),
                              task_spread=0.5, label_noise_var=0.5)
        w = sample_device(env, rng)
        ds = sample_dataset(w, env, 24, 8, 16, rng)
        theta = rng.standard_normal(d)
        alpha = 0.3
        pool_b, pool_g, pool_h = meta.batch_pools(ds, m_b)

        def pool_grad(phi, pool):
            return tasks.batch_grad(phi, ds.x[pool], ds.y[pool])

        h_mean = tasks.batch_hessian(theta, ds.x[pool_h], ds.y[pool_h])
        s_g = tasks.batch_hessian(theta, ds.x[pool_g], ds.y[pool_g])  # phi-independent
        # E over B of the adapted point, then the (linear) outer gradient
        phi_mean = theta - alpha * pool_grad(theta, pool_b)
        g_outer_mean = pool_grad(phi_mean, pool_g)
        expected = (np.eye(d) - alpha * h_mean) @ g_outer_mean
        n = 20_000
        draws = np.stack([estimate(theta, ds, alpha, m_b, rng) for _ in range(n)])
        se = draws.std(axis=0, ddof=1) / np.sqrt(n)
        assert np.all(np.abs(draws.mean(axis=0) - expected) <= 3 * se + 1e-12)
        assert s_g.shape == (d, d)

    def test_fresh_data_mean_matches_population_and_bias_bound(self):
        """Over fresh datasets the estimator mean lands on the population
        meta-gradient (quadratic losses make it unbiased), within the stated
        squared-bias allowance 4 a^2 L^2 sigma_G^2 / m_B."""
        d, m_b, alpha = 3, 8, 0.3
        env = TaskEnvironment(dim=d, center=np.zeros(d),
                              task_spread=0.0, label_noise_var=0.4)
        gen = np.random.default_rng(17)
        w = sample_device(env, gen)
        theta = np.array([1.0, -0.5, 0.25])
        n = 10_000
        draws = np.empty((n, d))
        for i in range(n):
            ds = sample_dataset(w, env, 3 * m_b, m_b, 2 * m_b, gen)
            draws[i] = estimate(theta, ds, alpha, m_b, gen)
        target = tasks.population_meta_grad(theta, w, env, alpha)
        se = draws.std(axis=0, ddof=1) / np.sqrt(n)
        assert np.all(np.abs(draws.mean(axis=0) - target) <= 3 * se)
        sigma_g_sq = oracles.grad_variance(theta - w, env)
        bias_sq_allow = 4 * alpha**2 * env.smoothness**2 * sigma_g_sq / m_b
        assert float(np.sum((draws.mean(axis=0) - target) ** 2)) <= bias_sq_allow

    def test_second_moment_within_stated_bound(self):
        """Measured E||estimate||^2 stays below
        2 ((1 + a L)^2 + a^2 sigma_H^2 / m_B) G^2 with measured constants."""
        d, m_b, alpha = 4, 8, 0.2
        env = TaskEnvironment(dim=d, center=np.zeros(d),
                              task_spread=0.0, label_noise_var=0.5)
        gen = np.random.default_rng(23)
        w = sample_device(env, gen)
        theta = np.array([0.8, -0.3, 0.1, 0.5])
        draws = []
        for _ in range(1000):
            ds = sample_dataset(w, env, 3 * m_b, m_b, 2 * m_b, gen)
            draws.append(float(np.sum(estimate(theta, ds, alpha, m_b, gen) ** 2)))
        g_sq = max(oracles.grad_second_moment(theta - w, env),
                   oracles.grad_second_moment((1 - alpha * env.input_cov) * (theta - w), env))
        sigma_h_sq = tasks.hessian_spectral_variance(env)
        limit = 2 * ((1 + alpha * env.smoothness) ** 2 + alpha**2 * sigma_h_sq / m_b) * g_sq
        assert float(np.mean(draws)) <= limit


class TestLocalRounds:
    def test_single_step_delta(self, rng):
        w = rng.standard_normal(3)
        ds = orthonormal_design(w)
        theta = rng.standard_normal(3)
        alpha, steps, batch = 0.5, 1, 3
        eta = 0.1
        delta, _ = local(theta, ds, alpha, steps, batch, eta, np.random.default_rng(0))
        est = estimate(theta, ds, alpha, batch, np.random.default_rng(0))
        assert np.allclose(delta, eta * est, atol=1e-14)

    def test_zero_rate_no_movement(self, rng):
        w = rng.standard_normal(3)
        ds = orthonormal_design(w)
        theta = rng.standard_normal(3)
        alpha, steps, batch = 0.5, 4, 3
        delta, iterates = local(theta, ds, alpha, steps, batch, 0.0, np.random.default_rng(0))
        assert np.all(iterates == theta)
        assert np.all(delta == 0)

    def test_external_step_replay(self, quad_w, quad_env, rng):
        ds = sample_dataset(quad_w, quad_env, 30, 10, 20, rng)
        theta0 = rng.standard_normal(quad_env.dim)
        alpha, steps, batch = 0.2, 3, 5
        eta = 0.05
        delta, iterates = local(theta0, ds, alpha, steps, batch, eta, np.random.default_rng(99))
        gen = np.random.default_rng(99)
        theta = theta0.copy()
        for k in range(3):
            assert np.array_equal(iterates[k], theta)
            theta = theta - eta * estimate(theta, ds, alpha, batch, gen)
        assert np.array_equal(delta, theta0 - theta)

    def test_determinism(self, quad_w, quad_env, rng):
        ds = sample_dataset(quad_w, quad_env, 30, 10, 20, rng)
        theta = rng.standard_normal(quad_env.dim)
        alpha, steps, batch = 0.2, 3, 5
        d1 = local(theta, ds, alpha, steps, batch, 0.05, np.random.default_rng(7))[0]
        d2 = local(theta, ds, alpha, steps, batch, 0.05, np.random.default_rng(7))[0]
        assert np.array_equal(d1, d2)

    def test_bad_calls_raise(self, rng):
        """A negative inner rate, no step and empty batches are refused."""
        data = stack_datasets([orthonormal_design(rng.standard_normal(3))])
        theta = np.zeros(3)
        idx = np.zeros((2, 1, 3, 1), dtype=np.int64)
        for call in (lambda: local_rounds(theta, data, idx, -0.1, 0.1),
                     lambda: local_rounds(theta, data, idx[:0], 0.1, 0.1),
                     lambda: local_rounds(theta, data, idx[..., :0], 0.1, 0.1),
                     lambda: meta_grad_estimate(theta[None], data, idx[0], -0.1),
                     lambda: meta_grad_estimate(theta[None], data, idx[0, ..., :0], 0.1)):
            with pytest.raises(ValueError):
                call()

    def test_drift_within_stated_bound(self):
        from airmeta.verify import check_local_drift

        res = check_local_drift(seed=0, n_draws=200)
        assert res.passed, res.detail
