import numpy as np
import pytest

from airmeta import bounds
from airmeta.bounds import (AssumptionConstants, adaptive_floor_c, adaptive_rate_bound,
                            constant_rate_bound, derived_constants, estimate_constants,
                            generalization_bound, memory_gain, midpoint_c,
                            sub_gaussian_proxy)
from airmeta.tasks import NoClosedFormError, TaskEnvironment, sample_device


def make_ac(**kw):
    base = dict(l_g=1.0, l_h=0.0, g_sq=4.0, sigma_g_sq=2.0, sigma_h_sq=3.0,
                gamma_g_sq=0.5, gamma_h_sq=0.0)
    base.update(kw)
    return AssumptionConstants(**base)


BOUND_ARGS = dict(q=5, r=0.5, n=8, d=20, m_uses=8, p_min=1.0, eta=0.001,
                  alpha=0.4, batch_size=16, t_rounds=200, f_init=10.0, f_star=1.0,
                  v_mean=0.3, abs_mean=np.sqrt(np.pi) / 2, abs_power=1.0)


PROBE = {"g_sq": 3.0, "sigma_g_sq": 2.0}


class TestConstantEstimation:
    def test_identity_covariance_analytic(self):
        env = TaskEnvironment(family="quadratic", dim=5, center=np.zeros(5),
                              task_spread=0.4, label_noise_var=0.2)
        gen = np.random.default_rng(0)
        ws = np.stack([sample_device(env, gen).w for _ in range(4)])
        ac = estimate_constants(env, ws, PROBE)
        assert ac.l_g == 1.0 and ac.l_h == 0.0
        assert ac.provenance["l_g"] == "analytic"
        assert ac.gamma_h_sq == 0.0

    def test_homogeneous_devices_zero_heterogeneity(self):
        env = TaskEnvironment(family="quadratic", dim=4, center=np.ones(4),
                              task_spread=0.0, label_noise_var=0.1)
        gen = np.random.default_rng(0)
        ws = np.stack([sample_device(env, gen).w for _ in range(5)])
        ac = estimate_constants(env, ws, PROBE)
        assert ac.gamma_g_sq == 0.0 and ac.gamma_h_sq == 0.0

    def test_heterogeneity_is_max_deviation(self):
        env = TaskEnvironment(family="quadratic", dim=2, center=np.zeros(2),
                              task_spread=1.0)
        ws = np.array([[1.0, 0.0], [-1.0, 0.0]])
        ac = estimate_constants(env, ws, PROBE)
        assert ac.gamma_g_sq == pytest.approx(1.0)  # ||cov (w_i - w_bar)||^2

    def test_gradient_moments_are_the_probe_maxima(self):
        env = TaskEnvironment(family="quadratic", dim=3, center=np.zeros(3),
                              task_spread=0.0)
        ac = estimate_constants(env, np.zeros((2, 3)), PROBE)
        assert (ac.g_sq, ac.sigma_g_sq) == (PROBE["g_sq"], PROBE["sigma_g_sq"])
        assert ac.provenance["g_sq"] == ac.provenance["sigma_g_sq"] == "empirical"

    def test_logistic_family_has_no_closed_form(self):
        env = TaskEnvironment(family="logistic", dim=3, center=0.4 * np.ones(3),
                              task_spread=0.3)
        with pytest.raises(NoClosedFormError):
            estimate_constants(env, np.zeros((3, 3)), None)  # a logistic run has no probe


class TestDerivedConstants:
    def test_memory_gain_golden(self):
        assert memory_gain(0.5, 0.5) == pytest.approx(6.0)

    def test_memory_gain_zero_when_keeping_all(self):
        assert memory_gain(1.0, 123.0) == 0.0

    def test_invalid_c_rejected(self):
        with pytest.raises(ValueError):
            memory_gain(0.5, 1.5)  # above lam/(1-lam) = 1
        with pytest.raises(ValueError):
            memory_gain(0.5, 0.0)

    def test_midpoint_rule(self):
        assert midpoint_c(0.5) == pytest.approx(0.5)
        assert midpoint_c(0.05) == pytest.approx(0.05 / 1.9)

    def test_alpha_zero_reductions(self):
        ac = make_ac()
        dc = derived_constants(ac, alpha=0.0, k=10, d=20, batch_size=16)
        assert dc.l_f == 4.0 * ac.l_g
        assert dc.gamma_f_sq == 192.0 * ac.gamma_g_sq
        assert dc.sigma_f_sq == pytest.approx(12.0 * ac.sigma_g_sq / 16)

    def test_zero_hessian_lipschitz_drops_gradient_norm(self):
        a = derived_constants(make_ac(g_sq=4.0), 0.5, 10, 20, 16)
        b = derived_constants(make_ac(g_sq=400.0), 0.5, 10, 20, 16)
        assert a.l_f == b.l_f == 4.0

    def test_alpha_above_inverse_smoothness_rejected(self):
        with pytest.raises(ValueError):
            derived_constants(make_ac(l_g=2.0), alpha=0.6, k=10, d=20, batch_size=16)


class TestConstantRateBound:
    def test_total_is_sum_of_terms(self):
        rep = constant_rate_bound(derived_constants(make_ac(), 0.4, 1, 20, 16),
                                  make_ac(), **BOUND_ARGS)
        assert rep.total == pytest.approx(sum(rep.terms.values()))

    def test_zero_inner_noise_kills_floor(self):
        ac = make_ac(sigma_g_sq=0.0)
        rep = constant_rate_bound(derived_constants(ac, 0.4, 1, 20, 16), ac, **BOUND_ARGS)
        assert rep.terms["inner_sgd_floor"] == 0.0

    def test_keep_all_kills_sparsification_term(self):
        ac = make_ac()
        rep = constant_rate_bound(derived_constants(ac, 0.4, 20, 20, 16), ac, **BOUND_ARGS)
        assert rep.terms["sparsification"] == 0.0

    def test_unit_fading_noiseless_kills_estimation_term(self):
        ac = make_ac()
        args = dict(BOUND_ARGS, v_mean=0.0, abs_mean=1.0, abs_power=1.0)
        rep = constant_rate_bound(derived_constants(ac, 0.4, 1, 20, 16), ac, **args)
        assert rep.terms["estimation"] == 0.0

    def test_terms_nonnegative_on_random_grid(self):
        gen = np.random.default_rng(4)
        for _ in range(100):
            ac = make_ac(g_sq=float(gen.uniform(0.1, 10)),
                         sigma_g_sq=float(gen.uniform(0, 5)),
                         sigma_h_sq=float(gen.uniform(0, 5)),
                         gamma_g_sq=float(gen.uniform(0, 2)))
            alpha = float(gen.uniform(0.0, 1.0))
            k = int(gen.integers(1, 21))
            dc = derived_constants(ac, alpha, k, 20, 16)
            args = dict(BOUND_ARGS, eta=float(gen.uniform(1e-4, 0.01)),
                        alpha=alpha, v_mean=float(gen.uniform(0, 2)))
            rep = constant_rate_bound(dc, ac, **args)
            assert all(v >= 0 for v in rep.terms.values())

    @pytest.mark.parametrize("axis,values", [
        ("m_uses", [2, 5, 10, 20]),
        ("n", [2, 4, 8, 16]),
        ("p_min", [0.5, 1.0, 2.0, 4.0]),
    ])
    def test_estimation_term_nonincreasing(self, axis, values):
        ac = make_ac()
        dc = derived_constants(ac, 0.4, 1, 20, 16)
        vals = []
        for v in values:
            rep = constant_rate_bound(dc, ac, **{**BOUND_ARGS, axis: v})
            vals.append(rep.terms["estimation"])
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_sparsification_term_nonincreasing_in_k(self):
        ac = make_ac()
        vals = []
        for k in (1, 2, 5, 10, 20):
            dc = derived_constants(ac, 0.4, k, 20, 16)
            vals.append(constant_rate_bound(dc, ac, **BOUND_ARGS).terms["sparsification"])
        assert all(a >= b for a, b in zip(vals, vals[1:]))


class TestAdaptiveRateBound:
    ARGS = dict(q=1, r=1.0, n=8, d=20, m_uses=8, p_min=1.0, xi=8.0, a=400.0,
                xi_inner=100.0, a_inner=400.0, batch_size=16, t_rounds=2000,
                f_init=10.0, f_star=1.0, v_max=0.4,
                abs_mean=np.sqrt(np.pi) / 2, abs_power=1.0)

    def test_vanishes_with_horizon(self):
        ac = make_ac()
        dc = derived_constants(ac, 0.25, 1, 20, 16)
        small = adaptive_rate_bound(dc, ac, **{**self.ARGS, "t_rounds": 10**6}).total
        big = adaptive_rate_bound(dc, ac, **{**self.ARGS, "t_rounds": 100}).total
        assert small < 0.12 * big

    def test_zero_inner_scale_kills_inner_term(self):
        ac = make_ac()
        dc = derived_constants(ac, 0.25, 1, 20, 16)
        rep = adaptive_rate_bound(dc, ac, **{**self.ARGS, "xi_inner": 0.0})
        assert rep.terms["inner_sgd"] == 0.0

    def test_terms_nonnegative_on_random_grid(self):
        gen = np.random.default_rng(9)
        count = 0
        while count < 100:
            ac = make_ac(g_sq=float(gen.uniform(0.1, 10)),
                         sigma_g_sq=float(gen.uniform(0, 5)))
            k = int(gen.integers(1, 21))
            q = int(gen.integers(1, 4))
            a = float(gen.uniform(2.0, 500.0))
            if a * k / 20 <= 4 * q:
                continue
            dc = derived_constants(ac, 0.25, k, 20, 16)
            rep = adaptive_rate_bound(dc, ac, **{**self.ARGS, "a": a, "q": q})
            assert all(v >= 0 for v in rep.terms.values())
            count += 1

    def test_floor_precondition_enforced(self):
        with pytest.raises(ValueError):
            adaptive_floor_c(lam=0.05, a=100.0, q=5)  # a*lam = 5 <= 20
        ac = make_ac()
        dc = derived_constants(ac, 0.25, 1, 20, 16)
        with pytest.raises(ValueError):
            adaptive_rate_bound(dc, ac, **{**self.ARGS, "q": 5, "a": 100.0})


class TestGeneralizationBound:
    ARGS = dict(d=20, n=9, sigma_sq=4.0, m_uses=8, p_max=1.0, rn=3, c_g=50.0,
                eps_g=1e-3)

    def test_no_rounds_no_information(self):
        val = generalization_bound(sum_abs_h_sq=np.array([]), v_series=np.array([]),
                                   **self.ARGS)
        assert val == 0.0

    def test_noiseless_round_is_vacuous(self):
        val = generalization_bound(sum_abs_h_sq=np.array([1.0, 2.0]),
                                   v_series=np.array([0.5, 0.0]), **self.ARGS)
        assert val == np.inf

    def test_decreasing_in_devices_with_log_term_fixed(self):
        s = np.full(50, 3.0)
        v = np.full(50, 0.2)
        vals = [generalization_bound(sum_abs_h_sq=s, v_series=v,
                                     **{**self.ARGS, "n": n}) for n in (3, 6, 9, 18)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("axis", ["m_uses", "p_max"])
    def test_strictly_increasing_in_resources(self, axis):
        gen = np.random.default_rng(2)
        for _ in range(100):
            s = gen.uniform(0.5, 5.0, size=20)
            v = gen.uniform(0.01, 1.0, size=20)
            args = dict(self.ARGS, c_g=float(gen.uniform(1, 100)),
                        eps_g=float(gen.uniform(1e-4, 1e-1)))
            lo = generalization_bound(sum_abs_h_sq=s, v_series=v, **{**args, axis: 1.0})
            hi = generalization_bound(sum_abs_h_sq=s, v_series=v, **{**args, axis: 2.0})
            assert hi > lo

    def test_decreasing_in_estimation_error(self):
        s = np.full(30, 3.0)
        lo_v = generalization_bound(sum_abs_h_sq=s, v_series=np.full(30, 0.1), **self.ARGS)
        hi_v = generalization_bound(sum_abs_h_sq=s, v_series=np.full(30, 1.0), **self.ARGS)
        assert lo_v > hi_v

    def test_sub_gaussian_proxy(self):
        assert sub_gaussian_proxy(4.0) == 4.0
        with pytest.raises(ValueError):
            sub_gaussian_proxy(0.0)
