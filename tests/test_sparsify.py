import numpy as np
import pytest

from airmeta.sparsify import PowerPolicy, comp_k, memory_fold, phase_precompensate, power_scale


class TestCompK:
    def test_topk_golden(self):
        out = comp_k(np.array([[3.0, -1.0, 0.5, 2.0], [0.5, 2.0, -3.0, 1.0]]), 2)
        assert np.array_equal(out, [[3.0, 0.0, 0.0, 2.0], [0.0, 2.0, -3.0, 0.0]])

    def test_keep_all_is_identity(self, rng):
        x = rng.standard_normal((3, 8))
        assert np.array_equal(comp_k(x, 8), x)

    def test_tie_break_lowest_index(self):
        out = comp_k(np.array([[2.0, -2.0, 1.0]]), 1)
        assert np.array_equal(out, [[2.0, 0.0, 0.0]])

    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            comp_k(np.ones((1, 3)), 0)
        with pytest.raises(ValueError):
            comp_k(np.ones((1, 3)), 4)

    def test_rows_must_be_stacked(self):
        with pytest.raises(ValueError):
            comp_k(np.ones(4), 2)

    def test_nnz_at_most_k(self, rng):
        for k in (1, 3, 5):
            x = rng.standard_normal((4, 10))
            assert np.all(np.count_nonzero(comp_k(x, k), axis=1) <= k)

    def test_contraction_property(self):
        from airmeta.verify import check_contraction

        res = check_contraction(seed=0, n_vectors=400, dim=16)
        assert res.passed, res.detail


class TestMemoryFold:
    def test_lossless_when_keeping_all(self, rng):
        delta = rng.standard_normal((2, 5))
        g, m = memory_fold(np.zeros((2, 5)), delta, 5)
        assert np.array_equal(g, delta)
        assert np.all(m == 0)

    def test_residual_golden(self):
        g, m = memory_fold(np.zeros((1, 4)), np.array([[3.0, -1.0, 0.5, 2.0]]), 2)
        assert np.array_equal(g, [[3.0, 0.0, 0.0, 2.0]])
        assert np.array_equal(m, [[0.0, -1.0, 0.5, 0.0]])

    def test_updates_telescope(self, rng):
        m = np.zeros((3, 6))
        total_delta = np.zeros((3, 6))
        total_g = np.zeros((3, 6))
        for _ in range(40):
            delta = rng.standard_normal((3, 6))
            g, m = memory_fold(m, delta, 2)
            total_delta += delta
            total_g += g
        assert np.allclose(total_delta, total_g + m, atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            memory_fold(np.zeros((1, 3)), np.zeros((1, 4)), 2)


class TestPowerScale:
    def test_binding_golden(self):
        rho = power_scale([np.array([1.0, 0.0])], eta=1.0,
                          policy=PowerPolicy(power=1.0, channel_uses=2))
        assert rho == pytest.approx(2.0)
        g = np.array([1.0, 0.0])
        assert np.sum(np.abs(np.sqrt(rho) * g) ** 2) / 2 == pytest.approx(1.0)

    def test_linear_in_power(self, rng):
        gs = [rng.standard_normal(4) for _ in range(3)]
        r1 = power_scale(gs, 0.3, PowerPolicy(power=1.0, channel_uses=4))
        r2 = power_scale(gs, 0.3, PowerPolicy(power=2.0, channel_uses=4))
        assert r2 == pytest.approx(2 * r1)

    def test_binding_device_exact_others_below(self, rng):
        eta, m = 0.5, 6
        gs = [rng.standard_normal(6) * s for s in (0.5, 2.0, 1.0)]
        rho = power_scale(gs, eta, PowerPolicy(power=1.5, channel_uses=m))
        budgets = [np.sum((np.sqrt(rho) / eta * g) ** 2) / m for g in gs]
        assert max(budgets) == pytest.approx(1.5, rel=1e-12)
        assert sum(b < 1.5 - 1e-12 for b in budgets) == 2

    def test_all_zero_returns_cap(self):
        policy = PowerPolicy(power=1.0, channel_uses=4, rho_max=123.0)
        assert power_scale([np.zeros(4), np.zeros(4)], 0.1, policy) == 123.0

    @pytest.mark.parametrize("eta, scale", [(1.0, 1e-170), (1e-157, 1.0), (1e-150, 1e5),
                                            (1e160, 1.0)])
    def test_subnormal_energy_or_scale_is_nan(self, eta, scale):
        """||g||^2, eta^2 or rho below the normal range (here: underflowed to
        0, subnormal, subnormal) leave too few bits to meet the budget; a
        tiny nonzero update must not get the zero-update cap either.  An
        eta^2 that overflows leaves no finite scale."""
        policy = PowerPolicy(power=1.0, channel_uses=4, rho_max=123.0)
        assert np.isnan(power_scale([np.full(4, scale)], eta, policy))

    def test_nonzero_update_at_zero_eta_rejected(self):
        with pytest.raises(ValueError):
            power_scale([np.ones(3)], 0.0, PowerPolicy(power=1.0, channel_uses=3))


class TestPhasePrecompensate:
    def test_cophased_arrival(self, rng):
        g = rng.standard_normal((2, 5))
        h = np.array([np.exp(1j * np.pi / 4), -0.2 + 0.9j])
        x = phase_precompensate(g, rho=2.0, eta=0.5, gains=h)
        arrived = h[:, None] * x
        assert np.max(np.abs(arrived.imag)) < 1e-12
        assert np.allclose(arrived.real, np.sqrt(2.0) / 0.5 * np.abs(h)[:, None] * g,
                           atol=1e-12)

    def test_unit_channel_no_rotation(self, rng):
        g = rng.standard_normal((1, 4))
        x = phase_precompensate(g, rho=1.0, eta=0.2, gains=[1.0 + 0j])
        assert np.allclose(x, g / 0.2, atol=1e-12)
        assert np.max(np.abs(x.imag)) == 0.0

    def test_arrival_modulus(self, rng):
        g = rng.standard_normal((1, 4))
        h = 0.3 - 0.7j
        x = phase_precompensate(g, rho=1.5, eta=0.4, gains=[h])
        assert np.allclose(np.abs(h * x), abs(h) * np.sqrt(1.5) / 0.4 * np.abs(g), atol=1e-12)

    def test_zero_channel_rejected(self, rng):
        with pytest.raises(ValueError):
            phase_precompensate(rng.standard_normal((2, 3)), 1.0, 0.1, [1.0, 0.0])

    def test_zero_update_transmits_zeros(self):
        g = np.zeros((2, 3))
        x = phase_precompensate(g, rho=5.0, eta=0.0, gains=[1j, -1.0])
        assert np.array_equal(x, np.zeros((2, 3), dtype=complex))
        g[1, 0] = 1.0  # a live row next to a zero one
        x = phase_precompensate(g, rho=4.0, eta=0.5, gains=[1j, -1.0])
        assert np.array_equal(x[0], np.zeros(3, dtype=complex))
        assert np.allclose(x[1], [-4.0, 0.0, 0.0], atol=1e-15)
