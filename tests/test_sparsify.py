import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from airmeta import channel, meta, protocol, sparsify
from airmeta.protocol import ExperimentConfig, run_experiment
from airmeta.sparsify import PowerPolicy, comp_k, memory_fold, phase_precompensate

import oracles


def power_scale(updates, eta, policy):
    """The scale of one (n, d) stack of updates at the outer rate eta."""
    g = np.asarray(updates, dtype=float)
    return sparsify.power_scale(g.any(axis=-1), sparsify.energies(g), sparsify.rate_sq(eta),
                                policy)


def phase(h):
    """``sparsify.phase`` of the gains h, from their moduli as a run forms
    them."""
    return sparsify.phase(h, np.hypot(h.real, h.imag))


def precompensate(g, rho, eta, gains):
    """``phase_precompensate`` of the (n, d) updates g, sent over ``gains``."""
    g = np.asarray(g, dtype=float)
    return phase_precompensate(g, g.any(axis=-1), np.asarray(rho, dtype=float), eta,
                               phase(np.asarray(gains, dtype=complex)))


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
        """A run's k is checked where the config enters: 1 <= k <= d."""
        for k in (0, 4):
            with pytest.raises(ValueError, match=r"^sparsify_k must be in \[1, dim\]$"):
                ExperimentConfig(dim=3, sparsify_k=k, channel_uses=3).validate()

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

    def test_nonzero_update_at_zero_eta_rejected(self, monkeypatch):
        """A schedule whose outer rate is 0 at round 3 leaves the memory of
        rounds 0-2 as a nonzero update there, which cannot be scaled: the
        run aborts at round 3 without sending."""
        schedule = protocol.lr_schedule
        monkeypatch.setattr(protocol, "lr_schedule",
                            lambda cfg, t: (0.0, schedule(cfg, t)[1]) if t == 3
                            else schedule(cfg, t))
        traj = run_experiment(ExperimentConfig(rounds=6, active_fraction=1 / 3))
        assert traj.aborted_at == 3
        assert np.isnan(traj.records["rho"][3]) and (traj.records["rho"][:3] > 0).all()

    @pytest.mark.parametrize("entry, eta", [(np.inf, 0.5), (-np.inf, 0.5), (np.nan, 0.5),
                                            (1e200, 0.5), (1.0, 0.0)])
    def test_kernel_gives_nan_where_the_stage_raises(self, entry, eta):
        """A stack of a non-finite update, of one whose energy overflows, or
        of a nonzero update at eta == 0 gets no scale, so its trial cannot
        send; an all-zero stack of the same call keeps the cap."""
        policy = PowerPolicy(power=1.0, channel_uses=3, rho_max=123.0)
        g = np.zeros((2, 2, 3))
        g[1] = 1.0
        g[1, 0, 1] = entry
        with np.errstate(all="ignore"):
            rho = sparsify.power_scale(g.any(axis=-1), sparsify.energies(g),
                                       sparsify.rate_sq(eta), policy)
        assert rho[0] == 123.0 and np.isnan(rho[1])


class TestPhasePrecompensate:
    def test_cophased_arrival(self, rng):
        g = rng.standard_normal((2, 5))
        h = np.array([np.exp(1j * np.pi / 4), -0.2 + 0.9j])
        x = precompensate(g, rho=2.0, eta=0.5, gains=h)
        arrived = h[:, None] * x
        assert np.max(np.abs(arrived.imag)) < 1e-12
        assert np.allclose(arrived.real, np.sqrt(2.0) / 0.5 * np.abs(h)[:, None] * g,
                           atol=1e-12)

    def test_unit_channel_no_rotation(self, rng):
        g = rng.standard_normal((1, 4))
        x = precompensate(g, rho=1.0, eta=0.2, gains=[1.0 + 0j])
        assert np.allclose(x, g / 0.2, atol=1e-12)
        assert np.max(np.abs(x.imag)) == 0.0

    def test_arrival_modulus(self, rng):
        g = rng.standard_normal((1, 4))
        h = 0.3 - 0.7j
        x = precompensate(g, rho=1.5, eta=0.4, gains=[h])
        assert np.allclose(np.abs(h * x), abs(h) * np.sqrt(1.5) / 0.4 * np.abs(g), atol=1e-12)

    def test_zero_channel_rejected(self, monkeypatch):
        """A zero coefficient has no phase: a sampled one, in the last round
        of a run of three blocks, stops the run before any local step
        (``meta.local_rounds``) runs."""
        draws, drawn = channel.channel_draws, []

        def a_zero_gain(*args):
            gains, noise = draws(*args)
            drawn.extend(range(gains.shape[1]))  # the rounds drawn so far
            if len(drawn) == 6:  # this call draws the run's last round
                gains[0, -1, 1] = 0.0
            return gains, noise

        calls = []
        local_rounds = meta.local_rounds
        monkeypatch.setattr(meta, "local_rounds",
                            lambda *args, **kw: calls.append(1) or local_rounds(*args, **kw))
        monkeypatch.setattr(channel, "channel_draws", a_zero_gain)
        monkeypatch.setattr(protocol, "_BLOCK_ROUNDS", 2)
        with pytest.raises(ValueError, match="^zero channel coefficient"):
            run_experiment(ExperimentConfig(rounds=6, active_fraction=1 / 3))
        assert calls == []

    def test_zero_update_transmits_zeros(self):
        g = np.zeros((2, 3))
        with np.errstate(divide="ignore", invalid="ignore"):  # a factor of 1 / eta
            x = precompensate(g, rho=5.0, eta=0.0, gains=[1j, -1.0])
        assert np.array_equal(x, np.zeros((2, 3), dtype=complex))
        g[1, 0] = 1.0  # a live row next to a zero one
        x = precompensate(g, rho=4.0, eta=0.5, gains=[1j, -1.0])
        assert np.array_equal(x[0], np.zeros(3, dtype=complex))
        assert np.allclose(x[1], [-4.0, 0.0, 0.0], atol=1e-15)


COMPONENTS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e-310, 1e308, -1e308, 1.0, -1.0]))


class TestPhaseFactors:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.lists(st.tuples(COMPONENTS, COMPONENTS).filter(lambda c: c != (0.0, 0.0)),
                    min_size=1, max_size=8))
    def test_equal_numpy_scalar_quotient(self, parts):
        """Signed zeros, subnormals and gains whose modulus overflows
        included: the array form is the per-scalar quotient, bit for bit."""
        h = np.array([complex(re, im) for re, im in parts])
        with np.errstate(all="ignore"):
            assert phase(h).tobytes() == oracles.phase(h).tobytes()

    def test_rayleigh_draws(self):
        gen = np.random.default_rng(8)
        h = (gen.standard_normal(100_000) + 1j * gen.standard_normal(100_000)) / np.sqrt(2)
        assert phase(h).tobytes() == oracles.phase(h).tobytes()

    def test_precompensated_rows(self, rng):
        g = rng.standard_normal((6, 5))
        h = (rng.standard_normal(6) + 1j * rng.standard_normal(6)) / np.sqrt(2)
        want = ((np.sqrt(2.5) / 0.3) * oracles.phase(h))[:, None] * g
        assert precompensate(g, 2.5, 0.3, h).tobytes() == want.tobytes()
