import numpy as np
import pytest

from airmeta import channel as ch
from airmeta.channel import (CompressionMatrix, estimate, global_update,
                             make_compression, sample_channel, snr_noise_var,
                             transmit_mac)


class TestCompression:
    def test_m_larger_than_d_rejected(self, rng):
        with pytest.raises(ValueError):
            make_compression(5, 4, rng)

    def test_partial_dft_rows_orthonormal(self, rng):
        comp = make_compression(6, 16, rng)
        gram = comp.matrix @ comp.matrix.conj().T
        assert np.max(np.abs(gram - np.eye(6))) < 1e-10

    def test_partial_dft_rows_match_direct_construction(self):
        """Rows taken from the cached full DFT equal, bit for bit, the
        rows built for the round alone."""
        for dim, m in ((20, 8), (7, 7), (12, 1)):
            comp = make_compression(m, dim, np.random.default_rng(dim))
            rows = np.sort(np.random.default_rng(dim).choice(dim, size=m, replace=False))
            direct = np.exp(-2j * np.pi * np.outer(rows, np.arange(dim)) / dim) / np.sqrt(dim)
            assert comp.matrix.tobytes() == direct.tobytes()
            assert np.array_equal(comp.rows, rows)

    def test_spectral_norm_at_most_one(self, rng):
        for _ in range(100):
            m = int(rng.integers(1, 13))
            comp = make_compression(m, 12, rng)
            assert np.linalg.norm(comp.matrix, 2) <= 1 + 1e-8

    @pytest.mark.parametrize("rows", [[], [0, 0], [-1, 2], [1, 4], [[0, 1]], [0.0, 1.0]],
                             ids=["empty", "repeated", "negative", "beyond_d", "nested",
                                  "not_integer"])
    def test_malformed_rows_rejected(self, rows):
        """Rows must be 1 to d distinct integers in [0, d)."""
        with pytest.raises(ValueError):
            CompressionMatrix(4, np.array(rows))

    def test_oversized_norm_rejected(self, monkeypatch):
        """The DFT matrix is checked once per dimension; a norm above one
        stops it before any compression uses its rows."""
        monkeypatch.setattr(np.linalg, "norm", lambda a, ord=None: 1.5)
        with pytest.raises(ValueError, match="spectral norm"):
            ch._dft_matrix.__wrapped__(4)


class TestChannelSampling:
    def test_unit_fading(self, rng):
        round_ch = sample_channel(5, "unit", 0.0, 4, rng)
        assert np.array_equal(round_ch.gains, np.ones(5, dtype=complex))
        assert ch.fading_moments("unit") == (1.0, 1.0)

    def test_rayleigh_moments(self):
        from airmeta.verify import check_rayleigh_moments

        res = check_rayleigh_moments(seed=0)
        assert res.passed, res.detail

    def test_zero_noise_variance(self, rng):
        round_ch = sample_channel(2, "rayleigh", 0.0, 6, rng)
        assert np.all(round_ch.noise_re == 0) and np.all(round_ch.noise_im == 0)

    def test_measured_snr_matches_configuration(self):
        """Moment-level check: realized |h|^2 sums and the solved noise
        variance reproduce the configured received SNR within 0.2 dB."""
        gen = np.random.default_rng(8)
        n_active, power, snr_db = 3, 1.0, 13.0
        noise_var = snr_noise_var(snr_db, n_active, power, 1.0)
        sums = [np.sum(np.abs(sample_channel(n_active, "rayleigh", noise_var, 4, gen).gains) ** 2)
                for _ in range(10_000)]
        measured = 10 * np.log10(power * np.mean(sums) / noise_var)
        assert abs(measured - snr_db) < 0.2


class TestTransmit:
    def test_single_unit_device(self, rng):
        x = rng.standard_normal(4)
        round_ch = ch.ChannelRound(gains=np.ones(1, dtype=complex), noise_var=0.0,
                                   noise_re=np.zeros(4), noise_im=np.zeros(4))
        assert np.array_equal(transmit_mac(x[None], round_ch), x)

    def test_opposite_signals_cancel(self, rng):
        x = rng.standard_normal(4)
        round_ch = ch.ChannelRound(gains=np.ones(2, dtype=complex), noise_var=0.0,
                                   noise_re=np.zeros(4), noise_im=np.zeros(4))
        assert np.allclose(transmit_mac(np.stack([x, -x]), round_ch), 0.0, atol=1e-15)

    def test_matches_hand_superposition(self, rng):
        xs = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        gains = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        noise_re, noise_im = rng.standard_normal(3), rng.standard_normal(3)
        round_ch = ch.ChannelRound(gains=gains, noise_var=1.0, noise_re=noise_re,
                                   noise_im=noise_im)
        got = transmit_mac(xs, round_ch)
        want = sum(h * x for h, x in zip(gains, xs)) + noise_re + 1j * noise_im
        assert np.allclose(got, want, atol=1e-14)

    def test_length_mismatch(self, rng):
        round_ch = ch.ChannelRound(gains=np.ones(2, dtype=complex), noise_var=0.0,
                                   noise_re=np.zeros(3), noise_im=np.zeros(3))
        with pytest.raises(ValueError):
            transmit_mac(np.zeros((2, 4)), round_ch)  # block longer than the noise
        with pytest.raises(ValueError):
            transmit_mac(np.zeros((3, 3)), round_ch)  # one block too many


class TestEstimators:
    def test_noiseless_identity_exact(self, rng):
        """The matched estimate of a noiseless full-DFT block is the payload."""
        s = rng.standard_normal(5)
        comp = make_compression(5, 5, rng)
        est = estimate(comp.matrix @ s, comp, prior_power=1.0, noise_var=0.0, kind="matched")
        assert np.allclose(est.x_hat, s, rtol=0, atol=1e-14)
        assert est.err_var == 0.0

    def test_matched_full_dft_error_variance(self, rng):
        """Re(A^H y) on a unitary DFT block has per-component error variance
        equal to the per-real-component noise variance."""
        d, noise_var = 8, 0.3
        comp = make_compression(d, d, rng)
        errs = []
        for _ in range(4000):
            s = rng.standard_normal(d)
            n = np.sqrt(noise_var) * (rng.standard_normal(d) + 1j * rng.standard_normal(d))
            est = estimate(comp.matrix @ s + n, comp, 1.0, noise_var, "matched")
            errs.append(np.sum((est.x_hat - s) ** 2) / d)
        assert est.err_var == noise_var
        assert np.mean(errs) == pytest.approx(noise_var, rel=0.05)

    def test_matched_requires_square(self, rng):
        comp = make_compression(3, 6, rng)
        with pytest.raises(ValueError):
            estimate(np.zeros(3, dtype=complex), comp, 1.0, 0.1, "matched")

    def test_lmmse_shrinks_to_prior_mean_in_heavy_noise(self, rng):
        comp = make_compression(4, 8, rng)
        s = rng.standard_normal(8)
        y = comp.matrix @ s
        est = estimate(y, comp, prior_power=1.0, noise_var=1e12, kind="lmmse")
        assert np.max(np.abs(est.x_hat)) < 1e-9

    def test_lmmse_noiseless_orthonormal_rows_projection(self):
        """Rows 1, 2, 3 of the 8-point DFT and their conjugates 7, 6, 5 have
        no conjugate pair among them, so the stacked real system has full
        rank 6."""
        comp = CompressionMatrix(8, np.array([1, 2, 3]))
        s = np.random.default_rng(4).standard_normal(8)
        est = estimate(comp.matrix @ s, comp, prior_power=1.0, noise_var=0.0, kind="lmmse")
        assert not est.pinv_fallback
        # reconstruction is the projection onto the measured subspace, whose
        # orthonormal basis is the rows of sqrt(2) [Re A; Im A]
        b = comp.stacked_real()
        proj = 2.0 * b.T @ (b @ s)
        assert np.allclose(est.x_hat, proj, atol=1e-10)
        assert est.err_var == pytest.approx(0.25)  # 2 of 8 dimensions unobserved

    def test_lmmse_noiseless_singular_system_pinv_flag(self, rng):
        """The all-real DFT row makes the stacked real system singular at
        zero noise; recovery falls back to the pseudo-inverse and says so."""
        d = 8
        comp = CompressionMatrix(d, np.array([0, 1, 2]))
        s = rng.standard_normal(d)
        est = estimate(comp.matrix @ s, comp, prior_power=1.0, noise_var=0.0, kind="lmmse")
        assert est.pinv_fallback
        b = comp.stacked_real()
        proj = np.linalg.pinv(b) @ (b @ s)
        assert np.allclose(est.x_hat, proj, atol=1e-10)

    def test_lmmse_unregularizing_noise_falls_back_to_pinv(self, rng):
        """Conjugate DFT rows make the stacked real system rank-deficient; a
        noise variance too small to regularize it leaves the solve singular,
        so recovery falls back to the pseudo-inverse as at zero noise."""
        comp = make_compression(3, 3, rng)
        s = np.array([1.0, -2.0, 0.5])
        est = estimate(comp.matrix @ s, comp, prior_power=1.0, noise_var=1e-18, kind="lmmse")
        assert est.pinv_fallback
        assert np.allclose(est.x_hat, s, atol=1e-10)

    def test_lmmse_measured_error_matches_posterior_formula(self, rng):
        """Sparse signals with isotropic second moment: measured error over
        trials matches the posterior variance within 10%."""
        d, m, k, p, noise_var = 16, 8, 3, 2.0, 0.5
        comp = make_compression(m, d, rng)
        errs = []
        for _ in range(1000):
            s = np.zeros(d)
            support = rng.choice(d, size=k, replace=False)
            s[support] = rng.standard_normal(k) * np.sqrt(d * p / k)
            n = np.sqrt(noise_var) * (rng.standard_normal(m) + 1j * rng.standard_normal(m))
            est = estimate(comp.matrix @ s + n, comp, p, noise_var, "lmmse")
            errs.append(np.sum((est.x_hat - s) ** 2) / d)
        assert np.mean(errs) == pytest.approx(est.err_var, rel=0.10)

    def test_lmmse_error_uncorrelated_with_estimate(self, rng):
        """Orthogonality of the linear MMSE residual to the estimate."""
        d, m, p, noise_var = 12, 6, 1.0, 0.4
        comp = make_compression(m, d, rng)
        dots = []
        for _ in range(3000):
            s = np.sqrt(p) * rng.standard_normal(d)
            n = np.sqrt(noise_var) * (rng.standard_normal(m) + 1j * rng.standard_normal(m))
            y = comp.matrix @ s + n
            est = estimate(y, comp, p, noise_var, "lmmse")
            dots.append(float((est.x_hat - s) @ est.x_hat))
        se = np.std(dots, ddof=1) / np.sqrt(len(dots))
        assert abs(np.mean(dots)) <= 3 * se

    def test_matched_error_uncorrelated_with_signal(self, rng):
        d, noise_var = 6, 0.5
        comp = make_compression(d, d, rng)
        dots = []
        for _ in range(1000):
            s = rng.standard_normal(d)
            n = np.sqrt(noise_var) * (rng.standard_normal(d) + 1j * rng.standard_normal(d))
            y = comp.matrix @ s + n
            est = estimate(y, comp, 1.0, noise_var, "matched")
            dots.append(float((est.x_hat - s) @ s))
        se = np.std(dots, ddof=1) / np.sqrt(len(dots))
        assert abs(np.mean(dots)) <= 3 * se


class TestGlobalUpdate:
    def test_zero_estimate_identity(self, rng):
        theta = rng.standard_normal(4)
        est = ch.Estimate(x_hat=np.zeros(4), err_var=0.0)
        out = global_update(theta, est, eta=0.1, rho=2.0, abs_mean=1.0, n_active=3)
        assert np.array_equal(out, theta)

    def test_ideal_chain_reduction(self, rng):
        """Unit channel, matched identity, one device, keep-everything: the
        update subtracts the raw model difference exactly."""
        d, eta = 5, 0.2
        delta = rng.standard_normal(d)
        theta = rng.standard_normal(d)
        rho = 4.0
        x_hat = (np.sqrt(rho) / eta) * delta  # what the server reconstructs
        out = global_update(theta, ch.Estimate(x_hat=x_hat, err_var=0.0),
                            eta, rho, abs_mean=1.0, n_active=1)
        assert np.allclose(out, theta - delta, atol=1e-14)

    def test_nonpositive_rho_rejected(self, rng):
        est = ch.Estimate(x_hat=np.zeros(3), err_var=0.0)
        with pytest.raises(ValueError):
            global_update(rng.standard_normal(3), est, 0.1, 0.0, 1.0, 1)

    def test_mean_update_unbiased_over_fading_and_noise(self):
        from airmeta.verify import check_unbiased_aggregation

        res = check_unbiased_aggregation(seed=0, n_draws=4000)
        assert res.passed, res.detail
