import numpy as np
import pytest

from airmeta import channel as ch
from airmeta import sparsify
from airmeta.channel import (compression_block, estimate_error, estimate_stack, global_update,
                             snr_noise_var, transmit_mac)
from airmeta.protocol import ExperimentConfig, run_experiment, run_stack

import oracles


def sample_channel(n_active, fading, noise_var, m_uses, gen):
    """One round's (gains, noise), as a run makes them: one
    ``standard_normal`` call for the round's normals, then
    ``channel_draws``."""
    z = gen.standard_normal(ch.channel_normals(n_active, fading, m_uses))
    return ch.channel_draws(z, n_active, fading, noise_var)


def draw_rows(m, dim, gen):
    """M uniformly chosen DFT rows in increasing order, as a round draws them."""
    return np.sort(gen.choice(dim, size=m, replace=False))


def one_round(dim, rows):
    """The compression operators of a stack of one round."""
    return compression_block(dim, np.asarray(rows)[None])


def estimate(y, comp, prior_power, noise_var, kind):
    """``estimate_stack`` and ``estimate_error`` on a stack of one round:
    (x_hat, err_var, pinv_fallback)."""
    _, adjoint, modes, counts = comp
    p = np.array([prior_power], dtype=float)
    x_hat = estimate_stack(np.asarray(y)[None], adjoint, modes, p, noise_var, kind)
    err_var, pinv = estimate_error(counts, p, noise_var, kind, adjoint.shape[-2])
    return x_hat[0], float(err_var[0]), bool(pinv[0])


class TestCompression:
    def test_m_larger_than_d_rejected(self):
        with pytest.raises(ValueError):
            compression_block(4, np.arange(5))

    def test_partial_dft_rows_orthonormal(self, rng):
        matrix = compression_block(16, draw_rows(6, 16, rng))[0]
        gram = matrix @ matrix.conj().T
        assert np.max(np.abs(gram - np.eye(6))) < 1e-10

    def test_partial_dft_rows_match_direct_construction(self):
        """Rows taken from the cached full DFT equal, bit for bit, the
        rows built for the round alone, in a stack or by themselves."""
        for dim, m in ((20, 8), (7, 7), (12, 1)):
            rows = draw_rows(m, dim, np.random.default_rng(dim))
            direct = np.exp(-2j * np.pi * np.outer(rows, np.arange(dim)) / dim) / np.sqrt(dim)
            assert compression_block(dim, rows)[0].tobytes() == direct.tobytes()
            assert one_round(dim, rows)[0][0].tobytes() == direct.tobytes()

    def test_adjoints_are_views_of_one_conjugate(self):
        """Each adjoint is its DFT's conjugate transpose, bit for bit, and
        the adjoints of a stack of rounds view one conjugate of its DFTs
        with each round's rows, as a round conjugating its own would lay
        them out."""
        rows = np.stack([draw_rows(8, 20, np.random.default_rng(seed)) for seed in range(3)])
        matrices, adjoints, _, _ = compression_block(20, rows)
        assert adjoints.shape == (3, 20, 8)
        for matrix, adjoint in zip(matrices, adjoints):
            own = matrix.conj().swapaxes(-1, -2)
            assert adjoint.tobytes() == own.tobytes()
            assert adjoint.strides == own.strides
        assert not adjoints.flags.owndata and adjoints.base.shape == (3, 8, 20)

    def test_spectral_norm_at_most_one(self, rng):
        for _ in range(100):
            m = int(rng.integers(1, 13))
            matrix = compression_block(12, draw_rows(m, 12, rng))[0]
            assert np.linalg.norm(matrix, 2) <= 1 + 1e-8

    @pytest.mark.parametrize("rows", [[], [0, 0], [-1, 2], [1, 4], [[0, 1], [2, 1]],
                                      [0.0, 1.0]],
                             ids=["empty", "repeated", "negative", "beyond_d", "nested",
                                  "not_integer"])
    def test_malformed_rows_rejected(self, rows):
        """Every round of a stack needs 1 to d increasing integer rows in
        [0, d)."""
        with pytest.raises(ValueError):
            compression_block(4, np.array(rows))

    def test_oversized_norm_rejected(self, monkeypatch):
        """The DFT matrix is checked once per dimension; a norm above one
        stops it before any compression uses its rows."""
        monkeypatch.setattr(np.linalg, "norm", lambda a, ord=None: 1.5)
        with pytest.raises(ValueError, match="spectral norm"):
            ch._dft_matrix.__wrapped__(4)


class TestChannelSampling:
    def test_unit_fading(self, rng):
        gains, _ = sample_channel(5, "unit", 0.0, 4, rng)
        assert np.array_equal(gains, np.ones(5, dtype=complex))
        assert ch.fading_moments("unit") == (1.0, 1.0)

    def test_rayleigh_moments(self):
        from airmeta.verify import check_rayleigh_moments

        res = check_rayleigh_moments(seed=0)
        assert res.passed, res.detail

    def test_zero_noise_variance(self, rng):
        _, noise = sample_channel(2, "rayleigh", 0.0, 6, rng)
        assert np.all(noise == 0)

    @pytest.mark.parametrize("fading", ch.FADING_MODELS)
    def test_one_draw_call_equals_a_call_per_part(self, fading):
        """Gains, noise and the generator's state after the draw, bit for bit
        the draw with a ``standard_normal`` call per part, on 240 seeded
        generators."""
        for seed in range(240):
            n_active, m_uses = 1 + seed % 9, 1 + seed % 8
            got_gen, want_gen = np.random.default_rng(seed), np.random.default_rng(seed)
            got = sample_channel(n_active, fading, 0.1 * (seed % 4), m_uses, got_gen)
            want = oracles.sample_channel(n_active, fading, 0.1 * (seed % 4), m_uses, want_gen)
            assert [a.tobytes() for a in got] == [a.tobytes() for a in want], seed
            assert got_gen.bit_generator.state == want_gen.bit_generator.state, seed

    def test_measured_snr_matches_configuration(self):
        """Moment-level check: realized |h|^2 sums and the solved noise
        variance reproduce the configured received SNR within 0.2 dB."""
        gen = np.random.default_rng(8)
        n_active, power, snr_db = 3, 1.0, 13.0
        noise_var = snr_noise_var(snr_db, n_active, power, 1.0)
        sums = [np.sum(np.abs(sample_channel(n_active, "rayleigh", noise_var, 4, gen)[0]) ** 2)
                for _ in range(10_000)]
        measured = 10 * np.log10(power * np.mean(sums) / noise_var)
        assert abs(measured - snr_db) < 0.2


class TestTransmit:
    def test_single_unit_device(self, rng):
        x = rng.standard_normal(4)
        got = transmit_mac(x[None], np.ones(1, dtype=complex), np.zeros(4, dtype=complex))
        assert np.array_equal(got, x)

    def test_opposite_signals_cancel(self, rng):
        x = rng.standard_normal(4)
        got = transmit_mac(np.stack([x, -x]), np.ones(2, dtype=complex),
                           np.zeros(4, dtype=complex))
        assert np.allclose(got, 0.0, atol=1e-15)

    def test_matches_hand_superposition(self, rng):
        xs = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        gains = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        noise_re, noise_im = rng.standard_normal(3), rng.standard_normal(3)
        got = transmit_mac(xs, gains, noise_re + 1j * noise_im)
        want = sum(h * x for h, x in zip(gains, xs)) + noise_re + 1j * noise_im
        assert np.allclose(got, want, atol=1e-14)

    def test_length_mismatch(self):
        """A replayed round's noise block and gains must fit the config's M
        and active devices: a log of another block length or device count
        is refused where it enters, before any round."""
        cfg = ExperimentConfig(rounds=4, active_fraction=1 / 3)
        log = run_experiment(cfg).replay
        for other in (cfg.replace(channel_uses=cfg.channel_uses + 1),
                      cfg.replace(active_fraction=2 / 3)):
            with pytest.raises(ValueError, match="^need one replay log per trial, of dtype"):
                run_stack([other], [log])


class TestEstimators:
    def test_noiseless_identity_exact(self, rng):
        """The matched estimate of a noiseless full-DFT block is the payload."""
        s = rng.standard_normal(5)
        comp = one_round(5, draw_rows(5, 5, rng))
        x_hat, err_var, _ = estimate(comp[0][0] @ s, comp, prior_power=1.0, noise_var=0.0,
                                     kind="matched")
        assert np.allclose(x_hat, s, rtol=0, atol=1e-14)
        assert err_var == 0.0

    def test_matched_full_dft_error_variance(self, rng):
        """Re(A^H y) on a unitary DFT block has per-component error variance
        equal to the per-real-component noise variance."""
        d, noise_var = 8, 0.3
        comp = one_round(d, draw_rows(d, d, rng))
        errs = []
        for _ in range(4000):
            s = rng.standard_normal(d)
            n = np.sqrt(noise_var) * (rng.standard_normal(d) + 1j * rng.standard_normal(d))
            x_hat, err_var, _ = estimate(comp[0][0] @ s + n, comp, 1.0, noise_var, "matched")
            errs.append(np.sum((x_hat - s) ** 2) / d)
        assert err_var == noise_var
        assert np.mean(errs) == pytest.approx(noise_var, rel=0.05)

    def test_matched_requires_square(self):
        """The matched estimator reads the full DFT, checked where the config
        enters."""
        with pytest.raises(ValueError, match="^matched estimator requires channel_uses == dim$"):
            ExperimentConfig(dim=6, channel_uses=3, estimator="matched").validate()

    def test_lmmse_shrinks_to_prior_mean_in_heavy_noise(self, rng):
        comp = one_round(8, draw_rows(4, 8, rng))
        s = rng.standard_normal(8)
        y = comp[0][0] @ s
        x_hat, _, _ = estimate(y, comp, prior_power=1.0, noise_var=1e12, kind="lmmse")
        assert np.max(np.abs(x_hat)) < 1e-9

    def test_lmmse_noiseless_orthonormal_rows_projection(self):
        """Rows 1, 2, 3 of the 8-point DFT and their conjugates 7, 6, 5 have
        no conjugate pair among them, so the stacked real system has full
        rank 6."""
        comp = one_round(8, [1, 2, 3])
        s = np.random.default_rng(4).standard_normal(8)
        x_hat, err_var, pinv = estimate(comp[0][0] @ s, comp, prior_power=1.0, noise_var=0.0,
                                        kind="lmmse")
        assert not pinv
        # reconstruction is the projection onto the measured subspace, whose
        # orthonormal basis is the rows of sqrt(2) [Re A; Im A]
        b = oracles.real_operator(comp[0][0])
        proj = 2.0 * b.T @ (b @ s)
        assert np.allclose(x_hat, proj, atol=1e-10)
        assert err_var == pytest.approx(0.25)  # 2 of 8 dimensions unobserved

    def test_lmmse_noiseless_singular_system_pinv_flag(self, rng):
        """The all-real DFT row makes the stacked real system singular at
        zero noise; recovery falls back to the pseudo-inverse and says so."""
        d = 8
        comp = one_round(d, [0, 1, 2])
        s = rng.standard_normal(d)
        x_hat, _, pinv = estimate(comp[0][0] @ s, comp, prior_power=1.0, noise_var=0.0,
                                  kind="lmmse")
        assert pinv
        b = oracles.real_operator(comp[0][0])
        proj = np.linalg.pinv(b) @ (b @ s)
        assert np.allclose(x_hat, proj, atol=1e-10)

    @pytest.mark.parametrize("noise_var", [1e-18, 1e-300])
    def test_lmmse_tiny_noise_needs_no_fallback(self, rng, noise_var):
        """Conjugate DFT rows make the stacked real system rank-deficient,
        and a noise variance this small would leave its matrix-form solve
        singular.  The filter solves no system: it weights each use, the
        estimate is the payload, and no round is flagged."""
        comp = one_round(3, draw_rows(3, 3, rng))
        s = np.array([1.0, -2.0, 0.5])
        x_hat, err_var, pinv = estimate(comp[0][0] @ s, comp, prior_power=1.0,
                                        noise_var=noise_var, kind="lmmse")
        assert not pinv
        assert np.allclose(x_hat, s, rtol=0, atol=1e-14)
        assert 0.0 < err_var <= 2 * noise_var

    def test_lmmse_measured_error_matches_posterior_formula(self, rng):
        """Sparse signals with isotropic second moment: measured error over
        trials matches the posterior variance within 10%."""
        d, m, k, p, noise_var = 16, 8, 3, 2.0, 0.5
        comp = one_round(d, draw_rows(m, d, rng))
        errs = []
        for _ in range(1000):
            s = np.zeros(d)
            support = rng.choice(d, size=k, replace=False)
            s[support] = rng.standard_normal(k) * np.sqrt(d * p / k)
            n = np.sqrt(noise_var) * (rng.standard_normal(m) + 1j * rng.standard_normal(m))
            x_hat, err_var, _ = estimate(comp[0][0] @ s + n, comp, p, noise_var, "lmmse")
            errs.append(np.sum((x_hat - s) ** 2) / d)
        assert np.mean(errs) == pytest.approx(err_var, rel=0.10)

    def test_lmmse_error_uncorrelated_with_estimate(self, rng):
        """Orthogonality of the linear MMSE residual to the estimate."""
        d, m, p, noise_var = 12, 6, 1.0, 0.4
        comp = one_round(d, draw_rows(m, d, rng))
        dots = []
        for _ in range(3000):
            s = np.sqrt(p) * rng.standard_normal(d)
            n = np.sqrt(noise_var) * (rng.standard_normal(m) + 1j * rng.standard_normal(m))
            y = comp[0][0] @ s + n
            x_hat, _, _ = estimate(y, comp, p, noise_var, "lmmse")
            dots.append(float((x_hat - s) @ x_hat))
        se = np.std(dots, ddof=1) / np.sqrt(len(dots))
        assert abs(np.mean(dots)) <= 3 * se

    def test_matched_error_uncorrelated_with_signal(self, rng):
        d, noise_var = 6, 0.5
        comp = one_round(d, draw_rows(d, d, rng))
        dots = []
        for _ in range(1000):
            s = rng.standard_normal(d)
            n = np.sqrt(noise_var) * (rng.standard_normal(d) + 1j * rng.standard_normal(d))
            y = comp[0][0] @ s + n
            x_hat, _, _ = estimate(y, comp, 1.0, noise_var, "matched")
            dots.append(float((x_hat - s) @ s))
        se = np.std(dots, ddof=1) / np.sqrt(len(dots))
        assert abs(np.mean(dots)) <= 3 * se


def every_row_set(max_dim):
    """(d, rows) for every nonempty set of DFT rows at d = 1 .. max_dim:
    rows 0 and d/2, conjugate pairs j, d - j, and sets without either."""
    for dim in range(1, max_dim + 1):
        for mask in range(1, 2**dim):
            yield dim, np.array([j for j in range(dim) if mask >> j & 1])


class TestFourierFilter:
    """The closed forms of ``compression_block`` and ``estimate_stack``
    against the matrix forms on the stacked real system B = [Re A; Im A]."""

    def test_mode_weights_are_the_spectrum(self):
        """Each row's weight lambda and its mirror's 1 - lambda are the
        eigenvalues of B B', and the mode counts those of B'B, to 1e-13, for
        every row set at d <= 8."""
        for dim, rows in every_row_set(8):
            matrix, _, modes, counts = (c[0] for c in one_round(dim, rows))
            b = oracles.real_operator(matrix)
            n_half, n_one = counts.tolist()
            want = np.sort(np.concatenate([modes, 1.0 - modes]))
            assert np.allclose(np.linalg.eigvalsh(b @ b.T), want, rtol=0, atol=1e-13), rows
            want = np.repeat([0.0, 0.5, 1.0], [dim - n_half - n_one, n_half, n_one])
            assert np.allclose(np.linalg.eigvalsh(b.T @ b), want, rtol=0, atol=1e-13), rows

    def test_noiseless_filter_is_the_pseudo_inverse(self, rng):
        """At zero noise x_hat is B^+ y_r to 1e-13 of its largest entry and
        the error variance p (d - rank B) / d exactly, with the rounds of a
        rank below 2M, or of no prior power, flagged, for every row set at
        d <= 8, each with a payload of nonzero prior power and one of none."""
        for dim, rows in every_row_set(8):
            comp = one_round(dim, rows)
            matrix = comp[0][0]
            y = matrix @ rng.standard_normal(dim) + 0.1 * (rng.standard_normal(len(rows)) + 1j *
                                                           rng.standard_normal(len(rows)))
            rank = np.linalg.matrix_rank(oracles.real_operator(matrix), tol=1e-12)
            for prior in (1.7, 0.0):
                x_hat, err_var, pinv = estimate(y, comp, prior, 0.0, "lmmse")
                want, want_var = oracles.estimate_solve(y, matrix, prior, 0.0)
                assert np.max(np.abs(x_hat - want)) <= 1e-13 * np.max(np.abs(want)), rows
                assert err_var == want_var, rows
                assert pinv == (rank < 2 * len(rows) or prior == 0.0), rows

    @pytest.mark.parametrize("dim", [4, 8, 12, 20])
    def test_lmmse_filter_is_the_matrix_form(self, rng, dim):
        """From -10 to 40 dB, x_hat is p B'(p B B' + sigma^2 I)^-1 y_r and
        the error variance (p d - p^2 tr(B' C^-1 B)) / d, each to 1e-13
        (1 + p / sigma^2) relative: the matrix form's solve rounds with the
        condition number of C, up to 1 + p / sigma^2 on a rank-deficient
        round.  The rows include row 0, row d/2 and conjugate pairs."""
        row_sets = [np.sort(rng.choice(dim, size=m, replace=False))
                    for m in rng.integers(1, dim + 1, size=30)]
        row_sets += [np.array([0, dim // 2]), np.array([1, dim - 1]), np.arange(dim)]
        for rows in row_sets:
            comp = one_round(dim, rows)
            matrix = comp[0][0]
            for snr_db in range(-10, 41, 5):
                prior = float(rng.uniform(0.1, 10.0))
                noise_var = prior / 10 ** (snr_db / 10)
                y = matrix @ (np.sqrt(prior) * rng.standard_normal(dim)) + np.sqrt(noise_var) * (
                    rng.standard_normal(len(rows)) + 1j * rng.standard_normal(len(rows)))
                x_hat, err_var, pinv = estimate(y, comp, prior, noise_var, "lmmse")
                want, want_var = oracles.estimate_solve(y, matrix, prior, noise_var)
                tol = 1e-13 * (1.0 + prior / noise_var)
                assert np.max(np.abs(x_hat - want)) <= tol * np.max(np.abs(want)), (rows, snr_db)
                assert abs(err_var - want_var) <= tol * want_var, (rows, snr_db)
                assert not pinv

    def test_matched_is_the_unweighted_filter(self, rng):
        """The matched estimate is Re(A^H y), bit for bit."""
        dim = 8
        comp = one_round(dim, np.arange(dim))
        y = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        x_hat, _, _ = estimate(y, comp, 1.0, 0.3, "matched")
        assert x_hat.tobytes() == (comp[0][0].conj().T @ y[:, None])[:, 0].real.tobytes()


class TestGlobalUpdate:
    def test_zero_estimate_identity(self, rng):
        theta = rng.standard_normal(4)
        out = global_update(theta, np.zeros((1, 4)), eta=0.1, rho=np.array([2.0]),
                            abs_mean=1.0, n_active=3)
        assert np.array_equal(out[0], theta)

    def test_ideal_chain_reduction(self, rng):
        """Unit channel, matched identity, one device, keep-everything: the
        update subtracts the raw model difference exactly."""
        d, eta = 5, 0.2
        delta = rng.standard_normal(d)
        theta = rng.standard_normal(d)
        rho = 4.0
        x_hat = (np.sqrt(rho) / eta) * delta  # what the server reconstructs
        out = global_update(theta, x_hat[None], eta, np.array([rho]), abs_mean=1.0, n_active=1)
        assert np.allclose(out[0], theta - delta, atol=1e-14)

    def test_nonpositive_rho_rejected(self, monkeypatch):
        """The server update divides by sqrt(rho): a round whose power scale
        is not > 0 sends nothing and updates nothing.  The run aborts there,
        and its iterates are those of a run that stops before that round."""
        cfg = ExperimentConfig(rounds=5, active_fraction=1 / 3)
        scale, rounds_done = sparsify.power_scale, []

        def zero_at_round_2(*args):
            rho = scale(*args) * (0.0 if len(rounds_done) == 2 else 1.0)
            rounds_done.append(True)
            return rho

        monkeypatch.setattr(sparsify, "power_scale", zero_at_round_2)
        traj = run_experiment(cfg)
        assert traj.aborted_at == 2 and np.isnan(traj.records["rho"][2])
        assert traj.thetas.tobytes() == run_experiment(cfg.replace(rounds=2)).thetas.tobytes()

    def test_mean_update_unbiased_over_fading_and_noise(self):
        from airmeta.verify import check_unbiased_aggregation

        res = check_unbiased_aggregation(seed=0, n_draws=4000)
        assert res.passed, res.detail
