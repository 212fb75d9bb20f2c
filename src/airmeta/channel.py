"""Linear compression, fading multiple access, and server-side estimation.

After phase pre-compensation every device contribution arrives co-phased, so
the superposed payload is a real d-vector; the received block is
``y = A @ sum_i |h_i| s_i + noise``, where A holds M rows of the unitary DFT.
The block is complex; its real and imaginary parts each carry noise
variance sigma_n^2, and estimation works on the stacked real system.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

ESTIMATOR_KINDS = ("matched", "lmmse")
FADING_MODELS = ("rayleigh", "unit")

RAYLEIGH_ABS_MEAN = float(np.sqrt(np.pi) / 2)  # E|h| for h ~ CN(0,1)
RAYLEIGH_ABS_POWER = 1.0                       # E|h|^2


def fading_moments(model: str) -> tuple[float, float]:
    """(E|h|, E|h|^2) for the fading model."""
    if model == "rayleigh":
        return RAYLEIGH_ABS_MEAN, RAYLEIGH_ABS_POWER
    if model == "unit":
        return 1.0, 1.0
    raise ValueError(f"unknown fading model {model!r}")


def compress(matrix: np.ndarray, payloads: np.ndarray) -> np.ndarray:
    """The (..., n, M) blocks that carry each row of the (..., n, d)
    payloads, each stack by its own (..., M, d) partial DFT ``matrix``."""
    return (matrix[..., None, :, :] @ payloads[..., None])[..., 0]


def compression_block(dim: int, rows: np.ndarray):
    """The compression operators of a stack of rounds, from each round's
    DFT rows (..., M) in increasing order, as a run draws them: the partial
    DFTs (..., M, d), their real operators (..., 2M, d) and the operators'
    Gram matrices (..., 2M, 2M).  The rows are checked once for the whole
    stack."""
    rows = np.asarray(rows)
    if (not np.issubdtype(rows.dtype, np.integer) or rows.shape[-1] < 1
            or np.any(rows[..., 0] < 0) or np.any(rows[..., -1] >= dim)
            or np.any(np.diff(rows, axis=-1) <= 0)):
        raise ValueError(f"need increasing integer rows in [0, {dim}), got {rows!r}")
    matrix = _dft_matrix(dim)[rows]
    real = np.concatenate([matrix.real, matrix.imag], axis=-2)  # [Re A; Im A]
    return matrix, real, real @ real.swapaxes(-1, -2)


@functools.cache
def _dft_matrix(dim: int) -> np.ndarray:
    """Unitary d x d DFT matrix, built and checked on first use, read-only.

    Its spectral norm is checked once here: any subset of its rows has a
    norm no larger, so every compression keeps the transmit power budget.
    """
    n = np.arange(dim)
    dft = np.exp(-2j * np.pi * np.outer(n, n) / dim) / np.sqrt(dim)
    spec = np.linalg.norm(dft, 2)
    if spec > 1.0 + 1e-8:
        raise ValueError(f"DFT matrix spectral norm {spec} exceeds 1")
    dft.flags.writeable = False
    return dft


def replay_dtype(n_active: int, m_uses: int) -> np.dtype:
    """A replay log row, the realized draws of one round: ``n_active`` device
    ids with a complex fading coefficient each, over which every one of them
    transmits (so a replayed coefficient must be finite and nonzero), and the
    (M,) noise block."""
    return np.dtype([("active", np.int64, (n_active,)), ("gains", np.complex128, (n_active,)),
                     ("noise", np.complex128, (m_uses,))])


def channel_normals(n_active: int, fading: str, m_uses: int) -> int:
    """How many standard normals one round's channel draw takes."""
    return (2 * n_active if fading == "rayleigh" else 0) + 2 * m_uses


def channel_draws(z: np.ndarray, n_active: int, fading: str, noise_var: float):
    """The gains (..., n_active) and noise blocks (..., M) of a stack of
    rounds, from each round's ``channel_normals`` standard normals
    (..., 2 n_active + 2M), or (..., 2M) for unit fading: the gains' real
    and imaginary parts (Rayleigh fading only), then the noise's, each part
    with variance noise_var.  A round's normals are one ``standard_normal``
    call, which draws what a call per part draws.  Assumes noise_var >= 0
    and a known fading model."""
    n_gain = channel_normals(n_active, fading, 0)
    m_uses = (z.shape[-1] - n_gain) // 2
    if fading == "rayleigh":
        gains = (z[..., :n_active] + 1j * z[..., n_active:n_gain]) / np.sqrt(2)
    else:
        gains = np.ones(z.shape[:-1] + (n_active,), dtype=complex)
    scale = np.sqrt(noise_var)
    noise = np.empty(z.shape[:-1] + (m_uses,), dtype=complex)
    noise.real = scale * z[..., n_gain:n_gain + m_uses]
    noise.imag = scale * z[..., n_gain + m_uses:]
    return gains, noise


def transmit_mac(signals: np.ndarray, gains: np.ndarray, noise: np.ndarray) -> np.ndarray:
    """Superpose the transmitted blocks over the fading MAC and add noise.

    ``signals`` is the (..., n, M) stack of blocks, row i sent over
    coefficient ``gains[..., i]`` (..., n), one round's noise block (..., M)
    each: y = sum_i h_i x_i + n, accumulated in device order.  With no device
    the block is the noise alone.
    """
    # the running sums 0, 0 + h_0 x_0, (0 + h_0 x_0) + h_1 x_1, ...
    terms = np.concatenate([np.zeros(noise.shape, dtype=complex)[..., None, :],
                            gains[..., None] * signals], axis=-2)
    return np.add.accumulate(terms, axis=-2)[..., -1, :] + noise


@dataclass(frozen=True)
class Estimate:
    """Server-side reconstruction of the superposed payload of a stack of
    K rounds."""

    x_hat: np.ndarray           # (K, d)
    err_var: np.ndarray         # (K,) modeled per-component error variance
    pinv_fallback: np.ndarray   # (K,) bool, solved by the pseudo-inverse


def estimate_stack(y: np.ndarray, matrix: np.ndarray, real, gram, p: np.ndarray,
                   noise_var: float, kind: str, noise_eye: np.ndarray) -> Estimate:
    """Reconstruct the real superposed payloads of a stack of K rounds from
    the received blocks y (K, M), with the partial DFTs (K, M, d) and for
    lmmse their real operators (K, 2M, d) and Gram matrices (K, 2M, 2M)
    (``compression_block``), a float prior power p >= 0 (K,) per round and
    ``noise_eye`` = noise_var * I (2M, 2M), noise_var >= 0.

    matched: requires M == d, the full DFT; x_hat = Re(A^H y) and the
    per-component error variance equals noise_var exactly.
    lmmse: linear MMSE under an isotropic prior with per-component power
    p, solved on the stacked real system.  One solve serves every round; a
    noiseless rank-deficient round, or one that the noise does not
    regularize, falls back to the pseudo-inverse by itself and flags it.
    Row k of each field is bit for bit what the stack of round k alone
    gives.  Assumes a known ``kind``.
    """
    if kind == "matched":
        x_hat = (matrix.conj().swapaxes(-1, -2) @ y[..., None])[..., 0].real
        return Estimate(x_hat=np.ascontiguousarray(x_hat, dtype=float),
                        err_var=np.full(p.shape, float(noise_var)),
                        pinv_fallback=np.zeros(p.shape, dtype=bool))

    dim = matrix.shape[-1]
    y_r = np.concatenate([y.real, y.imag], axis=-1)
    rows = real.shape[-2]
    c = p[:, None, None] * gram + noise_eye
    pinv = np.zeros(p.shape, dtype=bool)
    if noise_var == 0.0:
        pinv = (np.linalg.matrix_rank(gram, tol=1e-12) < rows) | (p == 0.0)
        c[pinv] = np.eye(rows)  # not solved; the identity keeps the stack solvable
    sol, singular = _solve_each(c, np.concatenate([y_r[..., None], real], axis=-1))
    # noise too small to regularize a rank-deficient system
    pinv |= singular
    x_hat = p[:, None] * (real.swapaxes(-1, -2) @ sol[..., :1])[..., 0]
    # posterior error variance per component: (p*d - p^2 * tr(B' C^-1 B)) / d
    tr = (real * sol[..., 1:]).reshape(len(sol), -1).sum(axis=-1)
    err_var = (p * dim - p * p * tr) / dim
    err_var[err_var < 0.0] = 0.0
    if pinv.any():
        for k in np.flatnonzero(pinv).tolist():
            x_hat[k], err_var[k] = _pinv_estimate(real[k], gram[k], y_r[k], p[k], dim)
    return Estimate(x_hat=x_hat, err_var=err_var, pinv_fallback=pinv)


def _solve_each(c: np.ndarray, rhs: np.ndarray):
    """Solutions of the stacked systems c x = rhs, and the mask of the
    singular ones, whose solutions are left zero."""
    try:
        return np.linalg.solve(c, rhs), np.zeros(len(c), dtype=bool)
    except np.linalg.LinAlgError:
        sol, singular = np.zeros(rhs.shape), np.zeros(len(c), dtype=bool)
        for k in range(len(c)):
            try:
                sol[k] = np.linalg.solve(c[k], rhs[k])
            except np.linalg.LinAlgError:
                singular[k] = True
        return sol, singular


def _pinv_estimate(b: np.ndarray, gram: np.ndarray, y_r: np.ndarray, p: float, dim: int):
    """Minimum-norm reconstruction of a system the noise does not regularize,
    and its error variance.

    The posterior covariance is the projection complement scaled by the prior.
    """
    rank = np.linalg.matrix_rank(gram, tol=1e-12)
    x_hat = b.T @ (np.linalg.pinv(gram) @ y_r)
    return x_hat, float(p * max(dim - rank, 0) / dim)


def global_update(theta: np.ndarray, x_hat: np.ndarray, eta: float, rho: np.ndarray,
                  abs_mean: float, n_active: int) -> np.ndarray:
    """Server update from the reconstructed payload x_hat.

    theta' = theta - eta / (mu * sqrt(rho) * rn) * x_hat, where mu =
    ``abs_mean`` is the known mean |h| of the fading law.  A stack of rounds
    is float thetas (K, d) with a scale rho (K,) and payload (K, d) each.
    Assumes rho > 0, abs_mean > 0 and n_active >= 1.
    """
    return theta - (eta / (abs_mean * np.sqrt(rho) * n_active))[..., None] * x_hat


def snr_noise_var(snr_db: float, n_active: int, power: float, abs_power: float) -> float:
    """Noise variance realizing a configured received SNR in dB.

    The received SNR is defined as rn * P * E|h|^2 / sigma_n^2; this is a
    documented normalization choice, monotone in P.
    """
    return n_active * power * abs_power / 10.0 ** (snr_db / 10.0)
