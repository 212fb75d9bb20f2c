"""Linear compression, fading multiple access, and server-side estimation.

After phase pre-compensation every device contribution arrives co-phased, so
the superposed payload is a real d-vector; the received block is
``y = A @ sum_i |h_i| s_i + noise``, where A holds M rows of the unitary DFT.
The block is complex; its real and imaginary parts each carry noise
variance sigma_n^2.  On the stacked real system the compression is diagonal
in the Fourier basis, so every estimate is a matched filter that weights
each channel use by its Fourier mode.
"""
from __future__ import annotations

import functools

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
    DFTs A (..., M, d), their adjoints A^H (..., d, M), views of one
    conjugate, the weight lambda of each row's Fourier mode (..., M) and the
    counts (..., 2) of the modes of weight 1/2 and of weight 1.  The rows
    are checked once for the whole stack.

    On the stacked real system B = [Re A; Im A] of rows S, B'B = Re(A^H A)
    is diagonal in the Fourier basis, mode k of weight lambda_k = (1[k in S]
    + 1[-k in S]) / 2: 1 when the row's mirror -k mod d is a row too (or is
    k itself, k = 0 or d/2), else 1/2, as for its unmeasured mirror.  The
    other modes have weight 0.
    """
    rows = np.asarray(rows)
    if (not np.issubdtype(rows.dtype, np.integer) or rows.shape[-1] < 1
            or np.any(rows[..., 0] < 0) or np.any(rows[..., -1] >= dim)
            or np.any(np.diff(rows, axis=-1) <= 0)):
        raise ValueError(f"need increasing integer rows in [0, {dim}), got {rows!r}")
    mirrored = ((-rows % dim)[..., :, None] == rows[..., None, :]).any(axis=-1)
    n_mirrored = mirrored.sum(axis=-1)
    counts = np.stack([2 * (rows.shape[-1] - n_mirrored), n_mirrored], axis=-1)
    matrix = _dft_matrix(dim)[rows]
    return matrix, matrix.conj().swapaxes(-1, -2), np.where(mirrored, 1.0, 0.5), counts


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


def estimate_stack(y: np.ndarray, adjoint: np.ndarray, modes: np.ndarray, p: np.ndarray,
                   noise_var: float, kind: str) -> np.ndarray:
    """Reconstruct the real superposed payloads x_hat (K, d) of a stack of
    K rounds from the received blocks y (K, M), with the adjoints (K, d, M)
    of the partial DFTs and their rows' mode weights (K, M)
    (``compression_block``), a float prior power p >= 0 (K,) per round and
    noise_var >= 0.  Row k is bit for bit what the stack of round k alone
    gives.  Assumes a known ``kind``.

    Every estimate is the weighted matched filter x_hat = Re(A^H (w * y)),
    one weight per channel use.  matched: requires M == d, the full DFT;
    w = 1.  lmmse: the linear MMSE p (p B'B + noise_var I)^-1 Re(A^H y)
    under an isotropic prior with per-component power p.  B'B is diagonal
    in the Fourier basis and its weights lambda are mirror-symmetric, so
    the inverse scales channel use j by w_j = p / (p lambda_j + noise_var).
    Noiseless, w_j = 1 / lambda_j, the pseudo-inverse.  The error the
    filter makes is modeled by ``estimate_error``.
    """
    if kind == "matched":
        w = 1.0
    elif noise_var == 0.0:
        w = 1.0 / modes
    else:
        w = p[:, None] / (p[:, None] * modes + noise_var)
    weighted = np.empty(y.shape, dtype=complex)
    weighted.real, weighted.imag = w * y.real, w * y.imag
    return (adjoint @ weighted[..., None])[..., 0].real


def estimate_error(counts: np.ndarray, p: np.ndarray, noise_var: float, kind: str, dim: int):
    """The modeled per-component error variance and the ``pinv_fallback``
    flag (...) of the ``estimate_stack`` estimates of rounds with the mode
    counts (..., 2) (``compression_block``) and the float prior powers p >= 0
    (...), each elementwise.  Assumes a known ``kind``.

    matched: the error variance is noise_var exactly.  lmmse: (p n_0 + sum
    over the modes k of weight > 0 of p noise_var / (p lambda_k +
    noise_var)) / d, n_0 modes being of weight 0.  Noiseless, it is p n_0 /
    d; a round whose rank, the number of modes of weight > 0, is below 2M,
    or whose p is 0, is flagged: its estimate is the pseudo-inverse.
    """
    pinv = np.zeros(p.shape, dtype=bool)
    if kind == "matched":
        return np.full(p.shape, float(noise_var)), pinv
    if noise_var == 0.0:
        return p * (dim - counts.sum(axis=-1)) / dim, (counts[..., 1] > 0) | (p == 0.0)
    n_half, n_one = counts[..., 0], counts[..., 1]
    p_noise = p * noise_var
    return (p * (dim - n_half - n_one) + n_half * (p_noise / (p * 0.5 + noise_var))
            + n_one * (p_noise / (p + noise_var))) / dim, pinv


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
