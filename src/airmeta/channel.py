"""Linear compression, fading multiple access, and server-side estimation.

After phase pre-compensation every device contribution arrives co-phased, so
the superposed payload is a real d-vector; the received block is
``y = A @ sum_i |h_i| s_i + noise``, where A holds M rows of the unitary DFT.
The block is complex; its real and imaginary parts each carry noise
variance sigma_n^2, and estimation works on the stacked real system.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass, field

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


@dataclass(frozen=True)
class CompressionMatrix:
    """The M x d partial DFT shared by all devices in a round: the unitary
    d x d DFT matrix restricted to the distinct ``rows``."""

    dim: int
    rows: np.ndarray
    matrix: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        rows = np.asarray(self.rows)
        if (rows.ndim != 1 or not 1 <= rows.size <= self.dim
                or not np.issubdtype(rows.dtype, np.integer)
                or rows.min() < 0 or rows.max() >= self.dim
                or np.unique(rows).size != rows.size):
            raise ValueError(f"need 1 to {self.dim} distinct integer rows in "
                             f"[0, {self.dim}), got {self.rows!r}")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "matrix", _dft_matrix(self.dim)[rows])

    @property
    def m_uses(self) -> int:
        return self.rows.size

    def compress(self, payloads: np.ndarray) -> np.ndarray:
        """The (n, M) blocks that carry each row of the (n, d) payloads."""
        return compress(self.matrix, payloads)

    def stacked_real(self) -> np.ndarray:
        """Real operator [Re A; Im A] acting on real payloads."""
        return stacked_real(self.matrix)


def compress(matrix: np.ndarray, payloads: np.ndarray) -> np.ndarray:
    """The (..., n, M) blocks that carry each row of the (..., n, d)
    payloads, each stack by its own (..., M, d) partial DFT ``matrix``."""
    return (matrix[..., None, :, :] @ payloads[..., None])[..., 0]


def stacked_real(matrix: np.ndarray) -> np.ndarray:
    """Real operators [Re A; Im A] (..., 2M, d) of the (..., M, d) partial
    DFTs ``matrix``."""
    return np.concatenate([matrix.real, matrix.imag], axis=-2)


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
    real = stacked_real(matrix)
    return matrix, real, real @ real.swapaxes(-1, -2)


def make_compression(m_uses: int, dim: int, rng: np.random.Generator) -> CompressionMatrix:
    """M uniformly chosen rows of the unitary d x d DFT matrix, in order."""
    if not 1 <= m_uses <= dim:
        raise ValueError(f"need 1 <= M <= d, got M={m_uses}, d={dim}")
    return CompressionMatrix(dim, np.sort(rng.choice(dim, size=m_uses, replace=False)))


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


@dataclass(frozen=True)
class ChannelRound:
    """Realized draws of one round, the replay-log entry.  A device whose
    coefficient is zero stays in it but does not transmit."""

    active: np.ndarray      # device ids, one per coefficient
    gains: np.ndarray       # complex coefficient per active device
    noise: np.ndarray       # (M,) complex noise block


def sample_channel(active: np.ndarray, fading: str, noise_var: float, m_uses: int,
                   rng: np.random.Generator) -> ChannelRound:
    """Draw i.i.d. fading coefficients for the ``active`` devices, then the
    additive noise block: all real parts, then all imaginary parts, each
    with variance noise_var."""
    if noise_var < 0:
        raise ValueError("noise_var must be >= 0")
    n_active = len(active)
    if fading == "rayleigh":
        gains = (rng.standard_normal(n_active) + 1j * rng.standard_normal(n_active)) / np.sqrt(2)
    elif fading == "unit":
        gains = np.ones(n_active, dtype=complex)
    else:
        raise ValueError(f"unknown fading model {fading!r}")
    scale = np.sqrt(noise_var)
    noise = np.empty(m_uses, dtype=complex)
    noise.real = scale * rng.standard_normal(m_uses)
    noise.imag = scale * rng.standard_normal(m_uses)
    return ChannelRound(active=active, gains=gains, noise=noise)


def transmit_mac(signals, ch: ChannelRound) -> np.ndarray:
    """Superpose the transmitted blocks over the fading MAC and add noise.

    ``signals`` is the (n, M) stack of blocks, row i sent over coefficient
    ``ch.gains[i]``.  y = sum_i h_i x_i + n, accumulated in device order.
    With no device the block is the noise alone.  A stack of rounds is
    signals (..., n, M) over gains (..., n) and noise (..., M).
    """
    signals = np.asarray(signals)
    if signals.ndim < 2 or signals.shape[:-1] != ch.gains.shape:
        raise ValueError("one signal per realized channel coefficient required")
    if signals.shape[-1] != ch.noise.shape[-1]:
        raise ValueError("block length does not match the realized noise")
    # the running sums 0, 0 + h_0 x_0, (0 + h_0 x_0) + h_1 x_1, ...
    terms = np.concatenate([np.zeros(ch.noise.shape, dtype=complex)[..., None, :],
                            ch.gains[..., None] * signals], axis=-2)
    return np.add.accumulate(terms, axis=-2)[..., -1, :] + ch.noise


@dataclass(frozen=True)
class Estimate:
    """Server-side reconstruction of the superposed payload; from
    ``estimate_stack``, every field has a leading round axis."""

    x_hat: np.ndarray
    err_var: float              # modeled per-component error variance
    pinv_fallback: bool = False


def estimate(y: np.ndarray, comp: CompressionMatrix, prior_power: float,
             noise_var: float, kind: str = "lmmse") -> Estimate:
    """Reconstruct the real superposed payload from the received block.

    matched: requires M == d, the full DFT; x_hat = Re(A^H y) and the
    per-component error variance equals noise_var exactly.
    lmmse: linear MMSE under an isotropic prior with per-component power
    ``prior_power``, solved on the stacked real system.  A noiseless
    rank-deficient system falls back to the pseudo-inverse and flags it.
    """
    real = gram = None
    if kind != "matched":
        real = comp.stacked_real()[None]
        gram = real @ real.swapaxes(-1, -2)
    est = estimate_stack(np.asarray(y)[None], comp.matrix[None], real, gram, [prior_power],
                         noise_var, kind)
    return Estimate(x_hat=est.x_hat[0], err_var=float(est.err_var[0]),
                    pinv_fallback=bool(est.pinv_fallback[0]))


def estimate_stack(y: np.ndarray, matrix: np.ndarray, real, gram, prior_power,
                   noise_var: float, kind: str = "lmmse") -> Estimate:
    """``estimate`` for a stack of K rounds at once: the received blocks y
    (K, M), the partial DFTs (K, M, d), and for lmmse their real operators
    (K, 2M, d) and Gram matrices (K, 2M, 2M) (``compression_block``), with
    a prior power per round.  Row k of each field is bit for bit what
    ``estimate`` gives for round k alone.  One solve serves every round;
    a round that the noise does not regularize falls back to the
    pseudo-inverse by itself."""
    if kind not in ESTIMATOR_KINDS:
        raise ValueError(f"unknown estimator kind {kind!r}")
    p = np.asarray(prior_power, dtype=float)
    if (p < 0).any() or noise_var < 0:
        raise ValueError("prior_power and noise_var must be >= 0")
    dim = matrix.shape[-1]
    if kind == "matched":
        if matrix.shape[-2] != dim:
            raise ValueError("matched estimator requires M == d")
        x_hat = (matrix.conj().swapaxes(-1, -2) @ y[..., None])[..., 0].real
        return Estimate(x_hat=np.ascontiguousarray(x_hat, dtype=float),
                        err_var=np.full(p.shape, float(noise_var)),
                        pinv_fallback=np.zeros(p.shape, dtype=bool))

    y_r = np.concatenate([y.real, y.imag], axis=-1)
    rows = real.shape[-2]
    c = p[:, None, None] * gram + noise_var * np.eye(rows)
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


def global_update(theta: np.ndarray, est: Estimate, eta: float, rho: float,
                  abs_mean: float, n_active: int) -> np.ndarray:
    """Server update from the reconstructed payload.

    theta' = theta - eta / (mu * sqrt(rho) * rn) * x_hat, where mu is the
    known mean |h| of the fading law.  A stack of rounds is thetas (K, d)
    with a scale rho (K,) and payload (K, d) each.
    """
    rho = np.asarray(rho, dtype=float)
    if (rho <= 0).any():
        raise ValueError("rho must be > 0")
    if n_active < 1:
        raise ValueError("need at least one active device")
    if abs_mean <= 0:
        raise ValueError("abs_mean must be > 0")
    theta = np.asarray(theta, dtype=float)
    return theta - (eta / (abs_mean * np.sqrt(rho) * n_active))[..., None] * est.x_hat


def snr_noise_var(snr_db: float, n_active: int, power: float, abs_power: float) -> float:
    """Noise variance realizing a configured received SNR in dB.

    The received SNR is defined as rn * P * E|h|^2 / sigma_n^2; this is a
    documented normalization choice, monotone in P.
    """
    return n_active * power * abs_power / 10.0 ** (snr_db / 10.0)
