"""Linear compression, fading multiple access, and server-side estimation.

After phase pre-compensation every device contribution arrives co-phased, so
the superposed payload is a real d-vector; the received block is
``y = A @ sum_i |h_i| s_i + noise``.  A real compression matrix gives a real
block with per-component noise variance sigma_n^2; a complex one (partial
DFT) gives a complex block whose real and imaginary parts each carry
variance sigma_n^2, and estimation works on the stacked real system.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

COMPRESSION_KINDS = ("identity", "partial_dft", "row_orthogonal")
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
    """Row-orthonormal M x d projection shared by all devices in a round."""

    matrix: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.matrix)
        spec = np.linalg.norm(a, 2)
        if spec > 1.0 + 1e-8:
            raise ValueError(f"compression matrix spectral norm {spec} exceeds 1")
        object.__setattr__(self, "matrix", a)

    @property
    def m_uses(self) -> int:
        return self.matrix.shape[0]

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]

    @property
    def is_complex(self) -> bool:
        return np.iscomplexobj(self.matrix)

    def compress(self, payloads: np.ndarray) -> np.ndarray:
        """The (n, M) blocks that carry each row of the (n, d) payloads."""
        return (self.matrix @ payloads[..., None])[..., 0]

    def stacked_real(self) -> np.ndarray:
        """Real operator acting on real payloads: [Re A; Im A] when complex."""
        if self.is_complex:
            return np.vstack([self.matrix.real, self.matrix.imag])
        return self.matrix


def make_compression(kind: str, m_uses: int, dim: int,
                     rng: np.random.Generator | None = None) -> CompressionMatrix:
    """Build an M x d compression matrix of the requested kind.

    partial_dft picks M uniformly chosen rows of the unitary DFT matrix;
    row_orthogonal picks the first M rows of a random orthogonal matrix;
    identity requires M == d.
    """
    if kind not in COMPRESSION_KINDS:
        raise ValueError(f"unknown compression kind {kind!r}")
    if not 1 <= m_uses <= dim:
        raise ValueError(f"need 1 <= M <= d, got M={m_uses}, d={dim}")
    if kind == "identity":
        if m_uses != dim:
            raise ValueError("identity compression requires M == d")
        return CompressionMatrix(np.eye(dim))
    if rng is None:
        raise ValueError(f"{kind} compression needs an rng")
    if kind == "partial_dft":
        rows = np.sort(rng.choice(dim, size=m_uses, replace=False))
        return CompressionMatrix(_dft_matrix(dim)[rows])
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    return CompressionMatrix(q[:m_uses].copy())


@functools.cache
def _dft_matrix(dim: int) -> np.ndarray:
    """Unitary d x d DFT matrix, built on first use and read-only."""
    n = np.arange(dim)
    dft = np.exp(-2j * np.pi * np.outer(n, n) / dim) / np.sqrt(dim)
    dft.flags.writeable = False
    return dft


@dataclass(frozen=True)
class ChannelRound:
    """Realized fading coefficients and noise for one communication round."""

    gains: np.ndarray       # complex coefficient per active device
    noise_var: float        # per real component
    noise_re: np.ndarray    # (M,)
    noise_im: np.ndarray    # (M,)


def sample_channel(n_active: int, fading: str, noise_var: float, m_uses: int,
                   rng: np.random.Generator) -> ChannelRound:
    """Draw i.i.d. fading coefficients and the additive noise block."""
    if noise_var < 0:
        raise ValueError("noise_var must be >= 0")
    if fading == "rayleigh":
        gains = (rng.standard_normal(n_active) + 1j * rng.standard_normal(n_active)) / np.sqrt(2)
    elif fading == "unit":
        gains = np.ones(n_active, dtype=complex)
    else:
        raise ValueError(f"unknown fading model {fading!r}")
    scale = np.sqrt(noise_var)
    noise_re = scale * rng.standard_normal(m_uses)
    noise_im = scale * rng.standard_normal(m_uses)
    return ChannelRound(gains=gains, noise_var=float(noise_var),
                        noise_re=noise_re, noise_im=noise_im)


def transmit_mac(signals, ch: ChannelRound) -> np.ndarray:
    """Superpose the transmitted blocks over the fading MAC and add noise.

    ``signals`` is the (n, M) stack of blocks, row i sent over coefficient
    ``ch.gains[i]``.  y = sum_i h_i x_i + n, accumulated in device order.
    The noise is complex when the blocks are, real otherwise; each real
    component has variance noise_var.
    """
    signals = np.asarray(signals)
    if signals.ndim != 2 or signals.shape[0] != ch.gains.shape[0]:
        raise ValueError("one signal per realized channel coefficient required")
    m = signals.shape[1]
    if m != ch.noise_re.shape[0]:
        raise ValueError("block length does not match the realized noise")
    is_complex = np.iscomplexobj(signals)
    acc = np.zeros(m, dtype=complex if is_complex else float)
    for h, s in zip(ch.gains, signals):
        acc = acc + (h * s if is_complex else float(h.real) * s)
    if is_complex:
        return acc + ch.noise_re + 1j * ch.noise_im
    return acc + ch.noise_re


@dataclass(frozen=True)
class Estimate:
    """Server-side reconstruction of the superposed payload."""

    x_hat: np.ndarray
    err_var: float              # modeled per-component error variance
    pinv_fallback: bool = False


def estimate(y: np.ndarray, comp: CompressionMatrix, prior_power: float,
             noise_var: float, kind: str = "lmmse") -> Estimate:
    """Reconstruct the real superposed payload from the received block.

    matched: requires M == d and orthonormal rows; x_hat = Re(A^H y) and the
    per-component error variance equals noise_var exactly.
    lmmse: linear MMSE under an isotropic prior with per-component power
    ``prior_power``, solved on the stacked real system.  A noiseless
    rank-deficient system falls back to the pseudo-inverse and flags it.
    """
    if kind not in ESTIMATOR_KINDS:
        raise ValueError(f"unknown estimator kind {kind!r}")
    if prior_power < 0 or noise_var < 0:
        raise ValueError("prior_power and noise_var must be >= 0")
    a = comp.matrix
    if kind == "matched":
        if comp.m_uses != comp.dim:
            raise ValueError("matched estimator requires M == d")
        x_hat = np.asarray(a.conj().T @ np.asarray(y)).real
        return Estimate(x_hat=np.ascontiguousarray(x_hat, dtype=float), err_var=float(noise_var))

    b = comp.stacked_real()
    if comp.is_complex:
        y_r = np.concatenate([np.asarray(y).real, np.asarray(y).imag])
    else:
        # a real compression carries the payload on the real axis only
        y_r = np.ascontiguousarray(np.asarray(y).real)
    p = float(prior_power)
    gram = b @ b.T
    if noise_var == 0.0 and (np.linalg.matrix_rank(gram, tol=1e-12) < b.shape[0] or p == 0.0):
        return _pinv_estimate(b, gram, y_r, p, comp.dim)
    c = p * gram + noise_var * np.eye(b.shape[0])
    try:
        sol = np.linalg.solve(c, np.column_stack([y_r, b]))
    except np.linalg.LinAlgError:  # noise too small to regularize a rank-deficient system
        return _pinv_estimate(b, gram, y_r, p, comp.dim)
    x_hat = p * (b.T @ sol[:, 0])
    # posterior error variance per component: (p*d - p^2 * tr(B' C^-1 B)) / d
    tr = float(np.sum(b * sol[:, 1:]))
    v = (p * comp.dim - p * p * tr) / comp.dim
    return Estimate(x_hat=x_hat, err_var=float(max(v, 0.0)))


def _pinv_estimate(b: np.ndarray, gram: np.ndarray, y_r: np.ndarray, p: float,
                   dim: int) -> Estimate:
    """Minimum-norm reconstruction of a system the noise does not regularize.

    The posterior covariance is the projection complement scaled by the prior.
    """
    rank = np.linalg.matrix_rank(gram, tol=1e-12)
    x_hat = b.T @ (np.linalg.pinv(gram) @ y_r)
    return Estimate(x_hat=x_hat, err_var=float(p * max(dim - rank, 0) / dim),
                    pinv_fallback=True)


def global_update(theta: np.ndarray, est: Estimate, eta: float, rho: float,
                  abs_mean: float, n_active: int) -> np.ndarray:
    """Server update from the reconstructed payload.

    theta' = theta - eta / (mu * sqrt(rho) * rn) * x_hat, where mu is the
    known mean |h| of the fading law.
    """
    if rho <= 0:
        raise ValueError("rho must be > 0")
    if n_active < 1:
        raise ValueError("need at least one active device")
    if abs_mean <= 0:
        raise ValueError("abs_mean must be > 0")
    theta = np.asarray(theta, dtype=float)
    return theta - (eta / (abs_mean * np.sqrt(rho) * n_active)) * est.x_hat


def snr_noise_var(snr_db: float, n_active: int, power: float, abs_power: float) -> float:
    """Noise variance realizing a configured received SNR in dB.

    The received SNR is defined as rn * P * E|h|^2 / sigma_n^2; this is a
    documented normalization choice, monotone in P.
    """
    return n_active * power * abs_power / 10.0 ** (snr_db / 10.0)
