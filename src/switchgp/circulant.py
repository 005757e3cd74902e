"""FFT-based circulant embedding: fast log-determinants, solves, and segment likelihoods.

A symmetric Toeplitz Gram matrix with first column ``[C(0), ..., C(T)]`` embeds
as the leading principal submatrix of the circulant matrix with first row
``c = [C(0), ..., C(T), C(T-1), ..., C(1)]`` of length 2T. The circulant is
diagonalized by the DFT, so products, solves, and determinants cost
O(T log T).

Matrix-vector products through the embedding are exact. The log-determinant
and inverse of the circulant are only approximations to the Toeplitz ones, so
`fast_segment_loglik` is flagged approximate throughout: callers needing exact
values use the dense path, and the fast path reports structural failures
(`SingularEmbeddingError`) instead of silently clipping eigenvalues.

The approximation is tightened in two ways while staying inside the
per-Fourier-index block structure. For each Fourier index k the P x P block
lambda_k * K^Y + D is formed (in the basis that diagonalizes K^Y against D,
where its eigenvalues are 1 + lambda_k * mu_p); the quadratic form is then
driven to the exact Toeplitz value by conjugate gradients preconditioned with
those blocks, and the accumulated block log-determinant is corrected by the
second-order spectral constant (the classical strong Szego term) computed
from the same block spectrum.

Two grids serve a segment of T rows. The minimal embedding, n = 2T - 2 for
the lags 0..T-1 (n = 1 for a single row), defines the approximation: its
block log-determinant, Szego term and positive-definiteness check. The exact
solve only needs a circulant whose leading T x T block is K_T, which the
kernel's periodic row C(min(k, m - k)) gives on any grid m >= n; it runs on
the 5-smooth m = next_fast_len(n), where real FFTs are fast, and on n when a
block of the m-grid is not positive. Every spectrum is symmetric, so real
transforms over the half spectrum carry it. Every length takes this formula:
at one row the embedding is the 1 x 1 Toeplitz matrix itself, the Szego sum
is empty and conjugate gradients converge in one step, so the value is exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.fft

from .errors import SingularEmbeddingError
from .kernels import LOG_2PI, NoiseModel, channel_basis, matern_eval

# Relative eigenvalue floor below which a circulant is treated as singular.
SINGULAR_TOL = 1e-12

# Conjugate-gradient controls for the fast quadratic form.
CG_RTOL = 1e-11
CG_MAXITER = 500


@dataclass(frozen=True)
class CirculantSpec:
    """First-row representation of a circulant matrix plus its eigenvalues.

    ``first_row`` has length 2T and is palindromic after index T
    (``first_row[T+k] == first_row[T-k]``); ``eigenvalues`` is its DFT.
    """

    first_row: np.ndarray
    eigenvalues: np.ndarray = field(init=False)

    def __post_init__(self):
        row = np.asarray(self.first_row, dtype=float)
        object.__setattr__(self, "first_row", row)
        object.__setattr__(self, "eigenvalues", np.fft.fft(row))

    @property
    def size(self) -> int:
        return self.first_row.shape[0]


def embed_circulant(toeplitz_first_col: np.ndarray) -> CirculantSpec:
    """Embed a symmetric Toeplitz matrix into its minimal circulant.

    Input is the first column ``[C(0), ..., C(T)]`` (length T+1, T >= 1). The
    leading (T+1) x (T+1) principal submatrix of the resulting circulant
    equals the original Toeplitz matrix exactly.
    """
    col = np.asarray(toeplitz_first_col, dtype=float)
    if col.ndim != 1 or col.shape[0] < 2:
        raise ValueError("first column must have length >= 2")
    # Reflect the interior: [C0..CT, C_{T-1}..C1].
    row = np.concatenate([col, col[-2:0:-1]])
    return CirculantSpec(row)


def toeplitz_matvec(spec: CirculantSpec, vec: np.ndarray) -> np.ndarray:
    """Exact product of the embedded Toeplitz matrix with ``vec``.

    ``vec`` may have any length up to the embedded Toeplitz size (T+1 for a
    minimal embedding of size 2T); it is zero-padded to the circulant size
    and the product truncated, which reproduces the dense Toeplitz product
    exactly because the embedding only alters rows/columns beyond T.
    """
    vec = np.asarray(vec, dtype=float)
    m = vec.shape[0]
    if m > spec.size // 2 + 1:
        raise ValueError("vector longer than the embedded Toeplitz dimension")
    spectrum = np.fft.fft(vec, spec.size, axis=0) * _col(spec.eigenvalues, vec)
    return np.fft.ifft(spectrum, axis=0).real[:m]


def circulant_logdet_solve(spec: CirculantSpec, rhs: np.ndarray):
    """Log-determinant of the circulant and the solution of spec @ x = rhs.

    Requires a positive-definite circulant: any eigenvalue with real part at
    or below ``SINGULAR_TOL * max |eigenvalue|`` raises SingularEmbeddingError
    so the caller can fall back to the dense path.
    """
    lam = spec.eigenvalues.real
    floor = SINGULAR_TOL * max(np.max(np.abs(lam)), 1.0)
    bad = np.nonzero(lam <= floor)[0]
    if bad.size:
        raise SingularEmbeddingError(
            f"circulant eigenvalue {lam[bad[0]]:.3e} at Fourier index {bad[0]} "
            f"is not positive",
            fourier_index=int(bad[0]),
        )
    logdet = float(np.sum(np.log(lam)))
    rhs = np.asarray(rhs, dtype=float)
    if rhs.shape[0] != spec.size:
        raise ValueError(f"rhs length {rhs.shape[0]} != circulant size {spec.size}")
    sol = np.fft.ifft(np.fft.fft(rhs, axis=0) / _col(lam, rhs), axis=0).real
    return logdet, sol


def fast_segment_loglik(
    emission,
    noise: NoiseModel,
    values: np.ndarray,
    means: np.ndarray | None = None,
) -> float:
    """Approximate Gaussian log-density of a fully observed segment.

    Residuals of the T x P ``values`` matrix against ``means`` are scored
    under kron(K^Y, K_T) + kron(D, I). The log-determinant is the
    approximation of the minimal embedding n = max(2T - 2, 1), exact for a
    single row; the quadratic form is exact, solved by conjugate gradients
    on the 5-smooth grid m = next_fast_len(n) (on n where a block of the
    m-grid is not positive), at O(P m log m) per iteration. Raises
    SingularEmbeddingError when any Fourier-index block of the minimal
    embedding is not positive definite; callers fall back to the dense path.

    ``emission`` provides ``temporal`` (MaternKernel), ``task``
    (TaskCovariance) and the ``mean`` used when ``means`` is None.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 2:
        raise ValueError("segment must be a T x P matrix")
    T, P = values.shape
    resid = values - _resolve_means(emission, means, T, P)

    Dn = noise.per_feature_variance
    # Decouple features: W^T diag(Dn) W = I and W^T K^Y W = diag(mu), so the
    # transformed channels are independent GPs with kernel mu_p * k_T plus
    # unit noise, and the Fourier-index blocks lambda_k K^Y + D have
    # eigenvalues 1 + lambda_k mu_p under the same congruence.
    mu, W = channel_basis(emission.task, noise)
    Rt = (resid @ W).T  # (P, T) decoupled channels, one per row

    n = max(2 * T - 2, 1)
    m = scipy.fft.next_fast_len(n, real=True)
    lags = matern_eval(emission.temporal, np.arange(m // 2 + 1, dtype=float))
    lam_mu = mu[:, None] * _half_spectrum(lags, n)  # (P, n/2 + 1)
    denom = 1.0 + lam_mu  # block eigenvalues, half spectrum
    if np.any(denom <= SINGULAR_TOL):
        _, k_bad = np.unravel_index(int(np.argmin(denom)), denom.shape)
        raise SingularEmbeddingError(
            f"Fourier-index block {k_bad} of the embedding is not positive definite",
            fourier_index=int(k_bad),
        )

    # Accumulated block log-determinant, rescaled to the Toeplitz dimension
    # (T times the mean log block, coeff[0]), plus the strong Szego
    # second-order constant per decoupled channel.
    coeff = np.fft.irfft(np.log(denom), n)  # (P, n) spectral log coefficients
    logdet = T * float(np.sum(coeff[:, 0])) + T * float(np.sum(np.log(Dn)))
    logdet += float(np.sum(np.arange(1, n // 2) * coeff[:, 1 : n // 2] ** 2))

    # Any grid of size >= n holds K_T as its leading block; the solve runs on
    # the fast one unless a block there is not positive.
    if m > n:
        lam_mu_m = mu[:, None] * _half_spectrum(lags, m)
        if np.all(1.0 + lam_mu_m > SINGULAR_TOL):
            lam_mu = lam_mu_m
        else:
            m = n
    X = _block_preconditioned_cg(m, lam_mu, Rt)
    quad = float(np.sum(Rt * X))

    return -0.5 * (quad + logdet + T * P * LOG_2PI)


def _half_spectrum(lags, size: int) -> np.ndarray:
    """Eigenvalues at Fourier indices 0..size//2 of the symmetric circulant
    of ``size`` whose first row is the kernel's periodic row
    ``lags[min(k, size - k)]``."""
    k = np.arange(size)
    return np.fft.rfft(lags[np.minimum(k, size - k)]).real


def _resolve_means(emission, means, T: int, P: int) -> np.ndarray:
    if means is not None:
        means = np.asarray(means, dtype=float)
        if means.shape == (P,):
            return np.broadcast_to(means, (T, P))
        if means.shape != (T, P):
            raise ValueError(f"means shape {means.shape} incompatible with segment ({T}, {P})")
        return means
    return np.broadcast_to(emission.mean, (T, P))


def _block_preconditioned_cg(m, lam_mu, B):
    """Solve (mu_p K_T + I) x_p = b_p for all channels, exactly via CG.

    ``B`` holds one channel per row (P x T). ``lam_mu`` holds lambda_k mu_p
    over the half spectrum of a circulant of size m >= 2T - 2 whose leading
    T x T block is K_T. Matrix products run through that circulant, which is
    exact on the zero-padded channels; the preconditioner applies the
    inverse Fourier-index blocks (1 + lambda_k mu_p). Channels are iterated
    jointly and frozen once converged.
    """
    P, T = B.shape

    def circulant(weights, V):
        return np.fft.irfft(np.fft.rfft(V, m) * weights, m)[:, :T]

    lam, inv = lam_mu, 1.0 / (1.0 + lam_mu)
    X = np.zeros((P, T))
    active = np.arange(P)
    R = B.copy()
    bnorm = np.maximum(np.linalg.norm(B, axis=1), 1e-300)
    Z = circulant(inv, R)
    Pdir = Z.copy()
    rz = np.sum(R * Z, axis=1)
    for _ in range(CG_MAXITER):
        done = np.linalg.norm(R, axis=1) <= CG_RTOL * bnorm[active]
        if np.any(done):
            keep = ~done
            if not np.any(keep):
                return X
            active = active[keep]
            R, Z, Pdir, rz = R[keep], Z[keep], Pdir[keep], rz[keep]
            lam, inv = lam[keep], inv[keep]
        Ap = circulant(lam, Pdir) + Pdir
        alpha = rz / np.sum(Pdir * Ap, axis=1)
        X[active] += alpha[:, None] * Pdir
        R = R - alpha[:, None] * Ap
        Z = circulant(inv, R)
        rz_new = np.sum(R * Z, axis=1)
        Pdir = Z + (rz_new / rz)[:, None] * Pdir
        rz = rz_new
    resid = np.linalg.norm(R, axis=1) / bnorm[active]
    if np.max(resid) > 1e-6:
        raise SingularEmbeddingError(
            f"conjugate gradients failed to converge (residual {np.max(resid):.2e})"
        )
    return X


def _col(weights, like):
    """Broadcast a weight vector over trailing dimensions of ``like``."""
    return weights if like.ndim == 1 else weights[:, None]
