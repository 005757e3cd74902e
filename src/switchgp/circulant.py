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
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import SingularEmbeddingError
from .kernels import (
    LOG_2PI,
    NoiseModel,
    channel_basis,
    gaussian_logpdf,
    matern_eval,
    task_cov_assemble,
)

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
    pad_shape = (spec.size,) + vec.shape[1:]
    padded = np.zeros(pad_shape)
    padded[:m] = vec
    full = np.fft.ifft(np.fft.fft(padded, axis=0) * _col(spec.eigenvalues, padded), axis=0).real
    return full[:m]


def circulant_logdet_solve(spec: CirculantSpec, rhs: np.ndarray, tol: float = SINGULAR_TOL):
    """Log-determinant of the circulant and the solution of spec @ x = rhs.

    Requires a positive-definite circulant: any eigenvalue with real part at
    or below ``tol * max |eigenvalue|`` raises SingularEmbeddingError so the
    caller can fall back to the dense path.
    """
    lam = spec.eigenvalues.real
    floor = tol * max(np.max(np.abs(lam)), 1.0)
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
    under kron(K^Y, K_T) + kron(D, I) using the circulant embedding of the
    temporal Gram matrix. Cost is O(P^2 T log T). Raises
    SingularEmbeddingError when any Fourier-index block of the embedding is
    not positive definite; callers fall back to the dense path.

    ``emission`` provides ``temporal`` (MaternKernel) and ``task``
    (TaskCovariance) plus an optional ``mean`` used when ``means`` is None.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 2:
        raise ValueError("segment must be a T x P matrix")
    T, P = values.shape
    resid = values - _resolve_means(emission, means, T, P)

    Dn = noise.per_feature_variance
    if T == 1:
        # Single timestep: no embedding effect, score exactly.
        cov = matern_eval(emission.temporal, 0.0) * task_cov_assemble(emission.task)
        return float(gaussian_logpdf(resid[0], np.linalg.cholesky(cov + np.diag(Dn))))

    # Decouple features: W^T diag(Dn) W = I and W^T K^Y W = diag(mu), so the
    # transformed channels are independent GPs with kernel mu_p * k_T plus
    # unit noise, and the Fourier-index blocks lambda_k K^Y + D have
    # eigenvalues 1 + lambda_k mu_p under the same congruence.
    mu, W = channel_basis(emission.task, noise)
    Rt = resid @ W  # (T, P) decoupled channels

    c0 = matern_eval(emission.temporal, np.arange(T, dtype=float))
    spec = embed_circulant(c0)
    lam = spec.eigenvalues.real
    n = spec.size

    denom = 1.0 + lam[:, None] * mu[None, :]  # (n, P) block eigenvalues
    if np.any(denom <= SINGULAR_TOL):
        k_bad, _ = np.unravel_index(int(np.argmin(denom)), denom.shape)
        raise SingularEmbeddingError(
            f"Fourier-index block {k_bad} of the embedding is not positive definite",
            fourier_index=int(k_bad),
        )

    # Accumulated block log-determinant, rescaled to the Toeplitz dimension,
    # plus the strong Szego second-order constant per decoupled channel.
    logdet = (T / n) * float(np.sum(np.log(denom))) + T * float(np.sum(np.log(Dn)))
    coeff = np.fft.ifft(np.log(denom), axis=0).real  # (n, P) spectral log coefficients
    if n >= 4:
        m_idx = np.arange(1, n // 2, dtype=float)
        logdet += float(np.sum(m_idx[:, None] * coeff[1 : n // 2] ** 2))

    X = _block_preconditioned_cg(spec, mu, denom, Rt)
    quad = float(np.sum(Rt * X))

    return -0.5 * (quad + logdet + T * P * LOG_2PI)


def _resolve_means(emission, means, T: int, P: int) -> np.ndarray:
    if means is not None:
        means = np.asarray(means, dtype=float)
        if means.shape == (P,):
            return np.broadcast_to(means, (T, P))
        if means.shape != (T, P):
            raise ValueError(f"means shape {means.shape} incompatible with segment ({T}, {P})")
        return means
    mean = getattr(emission, "mean", None)
    if mean is None:
        return np.zeros((T, P))
    return np.broadcast_to(np.asarray(mean, dtype=float), (T, P))


def _block_preconditioned_cg(spec, mu, denom, B):
    """Solve (mu_p K_T + I) x_p = b_p for all channels, exactly via CG.

    Matrix products use the exact FFT Toeplitz path; the preconditioner
    applies the inverse Fourier-index blocks (1 + lambda_k mu_p). Channels
    are iterated jointly and frozen once converged.
    """
    T, P = B.shape
    n = spec.size
    lam = spec.eigenvalues

    def matvec(V, cols):
        padded = np.zeros((n, cols.size))
        padded[:T] = V
        prod = np.fft.ifft(np.fft.fft(padded, axis=0) * lam[:, None], axis=0).real[:T]
        return prod * mu[cols][None, :] + V

    def precond(V, cols):
        padded = np.zeros((n, cols.size))
        padded[:T] = V
        return np.fft.ifft(np.fft.fft(padded, axis=0) / denom[:, cols], axis=0).real[:T]

    X = np.zeros((T, P))
    active = np.arange(P)
    R = B.copy()
    bnorm = np.maximum(np.linalg.norm(B, axis=0), 1e-300)
    Z = precond(R, active)
    Pdir = Z.copy()
    rz = np.sum(R * Z, axis=0)
    for _ in range(CG_MAXITER):
        done = np.linalg.norm(R, axis=0) <= CG_RTOL * bnorm[active]
        if np.any(done):
            keep = ~done
            if not np.any(keep):
                return X
            active = active[keep]
            R, Z, Pdir, rz = R[:, keep], Z[:, keep], Pdir[:, keep], rz[keep]
        Ap = matvec(Pdir, active)
        alpha = rz / np.sum(Pdir * Ap, axis=0)
        X[:, active] += alpha[None, :] * Pdir
        R = R - alpha[None, :] * Ap
        Z = precond(R, active)
        rz_new = np.sum(R * Z, axis=0)
        Pdir = Z + (rz_new / rz)[None, :] * Pdir
        rz = rz_new
    resid = np.linalg.norm(R, axis=0) / bnorm[active]
    if np.max(resid) > 1e-6:
        raise SingularEmbeddingError(
            f"conjugate gradients failed to converge (residual {np.max(resid):.2e})"
        )
    return X


def _col(weights, like):
    """Broadcast a weight vector over trailing dimensions of ``like``."""
    return weights if like.ndim == 1 else weights[:, None]
