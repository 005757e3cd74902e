"""Temporal Matern kernels, free-form inter-feature covariance, and the covariance layout.

The observation vector for one segment is laid out feature-major:
``z = [z_1^1 .. z_T^1, z_1^2 .. z_T^P]``, i.e. the block for feature 1 over
all times comes first. Under that layout the full emission covariance is
``kron(task, temporal) + kron(diag(noise), I)``. Every module in the package
uses this single convention.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import NonPositiveDefiniteError

# Supported half-integer smoothness orders (closed-form Matern kernels).
SMOOTHNESS_ORDERS = (0.5, 1.5, 2.5)

# Relative diagonal jitter applied to bare Gram matrices before factorization.
JITTER = 1e-8

LOG_2PI = math.log(2.0 * math.pi)


@dataclass(frozen=True)
class MaternKernel:
    """Stationary Matern kernel on a one-dimensional input.

    Parameters
    ----------
    variance : float
        Signal variance, value of the kernel at lag zero. Must be positive.
    lengthscale : float
        Correlation length in time steps. Must be positive.
    smoothness : float
        One of 0.5, 1.5, 2.5 (the closed-form half-integer orders).
    """

    variance: float
    lengthscale: float
    smoothness: float = 1.5

    def __post_init__(self):
        if not self.variance > 0:
            raise ValueError(f"variance must be positive, got {self.variance}")
        if not self.lengthscale > 0:
            raise ValueError(f"lengthscale must be positive, got {self.lengthscale}")
        if self.smoothness not in SMOOTHNESS_ORDERS:
            raise ValueError(
                f"smoothness must be one of {SMOOTHNESS_ORDERS}, got {self.smoothness}"
            )


@dataclass(frozen=True)
class TaskCovariance:
    """Free-form inter-feature covariance parameterized by its Cholesky factor.

    ``cholesky_factor`` is a lower-triangular P x P matrix with strictly
    positive diagonal, so the assembled matrix L L^T is symmetric positive
    definite and the factorization is unique.
    """

    cholesky_factor: np.ndarray

    def __post_init__(self):
        L = np.asarray(self.cholesky_factor, dtype=float)
        if L.ndim != 2 or L.shape[0] != L.shape[1]:
            raise ValueError(f"cholesky_factor must be square, got shape {L.shape}")
        if not np.allclose(L, np.tril(L)):
            raise ValueError("cholesky_factor must be lower triangular")
        if not np.all(np.diag(L) > 0):
            raise ValueError("cholesky_factor diagonal must be strictly positive")
        object.__setattr__(self, "cholesky_factor", L)

    @property
    def num_features(self) -> int:
        return self.cholesky_factor.shape[0]


@dataclass(frozen=True)
class NoiseModel:
    """Independent per-feature observation noise variances."""

    per_feature_variance: np.ndarray

    def __post_init__(self):
        v = np.atleast_1d(np.asarray(self.per_feature_variance, dtype=float))
        if v.ndim != 1:
            raise ValueError("per_feature_variance must be a vector")
        if not np.all(v > 0):
            raise ValueError("noise variances must all be positive")
        object.__setattr__(self, "per_feature_variance", v)

    @property
    def num_features(self) -> int:
        return self.per_feature_variance.shape[0]


def matern_eval(kernel: MaternKernel, lag):
    """Evaluate the kernel at one or more time lags.

    Accepts scalars or arrays; the result is symmetric in the sign of the
    lag and equals ``variance`` at lag zero.
    """
    r = np.abs(np.asarray(lag, dtype=float))
    s2 = kernel.variance
    ell = kernel.lengthscale
    if kernel.smoothness == 0.5:
        out = s2 * np.exp(-r / ell)
    elif kernel.smoothness == 1.5:
        a = np.sqrt(3.0) / ell
        out = s2 * (1.0 + a * r) * np.exp(-a * r)
    else:
        a = np.sqrt(5.0) / ell
        out = s2 * (1.0 + a * r + (a * r) ** 2 / 3.0) * np.exp(-a * r)
    if np.isscalar(lag):
        return float(out)
    return out


def matern_grad(kernel: MaternKernel, lag):
    """Kernel derivatives with respect to log(variance) and log(lengthscale).

    Returns a pair of arrays shaped like ``lag``. Log-space derivatives are
    what the unconstrained optimizer consumes.
    """
    r = np.abs(np.asarray(lag, dtype=float))
    s2 = kernel.variance
    ell = kernel.lengthscale
    k = matern_eval(kernel, r)
    if kernel.smoothness == 0.5:
        d_ell = s2 * np.exp(-r / ell) * (r / ell)
    elif kernel.smoothness == 1.5:
        a = np.sqrt(3.0) / ell
        d_ell = s2 * (a * r) ** 2 * np.exp(-a * r)
    else:
        a = np.sqrt(5.0) / ell
        d_ell = s2 * ((a * r) ** 2 / 3.0) * (1.0 + a * r) * np.exp(-a * r)
    return np.asarray(k, dtype=float), d_ell


def task_cov_assemble(tc: TaskCovariance) -> np.ndarray:
    """Assemble the inter-feature covariance L L^T."""
    L = tc.cholesky_factor
    return L @ L.T


def gram_matrix(kernel: MaternKernel, num_steps: int) -> np.ndarray:
    """Kernel Gram matrix on the uniform grid 0..num_steps.

    Returns the (num_steps+1) x (num_steps+1) symmetric Toeplitz matrix with
    entry (i, j) = k(|i - j|). No jitter is added here; see `add_jitter`.
    """
    if num_steps < 0:
        raise ValueError("num_steps must be >= 0")
    lags = np.arange(num_steps + 1, dtype=float)
    row = matern_eval(kernel, lags)
    idx = np.abs(np.subtract.outer(lags, lags)).astype(int)
    return row[idx]


def add_jitter(mat: np.ndarray, variance: float) -> np.ndarray:
    """Copy of ``mat`` with JITTER * variance added to the diagonal.

    Applied to bare Gram matrices before Cholesky; covariances that already
    include observation noise are factorized as-is.
    """
    out = np.array(mat, dtype=float, copy=True)
    out[np.diag_indices_from(out)] += JITTER * variance
    return out


def chol_or_raise(mat: np.ndarray, context: str, state: int | None = None) -> np.ndarray:
    """Cholesky factor of ``mat``, raising NonPositiveDefiniteError on failure."""
    try:
        return np.linalg.cholesky(mat)
    except np.linalg.LinAlgError as exc:
        raise NonPositiveDefiniteError(
            f"covariance not positive definite in {context}", state=state
        ) from exc


def channel_basis(task: TaskCovariance, noise: NoiseModel, state: int | None = None):
    """Generalized eigendecomposition (mu, W) of K^Y against diag(noise).

    W^T diag(noise) W = I and W^T K^Y W = diag(mu): the transformed channels
    of an emission are independent processes with variances mu_p plus unit
    noise. ``state`` (0-based) only labels the error.
    """
    KY = task_cov_assemble(task)
    try:
        return scipy.linalg.eigh(KY, np.diag(noise.per_feature_variance))
    except np.linalg.LinAlgError as exc:
        where = "" if state is None else f" for state {state + 1}"
        raise NonPositiveDefiniteError(
            f"task/noise eigendecomposition failed{where}", state=state
        ) from exc


def gaussian_logpdf(diff: np.ndarray, chol: np.ndarray) -> np.ndarray:
    """Zero-mean Gaussian log-density of residuals, given covariance factors.

    ``chol`` holds lower Cholesky factors (..., m, m); ``diff`` holds
    residuals (*S, ..., m) whose trailing batch dimensions broadcast against
    those of ``chol``. Leading dimensions S that ``chol`` lacks (samples
    scored under the same laws) become right-hand sides of one solve per
    factor. Returns log-densities shaped (*S, ...).
    """
    k = max(diff.ndim - chol.ndim + 1, 0)
    lead = diff.shape[:k]
    rhs = np.moveaxis(diff.reshape((-1,) + diff.shape[k:]), 0, -1)  # (..., m, S)
    w = np.linalg.solve(chol, rhs)
    quad = np.moveaxis(np.sum(w**2, axis=-2), -1, 0)  # (S, ...)
    logdet = 2.0 * np.sum(np.log(np.diagonal(chol, axis1=-2, axis2=-1)), axis=-1)
    out = -0.5 * (quad + logdet + diff.shape[-1] * LOG_2PI)
    return out.reshape(lead + out.shape[1:])
