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
        for name in ("variance", "lengthscale"):
            value = getattr(self, name)
            if not (value > 0 and math.isfinite(value)):
                raise ValueError(f"{name} must be positive and finite, got {value}")
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
        if not np.isfinite(L).all():
            raise ValueError("cholesky_factor entries must be finite")
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
        if not ((v > 0) & np.isfinite(v)).all():
            raise ValueError("noise variances must all be positive and finite")
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


def channel_bases(emissions, noise: NoiseModel, states) -> dict:
    """The channel basis (mu, W) of each of ``states`` (0-based indices into
    ``emissions``), with one generalized eigendecomposition per task factor:
    states that share a factor, as every state does under ``shared_task``,
    share its basis."""
    by_task, bases = {}, {}
    for j in states:
        task = emissions[j].task
        if id(task) not in by_task:
            by_task[id(task)] = channel_basis(task, noise, j)
        bases[j] = by_task[id(task)]
    return bases


def gaussian_logpdf(diff: np.ndarray, chol: np.ndarray) -> np.ndarray:
    """Zero-mean Gaussian log-densities (...) of residuals ``diff`` (..., m)
    under lower Cholesky factors ``chol`` (..., m, m) of the same batch
    shape."""
    w = np.linalg.solve(chol, diff[..., None])[..., 0]
    logdet = 2.0 * np.sum(np.log(np.diagonal(chol, axis1=-2, axis2=-1)), axis=-1)
    return -0.5 * (np.sum(w**2, axis=-1) + logdet + diff.shape[-1] * LOG_2PI)


def logsumexp(a: np.ndarray, axis: int | None = None) -> np.ndarray:
    """log(sum(exp(a))) over ``axis`` (all entries when None).

    The form of scipy.special.logsumexp, without its per-call dispatch cost:
    the k maxima are split off and the rest summed relative to them, as
    log1p(rest / k) + log(k) + max, so exact ties in the inputs stay ties.
    All--inf input gives -inf, and NaN propagates.
    """
    peak = np.maximum.reduce(a, axis=axis, keepdims=True)
    at_peak = a == peak
    count = np.add.reduce(at_peak, axis=axis, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        shifted = a - peak
        np.copyto(shifted, -np.inf, where=at_peak)
        rest = np.add.reduce(np.exp(shifted, out=shifted), axis=axis, keepdims=True)
        out = np.log1p(rest / count) + np.log(count) + peak
    return np.squeeze(out, axis=axis)[()]
