"""Independent reference computations for the benchmark's correctness checks.

Nothing here calls into switchgp: the references work from the plain
parameter arrays of `harmodel.model_params` and from public result objects
(log-weights, means, covariances) the program returns, so a fault in the
program cannot cancel out of a comparison.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
import scipy.linalg
import scipy.special
import scipy.stats

from harmodel import DURATION_CAP, duration_masses, matern32

LOG_2PI = math.log(2.0 * math.pi)


def toeplitz_logdet_solve(col: np.ndarray, rhs: np.ndarray):
    """Levinson-Durbin recursion on symmetric positive-definite Toeplitz systems.

    ``col`` holds one first column per system, shape (T, C); ``rhs`` one
    right-hand side per system. Returns (log-determinants (C,), solutions
    (T, C)). Exact in O(T^2) per system (Golub & Van Loan, Algorithm 4.7.3).
    """
    T, C = col.shape
    # Channel-major copies keep each recursion step on contiguous rows.
    r = (col[1:] / col[0]).T.copy()
    b = (rhs / col[0]).T.copy()
    x = np.zeros((C, T))
    y = np.zeros((C, T))
    x[:, 0] = b[:, 0]
    logdet = T * np.log(col[0])
    if T > 1:
        y[:, 0] = alpha = -r[:, 0]
    beta = np.ones(C)
    for k in range(1, T):
        beta = (1.0 - alpha * alpha) * beta
        logdet = logdet + np.log(beta)
        rk = r[:, k - 1 :: -1]
        mu = (b[:, k] - np.einsum("ij,ij->i", rk, x[:, :k])) / beta
        x[:, :k] += mu[:, None] * y[:, k - 1 :: -1]
        x[:, k] = mu
        if k < T - 1:
            alpha = (-r[:, k] - np.einsum("ij,ij->i", rk, y[:, :k])) / beta
            y[:, :k] = y[:, :k] + alpha[:, None] * y[:, k - 1 :: -1]
            y[:, k] = alpha
    return logdet, x.T
    y[0] = -r[0]
    alpha = -r[0]
    beta = np.ones(col.shape[1])
    for k in range(1, T):
        beta = (1.0 - alpha * alpha) * beta
        logdet = logdet + np.log(beta)
        rk = r[:k][::-1]
        mu = (b[k] - np.sum(rk * x[:k], axis=0)) / beta
        x[:k] = x[:k] + mu * y[:k][::-1]
        x[k] = mu
        if k < T - 1:
            alpha = (-r[k] - np.sum(rk * y[:k], axis=0)) / beta
            y[:k] = y[:k] + alpha * y[:k][::-1]
            y[k] = alpha
    return logdet, x


def segment_loglik(params: dict, state: int, values: np.ndarray, means=None) -> float:
    """Exact Gaussian log-density of one fully observed segment.

    Channels are decoupled by the generalized eigendecomposition of the task
    covariance against the noise; each decoupled channel is a Toeplitz
    system solved exactly by `toeplitz_logdet_solve`.
    """
    values = np.asarray(values, dtype=float)
    T, P = values.shape
    mean = params["means"][state] if means is None else means
    L = params["task_factor"]
    noise = params["noise"]
    mu, W = scipy.linalg.eigh(L @ L.T, np.diag(noise))
    R = (values - mean) @ W
    k = matern32(params["variances"][state], params["lengthscales"][state], np.arange(T))
    col = k[:, None] * mu[None, :]
    col[0] += 1.0
    logdet, X = toeplitz_logdet_solve(col, R)
    quad = float(np.sum(R * X))
    return -0.5 * (quad + float(np.sum(logdet)) + T * float(np.sum(np.log(noise))) + T * P * LOG_2PI)


def labeled_nll(params: dict, series_list, means=None) -> float:
    """Negative log-likelihood of labeled series, one segment at a time."""
    total = 0.0
    for series in series_list:
        labels = series.labels
        starts = np.concatenate([[0], np.nonzero(np.diff(labels))[0] + 1, [labels.size]])
        for s, e in zip(starts[:-1], starts[1:]):
            j = int(labels[s]) - 1
            mean = None if means is None else means[j]
            total -= segment_loglik(params, j, series.observations[s:e], mean)
    return total


def _entry_cov(params: dict, state: int, num_rows: int) -> np.ndarray:
    """Row-major covariance of num_rows consecutive rows of one segment."""
    L = params["task_factor"]
    lags = np.subtract.outer(np.arange(num_rows), np.arange(num_rows))
    K = matern32(params["variances"][state], params["lengthscales"][state], lags)
    return np.kron(K, L @ L.T) + np.kron(np.eye(num_rows), np.diag(params["noise"]))


def conditional_next_row(params: dict, state: int, window: np.ndarray):
    """Mean and covariance of the next row given the segment's rows so far,
    by dense Gaussian conditioning on every entry of the window."""
    d, P = window.shape
    S = _entry_cov(params, state, d + 1)
    mean = params["means"][state]
    S11, S12, S22 = S[: d * P, : d * P], S[: d * P, d * P :], S[d * P :, d * P :]
    cf = scipy.linalg.cho_factor(S11, lower=True)
    resid = (window - mean).reshape(-1)
    cond_mean = mean + S12.T @ scipy.linalg.cho_solve(cf, resid)
    cond_cov = S22 - S12.T @ scipy.linalg.cho_solve(cf, S12)
    return cond_mean, 0.5 * (cond_cov + cond_cov.T)


def _compositions(total: int, largest: int):
    if total == 0:
        yield ()
        return
    for first in range(1, min(largest, total) + 1):
        for rest in _compositions(total - first, largest):
            yield (first,) + rest


def enumerate_log_evidence(params: dict, rows: np.ndarray) -> float:
    """Log-evidence of the first rows by summing over every segmentation.

    Complete segments are scored by the truncated duration mass, the ongoing
    last segment by the survival mass; neighbouring segments differ in state.
    """
    T, P = rows.shape
    A = params["means"].shape[0]
    g = duration_masses(params)
    S = np.cumsum(g[:, ::-1], axis=1)[:, ::-1]  # S[j, d-1] = P(duration >= d)
    with np.errstate(divide="ignore"):
        log_g, log_S = np.log(g), np.log(S)
        log_p = np.log(params["transitions"])
    log_pi = np.log(params["initial"])
    dens = {}
    for j in range(A):
        for start in range(T):
            for stop in range(start + 1, T + 1):
                d = stop - start
                dens[j, start, stop] = scipy.stats.multivariate_normal(
                    mean=np.tile(params["means"][j], d), cov=_entry_cov(params, j, d)
                ).logpdf(rows[start:stop].reshape(-1))
    terms = []
    for parts in _compositions(T, DURATION_CAP):
        k = len(parts)
        for labels in itertools.product(range(A), repeat=k):
            if any(labels[i] == labels[i + 1] for i in range(k - 1)):
                continue
            lp = log_pi[labels[0]]
            pos = 0
            for i, (d, j) in enumerate(zip(parts, labels)):
                if i:
                    lp += log_p[labels[i - 1], j]
                lp += (log_g if i < k - 1 else log_S)[j, d - 1]
                lp += dens[j, pos, pos + d]
                pos += d
            terms.append(lp)
    return float(scipy.special.logsumexp(terms))


def hypothetical_entropies(pred, group, samples: np.ndarray) -> np.ndarray:
    """Posterior state entropy after observing each sample on ``group``.

    Works from the one-step hypothesis table alone (log-weights, means,
    covariances), scoring every live entry with scipy's multivariate normal.
    """
    idx = np.asarray(group, dtype=int)
    y = samples[:, idx]
    A, D = pred.cont_logw.shape
    state_log = np.full((y.shape[0], A), -np.inf)
    sub = np.ix_(idx, idx)
    for j in range(A):
        if np.isfinite(pred.fresh_logw[j]):
            ld = scipy.stats.multivariate_normal(
                pred.fresh_mean[j, idx], pred.fresh_cov[j][sub]
            ).logpdf(y)
            state_log[:, j] = np.logaddexp(state_log[:, j], pred.fresh_logw[j] + ld)
        for d in range(D - 1):  # an entry at the cap cannot continue
            if np.isfinite(pred.cont_logw[j, d]):
                ld = scipy.stats.multivariate_normal(
                    pred.cont_mean[j, d, idx], pred.cont_cov[j, d][sub]
                ).logpdf(y)
                state_log[:, j] = np.logaddexp(state_log[:, j], pred.cont_logw[j, d] + ld)
    post = np.exp(state_log - scipy.special.logsumexp(state_log, axis=1, keepdims=True))
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(post > 0.0, post * np.log(post), 0.0)
    return -np.sum(terms, axis=1)


def mixture_draws(pred, num: int, rng: np.random.Generator) -> np.ndarray:
    """Full rows drawn from the one-step predictive mixture of ``pred``."""
    logw = np.concatenate([pred.fresh_logw, pred.cont_logw.reshape(-1)])
    means = np.concatenate([pred.fresh_mean, pred.cont_mean.reshape(-1, pred.fresh_mean.shape[1])])
    covs = np.concatenate([pred.fresh_cov, pred.cont_cov.reshape((-1,) + pred.fresh_cov.shape[1:])])
    w = np.exp(logw - scipy.special.logsumexp(logw))
    picks = rng.choice(w.size, size=num, p=w / w.sum())
    return np.array([rng.multivariate_normal(means[c], covs[c]) for c in picks])
