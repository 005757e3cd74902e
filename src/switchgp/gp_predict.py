"""Within-state GP posterior prediction and exact dense segment likelihoods.

These are the grid-agnostic reference computations: everything here builds
covariances entry by entry and factorizes them densely. The fast FFT path in
`circulant` and the state-space filter both defer to this module as their
oracle, and partial observation masks are handled here by plain Gaussian
marginalization (dropping unobserved rows/columns). `window_nll` also gives
the gradients that training needs on segments with missing entries.

An emission object provides ``temporal`` (MaternKernel), ``task``
(TaskCovariance) and ``mean`` (P-vector); noise is a NoiseModel.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from .errors import NonPositiveDefiniteError, UndefinedMetricError
from .kernels import LOG_2PI, NoiseModel, matern_eval, matern_grad, task_cov_assemble


def _entry_cov(emission, times_a, feats_a, times_b, feats_b) -> np.ndarray:
    """Prior covariance between two sets of (time, feature) entries."""
    KY = task_cov_assemble(emission.task)
    lags = np.subtract.outer(np.asarray(times_a, float), np.asarray(times_b, float))
    return matern_eval(emission.temporal, lags) * KY[np.ix_(feats_a, feats_b)]


def joint_conditional(
    emission,
    noise: NoiseModel,
    obs_times,
    obs_features,
    obs_values,
    query_times,
    query_features,
    include_noise: bool = False,
):
    """Joint Gaussian over arbitrary (time, feature) query entries.

    Query entries may mix features, and observation noise on the queries can
    be included, which is what one-step-ahead row densities in the filter
    need. Returns (mean, covariance).
    """
    obs_times = np.asarray(obs_times, dtype=float)
    obs_features = np.asarray(obs_features, dtype=int)
    obs_values = np.asarray(obs_values, dtype=float)
    query_times = np.asarray(query_times, dtype=float)
    query_features = np.asarray(query_features, dtype=int)
    mean_vec = np.asarray(emission.mean, dtype=float)

    prior_qq = _entry_cov(emission, query_times, query_features, query_times, query_features)
    if include_noise:
        prior_qq = prior_qq + np.diag(noise.per_feature_variance[query_features])
    prior_mean = mean_vec[query_features].astype(float)
    if obs_times.size == 0:
        return prior_mean, 0.5 * (prior_qq + prior_qq.T)

    K_oo = _entry_cov(emission, obs_times, obs_features, obs_times, obs_features)
    K_oo[np.diag_indices_from(K_oo)] += noise.per_feature_variance[obs_features]
    K_qo = _entry_cov(emission, query_times, query_features, obs_times, obs_features)
    try:
        L = np.linalg.cholesky(K_oo)
    except np.linalg.LinAlgError as exc:
        raise NonPositiveDefiniteError(
            "observation covariance not positive definite in joint_conditional"
        ) from exc
    resid = obs_values - mean_vec[obs_features]
    alpha = scipy.linalg.cho_solve((L, True), resid)
    V = scipy.linalg.solve_triangular(L, K_qo.T, lower=True)
    mean = prior_mean + K_qo @ alpha
    cov = prior_qq - V.T @ V
    return mean, 0.5 * (cov + cov.T)


def segment_emission_loglik(
    emission,
    noise: NoiseModel,
    values: np.ndarray,
    mask: np.ndarray | None = None,
    means: np.ndarray | None = None,
) -> float:
    """Log-density of the observed entries of a d x P window under state j.

    Unobserved entries (mask False) are marginalized out by row/column
    deletion. A fully masked window carries no evidence and scores 0.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 2:
        raise ValueError("window must be a d x P matrix")
    if mask is None:
        mask = np.ones(values.shape, dtype=bool)
    else:
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != values.shape:
            raise ValueError("mask shape must match window shape")
    return -window_nll(emission, noise, values, mask, means)[0]


def window_nll(
    emission, noise: NoiseModel, values, mask, means=None, gradients=False, state=None
):
    """Negative log-density of the observed entries of a d x P window, and
    with ``gradients`` its gradient blocks; O((observed entries)^3).

    ``means`` is a P-vector or a d x P matrix (the emission mean when None).
    Returns ``(value, grads)``: ``grads`` is None without ``gradients``, and
    else holds the ``temporal`` (d/dlog variance, d/dlog lengthscale),
    ``task`` (dNLL/dL in raw lower-triangular coordinates) and ``noise``
    (dNLL/dlog sigma_p^2) blocks. ``state`` (0-based) only labels the error.
    """
    t_idx, p_idx = np.nonzero(mask)
    means = np.asarray(emission.mean if means is None else means, dtype=float)
    r = values[t_idx, p_idx] - (means[p_idx] if means.ndim == 1 else means[t_idx, p_idx])
    lags = np.abs(np.subtract.outer(t_idx.astype(float), t_idx.astype(float)))
    K_pairs = task_cov_assemble(emission.task)[np.ix_(p_idx, p_idx)]
    kvals = matern_eval(emission.temporal, lags)
    cov = kvals * K_pairs
    Dn = noise.per_feature_variance
    cov[np.diag_indices_from(cov)] += Dn[p_idx]
    try:
        L = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError as exc:
        where = "" if state is None else f" for state {state + 1}"
        raise NonPositiveDefiniteError(
            f"window covariance not positive definite{where}", state=state
        ) from exc
    w = scipy.linalg.solve_triangular(L, r, lower=True)
    logdet = 2.0 * float(np.sum(np.log(np.diag(L))))
    value = float(0.5 * (w @ w + logdet + r.size * LOG_2PI))
    if not gradients:
        return value, None

    Sinv = scipy.linalg.cho_solve((L, True), np.eye(cov.shape[0]))
    alpha = Sinv @ r
    H = Sinv - np.outer(alpha, alpha)
    dk_var, dk_len = matern_grad(emission.temporal, lags)
    grad_t = np.array(
        [0.5 * np.sum(H * (dk_var * K_pairs)), 0.5 * np.sum(H * (dk_len * K_pairs))]
    )
    # dNLL/dKY[a,b] summed over entry pairs, then mapped through KY = L L^T.
    P = Dn.shape[0]
    Gky = np.zeros((P, P))
    np.add.at(Gky, (p_idx[:, None], p_idx[None, :]), 0.5 * H * kvals)
    grad_task = (Gky + Gky.T) @ emission.task.cholesky_factor
    grad_noise = np.zeros(P)
    np.add.at(grad_noise, p_idx, 0.5 * np.diag(H))
    grad_noise *= Dn
    return value, {"temporal": grad_t, "task": grad_task, "noise": grad_noise}


def exact_segment_loglik(
    emission,
    noise: NoiseModel,
    values: np.ndarray,
    means: np.ndarray | None = None,
) -> float:
    """Exact dense log-density of a fully observed segment.

    Oracle counterpart of `circulant.fast_segment_loglik`: same quantity, no
    embedding, O((TP)^3).
    """
    return segment_emission_loglik(emission, noise, values, mask=None, means=means)


def trajectory_metrics(predicted: np.ndarray, truth: np.ndarray, eval_mask: np.ndarray):
    """Mean squared and mean absolute error over the masked entries."""
    predicted = np.asarray(predicted, dtype=float)
    truth = np.asarray(truth, dtype=float)
    eval_mask = np.asarray(eval_mask, dtype=bool)
    if predicted.shape != truth.shape or predicted.shape != eval_mask.shape:
        raise ValueError("predicted, truth, and eval_mask must share a shape")
    if not np.any(eval_mask):
        raise UndefinedMetricError("no entries selected for metric evaluation")
    err = predicted[eval_mask] - truth[eval_mask]
    return float(np.mean(err**2)), float(np.mean(np.abs(err)))
