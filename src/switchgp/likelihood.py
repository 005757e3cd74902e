"""Marginal Gaussian likelihood of labeled data, dense and FFT paths, with gradients.

The emission covariance of one segment factorizes through the congruence
W^T D W = I, W^T K^Y W = diag(mu) (generalized eigendecomposition of the task
covariance against the noise): transformed channels are independent GPs with
kernel mu_p * k_T plus unit noise. The dense path exploits this to score and
differentiate per-channel with T x T temporal eigendecompositions instead of
TP x TP factorizations; it is exact, not an approximation.

Gradients are with respect to log(variance), log(lengthscale), raw
lower-triangular task entries with log-diagonal, and log noise variances,
matching the unconstrained optimizer parameterization in `fit`.

Both paths walk the segments of `collect_segments`: fully observed groups in
(state, length) order, then partially observed segments in data order, so the
total is deterministic for a fixed ordering.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .circulant import fast_segment_loglik
from .errors import InsufficientDataError, NonPositiveDefiniteError, SingularEmbeddingError
from .gp_predict import segment_emission_loglik
from .kernels import (
    LOG_2PI,
    MaternKernel,
    channel_basis,
    matern_eval,
    matern_grad,
    task_cov_assemble,
)
from .model import SwitchingGPModel, segment_series


@dataclass
class _Group:
    """Fully observed segments of one state sharing a common length."""

    state: int
    length: int
    resids: np.ndarray  # (n_seg, T, P)


@dataclass
class _MaskedSegment:
    state: int
    values: np.ndarray
    mask: np.ndarray


def collect_segments(model: SwitchingGPModel, data):
    """Group labeled segments by (state, length); partial masks kept separate."""
    groups = {}
    masked = []
    for series in data:
        if series.labels is None:
            raise InsufficientDataError("negative_loglik requires labeled data")
        for label, start, dur in segment_series(series.labels):
            j = label - 1
            if not 0 <= j < model.num_states:
                raise ValueError(f"label {label} outside 1..{model.num_states}")
            vals = series.observations[start : start + dur]
            m = series.mask[start : start + dur]
            if np.all(m):
                resid = vals - model.emissions[j].mean[None, :]
                groups.setdefault((j, dur), []).append(resid)
            else:
                masked.append(_MaskedSegment(j, vals, m))
    out = [
        _Group(state=j, length=T, resids=np.stack(rs))
        for (j, T), rs in sorted(groups.items())
    ]
    return out, masked


def _temporal_eig(kernel: MaternKernel, length: int):
    """Lags and eigendecomposition of the temporal Gram matrix on grid 0..length-1."""
    lags = np.abs(np.subtract.outer(np.arange(length, dtype=float), np.arange(length, dtype=float)))
    S, U = np.linalg.eigh(matern_eval(kernel, lags))
    return lags, S, U


def _group_value(model: SwitchingGPModel, group: _Group, mu, W):
    """Exact dense NLL of all segments in a (state, length) group.

    ``mu, W`` is the state's channel basis. Returns the value with the pieces
    the gradients reuse: lags, temporal eigenpairs ``S, U``, the inverse
    channel variances ``ginv`` (T, P) and the residuals ``Rh`` rotated into
    both eigenbases (n, T, P).
    """
    j, T, R = group.state, group.length, group.resids
    lags, S, U = _temporal_eig(model.emissions[j].temporal, T)
    scaled = mu[None, :] * S[:, None] + 1.0  # (T, P) entries mu_p S_t + 1
    if np.any(scaled <= 0):
        raise NonPositiveDefiniteError(
            f"emission covariance not positive definite for state {j + 1}", state=j
        )
    ginv = 1.0 / scaled
    Rh = np.einsum("tu,ntp->nup", U, R @ W)
    quad = np.sum(Rh**2 * ginv[None, :, :])
    Dn = model.noise.per_feature_variance
    logdet = float(np.sum(np.log(scaled))) + T * float(np.sum(np.log(Dn)))
    value = 0.5 * (quad + R.shape[0] * (logdet + T * model.num_features * LOG_2PI))
    return value, lags, S, U, ginv, Rh


def negative_loglik(model: SwitchingGPModel, data, use_fft: bool = False) -> float:
    """Total Gaussian NLL over all labeled segments of all subjects.

    Dense exact path by default. With ``use_fft`` the block-circulant
    approximation scores fully observed segments (partial masks are not
    representable there); a structurally singular embedding falls back to the
    dense path for that segment.
    """
    groups, masked = collect_segments(model, data)
    if use_fft and masked:
        raise InsufficientDataError("the FFT likelihood path requires fully observed segments")
    zero = np.zeros(model.num_features)
    total = 0.0
    for g in groups:
        e = model.emissions[g.state]
        if not use_fft:
            total += _group_value(model, g, *channel_basis(e.task, model.noise, g.state))[0]
            continue
        for resid in g.resids:
            try:
                ll = fast_segment_loglik(e, model.noise, resid, means=zero)
            except SingularEmbeddingError:
                ll = segment_emission_loglik(e, model.noise, resid, means=zero)
            total -= ll
    for seg in masked:
        e = model.emissions[seg.state]
        total -= segment_emission_loglik(e, model.noise, seg.values, mask=seg.mask)
    return total


@dataclass
class GradientAccumulator:
    """Per-parameter-block gradient pieces in optimizer (log) coordinates.

    ``temporal``: (A, 2) array of d/dlog(variance), d/dlog(lengthscale).
    ``task``: list (length A, or 1 when shared) of P x P matrices dNLL/dL in
    raw lower-triangular coordinates (log-diagonal chain rule applied later).
    ``noise``: P-vector of dNLL/dlog(sigma_p^2).
    """

    temporal: np.ndarray
    task: list
    noise: np.ndarray


def nll_and_gradients(model: SwitchingGPModel, data):
    """Exact dense NLL and its gradient pieces for every parameter block."""
    A, P = model.num_states, model.num_features
    Dn = model.noise.per_feature_variance
    groups, masked = collect_segments(model, data)

    total = 0.0
    d_temporal = np.zeros((A, 2))
    n_task = 1 if model.shared_task else A
    task_acc = [np.zeros((P, P)) for _ in range(n_task)]
    noise_by_state = [np.zeros((P, P)) for _ in range(A)]

    basis = {}
    for g in groups:
        j, n = g.state, g.resids.shape[0]
        if j not in basis:
            basis[j] = channel_basis(model.emissions[j].task, model.noise, j)
        mu, W = basis[j]
        value, lags, S, U, ginv, Rh = _group_value(model, g, mu, W)
        total += value

        GR = Rh * ginv[None, :, :]  # per-channel solves in the temporal eigenbasis
        At = np.einsum("tu,nup->ntp", U, GR)

        # Temporal parameters: dNLL = 0.5 <dK_T, n * Hmat - sum mu_p At_p At_p^T>.
        hd = (mu[None, :] * ginv).sum(axis=1)  # (T,)
        Hmat = (U * hd[None, :]) @ U.T
        Gt = n * Hmat - np.einsum("ntp,nsp,p->ts", At, At, mu)
        dK_var, dK_len = matern_grad(model.emissions[j].temporal, lags)
        d_temporal[j, 0] += 0.5 * float(np.sum(dK_var * Gt))
        d_temporal[j, 1] += 0.5 * float(np.sum(dK_len * Gt))

        # Task parameters: dNLL/dL = (W diag(tau) W^T - W C2 W^T) L.
        tau = (S[:, None] * ginv).sum(axis=0)  # (P,)
        V = np.einsum("tu,nup->ntp", U, S[:, None] * GR)  # K_T @ At
        C2 = np.einsum("ntp,ntq->pq", At, V)
        Gy = (W * (n * tau)[None, :]) @ W.T - W @ C2 @ W.T
        Lmat = model.emissions[j].task.cholesky_factor
        task_acc[0 if model.shared_task else j] += Gy @ Lmat

        # Noise: dNLL/dlog sigma_p^2 = 0.5 sigma_p^2 [W diag(nu) W^T - W G3 W^T]_pp.
        nu = ginv.sum(axis=0)  # (P,)
        G3 = np.einsum("ntp,ntq->pq", At, At)
        noise_by_state[j] += (W * (n * nu)[None, :]) @ W.T - W @ G3 @ W.T

    noise_grad = 0.5 * Dn * np.array(
        [sum(noise_by_state[j][p, p] for j in range(A)) for p in range(P)]
    )

    for seg in masked:
        val, grads = _masked_nll_and_grads(model, seg)
        total += val
        d_temporal[seg.state] += grads["temporal"]
        task_acc[0 if model.shared_task else seg.state] += grads["task"]
        noise_grad += grads["noise"]

    return total, GradientAccumulator(temporal=d_temporal, task=task_acc, noise=noise_grad)


def _masked_nll_and_grads(model: SwitchingGPModel, seg: _MaskedSegment):
    """Entry-level NLL and gradients for a partially observed segment.

    O((observed entries)^3); only exercised by data with mask holes.
    """
    j = seg.state
    e = model.emissions[j]
    Dn = model.noise.per_feature_variance
    t_idx, p_idx = np.nonzero(seg.mask)
    r = seg.values[t_idx, p_idx] - e.mean[p_idx]
    lags = np.abs(np.subtract.outer(t_idx.astype(float), t_idx.astype(float)))
    KY = task_cov_assemble(e.task)
    K_pairs = KY[np.ix_(p_idx, p_idx)]
    kvals = matern_eval(e.temporal, lags)
    cov = kvals * K_pairs
    cov[np.diag_indices_from(cov)] += Dn[p_idx]
    try:
        L = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError as exc:
        raise NonPositiveDefiniteError(
            f"window covariance not positive definite for state {j + 1}", state=j
        ) from exc
    Sinv = scipy.linalg.cho_solve((L, True), np.eye(cov.shape[0]))
    alpha = Sinv @ r
    H = Sinv - np.outer(alpha, alpha)
    logdet = 2.0 * float(np.sum(np.log(np.diag(L))))
    val = 0.5 * (r @ alpha + logdet + r.shape[0] * LOG_2PI)

    dk_var, dk_len = matern_grad(e.temporal, lags)
    grad_t = np.array(
        [0.5 * np.sum(H * (dk_var * K_pairs)), 0.5 * np.sum(H * (dk_len * K_pairs))]
    )

    # dNLL/dKY[a,b] summed over entry pairs, then mapped through KY = L L^T.
    P = model.num_features
    Gky = np.zeros((P, P))
    M = 0.5 * H * kvals
    np.add.at(Gky, (p_idx[:, None], p_idx[None, :]), M)
    grad_task = (Gky + Gky.T) @ e.task.cholesky_factor

    grad_noise = np.zeros(P)
    diag_H = np.diag(H)
    np.add.at(grad_noise, p_idx, 0.5 * diag_H)
    grad_noise *= Dn
    return val, {"temporal": grad_t, "task": grad_task, "noise": grad_noise}
