"""Marginal Gaussian likelihood of labeled data, dense and FFT paths, with gradients.

The emission covariance of one segment factorizes through the congruence
W^T D W = I, W^T K^Y W = diag(mu) (generalized eigendecomposition of the task
covariance against the noise): transformed channels are independent GPs with
kernel mu_p * k_T plus unit noise, so channel p of a length-T segment has
covariance A_p = mu_p K_T + I. The dense path is exact, not an approximation:
each state factors A_p once per channel on the grid of its longest segment
(Tmax points), and since the Cholesky factor and its inverse are triangular,
their leading T x T blocks serve every shorter segment (`_state_nll`). With
gradients that is about P Tmax^3 flops per state however many segments and
distinct lengths the state has, where a T x T eigendecomposition per
distinct length would cost several T^3 each. It favours training data, in
which a state holds many label runs of differing lengths, and loses on a
state whose only segment is very long.

Gradients are with respect to log(variance), log(lengthscale), raw
lower-triangular task entries with log-diagonal, and log noise variances,
matching the unconstrained optimizer parameterization in `fit`.

Both paths walk one `segment_layout`: each state's fully observed residual
windows in state order, shortest first, then partially observed segments in
data order, so the total is deterministic. On first dense use the layout
stacks each state's windows zero-padded to Tmax rows, with the segment counts
and the grid's lag index; none of that moves with the kernel, task or noise
parameters, so `fit` builds one layout per fit, and each objective call only
rotates, gathers the Toeplitz kernel matrices by the lag index and factors
each channel in place. One generator, `_terms`, scores the dense terms of
`negative_loglik` and `nll_and_gradients`. The FFT path reads the windows and
never stacks them: the lag index alone would hold Tmax^2 entries.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg.lapack import dlauum, dpotrf, dtrtri

from .circulant import fast_segment_loglik
from .errors import InsufficientDataError, NonPositiveDefiniteError, SingularEmbeddingError
from .gp_predict import segment_emission_loglik, window_nll
from .kernels import LOG_2PI, channel_bases, matern_grad
from .model import SwitchingGPModel, segment_series

# Entries of one chunk's (c, Tmax, Tmax) stack of prefix factors, c channels
# at a time: a state with one long segment holds O(Tmax^2) working memory
# whatever its channel count, and at Tmax <= 80 ten channels share a chunk.
FACTOR_CHUNK_ELEMENTS = 2**16


@dataclass
class _MaskedSegment:
    state: int
    values: np.ndarray
    mask: np.ndarray


@dataclass(frozen=True)
class _StateSegments:
    """The fully observed segments of one state on the grid of its longest
    (T rows): everything `_state_nll` reads that the kernel, task and noise
    parameters do not move."""

    resid: np.ndarray  # (P, T, n) residual channels, zero past each end
    inside: np.ndarray  # (T, n): row k lies inside segment i
    w: np.ndarray  # (T,): segments longer than k
    lag: np.ndarray  # (T, T): |k - l|, the Toeplitz index of the grid

    @classmethod
    def stack(cls, resids) -> _StateSegments:
        """The residual windows ``resids`` (T_i, P), zero-padded to the longest."""
        lengths = np.array([len(r) for r in resids])
        T = int(lengths.max())
        resid = np.zeros((resids[0].shape[1], T, len(resids)))
        for i, r in enumerate(resids):
            resid[:, : len(r), i] = r.T
        grid = np.arange(T)
        inside = grid[:, None] < lengths[None, :]
        return cls(resid, inside, inside.sum(axis=1).astype(float), np.abs(grid[:, None] - grid))


@dataclass(frozen=True)
class SegmentLayout:
    """Labeled data laid out under fixed emission means: the residual windows
    of each state's fully observed segments, and the partially observed
    segments. A fit does not move the means, so one layout serves every
    objective call of it."""

    means: np.ndarray  # (A, P) means the residuals were taken from
    full: dict  # state (0-based, in order) -> residual windows (T, P), shortest first
    masked: list  # _MaskedSegment, in data order

    @cached_property
    def stacks(self) -> dict:
        """state -> `_StateSegments`, stacked on first dense use."""
        return {j: _StateSegments.stack(resids) for j, resids in self.full.items()}


def _means(model: SwitchingGPModel) -> np.ndarray:
    return np.array([e.mean for e in model.emissions])


def segment_layout(model: SwitchingGPModel, data) -> SegmentLayout:
    """The `SegmentLayout` of labeled series ``data`` under the means of
    ``model``: full windows shortest first, in data order among equal lengths."""
    full = {}
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
                full.setdefault(j, []).append(vals - model.emissions[j].mean[None, :])
            else:
                masked.append(_MaskedSegment(j, vals, m))
    full = {j: sorted(full[j], key=len) for j in sorted(full)}
    return SegmentLayout(_means(model), full, masked)


def _state_nll(
    model: SwitchingGPModel, j: int, seg: _StateSegments, basis, gradients: bool = False
):
    """Exact dense NLL of the fully observed segments ``seg`` of state ``j``.

    Each channel p of the state's channel basis ``basis`` = (mu, W) is
    factored once on the grid 0..T-1 of the longest segment:
    A_p = mu_p K + I = C_p C_p^T, Li_p = C_p^-1, with K gathered from the
    kernel row by the grid's lag index. With the rotated residuals r
    zero-padded to T rows, z = Li_p r cut to each segment's rows gives the
    quadratic form, and with w_k the number of segments longer than k,
    sum_i log det A_{T_i} = 2 sum_k w_k log C_kk. Channels are factored
    ``FACTOR_CHUNK_ELEMENTS`` entries at a time, each in place by LAPACK.

    Returns ``(value, grads)``. ``grads`` is None unless ``gradients`` is
    set; then it holds the ``temporal``, ``task`` and ``noise`` blocks of
    `gp_predict.window_nll`, summed over the segments.
    """
    e = model.emissions[j]
    P = model.num_features
    Dn = model.noise.per_feature_variance
    mu, W = basis
    T = len(seg.w)
    R = (W.T @ seg.resid.reshape(P, -1)).reshape(seg.resid.shape)  # rotated residuals
    k_row, dk_row = matern_grad(e.temporal, np.arange(T, dtype=float))
    # Kernel values under eps^2 of the variance are dropped. That moves A_p
    # by less than rounding does even at condition number 1/eps, and keeps
    # the factorization out of subnormal arithmetic, which made factoring a
    # segment of a thousand rows about three times slower.
    tail = k_row < np.finfo(float).eps ** 2 * k_row[0]
    kernel_rows = np.stack([k_row, dk_row]) if gradients else k_row[None]
    KdK = np.where(tail, 0.0, kernel_rows)[:, seg.lag]  # Toeplitz K, then dK
    K = KdK[0]
    if gradients:
        sqrt_w = np.sqrt(seg.w)[:, None]
        alpha = np.empty_like(R)  # A_{T_i}^-1 r, exactly zero past each end
        traces = np.empty((3, P))  # sum_i tr(A_{T_i}^-1 X) for X = I, K, dK
    eye = np.eye(T)
    quad = logdet = 0.0
    step = max(1, FACTOR_CHUNK_ELEMENTS // (T * T))
    for lo in range(0, P, step):
        sl = slice(lo, min(lo + step, P))
        # A_p is symmetric, so L.T is a Fortran-ordered view of it: LAPACK's
        # upper factor C_p^T of that view is C_p in L, and inverting it in
        # place leaves Li_p there.
        Li = mu[sl, None, None] * K + eye
        for L in Li:
            _, info = dpotrf(L.T, lower=0, clean=1, overwrite_a=1)
            if info == 0:
                _, info = dtrtri(L.T, lower=0, overwrite_c=1)
            if info != 0:
                raise NonPositiveDefiniteError(
                    f"emission covariance not positive definite for state {j + 1}", state=j
                )
        # the diagonal of Li_p is 1 / diag(C_p)
        logdet -= 2.0 * float(np.sum(np.log(np.diagonal(Li, axis1=1, axis2=2)) @ seg.w))
        z = (Li @ R[sl]) * seg.inside
        quad += float(np.sum(z**2))
        if gradients:
            alpha[sl] = np.swapaxes(Li, 1, 2) @ z
            # sum_i tr(A_{T_i}^-1 X) = sum_k w_k (Li X Li^T)_kk = <X, B> with
            # B = Li^T diag(w) Li. dlauum forms the lower triangle of B in
            # place from the rows of Li scaled by sqrt(w), so
            # <X, B> = 2 <X, tril B> - X_00 tr B for symmetric Toeplitz X.
            Li *= sqrt_w
            for L in Li:
                dlauum(L.T, lower=0, overwrite_c=1)
            tr_B = np.einsum("ckk->c", Li)
            traces[0, sl] = tr_B
            traces[1:, sl] = (
                2.0 * (KdK.reshape(2, -1) @ Li.reshape(len(Li), -1).T)
                - KdK[:, 0, 0, None] * tr_B
            )
    rows = int(seg.w.sum())  # every segment's rows
    value = 0.5 * (quad + logdet + rows * (float(np.sum(np.log(Dn))) + P * LOG_2PI))
    if not gradients:
        return value, None

    tr_I, tr_K, tr_dK = traces
    Ka, dKa = K @ alpha, KdK[1] @ alpha
    # Temporal: dNLL = 0.5 sum_p mu_p [sum_i tr(A^-1 dK) - alpha^T dK alpha],
    # where dK/dlog(variance) = K.
    grad_t = 0.5 * np.array(
        [
            mu @ (tr_K - np.einsum("pti,pti->p", alpha, Ka)),
            mu @ (tr_dK - np.einsum("pti,pti->p", alpha, dKa)),
        ]
    )
    # Task: dNLL/dL = W (diag(tr_K) - C2) W^T L, C2_pq = sum_i alpha_p^T K alpha_q.
    C2 = np.einsum("pti,qti->pq", alpha, Ka)
    grad_task = W @ (np.diag(tr_K) - C2) @ W.T @ e.task.cholesky_factor
    # Noise: dNLL/dlog sigma_p^2 = 0.5 sigma_p^2 [W (diag(tr_I) - G3) W^T]_pp.
    G3 = np.einsum("pti,qti->pq", alpha, alpha)
    grad_noise = 0.5 * Dn * np.sum((W @ (np.diag(tr_I) - G3)) * W, axis=1)
    return value, {"temporal": grad_t, "task": grad_task, "noise": grad_noise}


def _terms(model: SwitchingGPModel, layout: SegmentLayout, gradients: bool):
    """``(state, value, grads)`` of every dense term of ``layout``: each
    state's stack by `_state_nll`, then each masked segment by `window_nll`."""
    bases = channel_bases(model.emissions, model.noise, layout.full)
    for j, seg in layout.stacks.items():
        yield j, *_state_nll(model, j, seg, bases[j], gradients)
    for seg in layout.masked:
        e, j = model.emissions[seg.state], seg.state
        yield j, *window_nll(e, model.noise, seg.values, seg.mask, gradients=gradients, state=j)


def negative_loglik(model: SwitchingGPModel, data, use_fft: bool = False) -> float:
    """Total Gaussian NLL over all labeled segments of all subjects.

    Dense exact path by default. With ``use_fft`` the block-circulant
    approximation scores fully observed segments (partial masks are not
    representable there); a structurally singular embedding falls back to the
    dense path for that segment.
    """
    layout = segment_layout(model, data)
    if not use_fft:
        return sum((value for _, value, _ in _terms(model, layout, gradients=False)), 0.0)
    if layout.masked:
        raise InsufficientDataError("the FFT likelihood path requires fully observed segments")
    zero = np.zeros(model.num_features)
    total = 0.0
    for j, resids in layout.full.items():
        e = model.emissions[j]
        for resid in resids:
            try:
                ll = fast_segment_loglik(e, model.noise, resid, means=zero)
            except SingularEmbeddingError:
                ll = segment_emission_loglik(e, model.noise, resid, means=zero)
            total -= ll
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
    """Exact dense NLL and its gradient pieces for every parameter block.

    ``data`` is labeled series, or their `segment_layout` under the emission
    means of ``model``, which a fit builds once for all its calls.
    """
    A, P = model.num_states, model.num_features
    layout = data if isinstance(data, SegmentLayout) else segment_layout(model, data)
    if not np.array_equal(layout.means, _means(model)):
        raise ValueError("the segment layout was built for other emission means")
    total = 0.0
    d_temporal = np.zeros((A, 2))
    task_acc = [np.zeros((P, P)) for _ in range(1 if model.shared_task else A)]
    noise_grad = np.zeros(P)
    for j, val, grads in _terms(model, layout, gradients=True):
        total += val
        d_temporal[j] += grads["temporal"]
        task_acc[0 if model.shared_task else j] += grads["task"]
        noise_grad += grads["noise"]
    return total, GradientAccumulator(temporal=d_temporal, task=task_acc, noise=noise_grad)
