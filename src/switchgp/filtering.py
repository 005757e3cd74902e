"""Explicit-duration forward filtering over the semi-Markov switching-GP model.

The filter table is indexed by (state j, elapsed duration d): alpha_t(j, d)
is the log joint probability of the observations so far and the hypothesis
that state j's current segment started d-1 steps ago and is still running
(duration >= d, the Gamma survival mass). Published explicit-duration
recursions often score only segments that end at t; the elapsed-duration
form carries the same information while giving every timestep a proper
filtered posterior, and the two are tied together by the segmentation
enumeration oracle in the test suite.

Per-step emission terms are conditional densities of the new row given the
buffered in-segment window under each hypothesis. Two interchangeable
backends compute them: the exact Kalman recursion of `statespace` (constant
per step, the default) and dense Gaussian conditioning on the window
(grid-agnostic, cubic in window length, kept as the test oracle). They agree
to floating-point accuracy on the uniform grid. The Kalman backend runs
hypotheses whose segment saw only fully observed rows from a per-state
covariance table indexed by elapsed duration, in decoupled channels, and
the others on the joint recursion; the rows' masks alone pick the path.

A backend owns an opaque cache and offers two methods:
``update(pred_cache | None, row, mask)`` returns the cache after a row
(``None`` starts a stream), and ``predict(cache, cont_logw)`` returns the
continuing one-step conditionals plus the cache that ``update`` consumes
next. Its ``fresh_mean`` and ``fresh_cov`` hold the first-row law of a new
segment in each state. Everything else in the recursion is shared.

All recursion arithmetic is in log space with logsumexp; nothing accumulates
in probability domain. Continuous Gamma durations are discretized to unit
bins by differences of the log survival function, truncated at the model's
duration cap and renormalized. A single-state model reenters itself on segment end (the one
exception to the zero-diagonal transition convention).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.special

from .errors import FilterCollapseError, NonFiniteObservationError
from .gp_predict import joint_conditional
from .kernels import gaussian_logpdf
from .model import SwitchingGPModel
from . import statespace

NEG_INF = -np.inf


@dataclass(frozen=True)
class DurationTable:
    """Log-domain duration masses, survival ratios, and rebirth transitions."""

    log_g: np.ndarray  # (A, D) discretized duration masses g_j(d), d = 1..D
    log_S: np.ndarray  # (A, D) survival masses S_j(d) = P(duration >= d)
    cont_ratio: np.ndarray  # (A, D) log S_j(d+1) - log S_j(d); -inf at d = D
    hazard: np.ndarray  # (A, D) log g_j(d) - log S_j(d)
    log_p: np.ndarray  # (A, A) rebirth transition log-probs (untrained excluded)
    log_pi: np.ndarray  # (A,) initial distribution


def _log_diff(a, b):
    """log(exp(a) - exp(b)) for a >= b, accurate near both ends; -inf where a is."""
    with np.errstate(divide="ignore", invalid="ignore"):
        x = b - a
        out = a + np.where(x > -math.log(2.0), np.log(-np.expm1(x)), np.log1p(-np.exp(x)))
    return np.where(np.isneginf(a), NEG_INF, out)


def build_duration_table(model: SwitchingGPModel) -> DurationTable:
    A, D = model.num_states, model.duration_cap
    shapes = np.array([[gam.shape] for gam in model.durations])
    scales = np.array([[gam.scale] for gam in model.durations])
    # log P(duration > e) at the bin edges e = 0..D, each taken from its
    # smaller tail so that it keeps full precision at both ends. Differences
    # of upper tails stay exact where the CDF has rounded to 1.
    x = np.arange(D + 1.0) / scales  # (A, D+1)
    upper = scipy.special.gammaincc(shapes, x)
    with np.errstate(divide="ignore"):
        lsf = np.where(
            upper > 0.5, np.log1p(-scipy.special.gammainc(shapes, x)), np.log(upper)
        )
    log_total = _log_diff(lsf[:, :1], lsf[:, -1:])
    log_g = _log_diff(lsf[:, :-1], lsf[:, 1:]) - log_total
    log_S = _log_diff(lsf[:, :-1], lsf[:, -1:]) - log_total
    cont = np.full((A, D), NEG_INF)
    with np.errstate(invalid="ignore"):
        cont[:, :-1] = log_S[:, 1:] - log_S[:, :-1]
        hazard = log_g - log_S
    # Zero survival: the entry is unreachable, nothing continues or ends there.
    dead = np.isneginf(log_S)
    cont[dead] = NEG_INF
    hazard[dead] = NEG_INF

    with np.errstate(divide="ignore"):
        if A == 1:
            log_p = np.zeros((1, 1))  # single state reenters itself
        else:
            probs = np.array(model.transitions.probs, copy=True)
            for u in model.untrained_states:
                probs[:, u] = 0.0
            rows = probs.sum(axis=1, keepdims=True)
            rows[rows == 0] = 1.0
            log_p = np.log(probs / rows)
        pi = np.array(model.initial, copy=True)
        for u in model.untrained_states:
            pi[u] = 0.0
        pi = pi / pi.sum()
        log_pi = np.log(pi)
    return DurationTable(log_g, log_S, cont, hazard, log_p, log_pi)


@dataclass(frozen=True)
class ForwardState:
    """Filter state after consuming ``time_index`` rows.

    ``log_alpha`` is normalized (logsumexp zero); the per-step normalizers
    accumulate in ``log_evidence``. ``cache`` is the backend's opaque state
    after the last row.
    """

    log_alpha: np.ndarray
    time_index: int
    log_evidence: float
    backend: object
    cache: object


@dataclass(frozen=True)
class PredictiveMixture:
    """Gaussian mixture over the next row restricted to a feature group."""

    log_weights: np.ndarray
    means: np.ndarray  # (C, |m|)
    covariances: np.ndarray  # (C, |m|, |m|)
    group: tuple

    @property
    def components(self) -> list:
        """(log-weight, mean, covariance) triples."""
        return [
            (float(w), self.means[c], self.covariances[c])
            for c, w in enumerate(self.log_weights)
        ]

    def logpdf(self, y: np.ndarray) -> float:
        y = np.atleast_2d(np.asarray(y, dtype=float))
        L = np.linalg.cholesky(self.covariances)
        comp = gaussian_logpdf(y[:, None, :] - self.means[None, :, :], L)  # (n, C)
        out = scipy.special.logsumexp(self.log_weights[None, :] + comp, axis=1)
        return float(out[0]) if out.shape[0] == 1 else out

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        w = np.exp(self.log_weights)
        idx = rng.choice(self.log_weights.shape[0], size=n, p=w / w.sum())
        z = rng.standard_normal((n, self.means.shape[1]))
        L = np.linalg.cholesky(self.covariances)
        return self.means[idx] + np.einsum("nij,nj->ni", L[idx], z)


@dataclass(frozen=True)
class Predictives:
    """One-step-ahead hypothesis conditionals before seeing the next row.

    Continuing entries are indexed by the current table slot (j, d); their
    weight already includes the survival ratio into d+1. Entries of weight
    -inf hold positive-definite placeholder covariances. Fresh entries pool
    all segment-end rebirth mass per destination state (every (i, d') source
    shares the same fresh-segment Gaussian, so merging them is exact).
    """

    cont_logw: np.ndarray  # (A, D)
    cont_mean: np.ndarray  # (A, D, P)
    cont_cov: np.ndarray  # (A, D, P, P)
    fresh_logw: np.ndarray  # (A,)
    fresh_mean: np.ndarray  # (A, P)
    fresh_cov: np.ndarray  # (A, P, P)
    cache: object  # backend prediction, consumed by apply_row


class _Slots(NamedTuple):
    """Kalman moments of one state's reached hypotheses, slot d-1 for d = 1..r.

    The first ``clean`` slots are clean: slot i absorbed i+1 fully observed
    rows, and its covariance is that entry of the state's table. ``covs``
    holds the joint covariances of the other slots.
    """

    means: np.ndarray  # (r, n)
    clean: int
    covs: np.ndarray  # (r - clean, n, n)


class KalmanBackend:
    """Constant-cost-per-row emission backend (exact on the uniform grid).

    The cache holds one `_Slots` per state. A fully observed row advances
    each state's clean count by one (up to the duration cap); a row with a
    missing feature resets it to zero. Clean slots run the decoupled path of
    `statespace`, on covariances from a per-state `statespace.CovarianceTable`
    that grows one entry per step the first time a stream reaches each
    duration; the other slots run the joint path. Slots the stream has not
    reached yet hold no moments, and their predictives are placeholders.
    """

    def __init__(self, model: SwitchingGPModel):
        self.model = model
        self.table = build_duration_table(model)
        self.spaces = [
            statespace.build_statespace(e, model.noise) for e in model.emissions
        ]
        self.covariances = [statespace.CovarianceTable(ss, model.noise) for ss in self.spaces]
        fresh = [
            statespace.stationary_observation(ss, e.mean, model.noise)
            for ss, e in zip(self.spaces, model.emissions)
        ]
        self.fresh_mean = np.stack([m for m, _ in fresh])
        self.fresh_cov = np.stack([c for _, c in fresh])

    def predict(self, cache, cont_logw):
        model = self.model
        A, D, P = model.num_states, model.duration_cap, model.num_features
        cont_mean = np.empty((A, D, P))
        cont_cov = np.empty((A, D, P, P))
        pred_cache = []
        for j, (ss, e, slots) in enumerate(zip(self.spaces, model.emissions, cache)):
            clean, r = slots.clean, slots.means.shape[0]
            pm = np.empty(slots.means.shape)
            pc = slots.covs
            batches = (
                (0, clean, statespace.TableCovs(self.covariances[j], 1, clean + 1)),
                (clean, r, slots.covs),
            )
            for lo, hi, covs in batches:
                if hi == lo:
                    continue
                pm[lo:hi], covs = statespace.predict(ss, slots.means[lo:hi], covs)
                cont_mean[j, lo:hi], cont_cov[j, lo:hi] = statespace.observation_conditionals(
                    ss, e.mean, model.noise, pm[lo:hi], covs
                )
                if lo == clean:
                    pc = covs
            cont_mean[j, r:], cont_cov[j, r:] = self.fresh_mean[j], self.fresh_cov[j]
            pred_cache.append(_Slots(pm, clean, pc))
        return cont_mean, cont_cov, tuple(pred_cache)

    def update(self, pred_cache, row, mask):
        D = self.model.duration_cap
        cache = []
        for j, (ss, e) in enumerate(zip(self.spaces, self.model.emissions)):
            n = ss.A.shape[0]
            pred = _Slots(np.zeros((0, n)), 0, np.zeros((0, n, n)))
            if pred_cache is not None:
                pred = pred_cache[j]
            # A fresh segment (no rows absorbed) joins the clean slots in
            # front; the slot that would pass the cap drops off the end.
            clean = pred.clean + 1
            means = np.vstack([np.zeros((1, n)), pred.means])[:D]
            covs = pred.covs[: max(D - clean, 0)]
            clean = min(clean, D)
            um, uc, _ = statespace.update(
                ss, e.mean, self.model.noise, means[:clean],
                statespace.TableCovs(self.covariances[j], 0, clean), row, mask,
            )
            if covs.shape[0]:
                dm, dc, _ = statespace.update(
                    ss, e.mean, self.model.noise, means[clean:], covs, row, mask
                )
                um, covs = np.vstack([um, dm]), dc
            if not isinstance(uc, statespace.TableCovs):
                clean, covs = 0, np.concatenate([uc, covs])
            cache.append(_Slots(um, clean, covs))
        return tuple(cache)


class ReferenceBackend:
    """Dense-window emission backend; cubic per step, used as the oracle.

    The cache is the last duration_cap rows and their masks.
    """

    def __init__(self, model: SwitchingGPModel):
        self.model = model
        self.table = build_duration_table(model)
        P = model.num_features
        fresh = [
            joint_conditional(
                e, model.noise, [], [], [], np.zeros(P), np.arange(P), include_noise=True
            )
            for e in model.emissions
        ]
        self.fresh_mean = np.stack([m for m, _ in fresh])
        self.fresh_cov = np.stack([c for _, c in fresh])

    def predict(self, cache, cont_logw):
        model = self.model
        A, D, P = model.num_states, model.duration_cap, model.num_features
        values, masks = cache
        W = values.shape[0]
        cont_mean = np.zeros((A, D, P))
        cont_cov = np.tile(np.eye(P), (A, D, 1, 1))
        for j, e in enumerate(model.emissions):
            for d in range(1, min(W, D) + 1):
                if not np.isfinite(cont_logw[j, d - 1]):
                    continue
                t_idx, p_idx = np.nonzero(masks[W - d :])
                cont_mean[j, d - 1], cont_cov[j, d - 1] = joint_conditional(
                    e,
                    model.noise,
                    t_idx.astype(float),
                    p_idx,
                    values[W - d :][t_idx, p_idx],
                    np.full(P, float(d)),
                    np.arange(P),
                    include_noise=True,
                )
        return cont_mean, cont_cov, cache

    def update(self, pred_cache, row, mask):
        if pred_cache is None:
            return row[None, :].copy(), mask[None, :].copy()
        values, masks = pred_cache
        D = self.model.duration_cap
        return (
            np.vstack([values, row[None, :]])[-D:],
            np.vstack([masks, mask[None, :]])[-D:],
        )


def get_backend(model: SwitchingGPModel, backend: str = "kalman"):
    if backend == "kalman":
        return KalmanBackend(model)
    if backend == "reference":
        return ReferenceBackend(model)
    raise ValueError(f"unknown backend {backend!r}")


def _row_and_mask(row, mask, time_index):
    """The row as floats, its mask as booleans, and the observed features.

    Raises NonFiniteObservationError when an observed value is not finite.
    """
    row = np.asarray(row, dtype=float)
    mask = np.ones(row.shape, dtype=bool) if mask is None else np.asarray(mask, dtype=bool)
    idx = np.flatnonzero(mask)
    bad = idx[~np.isfinite(row[idx])]
    if bad.size:
        raise NonFiniteObservationError(
            f"row {time_index} has non-finite observed values at features "
            f"{bad.tolist()} (0-based); mask missing values instead",
            time_index=time_index,
            features=bad.tolist(),
        )
    return row, mask, idx


def _entry_logpdf(y, idx, means, covs):
    """Log-densities of values ``y`` (..., m) on features ``idx`` under every
    law of a stack ``means`` (*H, P), ``covs`` (*H, P, P); shape (..., *H).
    An empty ``idx`` carries no evidence."""
    lead, hyp = y.shape[:-1], means.shape[:-1]
    if idx.size == 0:
        return np.zeros(lead + hyp)
    L = np.linalg.cholesky(covs[..., idx[:, None], idx[None, :]])
    y = y.reshape(lead + (1,) * len(hyp) + idx.shape)
    return gaussian_logpdf(y - means[..., idx], L)


def advance_table(pred: Predictives, y, idx) -> np.ndarray:
    """Unnormalized log table (..., A, D) after observing ``y`` (..., m) on
    features ``idx``: continuing entries move from d to d+1, fresh segments
    enter at d = 1."""
    cont = _entry_logpdf(y, idx, pred.cont_mean, pred.cont_cov)
    fresh = _entry_logpdf(y, idx, pred.fresh_mean, pred.fresh_cov)
    new_alpha = np.empty(cont.shape)
    new_alpha[..., 1:] = pred.cont_logw[:, :-1] + cont[..., :-1]
    new_alpha[..., 0] = pred.fresh_logw + fresh
    return new_alpha


def forward_init(model: SwitchingGPModel, row, mask=None, backend="kalman") -> ForwardState:
    """Start a stream: alpha_1(j, 1) proportional to pi_j * b_j(y_1)."""
    be = get_backend(model, backend) if isinstance(backend, str) else backend
    row, mask, idx = _row_and_mask(row, mask, 1)
    log_alpha = np.full((model.num_states, model.duration_cap), NEG_INF)
    log_alpha[:, 0] = be.table.log_pi + _entry_logpdf(
        row[idx], idx, be.fresh_mean, be.fresh_cov
    )
    norm = scipy.special.logsumexp(log_alpha)
    if not np.isfinite(norm):
        raise FilterCollapseError("no state explains the first observation", time_index=1)
    return ForwardState(
        log_alpha=log_alpha - norm,
        time_index=1,
        log_evidence=float(norm),
        backend=be,
        cache=be.update(None, row, mask),
    )


def step_predictives(state: ForwardState, model: SwitchingGPModel) -> Predictives:
    """Hypothesis-level one-step-ahead Gaussians and their log-weights."""
    be = state.backend
    tbl = be.table
    cont_logw = state.log_alpha + tbl.cont_ratio

    # Rebirth mass per destination: end hazard pooled over (i, d'), then p_ij.
    end_mass = scipy.special.logsumexp(state.log_alpha + tbl.hazard, axis=1)  # (A,)
    fresh_logw = scipy.special.logsumexp(end_mass[:, None] + tbl.log_p, axis=0)

    cont_mean, cont_cov, cache = be.predict(state.cache, cont_logw)
    return Predictives(
        cont_logw=cont_logw,
        cont_mean=cont_mean,
        cont_cov=cont_cov,
        fresh_logw=fresh_logw,
        fresh_mean=be.fresh_mean,
        fresh_cov=be.fresh_cov,
        cache=cache,
    )


def apply_row(
    state: ForwardState,
    model: SwitchingGPModel,
    pred: Predictives,
    row,
    mask=None,
) -> ForwardState:
    """Finish a forward step: score the row, update the table and the backend."""
    be = state.backend
    row, mask, idx = _row_and_mask(row, mask, state.time_index + 1)
    new_alpha = advance_table(pred, row[idx], idx)

    norm = scipy.special.logsumexp(new_alpha)
    if not np.isfinite(norm):
        raise FilterCollapseError(
            "all forward hypotheses vanished", time_index=state.time_index + 1
        )
    return ForwardState(
        log_alpha=new_alpha - norm,
        time_index=state.time_index + 1,
        log_evidence=state.log_evidence + float(norm),
        backend=be,
        cache=be.update(pred.cache, row, mask),
    )


def forward_step(state: ForwardState, row, model: SwitchingGPModel, mask=None) -> ForwardState:
    """One filtering step: predictive hypotheses, then the measurement update."""
    pred = step_predictives(state, model)
    return apply_row(state, model, pred, row, mask)


def map_state(state: ForwardState) -> int:
    """MAP state label (1-based); exact ties go to the lowest label."""
    return int(np.argmax(state_posterior(state))) + 1


def state_posterior(state: ForwardState) -> np.ndarray:
    """Filtered distribution over states: p(j) proportional to sum_d alpha(j, d)."""
    logp = scipy.special.logsumexp(state.log_alpha, axis=1)
    p = np.exp(logp - scipy.special.logsumexp(logp))
    return p / p.sum()


PRUNE_LOG_WEIGHT = 30.0


def predictive_mixture(state: ForwardState, model: SwitchingGPModel, group) -> PredictiveMixture:
    """One-step predictive Gaussian mixture restricted to a feature group.

    Components more than PRUNE_LOG_WEIGHT below the heaviest are pruned and
    the remainder renormalized.
    """
    group = tuple(int(g) for g in group)
    if len(group) == 0:
        raise ValueError("feature group must be non-empty")
    pred = step_predictives(state, model)
    return mixture_from_predictives(pred, group)


def mixture_from_predictives(pred: Predictives, group) -> PredictiveMixture:
    """The entries within PRUNE_LOG_WEIGHT of the heaviest, restricted to a
    feature group: fresh entries by state, then continuing entries (j, d) in
    row-major order."""
    group = tuple(int(g) for g in group)
    idx = np.array(group, dtype=int)
    P = pred.fresh_mean.shape[-1]
    logw = np.concatenate([pred.fresh_logw, pred.cont_logw.ravel()])
    keep = logw >= logw[np.isfinite(logw)].max() - PRUNE_LOG_WEIGHT
    means = np.concatenate([pred.fresh_mean, pred.cont_mean.reshape(-1, P)])[keep]
    covs = np.concatenate([pred.fresh_cov, pred.cont_cov.reshape(-1, P, P)])[keep]
    logw = logw[keep]
    logw = logw - scipy.special.logsumexp(logw)
    return PredictiveMixture(logw, means[:, idx], covs[:, idx[:, None], idx], group)
