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
to floating-point accuracy on the uniform grid. The Kalman backend filters
all states in one `statespace.StateSpace` stack, lower-order states padded
to the highest state dimension, so a row costs one `statespace` call per
stage; `statespace` decides, from the rows' masks alone, which hypotheses
read their covariances off the stack's table indexed by state and elapsed
duration.

A backend owns an opaque cache and offers two methods. ``predict(cache,
cont_logw)`` returns the continuing one-step conditionals plus the cache
that ``update`` consumes next. ``update(pred | None, row, mask)`` absorbs a
row into the step's `Predictives` (``None`` starts a stream) and returns the
new cache with the row's log-densities, aligned with the new table (see
`_shifted`); the Kalman backend reads them off its measurement update, so
each row is scored once. ``fresh_mean`` and ``fresh_cov`` hold the first-row
law of a new segment in each state. The rest of the recursion is shared.

All recursion arithmetic is in log space with logsumexp; nothing accumulates
in probability domain. Continuous Gamma durations are discretized to unit
bins by differences of the log survival function, truncated at the model's
duration cap and renormalized. A single-state model reenters itself on segment end (the one
exception to the zero-diagonal transition convention).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
import scipy.special

from .errors import FilterCollapseError, NonFiniteObservationError
from .gp_predict import joint_conditional
from .kernels import gaussian_logpdf, logsumexp
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


# Entries more than this many nats below the heaviest (a weight ratio under
# 1e-13) are left out of the predictive mixture.
PRUNE_LOG_WEIGHT = 30.0


@dataclass(frozen=True)
class PredictiveMixture:
    """Gaussian mixture over the next row: the live entries of `Predictives`."""

    log_weights: np.ndarray
    states: np.ndarray  # (C,) state index of each entry
    means: np.ndarray  # (C, |m|)
    covariances: np.ndarray  # (C, |m|, |m|)

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
    cache: object  # backend prediction, consumed by the backend's update

    @functools.cached_property
    def live(self) -> PredictiveMixture:
        """The entries within PRUNE_LOG_WEIGHT of the heaviest, built on first
        use: fresh entries by state, then continuing entries (j, d) in
        row-major order. The monitor samples from it and scores it, once per
        step."""
        A, D, P = self.cont_mean.shape
        logw = np.concatenate([self.fresh_logw, self.cont_logw.ravel()])
        keep = logw >= logw[np.isfinite(logw)].max() - PRUNE_LOG_WEIGHT
        states = np.concatenate([np.arange(A), np.repeat(np.arange(A), D)])[keep]
        means = np.concatenate([self.fresh_mean, self.cont_mean.reshape(-1, P)])[keep]
        covs = np.concatenate([self.fresh_cov, self.cont_cov.reshape(-1, P, P)])[keep]
        logw = logw[keep]
        return PredictiveMixture(logw - logsumexp(logw), states, means, covs)


class KalmanBackend:
    """Constant-cost-per-row emission backend (exact on the uniform grid).

    All states form one `statespace.StateSpace` stack, the lower orders
    padded to the highest, so the cache is one `statespace.Slots` set and
    each row costs one `statespace` call per stage; `statespace.update`
    decides which slots read their covariances from the stack's table,
    which grows one entry per step the first time a stream reaches each
    duration. Slots the stream has not reached yet hold no moments, and
    their predictives are the fresh law and their log-densities 0; once
    every slot is reached and clean, the continuing covariances are a
    read-only view of the table. A fresh segment's law is the emission mean
    and entry 0 of the table. The stack grows its table, and lends the
    joint path its scratch buffer, in place, so a backend serves one thread
    at a time.
    """

    def __init__(self, model: SwitchingGPModel):
        self.model = model
        self.table = build_duration_table(model)
        self.space = statespace.StateSpace(model, range(model.num_states))
        self.fresh_mean = self.space.mean
        self.fresh_cov = self.space.rows("ycov", 0, 1)[:, 0].copy()
        # the fresh law in every slot, to fill the slots a stream has not reached
        self._unreached = [
            np.repeat(x[:, None], model.duration_cap, axis=1)
            for x in (self.fresh_mean, self.fresh_cov)
        ]

    def predict(self, cache, cont_logw):
        slots = statespace.predict(self.space, cache)
        om, oc = statespace.observation_conditionals(self.space, slots)
        r = om.shape[1]
        if r < self.model.duration_cap:
            mean, cov = self._unreached
            om = np.concatenate([om, mean[:, r:]], axis=1)
            oc = np.concatenate([oc, cov[:, r:]], axis=1)
        return om, oc, slots

    def update(self, pred, row, mask):
        model = self.model
        slots = None if pred is None else pred.cache
        slots, ld = statespace.update(self.space, slots, row, mask, model.duration_cap)
        logdens = np.zeros((model.num_states, model.duration_cap))
        logdens[:, : ld.shape[1]] = ld
        return slots, logdens


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

    def update(self, pred, row, mask):
        A, D, P = self.model.num_states, self.model.duration_cap, self.model.num_features
        idx = np.flatnonzero(mask)
        values, masks, cont = np.empty((0, P)), np.empty((0, P), bool), np.zeros((A, D))
        if pred is not None:
            values, masks = pred.cache
            cont = _entry_logpdf(row[idx], idx, pred.cont_mean, pred.cont_cov)
        fresh = _entry_logpdf(row[idx], idx, self.fresh_mean, self.fresh_cov)
        cache = (
            np.vstack([values, row[None, :]])[-D:],
            np.vstack([masks, mask[None, :]])[-D:],
        )
        return cache, _shifted(fresh, cont)


def get_backend(model: SwitchingGPModel, backend: str = "kalman"):
    if backend == "kalman":
        return KalmanBackend(model)
    if backend == "reference":
        return ReferenceBackend(model)
    raise ValueError(f"unknown backend {backend!r}")


def _row_and_mask(row, mask, time_index):
    """The row as floats and its mask as booleans; raises
    NonFiniteObservationError when an observed value is not finite."""
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
    return row, mask


def _entry_logpdf(y, idx, means, covs):
    """Log-densities (*H) of values ``y`` on features ``idx`` under every
    law of a stack ``means`` (*H, P), ``covs`` (*H, P, P). An empty ``idx``
    carries no evidence."""
    if idx.size == 0:
        return np.zeros(means.shape[:-1])
    L = np.linalg.cholesky(covs[..., idx[:, None], idx[None, :]])
    return gaussian_logpdf(y - means[..., idx], L)


def _shifted(fresh, cont):
    """Terms (..., A, D) of the next table from those of fresh segments
    (..., A) and of the current slots (..., A, D): fresh segments enter at
    d = 1, continuing entries move from d to d+1."""
    out = np.empty(cont.shape)
    out[..., 0] = fresh
    out[..., 1:] = cont[..., :-1]
    return out


def _absorb(be, pred: Predictives | None, row, mask, time_index, log_evidence=0.0):
    """Row ``time_index`` absorbed and scored by the backend, and the table
    advanced. Without predictives the row starts a stream: fresh segments
    weigh log pi and nothing continues."""
    cache, logdens = be.update(pred, *_row_and_mask(row, mask, time_index))
    if pred is None:
        weights = _shifted(be.table.log_pi, np.full(logdens.shape, NEG_INF))
    else:
        weights = _shifted(pred.fresh_logw, pred.cont_logw)
    new_alpha = weights + logdens
    norm = logsumexp(new_alpha)
    if not np.isfinite(norm):
        why = "no state explains the first observation"
        if pred is not None:
            why = "all forward hypotheses vanished"
        raise FilterCollapseError(why, time_index=time_index)
    return ForwardState(
        new_alpha - norm, time_index, log_evidence + float(norm), backend=be, cache=cache
    )


def forward_init(model: SwitchingGPModel, row, mask=None, backend="kalman") -> ForwardState:
    """Start a stream: alpha_1(j, 1) proportional to pi_j * b_j(y_1)."""
    be = get_backend(model, backend) if isinstance(backend, str) else backend
    return _absorb(be, None, row, mask, 1)


def step_predictives(state: ForwardState, model: SwitchingGPModel) -> Predictives:
    """Hypothesis-level one-step-ahead Gaussians and their log-weights."""
    be = state.backend
    tbl = be.table
    cont_logw = state.log_alpha + tbl.cont_ratio

    # Rebirth mass per destination: end hazard pooled over (i, d'), then p_ij.
    end_mass = logsumexp(state.log_alpha + tbl.hazard, axis=1)  # (A,)
    fresh_logw = logsumexp(end_mass[:, None] + tbl.log_p, axis=0)

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
    return _absorb(state.backend, pred, row, mask, state.time_index + 1, state.log_evidence)


def forward_step(state: ForwardState, row, model: SwitchingGPModel, mask=None) -> ForwardState:
    """One filtering step: predictive hypotheses, then the measurement update."""
    pred = step_predictives(state, model)
    return apply_row(state, model, pred, row, mask)


def map_state(state: ForwardState) -> int:
    """MAP state label (1-based); exact ties go to the lowest label."""
    return int(np.argmax(state_posterior(state))) + 1


def state_posterior(state: ForwardState) -> np.ndarray:
    """Filtered distribution over states: p(j) proportional to sum_d alpha(j, d)."""
    p = np.exp(state.log_alpha).sum(axis=1)  # log_alpha is normalized
    return p / p.sum()
