"""Adaptive sensor-group selection for the streaming filter.

At each step the monitor scores every candidate feature group m by a Monte
Carlo estimate of the expected posterior state entropy after observing only
that group, plus an energy cost proportional to the group size. All
candidate groups are scored against the same set of simulated next rows
(common random numbers), drawn once per step from the full-feature
predictive mixture; this cancels most of the sampling noise out of the
comparison between groups, and makes duplicated groups at different costs
order exactly by cost.

Hypothetical updates touch only the filter's log-weight table; the live
ForwardState is never mutated. The per-hypothesis one-step conditionals are
computed once per step and shared between the scoring pass and the real
measurement update. `adaptive_steps` streams the closed loop one row at a
time, and `run_adaptive` folds that stream into one result.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field

import numpy as np
import scipy.special

from .errors import FilterCollapseError
from .filtering import (
    ForwardState,
    Predictives,
    advance_table,
    apply_row,
    forward_init,
    map_state,
    mixture_from_predictives,
    state_posterior,
    step_predictives,
)
from .model import SwitchingGPModel

DEFAULT_GROUP_SIZES = (4, 7, 10)
DEFAULT_NUM_SAMPLES = 50


@dataclass(frozen=True)
class GroupCatalog:
    """Candidate feature groups and their per-step energy costs."""

    groups: tuple
    costs: np.ndarray

    def __post_init__(self):
        groups = tuple(tuple(int(i) for i in g) for g in self.groups)
        costs = np.asarray(self.costs, dtype=float)
        if len(groups) == 0:
            raise ValueError("catalog must contain at least one group")
        if costs.shape != (len(groups),):
            raise ValueError("one cost per group required")
        for g in groups:
            if len(g) == 0:
                raise ValueError("groups must be non-empty")
            if len(set(g)) != len(g):
                raise ValueError("groups must not repeat features")
            if min(g) < 0:
                raise ValueError("feature indices must be non-negative")
        if np.any(costs < 0):
            raise ValueError("costs must be non-negative")
        object.__setattr__(self, "groups", groups)
        object.__setattr__(self, "costs", costs)

    def __len__(self) -> int:
        return len(self.groups)

    def scaled(self, factor: float) -> "GroupCatalog":
        return GroupCatalog(self.groups, self.costs * float(factor))


def default_catalog(
    num_features: int, energy_weight: float = 1.0, sizes=DEFAULT_GROUP_SIZES
) -> GroupCatalog:
    """All feature subsets of the given sizes; cost lambda * |m| / P."""
    groups = []
    for size in sizes:
        if size < 1 or size > num_features:
            raise ValueError("group sizes must lie in 1..num_features")
        groups.extend(itertools.combinations(range(num_features), size))
    costs = np.array([energy_weight * len(g) / num_features for g in groups])
    return GroupCatalog(tuple(groups), costs)


def entropy(probs) -> float:
    """Shannon entropy in nats; zero-probability terms contribute zero."""
    p = np.asarray(probs, dtype=float)
    nz = p[p > 0.0]
    return float(-np.sum(nz * np.log(nz)))


def _check_catalog(catalog: GroupCatalog, model: SwitchingGPModel) -> None:
    top = max(max(g) for g in catalog.groups)
    if top >= model.num_features:
        raise ValueError(
            f"catalog feature {top} is out of range for {model.num_features} features"
        )


def _check_num_samples(num_samples: int) -> None:
    if num_samples < 1:
        raise ValueError(f"num_samples must be at least 1, got {num_samples}")


def _as_rng(rng) -> np.random.Generator:
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(rng)


def posterior_samples(
    state: ForwardState,
    model: SwitchingGPModel,
    num_samples: int,
    rng,
    pred: Predictives | None = None,
) -> np.ndarray:
    """Draw full-feature next rows from the one-step predictive mixture."""
    _check_num_samples(num_samples)
    if pred is None:
        pred = step_predictives(state, model)
    mix = mixture_from_predictives(pred, tuple(range(model.num_features)))
    return mix.sample(num_samples, _as_rng(rng))


def expected_entropy_mc(
    state: ForwardState,
    model: SwitchingGPModel,
    group,
    num_samples: int = DEFAULT_NUM_SAMPLES,
    rng=None,
    samples: np.ndarray | None = None,
    pred: Predictives | None = None,
):
    """Monte Carlo estimate of the expected posterior state entropy after
    observing only the features in ``group`` at the next step.

    Returns (estimate, standard error). ``rng`` may be a seed or a Generator;
    pass precomputed ``samples`` (full rows from the predictive mixture) to
    reuse one set of draws across many candidate groups.
    """
    _check_num_samples(num_samples)
    group = tuple(int(i) for i in group)
    if pred is None:
        pred = step_predictives(state, model)
    if samples is None:
        if rng is None:
            raise ValueError("either samples or rng must be provided")
        samples = posterior_samples(state, model, num_samples, rng, pred=pred)
    ents = _hypothetical_entropies(pred, samples, group)
    n = ents.shape[0]
    stderr = float(np.std(ents, ddof=1) / np.sqrt(n)) if n > 1 else float("inf")
    return float(np.mean(ents)), stderr


def _hypothetical_entropies(pred: Predictives, samples: np.ndarray, group) -> np.ndarray:
    """Posterior state entropy for each simulated row restricted to a group."""
    idx = np.array(group, dtype=int)
    new_alpha = advance_table(pred, samples[:, idx], idx)  # (N, A, D)
    state_log = scipy.special.logsumexp(new_alpha, axis=2)  # (N, A)
    norm = scipy.special.logsumexp(state_log, axis=1)
    if not np.all(np.isfinite(norm)):
        raise FilterCollapseError("hypothetical update produced no surviving hypothesis")
    probs = np.exp(state_log - norm[:, None])
    probs = probs / probs.sum(axis=1, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(probs > 0.0, probs * np.log(probs), 0.0)
    return -np.sum(terms, axis=1)


@dataclass(frozen=True)
class SelectionRecord:
    """Outcome of one selection step; the chosen group attains min(losses)."""

    time_index: int
    group: tuple
    losses: np.ndarray
    num_samples: int
    expected_entropy: float
    stderr: float
    cost: float


def select_group(
    state: ForwardState,
    model: SwitchingGPModel,
    catalog: GroupCatalog,
    num_samples: int = DEFAULT_NUM_SAMPLES,
    rng=None,
    pred: Predictives | None = None,
):
    """Pick the group minimizing expected entropy plus energy cost.

    One shared sample set scores every candidate (common random numbers).
    Ties break toward smaller groups, then lexicographic feature order.
    Returns (group, SelectionRecord).
    """
    _check_catalog(catalog, model)
    _check_num_samples(num_samples)
    rng = _as_rng(rng)
    if pred is None:
        pred = step_predictives(state, model)
    samples = posterior_samples(state, model, num_samples, rng, pred=pred)
    G = len(catalog)
    ents = np.empty(G)
    errs = np.empty(G)
    for g, group in enumerate(catalog.groups):
        ents[g], errs[g] = expected_entropy_mc(
            state, model, group, samples=samples, pred=pred
        )
    losses = ents + catalog.costs
    best = min(
        range(G),
        key=lambda g: (losses[g], len(catalog.groups[g]), catalog.groups[g]),
    )
    record = SelectionRecord(
        time_index=state.time_index + 1,
        group=catalog.groups[best],
        losses=losses,
        num_samples=samples.shape[0],
        expected_entropy=float(ents[best]),
        stderr=float(errs[best]),
        cost=float(catalog.costs[best]),
    )
    return catalog.groups[best], record


@dataclass(frozen=True)
class StepRecord:
    """Selection plus the realized filter outcome at one stream step.

    ``selection`` is None for the first row, which initializes the filter.
    ``log_evidence`` is the running total after the row.
    """

    selection: SelectionRecord | None
    map_state: int
    posterior: np.ndarray
    realized_entropy: float
    log_evidence: float
    log_evidence_delta: float


def _step_record(selection, state: ForwardState, prev_evidence: float) -> StepRecord:
    post = state_posterior(state)
    return StepRecord(
        selection=selection,
        map_state=map_state(state),
        posterior=post,
        realized_entropy=entropy(post),
        log_evidence=state.log_evidence,
        log_evidence_delta=state.log_evidence - prev_evidence,
    )


def adaptive_steps(
    model: SwitchingGPModel,
    observations: np.ndarray,
    catalog: GroupCatalog,
    energy_scale: float = 1.0,
    num_samples: int = DEFAULT_NUM_SAMPLES,
    rng=0,
    mask=None,
):
    """Stream a series through the filter with adaptive sensing, yielding
    one StepRecord per row as soon as the row is absorbed.

    ``mask`` (T x P booleans, optional, all True by default) marks the
    entries that exist. The first row is observed wherever the mask allows,
    to initialize the filter; every later row only on the selected group,
    where the mask allows. ``energy_scale`` multiplies the catalog costs
    (the sweep's lambda knob). ``rng`` may be a seed or a Generator.
    Deterministic given (inputs, seed).
    """
    rng = _as_rng(rng)
    cat = catalog if energy_scale == 1.0 else catalog.scaled(energy_scale)
    observations = np.asarray(observations, dtype=float)
    T, P = observations.shape
    if T == 0:
        raise ValueError("observations must hold at least one row")
    if P != model.num_features:
        raise ValueError(f"observations have {P} features, the model {model.num_features}")
    if mask is None:
        mask = np.ones((T, P), dtype=bool)
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != (T, P):
        raise ValueError("mask must match observations")
    _check_catalog(cat, model)
    _check_num_samples(num_samples)

    state = forward_init(model, observations[0], mask[0])
    yield _step_record(None, state, 0.0)
    for t in range(1, T):
        pred = step_predictives(state, model)
        group, sel = select_group(
            state, model, cat, num_samples=num_samples, rng=rng, pred=pred
        )
        observed = np.zeros(P, dtype=bool)
        observed[list(group)] = True
        prev_evidence = state.log_evidence
        state = apply_row(state, model, pred, observations[t], observed & mask[t])
        yield _step_record(sel, state, prev_evidence)


@dataclass
class AdaptiveResult:
    """The records of rows 2..T (the selected ones) and the run summary."""

    records: list
    summary: dict = field(default_factory=dict)

    @classmethod
    def from_steps(cls, steps, num_features: int, labels=None, runtime_s: float = 0.0):
        """Fold the full list of `adaptive_steps` records, first row
        included. ``labels`` (1-based, optional) enable the accuracy."""
        T = len(steps)
        usage = [len(rec.selection.group) / num_features for rec in steps[1:]]
        ent_sum = steps[0].realized_entropy
        for rec in steps[1:]:
            ent_sum += rec.realized_entropy
        summary = {
            "num_steps": T,
            "avg_sensor_usage": float(np.mean(usage)) if usage else 0.0,
            "avg_entropy": ent_sum / T,
            "log_evidence": steps[-1].log_evidence,
            "runtime_s": runtime_s,
        }
        if labels is not None:
            correct = sum(int(rec.map_state == lab) for rec, lab in zip(steps, labels))
            summary["accuracy"] = correct / T
        return cls(records=steps[1:], summary=summary)


def run_adaptive(
    model: SwitchingGPModel,
    observations: np.ndarray,
    catalog: GroupCatalog,
    labels=None,
    energy_scale: float = 1.0,
    num_samples: int = DEFAULT_NUM_SAMPLES,
    rng=0,
    mask=None,
) -> AdaptiveResult:
    """Run `adaptive_steps` to the end and fold it into an AdaptiveResult.

    ``labels`` (1-based, optional) enable the accuracy summary.
    """
    observations = np.asarray(observations, dtype=float)
    if labels is not None:
        labels = np.asarray(labels, dtype=int)
        if labels.shape[0] != observations.shape[0]:
            raise ValueError("labels must align with observations")
    t0 = time.perf_counter()
    steps = list(
        adaptive_steps(model, observations, catalog, energy_scale, num_samples, rng, mask)
    )
    return AdaptiveResult.from_steps(
        steps, model.num_features, labels, time.perf_counter() - t0
    )
