"""Adaptive sensor-group selection for the streaming filter.

At each step the monitor picks the candidate feature group m with the least
loss: a Monte Carlo estimate of the expected posterior state entropy after
observing only that group, plus an energy cost proportional to the group
size. Every group it scores is scored against the same set of simulated next
rows (common random numbers), drawn once per step from the full-feature
predictive mixture; this cancels most of the sampling noise out of the
comparison between groups, and makes duplicated groups at different costs
order exactly by cost.

Sampling and scoring read one live set, `Predictives.live`: the one-step
hypotheses within `filtering.PRUNE_LOG_WEIGHT` nats of the heaviest, with
their state index, built once per step. Each pruned entry weighs under 1e-13
of the heaviest, so leaving them out of a hypothetical posterior moves its
entropy by rounding-level amounts; on a HAR-sized model (6 states, duration
cap 80) a handful of the 486 entries stay live, and at times near a hundred.
`expected_entropy_mc` scores a stack of same-size groups in one batched
pass. For each live entry and group it sweeps (`kernels.sweep`, the
conditioning kernel the Kalman filter's joint update shares) the
(m+1)-square block [[C, mu], [mu^T, 0]] of the entry's covariance C and
mean mu on the group: the swept block holds C^-1, C^-1 mu and mu^T C^-1 mu,
and the pivots give log det C. The entry's log weight after a sample is
then a quadratic polynomial in the sample, and one matrix product per group
evaluates it for every entry and sample. Samples and means are first
centered on the heaviest entry's mean, which keeps the polynomial's terms
near the scale of the residuals. A logsumexp per state and the entropy per sample follow.
`select_group` makes at most one such call per group size, cheapest size
first, and leaves out the groups whose cost alone already rules them out
(the bounding step of branch and bound). The sweep is elementwise
over all the entries and groups of a chunk at once, with no factorization
per entry and group, which keeps the cost of each live entry small next to
the rest of the step however many entries are live. The stack is cut into
chunks whose (g, H, N) log-weight table and (m+1, m+1, g, H) swept blocks
hold at most `SCORE_CHUNK_ELEMENTS` entries each, which bounds the working
memory; every group's result is bitwise the same whatever the chunking or
the stack it came in.

Hypothetical updates touch only the filter's log-weight table; the live
ForwardState is never mutated. The per-hypothesis one-step conditionals are
computed once per step and shared between the scoring pass and the real
measurement update. `adaptive_steps` streams the closed loop one row at a
time, `AdaptiveSummary` folds such streams into one summary, and
`run_adaptive` runs one series through both.
"""

from __future__ import annotations

import functools
import itertools
import time
from dataclasses import dataclass

import numpy as np

from .errors import FilterCollapseError
from .filtering import (
    ForwardState,
    PredictiveMixture,
    Predictives,
    apply_row,
    forward_init,
    map_state,
    state_posterior,
    step_predictives,
)
from .kernels import LOG_2PI, sweep
from .model import SwitchingGPModel

DEFAULT_GROUP_SIZES = (4, 7, 10)
DEFAULT_NUM_SAMPLES = 50

# Entries of one chunk's (g, H, N) log-weight table, and of its (m+1, m+1,
# g, H) swept blocks, g groups at a time: this bounds the scorer's working
# memory to a few MB.
SCORE_CHUNK_ELEMENTS = 2**16


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
        if not np.all(np.isfinite(costs)):
            raise ValueError("costs must be finite")
        if np.any(costs < 0):
            raise ValueError("costs must be non-negative")
        object.__setattr__(self, "groups", groups)
        object.__setattr__(self, "costs", costs)

    def __len__(self) -> int:
        return len(self.groups)

    @functools.cached_property
    def stacks(self) -> tuple:
        """Per group size, in order of the size's minimum cost (ties in order
        of first appearance): the catalog indices of the groups of that size
        and their (G, m) stack."""
        by_size = {}
        for g, group in enumerate(self.groups):
            by_size.setdefault(len(group), []).append(g)
        ordered = sorted(by_size.values(), key=lambda rows: self.costs[rows].min())
        return tuple(
            (np.array(rows), np.array([self.groups[g] for g in rows])) for rows in ordered
        )

    @functools.cached_property
    def tie_rank(self) -> np.ndarray:
        """Each group's place in the tie-break order: smaller groups first,
        then lexicographic feature order."""
        groups = self.groups
        return np.argsort(sorted(range(len(groups)), key=lambda g: (len(groups[g]), groups[g])))

    def scaled(self, factor: float) -> "GroupCatalog":
        return GroupCatalog(self.groups, self.costs * float(factor))


def default_catalog(num_features: int, sizes=DEFAULT_GROUP_SIZES) -> GroupCatalog:
    """All feature subsets of the given sizes; cost |m| / P, to be scaled by
    lambda through `adaptive_steps(energy_scale=)`."""
    groups = []
    for size in sizes:
        if size < 1 or size > num_features:
            raise ValueError("group sizes must lie in 1..num_features")
        groups.extend(itertools.combinations(range(num_features), size))
    costs = np.array([len(g) / num_features for g in groups])
    return GroupCatalog(tuple(groups), costs)


def entropy(probs) -> float:
    """Shannon entropy in nats; zero-probability terms contribute zero."""
    p = np.asarray(probs, dtype=float)
    nz = p[p > 0.0]
    return float(-np.sum(nz * np.log(nz)))


def _check_catalog(catalog: GroupCatalog, model: SwitchingGPModel) -> None:
    top = max(int(stack.max()) for _, stack in catalog.stacks)
    if top >= model.num_features:
        raise ValueError(
            f"catalog feature {top} is out of range for {model.num_features} features"
        )


def _check_num_samples(num_samples: int) -> None:
    if num_samples < 1:
        raise ValueError(f"num_samples must be at least 1, got {num_samples}")


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
    return pred.live.sample(num_samples, np.random.default_rng(rng))


def _group_stack(group, num_features: int):
    """``group`` as a (G, m) index array, and whether it was one group."""
    items = group if isinstance(group, np.ndarray) else list(group)
    single = len(items) == 0 or np.ndim(items[0]) == 0
    try:
        stack = np.array([items] if single else items, dtype=int)
    except ValueError:
        sizes = sorted({len(g) for g in items})
        raise ValueError(f"stacked groups must share one size, got sizes {sizes}") from None
    if stack.shape[1] == 0:
        raise ValueError("feature groups must be non-empty")
    if stack.min() < 0 or stack.max() >= num_features:
        raise ValueError(f"group features must lie in 0..{num_features - 1}")
    return stack, single


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

    ``group`` is one group, or a stack of groups of one size scored in one
    batched pass over the live set (`Predictives.live`). Returns (estimate,
    standard error): floats for one group, arrays aligned with the stack for
    a stack. A group's numbers are bitwise the same alone or in any stack.
    ``rng`` may be a seed or a Generator; pass precomputed ``samples`` (full
    rows from the predictive mixture) to reuse one set of draws across many
    candidate groups.
    """
    _check_num_samples(num_samples)
    stack, single = _group_stack(group, model.num_features)
    if pred is None:
        pred = step_predictives(state, model)
    if samples is None:
        if rng is None:
            raise ValueError("either samples or rng must be provided")
        samples = posterior_samples(state, model, num_samples, rng, pred=pred)
    ents = _hypothetical_entropies(pred.live, samples, stack)  # (G, N)
    n = ents.shape[1]
    est = np.mean(ents, axis=1)
    err = np.full(est.shape, np.inf)
    if n > 1:
        err = np.std(ents, axis=1, ddof=1) / np.sqrt(n)
    if single:
        return float(est[0]), float(err[0])
    return est, err


def _hypothetical_entropies(live: PredictiveMixture, samples: np.ndarray, stack) -> np.ndarray:
    """Posterior state entropies (G, N) after observing each sample on each
    group of a (G, m) stack, from the live entries alone."""
    N, (H, P), (G, m) = samples.shape[0], live.means.shape, stack.shape
    # entries sorted by state, so each state's mass is one contiguous sum
    order = np.argsort(live.states, kind="stable")
    states = live.states[order]
    starts = np.flatnonzero(np.r_[True, states[1:] != states[:-1]])
    logw = live.log_weights[order]
    center = live.means[np.argmax(live.log_weights)]
    # (P+1, P+1, H): each entry's covariance, bordered by its centered mean
    aug = np.zeros((P + 1, P + 1, H))
    aug[:P, :P] = live.covariances[order].transpose(1, 2, 0)
    aug[:P, P] = aug[P, :P] = (live.means[order] - center).T
    feats = _quadratic_features(samples - center)  # (F, N)
    cols = _quadratic_columns(stack, P)  # (G, K)
    ia, ib = np.triu_indices(m)
    halve = np.where(ia == ib, 0.5, 1.0)[:, None, None]
    border = np.concatenate([stack, np.full((G, 1), P)], axis=1).T  # (m+1, G)
    ents = np.empty((G, N))
    step = max(1, SCORE_CHUNK_ELEMENTS // (H * max(N, (m + 1) ** 2)))
    for lo in range(0, G, step):
        sl = slice(lo, lo + step)
        blocks = aug[border[:, None, sl], border[None, :, sl]]  # (m+1, m+1, g, H)
        logdet = sweep(blocks, m)
        # log weight of entry h after sample y on the group, logw - (log det
        # C + m log 2pi + (y - mu)^T C^-1 (y - mu)) / 2, as coefficients of
        # the features [y_a y_b (a <= b), y_a, 1]: (g, H, K)
        coef = np.concatenate(
            [
                halve * blocks[ia, ib],
                blocks[:m, m],
                (logw + 0.5 * (blocks[m, m] - logdet - m * LOG_2PI))[None],
            ]
        )
        joint = np.ascontiguousarray(coef.transpose(1, 2, 0)) @ feats[cols[sl]]  # (g, H, N)
        # state-major (H, g, N), so each state's sum adds whole (g, N) slabs
        joint = np.ascontiguousarray(joint.transpose(1, 0, 2))
        peak = joint.max(axis=0)  # (g, N)
        if not np.all(np.isfinite(peak)):
            raise FilterCollapseError("hypothetical update produced no surviving hypothesis")
        joint -= peak
        mass = np.add.reduceat(np.exp(joint, out=joint), starts, axis=0)  # (S, g, N)
        probs = mass / mass.sum(axis=0)
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = np.where(probs > 0.0, probs * np.log(probs), 0.0)
        ents[sl] = -np.sum(terms, axis=0)
    return ents


def _quadratic_features(y: np.ndarray) -> np.ndarray:
    """Features (F, N) of rows ``y`` (N, P): the products y_a y_b (a <= b),
    then y_a, then 1."""
    a, b = np.triu_indices(y.shape[1])
    return np.concatenate([y[:, a] * y[:, b], y, np.ones((y.shape[0], 1))], axis=1).T


def _quadratic_columns(stack: np.ndarray, num_features: int) -> np.ndarray:
    """Rows of `_quadratic_features` that each group of a (G, m) stack reads,
    in the order of its coefficients: products (a <= b within the group),
    singles, the constant. Read-only, and computed once per distinct stack,
    so a catalog's stacks (`GroupCatalog.stacks`) cost one pass each."""
    return _columns_of(stack.tobytes(), stack.shape[1], num_features)


@functools.lru_cache(maxsize=64)
def _columns_of(key: bytes, m: int, num_features: int) -> np.ndarray:
    stack = np.frombuffer(key, dtype=int).reshape(-1, m)
    pair = np.zeros((num_features, num_features), dtype=int)
    a, b = np.triu_indices(num_features)
    pair[a, b] = pair[b, a] = np.arange(a.size)
    ia, ib = np.triu_indices(m)
    cols = np.concatenate(
        [
            pair[stack[:, ia], stack[:, ib]],
            a.size + stack,
            np.full((stack.shape[0], 1), a.size + num_features),
        ],
        axis=1,
    )
    cols.flags.writeable = False
    return cols


@dataclass(frozen=True)
class SelectionRecord:
    """Outcome of one selection step; the chosen group attains min(losses)
    under the tie rule. ``scored`` marks the groups whose entropy was
    estimated; every other group's loss is its cost, a lower bound that
    already could not beat the chosen loss."""

    time_index: int
    group: tuple
    losses: np.ndarray
    scored: np.ndarray
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
    The group sizes are visited in order of their minimum cost
    (`GroupCatalog.stacks`), each with one `expected_entropy_mc` call over
    the groups that can still win. An entropy estimate is never negative,
    so a group whose cost exceeds the best loss so far, or equals it and
    ranks after the best in the tie order, is not scored.
    Ties break toward smaller groups, then lexicographic feature order.
    Returns (group, SelectionRecord).
    """
    _check_catalog(catalog, model)
    _check_num_samples(num_samples)
    rng = np.random.default_rng(rng)
    if pred is None:
        pred = step_predictives(state, model)
    samples = posterior_samples(state, model, num_samples, rng, pred=pred)
    costs, rank = catalog.costs, catalog.tie_rank
    losses = costs.copy()
    scored = np.zeros(len(catalog), dtype=bool)
    ents = np.empty(len(catalog))
    errs = np.empty(len(catalog))
    best = None
    for rows, stack in catalog.stacks:
        if best is not None:
            bound = losses[best]
            can_win = (costs[rows] < bound) | ((costs[rows] == bound) & (rank[rows] < rank[best]))
            rows, stack = rows[can_win], stack[can_win]
            if rows.size == 0:
                continue
        ents[rows], errs[rows] = expected_entropy_mc(
            state, model, stack, samples=samples, pred=pred
        )
        scored[rows] = True
        losses[rows] += ents[rows]
        best = int(np.lexsort((rank, np.where(scored, losses, np.inf)))[0])
    record = SelectionRecord(
        time_index=state.time_index + 1,
        group=catalog.groups[best],
        losses=losses,
        scored=scored,
        num_samples=samples.shape[0],
        expected_entropy=float(ents[best]),
        stderr=float(errs[best]),
        cost=float(costs[best]),
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
    rng = np.random.default_rng(rng)
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


class AdaptiveSummary:
    """Streaming fold of `adaptive_steps` records into a run summary.

    `feed` takes the records of one run or of several runs one after
    another; a record without a selection starts a new run. `summary`
    reports the rows, the mean sensor usage (observed features over P) over
    the selected rows, the mean realized entropy over all rows, the sum of
    the runs' final log evidence totals and, when any row was labeled, the
    accuracy over the labeled rows.
    """

    def __init__(self, num_features: int):
        self.num_features = num_features
        self.num_steps = self.selected = self.observed = self.labeled = self.correct = 0
        self.entropy = self.closed_evidence = self.last_evidence = 0.0

    def feed(self, steps, labels=None):
        """Fold one run's records, each with its row's label (1-based; None
        for an unlabeled run), yielding each record once it is folded."""
        for rec, label in zip(steps, itertools.repeat(None) if labels is None else labels):
            if rec.selection is None:
                self.closed_evidence += self.last_evidence
            else:
                self.selected += 1
                self.observed += len(rec.selection.group)
            self.num_steps += 1
            self.entropy += rec.realized_entropy
            self.last_evidence = rec.log_evidence
            if label is not None:
                self.labeled += 1
                self.correct += int(rec.map_state == label)
            yield rec

    def summary(self, runtime_s: float) -> dict:
        selected, steps = self.selected, self.num_steps
        out = {
            "num_steps": steps,
            "avg_sensor_usage": self.observed / (selected * self.num_features) if selected else 0.0,
            "avg_entropy": self.entropy / steps if steps else float("nan"),
            "log_evidence": self.closed_evidence + self.last_evidence,
            "runtime_s": runtime_s,
        }
        if self.labeled:
            out["accuracy"] = self.correct / self.labeled
        return out


@dataclass
class AdaptiveResult:
    """The records of rows 2..T (the selected ones) and the run summary."""

    records: list
    summary: dict


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
    """Run `adaptive_steps` to the end and fold it through `AdaptiveSummary`.

    ``labels`` (1-based, optional) enable the accuracy summary.
    """
    if labels is not None and len(labels) != len(observations):
        raise ValueError("labels must align with observations")
    t0 = time.perf_counter()
    fold = AdaptiveSummary(model.num_features)
    steps = adaptive_steps(model, observations, catalog, energy_scale, num_samples, rng, mask)
    records = list(fold.feed(steps, labels))
    return AdaptiveResult(records[1:], fold.summary(time.perf_counter() - t0))
