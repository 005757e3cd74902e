"""Model container and closed-form estimators: durations, transitions, means.

States are indexed 0..A-1 internally; data labels are 1..A and converted at
the boundaries. A single-state model is the one permitted exception to the
zero-diagonal transition invariant: its 1x1 matrix is [[0]] and rebirth into
the same state is handled by the filter directly.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field, fields, replace

import numpy as np
import scipy.stats

from .errors import DegenerateDurationError, FormatError, InsufficientDataError
from .kernels import MaternKernel, NoiseModel, TaskCovariance

TRANSITION_ROW_TOL = 1e-12
# Gamma quantile of each state's durations that the derived duration cap covers.
DURATION_CAP_QUANTILE = 0.999


@dataclass(frozen=True)
class GammaDuration:
    """Gamma segment-duration distribution (shape k, scale beta, time steps)."""

    shape: float
    scale: float

    def __post_init__(self):
        if not (self.shape > 0 and math.isfinite(self.shape)):
            raise ValueError(f"shape must be positive and finite, got {self.shape}")
        if not (self.scale > 0 and math.isfinite(self.scale)):
            raise ValueError(f"scale must be positive and finite, got {self.scale}")


@dataclass(frozen=True)
class TransitionMatrix:
    """Row-stochastic state transition matrix with zero diagonal."""

    probs: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=float)
        if p.ndim != 2 or p.shape[0] != p.shape[1]:
            raise ValueError("transition matrix must be square")
        if not (np.isfinite(p) & (p >= 0)).all():
            raise ValueError("transition probabilities must be finite and non-negative")
        if np.any(np.diag(p) != 0.0):
            raise ValueError("transition matrix diagonal must be exactly zero")
        if p.shape[0] > 1:
            rows = p.sum(axis=1)
            if np.any(np.abs(rows - 1.0) > TRANSITION_ROW_TOL):
                raise ValueError(f"rows must sum to 1, got sums {rows}")
        object.__setattr__(self, "probs", p)

    @property
    def num_states(self) -> int:
        return self.probs.shape[0]


@dataclass(frozen=True)
class StateEmission:
    """Per-state GP emission: constant mean plus temporal and task covariances."""

    mean: np.ndarray
    temporal: MaternKernel
    task: TaskCovariance

    def __post_init__(self):
        m = np.atleast_1d(np.asarray(self.mean, dtype=float))
        if m.ndim != 1:
            raise ValueError("mean must be a vector")
        if not np.isfinite(m).all():
            raise ValueError("mean entries must be finite")
        if m.shape[0] != self.task.num_features:
            raise ValueError("mean length must match task covariance size")
        object.__setattr__(self, "mean", m)

    @property
    def num_features(self) -> int:
        return self.mean.shape[0]


@dataclass(frozen=True)
class PcaProjection:
    """Centered orthonormal projection of R raw features onto P principal
    components, whitened by the training variances.

    A shape that disagrees, an entry that is not finite, or a variance that
    is not positive or increases is a ValueError naming the ``pca.`` field.
    """

    component_matrix: np.ndarray  # (P, R), rows orthonormal
    feature_means: np.ndarray  # (R,)
    explained_variance: np.ndarray  # (P,), positive and non-increasing

    def __post_init__(self):
        names = [f.name for f in fields(self)]
        cm, fm, ev = (np.asarray(getattr(self, k), dtype=float) for k in names)
        if cm.ndim != 2:
            raise ValueError(f"pca.component_matrix must be a matrix, got shape {cm.shape}")
        P, R = cm.shape
        for name, arr, want in (("feature_means", fm, (R,)), ("explained_variance", ev, (P,))):
            if arr.shape != want:
                raise ValueError(
                    f"pca.component_matrix is {P}x{R}, so pca.{name} must have shape "
                    f"{want}, got {arr.shape}"
                )
        for name, arr in zip(names, (cm, fm, ev)):
            if not np.isfinite(arr).all():
                raise ValueError(f"pca.{name} entries must be finite")
            object.__setattr__(self, name, arr)
        if not (ev > 0).all():
            raise ValueError("pca.explained_variance entries must be positive")
        if np.any(np.diff(ev) > 0):
            raise ValueError("pca.explained_variance must be non-increasing")

    @property
    def num_components(self) -> int:
        return self.component_matrix.shape[0]

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name).tolist() for f in fields(self)}


@dataclass(frozen=True)
class FitReport:
    """Optimizer outcome for the emission-parameter fit."""

    initial_objective: float
    final_objective: float
    iterations: int
    converged: bool
    message: str = ""


@dataclass(frozen=True)
class SwitchingGPModel:
    """Complete parameter set of the switching-GP semi-Markov model."""

    durations: tuple
    transitions: TransitionMatrix
    emissions: tuple
    noise: NoiseModel
    duration_cap: int
    initial: np.ndarray = None
    shared_task: bool = True
    untrained_states: tuple = ()
    pca: PcaProjection | None = None
    fit_report: FitReport | None = field(default=None, compare=False)

    def __post_init__(self):
        A = len(self.durations)
        if len(self.emissions) != A or self.transitions.num_states != A:
            raise ValueError("inconsistent state counts across model components")
        P = self.noise.num_features
        for e in self.emissions:
            if e.num_features != P:
                raise ValueError("inconsistent feature counts across model components")
        if self.pca is not None and self.pca.num_components != P:
            raise ValueError(
                f"pca.component_matrix has {self.pca.num_components} components, "
                f"but the model has {P} features"
            )
        factors = [e.task.cholesky_factor for e in self.emissions]
        if self.shared_task and not all(np.array_equal(L, factors[0]) for L in factors):
            raise ValueError("shared_task needs every state's task cholesky_factor to be equal")
        untrained = tuple(self.untrained_states)
        if not all(
            isinstance(u, (int, np.integer)) and not isinstance(u, bool) and 0 <= u < A
            for u in untrained
        ) or len(set(untrained)) != len(untrained):
            raise ValueError(
                f"untrained_states must be distinct states in 0..{A - 1}, got {list(untrained)}"
            )
        if len(untrained) == A:
            raise ValueError("untrained_states must leave at least one state trained")
        if self.duration_cap < 1:
            raise ValueError("duration_cap must be >= 1")
        if self.initial is None:
            init = np.full(A, 1.0 / A)
        else:
            init = np.asarray(self.initial, dtype=float)
            valid = init.shape == (A,) and (np.isfinite(init) & (init >= 0)).all()
            if not valid or abs(init.sum() - 1.0) > 1e-9:
                raise ValueError("initial distribution must be a probability vector over states")
        object.__setattr__(self, "initial", init)
        object.__setattr__(self, "durations", tuple(self.durations))
        object.__setattr__(self, "emissions", tuple(self.emissions))
        object.__setattr__(self, "untrained_states", tuple(int(u) for u in untrained))

    @property
    def num_states(self) -> int:
        return len(self.durations)

    @property
    def num_features(self) -> int:
        return self.noise.num_features


@dataclass(frozen=True)
class SegmentedSeries:
    """Uniformly sampled multivariate series with optional labels and masks."""

    observations: np.ndarray
    labels: np.ndarray | None = None
    mask: np.ndarray | None = None
    subject_id: object = None

    def __post_init__(self):
        obs = np.asarray(self.observations, dtype=float)
        if obs.ndim != 2:
            raise ValueError("observations must be a T x P matrix")
        object.__setattr__(self, "observations", obs)
        if self.labels is not None:
            lab = np.asarray(self.labels, dtype=int)
            if lab.shape != (obs.shape[0],):
                raise ValueError("labels must have one entry per row")
            object.__setattr__(self, "labels", lab)
        if self.mask is None:
            object.__setattr__(self, "mask", np.ones(obs.shape, dtype=bool))
        else:
            mask = np.asarray(self.mask, dtype=bool)
            if mask.shape != obs.shape:
                raise ValueError("mask shape must match observations")
            object.__setattr__(self, "mask", mask)

    @property
    def num_steps(self) -> int:
        return self.observations.shape[0]

    @property
    def num_features(self) -> int:
        return self.observations.shape[1]


def segment_series(labels) -> list:
    """Run-length encode a label sequence into (state, start, duration) triples."""
    labels = np.asarray(labels)
    if labels.ndim != 1 or labels.shape[0] == 0:
        raise ValueError("labels must be a non-empty vector")
    change = np.nonzero(np.diff(labels))[0] + 1
    starts = np.concatenate([[0], change])
    ends = np.concatenate([change, [labels.shape[0]]])
    return [(int(labels[s]), int(s), int(e - s)) for s, e in zip(starts, ends)]


def fit_duration_gamma(durations) -> GammaDuration:
    """Closed-form approximate Gamma MLE from positive duration samples.

    Uses the standard statistic v = log(mean) - mean(log) and the rational
    approximation k = (3 - v + sqrt((v-3)^2 + 24 v)) / (12 v).
    """
    s = np.asarray(durations, dtype=float)
    if s.ndim != 1 or s.shape[0] < 2:
        raise InsufficientDataError(
            f"need at least 2 duration samples, got {s.shape[0] if s.ndim == 1 else 'non-vector'}"
        )
    if np.any(s <= 0):
        raise ValueError("durations must be positive")
    if np.all(s == s[0]):
        raise DegenerateDurationError("all duration samples are equal; Gamma MLE undefined")
    v = math.log(float(np.mean(s))) - float(np.mean(np.log(s)))
    if v <= 0:
        raise DegenerateDurationError(f"degenerate duration statistic v={v:.3e}")
    k = (3.0 - v + math.sqrt((v - 3.0) ** 2 + 24.0 * v)) / (12.0 * v)
    beta = float(np.mean(s)) / k
    return GammaDuration(shape=k, scale=beta)


def fit_transitions(segment_lists, num_states: int) -> TransitionMatrix:
    """Pooled transition counts across subjects, normalized per row.

    ``segment_lists`` is a list of per-subject segment lists as returned by
    `segment_series` (labels 1..A). States with no outgoing transitions get a
    uniform row over the other states, with a warning.
    """
    A = num_states
    counts = np.zeros((A, A))
    for segs in segment_lists:
        states = [s - 1 for s, _, _ in segs]
        for a, b in zip(states[:-1], states[1:]):
            counts[a, b] += 1
    if A == 1:
        return TransitionMatrix(np.zeros((1, 1)))
    probs = np.zeros((A, A))
    for i in range(A):
        row = counts[i]
        total = row.sum()
        if total == 0:
            warnings.warn(
                f"state {i + 1} has no outgoing transitions; backfilling uniform row",
                stacklevel=2,
            )
            probs[i] = 1.0 / (A - 1)
            probs[i, i] = 0.0
        else:
            probs[i] = row / total
    return TransitionMatrix(probs)


def compute_state_means(data, num_states: int) -> np.ndarray:
    """Per-state population means of the observed entries across all series."""
    P = data[0].num_features
    sums = np.zeros((num_states, P))
    counts = np.zeros((num_states, P))
    for series in data:
        if series.labels is None:
            raise InsufficientDataError("state means require labeled data")
        for j in range(num_states):
            rows = series.labels == j + 1
            m = series.mask[rows]
            sums[j] += np.where(m, series.observations[rows], 0.0).sum(axis=0)
            counts[j] += m.sum(axis=0)
    means = np.zeros((num_states, P))
    nz = counts > 0
    means[nz] = sums[nz] / counts[nz]
    return means


def duration_cap_from(durations) -> int:
    """Common duration cap: the largest per-state Gamma quantile, rounded up."""
    q = DURATION_CAP_QUANTILE
    caps = [scipy.stats.gamma.ppf(q, a=g.shape, scale=g.scale) for g in durations]
    return max(1, int(math.ceil(max(caps))))


def fit(skeleton: SwitchingGPModel, data, config=None) -> SwitchingGPModel:
    """Full training pipeline on labeled data.

    Runs per-state duration MLE, pooled transition counting, per-state mean
    computation, then numerical emission-parameter optimization. States with
    no segments in the data are flagged untrained and keep the skeleton's
    parameters; the filter excludes them.
    """
    from .fit import FitConfig, fit_emissions

    if config is None:
        config = FitConfig()
    A = skeleton.num_states
    segment_lists = []
    for series in data:
        if series.labels is None:
            raise InsufficientDataError("fit requires labeled data")
        segment_lists.append(segment_series(series.labels))

    per_state = [[] for _ in range(A)]
    for segs in segment_lists:
        for state, _, dur in segs:
            if not 1 <= state <= A:
                raise ValueError(f"label {state} outside 1..{A}")
            per_state[state - 1].append(float(dur))

    untrained = tuple(j for j in range(A) if len(per_state[j]) == 0)
    durations = list(skeleton.durations)
    for j in range(A):
        if j not in untrained:
            durations[j] = fit_duration_gamma(per_state[j])

    transitions = fit_transitions(segment_lists, A)
    means = compute_state_means(data, A)
    emissions = []
    for j, e in enumerate(skeleton.emissions):
        mean = e.mean if j in untrained else means[j]
        emissions.append(replace(e, mean=mean))

    trained = [durations[j] for j in range(A) if j not in untrained]
    cap = duration_cap_from(trained if trained else durations)
    if config.duration_cap is not None:
        cap = int(config.duration_cap)

    model = replace(
        skeleton,
        durations=tuple(durations),
        transitions=transitions,
        emissions=tuple(emissions),
        duration_cap=cap,
        untrained_states=untrained,
    )
    return fit_emissions(data, model, config)


# ---------------------------------------------------------------------------
# Model file round-trip. JSON with repr floats: decimal shortest round-trip,
# so save -> load reproduces every parameter bit-exactly.
# ---------------------------------------------------------------------------


def model_to_dict(model: SwitchingGPModel) -> dict:
    doc = {
        "format": "switchgp-model",
        "version": 1,
        "num_states": model.num_states,
        "num_features": model.num_features,
        "duration_cap": model.duration_cap,
        "initial": model.initial.tolist(),
        "durations": [{"shape": g.shape, "scale": g.scale} for g in model.durations],
        "transitions": model.transitions.probs.tolist(),
        "shared_task": model.shared_task,
        "noise_variances": model.noise.per_feature_variance.tolist(),
        "untrained_states": list(model.untrained_states),
        "pca": None if model.pca is None else model.pca.to_dict(),
    }
    if model.shared_task:
        doc["task_cholesky"] = model.emissions[0].task.cholesky_factor.tolist()
    emissions = []
    for e in model.emissions:
        entry = {
            "mean": e.mean.tolist(),
            "variance": e.temporal.variance,
            "lengthscale": e.temporal.lengthscale,
            "smoothness": e.temporal.smoothness,
        }
        if not model.shared_task:
            entry["task_cholesky"] = e.task.cholesky_factor.tolist()
        emissions.append(entry)
    doc["emissions"] = emissions
    return doc


_JSON_TYPES = {
    "object": dict, "array": list, "number": (int, float), "integer": int, "boolean": bool
}


def _field(doc: dict, key: str, kind: str, where: str = ""):
    """``doc[key]``, which must hold a JSON ``kind``; a FormatError naming
    the field otherwise. Booleans are not numbers here."""
    name = where + key
    if key not in doc:
        raise FormatError(f"no {name!r} entry")
    value = doc[key]
    if not isinstance(value, _JSON_TYPES[kind]) or (isinstance(value, bool) and kind != "boolean"):
        raise FormatError(f"{name!r} must be a JSON {kind}, got {json.dumps(value)[:40]}")
    return value


def _numbers(doc: dict, key: str, where: str = "") -> np.ndarray:
    """``doc[key]`` as an array, which must nest lists of numbers evenly."""
    try:
        arr = np.array(_field(doc, key, "array", where))
    except ValueError:
        arr = None
    if arr is None or arr.dtype.kind not in "if":
        raise FormatError(f"{where + key!r} must nest JSON arrays of numbers evenly")
    return arr


def _objects(doc: dict, key: str):
    """The JSON array of objects ``doc[key]``: (field prefix, object) pairs."""
    for j, entry in enumerate(_field(doc, key, "array")):
        if not isinstance(entry, dict):
            raise FormatError(f"'{key}[{j}]' must be a JSON object, got {json.dumps(entry)[:40]}")
        yield f"{key}[{j}].", entry


def model_from_dict(doc: dict) -> SwitchingGPModel:
    """The model a `model_to_dict` document describes.

    A missing entry, an entry of the wrong JSON type, a ``version`` other
    than 1, or a ``num_states``/``num_features`` count that disagrees with
    the entries is a FormatError naming the field; a component that rejects
    its numbers (a ``pca`` block of the wrong shape, say) raises ValueError.
    """
    if not isinstance(doc, dict) or doc.get("format") != "switchgp-model":
        raise FormatError("not a switchgp model document")
    version = _field(doc, "version", "integer")
    if version != 1:
        raise FormatError(f"'version' is {version}, but this reader knows only version 1")
    shared = _field(doc, "shared_task", "boolean")
    shared_task = TaskCovariance(_numbers(doc, "task_cholesky")) if shared else None
    emissions = []
    for where, entry in _objects(doc, "emissions"):
        task = shared_task if shared else TaskCovariance(_numbers(entry, "task_cholesky", where))
        kern = MaternKernel(
            *(_field(entry, k, "number", where) for k in ("variance", "lengthscale", "smoothness"))
        )
        emissions.append(StateEmission(_numbers(entry, "mean", where), kern, task))
    durations = tuple(
        GammaDuration(_field(d, "shape", "number", where), _field(d, "scale", "number", where))
        for where, d in _objects(doc, "durations")
    )
    untrained = _field(doc, "untrained_states", "array") if "untrained_states" in doc else []
    pca = doc.get("pca")
    if pca is not None:
        pca = _field(doc, "pca", "object")
        pca = PcaProjection(*(_numbers(pca, f.name, "pca.") for f in fields(PcaProjection)))
    model = SwitchingGPModel(
        durations=durations,
        transitions=TransitionMatrix(_numbers(doc, "transitions")),
        emissions=tuple(emissions),
        noise=NoiseModel(_numbers(doc, "noise_variances")),
        duration_cap=_field(doc, "duration_cap", "integer"),
        initial=_numbers(doc, "initial"),
        shared_task=shared,
        untrained_states=tuple(untrained),
        pca=pca,
    )
    for key in ("num_states", "num_features"):
        count = _field(doc, key, "integer")
        if count != getattr(model, key):
            raise FormatError(f"{key!r} is {count}, but the entries build {getattr(model, key)}")
    return model


def save_model(model: SwitchingGPModel, path) -> None:
    with open(path, "w") as fh:
        json.dump(model_to_dict(model), fh, indent=2)
        fh.write("\n")


def load_model(path) -> SwitchingGPModel:
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise FormatError(f"{path}: not JSON: {exc}", path=str(path), line=exc.lineno) from None
    try:
        return model_from_dict(doc)
    except FormatError as exc:
        raise FormatError(f"{path}: {exc}", path=str(path)) from None
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
