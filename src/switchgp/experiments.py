"""Experiment harness: training and simulation, trajectory prediction,
activity recognition, and the energy/accuracy sweep.

`train` fits a model on a train split from the start `initial_model` builds,
with the split's PCA (`split_pca`) when the rows are wider than the
projection. `simulate` samples a train/test corpus from a model. The CLI
parses flags, calls one function here and writes what it returns.

All three experiments run on lists of SegmentedSeries in model units.
`prepare_series` is the one path from raw rows to those units, for training
and evaluation alike: when a model carries a PCA projection (``model.pca``, a
`model.PcaProjection`), raw feature rows are projected and whitened by the
training explained variances, so errors are reported in PCA-normalized units
(unit prior variance per component on the training split). Rows whose width
is not the projection's raw feature count are a FormatError.

Trajectory prediction conditions in the channel basis of
`kernels.channel_basis`, as the likelihoods and the filter do: its exact
means cost one eigendecomposition per segment, with no joint covariance.

Adaptive runs are summarized by `monitor.AdaptiveSummary` alone: it folds
the one series of `monitor_steps`, and pools all the series of a sweep
row. Sweep seeding is hierarchical: each (lambda index, series index) cell
gets an independent child of the root seed, so results do not depend on
evaluation order and are reproducible cell by cell.
"""

from __future__ import annotations

import csv
import itertools
import time
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import filtering, monitor
from .data import apply_pca, fit_pca, generate_synthetic
from .errors import FormatError, NonFiniteObservationError, UndefinedMetricError
from .fit import FitConfig
from .gp_predict import trajectory_metrics
from .kernels import MaternKernel, NoiseModel, TaskCovariance, channel_basis, matern_eval
from .likelihood import negative_loglik
from .model import (
    GammaDuration,
    PcaProjection,
    StateEmission,
    SwitchingGPModel,
    TransitionMatrix,
    fit,
    segment_series,
)

SWEEP_COLUMNS = ("lambda", "accuracy", "avg_sensor_usage", "avg_entropy", "runtime_s")


@dataclass
class ExperimentConfig:
    """Shared knobs for the experiment entry points."""

    observed_fraction: float = 0.2  # 1 observed : 4 held out
    lambda_grid: tuple = (0.0, 0.1, 0.25, 0.5, 1.0)
    num_samples: int = 50
    seed: int = 0
    group_sizes: tuple = monitor.DEFAULT_GROUP_SIZES
    max_steps: int | None = None
    max_series: int | None = None

    def __post_init__(self):
        if not 0.0 < self.observed_fraction < 1.0:
            raise ValueError("observed_fraction must lie in (0, 1)")
        if self.stride < 2:
            raise ValueError(
                "observed_fraction must be at most 2/3, so that at least one row "
                f"in two is held out; got {self.observed_fraction}"
            )
        if len(tuple(self.lambda_grid)) == 0:
            raise ValueError("lambda_grid must be non-empty")
        counts = {
            "num_samples": self.num_samples,
            "max_steps": self.max_steps,
            "max_series": self.max_series,
        }
        for name, value in counts.items():
            if value is not None and value < 1:
                raise ValueError(f"{name} must be at least 1, got {value}")

    @property
    def stride(self) -> int:
        """Every ``stride``-th row is observed in the trajectory experiment."""
        return int(round(1.0 / self.observed_fraction))


def _refuse_non_finite(series) -> None:
    """Raise NonFiniteObservationError at the first row of ``series`` with a
    non-finite observed value, naming its 1-based row and 0-based features."""
    bad = series.mask & ~np.isfinite(series.observations)
    if bad.any():
        t = int(np.argmax(bad.any(axis=1)))
        features = np.flatnonzero(bad[t]).tolist()
        raise NonFiniteObservationError(
            f"series {series.subject_id} row {t + 1} has non-finite observed values at "
            f"features {features} (0-based); mask missing values instead",
            time_index=t + 1,
            features=features,
        )


def prepare_series(model: SwitchingGPModel, series_list) -> list:
    """Project raw series into model units via the model's stored PCA.

    Every component loads on every raw feature, so a row with a missing raw
    entry becomes a fully masked row of scores. A series whose width is not
    the projection's raw feature count is a FormatError naming
    ``pca.feature_means``. A non-finite observed raw value, in any row, is a
    NonFiniteObservationError naming its row and raw features, raised
    before projecting, which would spread it to every component.
    """
    proj = model.pca
    if proj is None:
        return list(series_list)
    width = proj.feature_means.shape[0]
    out = []
    for s in series_list:
        if s.num_features != width:
            raise FormatError(
                f"series {s.subject_id} has {s.num_features} raw features, "
                f"but pca.feature_means has {width}"
            )
        _refuse_non_finite(s)
        scores = apply_pca(proj, s.observations)
        mask = np.repeat(np.all(s.mask, axis=1, keepdims=True), scores.shape[1], axis=1)
        out.append(replace(s, observations=scores, mask=mask))
    return out


def split_pca(raw, num_components: int) -> PcaProjection:
    """The PCA projection fitted on all rows of a split's raw series; a
    non-finite observed value is refused as in `prepare_series`."""
    for s in raw:
        _refuse_non_finite(s)
    return fit_pca(np.vstack([s.observations for s in raw]), num_components)


def initial_model(num_states, num_features, lengthscale, smoothness, pca=None):
    """The start `train` fits from: Gamma(2, 2) dwell laws, uniform transitions
    to the other states (``[[0]]`` for one), zero means, unit-variance Matern
    kernels sharing one identity task factor and noise variances 0.1. Its cap
    of 1 is never read: `fit` takes the cap from its config or the dwell laws."""
    A, P = num_states, num_features
    task = TaskCovariance(np.eye(P))
    return SwitchingGPModel(
        durations=[GammaDuration(2.0, 2.0)] * A,
        transitions=TransitionMatrix(np.full((A, A), 1.0 / max(A - 1, 1)) * (1 - np.eye(A))),
        emissions=[
            StateEmission(np.zeros(P), MaternKernel(1.0, lengthscale, smoothness), task)
            for _ in range(A)
        ],
        noise=NoiseModel(np.full(P, 0.1)),
        duration_cap=1,
        shared_task=True,
        pca=pca,
    )


def train(raw, num_components, lengthscale, smoothness, duration_cap=None, max_iterations=500,
          use_fft=False):
    """Fit a model on a train split's raw series from `initial_model`.

    Rows wider than ``num_components`` (0 disables it) train on the
    `prepare_series` scores of the split's `split_pca`, which the model
    keeps. Returns the model and its summary; the train NLL takes the FFT
    path with ``use_fft``, and ``runtime_s`` covers the fit and the NLL.
    """
    pca = None
    if 0 < num_components < raw[0].num_features:
        pca = split_pca(raw, num_components)
    A = max(int(s.labels.max()) for s in raw)
    P = raw[0].num_features if pca is None else num_components
    start = initial_model(A, P, lengthscale, smoothness, pca)
    data = prepare_series(start, raw)
    config = FitConfig(duration_cap=duration_cap, max_iterations=max_iterations)
    t0 = time.perf_counter()
    model = fit(start, data, config)
    return model, {
        "num_states": model.num_states,
        "num_features": model.num_features,
        "duration_cap": model.duration_cap,
        "untrained_states": list(model.untrained_states),
        "pca": pca is not None,
        "fit": asdict(model.fit_report),
        "train_nll": negative_loglik(model, data, use_fft=use_fft),
        "runtime_s": time.perf_counter() - t0,
    }


def simulate(model: SwitchingGPModel, steps: int, num_train: int, num_test: int, seed: int):
    """Sample a corpus from the model: ``{"train": [...], "test": [...]}``.

    Series k of split i (train 0, test 1) is drawn from
    ``SeedSequence(seed, spawn_key=(i, k))``; subjects are numbered from 1
    across both splits, train first.
    """
    subject = itertools.count(1)
    splits = {}
    for i, (split, n) in enumerate((("train", num_train), ("test", num_test))):
        seeds = [np.random.SeedSequence(seed, spawn_key=(i, k)) for k in range(n)]
        splits[split] = [
            replace(generate_synthetic(model, steps, s), subject_id=next(subject)) for s in seeds
        ]
    return splits


def _limit(config: ExperimentConfig, series_list) -> list:
    out = list(series_list)[: config.max_series]
    n = config.max_steps
    if n is None:
        return out
    return [
        replace(
            s,
            observations=s.observations[:n],
            labels=None if s.labels is None else s.labels[:n],
            mask=s.mask[:n],
        )
        for s in out
    ]


def experiment_trajectory(config: ExperimentConfig, model: SwitchingGPModel, data) -> dict:
    """Known-state signal prediction with interleaved observed rows.

    Every ``stride``-th row of each stream is observed; the rest are held
    out and predicted by the state's GP posterior mean given the observed
    rows of the same (true-label) segment. Reports MSE/ABS overall and per
    activity over the held-out entries the mask observes. Only fully
    observed stride rows condition: a partially observed one is a ValueError
    naming the subject and 1-based row. Held-out rows with no observed entry
    are skipped, and a non-finite observed entry is a
    NonFiniteObservationError.
    """
    stride = config.stride
    preds, truths, masks, labels_all = [], [], [], []
    num_observed = 0

    for series in _limit(config, data):
        if series.labels is None:
            raise ValueError("trajectory experiment requires labeled series")
        _refuse_non_finite(series)
        Y, M = series.observations, series.mask
        on_stride, seen = np.arange(Y.shape[0]) % stride == 0, M.any(axis=1)
        cond, scored = on_stride & M.all(axis=1), ~on_stride & seen
        partial = np.flatnonzero(on_stride & seen & ~cond)
        if partial.size:
            raise ValueError(
                f"series {series.subject_id} row {partial[0] + 1} is a partially observed "
                "stride row; trajectory prediction conditions on whole rows"
            )
        for state, start, dur in segment_series(series.labels):
            obs = start + np.flatnonzero(cond[start : start + dur])
            held = start + np.flatnonzero(scored[start : start + dur])
            num_observed += obs.size
            if held.size == 0:
                continue
            e = model.emissions[state - 1]
            # channel p of the rotated residuals has covariance mu_p K + I,
            # and every channel shares the eigenvectors U of K
            mu, W = channel_basis(e.task, model.noise, state - 1)
            lam, U = np.linalg.eigh(matern_eval(e.temporal, np.subtract.outer(obs, obs)))
            Z = (U.T @ ((Y[obs] - e.mean) @ W)) * mu / (1.0 + np.outer(lam, mu))
            F = matern_eval(e.temporal, np.subtract.outer(held, obs)) @ (U @ Z)
            # W^-1 = W^T D, since W^T D W = I
            preds.append(e.mean + F @ (W.T * model.noise.per_feature_variance))
            truths.append(Y[held])
            masks.append(M[held])
            labels_all.append(np.full(held.size, state))

    if not preds:
        raise UndefinedMetricError(f"no segment holds out an observed row at a stride of {stride}")
    pred = np.vstack(preds)
    truth = np.vstack(truths)
    mask = np.vstack(masks)
    lab = np.concatenate(labels_all)
    mse, mabs = trajectory_metrics(pred, truth, mask)
    per_state = {}
    for j in sorted(set(lab.tolist())):
        rows = lab == j
        s_mse, s_abs = trajectory_metrics(pred[rows], truth[rows], mask[rows])
        per_state[int(j)] = {"mse": s_mse, "abs": s_abs, "num_rows": int(rows.sum())}
    return {
        "mse": mse,
        "abs": mabs,
        "num_held_rows": int(pred.shape[0]),
        "num_observed_rows": int(num_observed),
        "per_state": per_state,
    }


def filter_steps(model: SwitchingGPModel, series):
    """Stream a series through the filter, observing only its mask's entries.

    Yields one record per row: 1-based time, MAP state, filtered state
    posterior and the row's increment of the log evidence.
    """
    state, prev = None, 0.0
    for t, (row, mask) in enumerate(zip(series.observations, series.mask)):
        if state is None:
            state = filtering.forward_init(model, row, mask)
        else:
            state = filtering.forward_step(state, row, model, mask)
        yield {
            "time": t + 1,
            "map_state": filtering.map_state(state),
            "posterior": filtering.state_posterior(state).tolist(),
            "log_evidence_delta": state.log_evidence - prev,
        }
        prev = state.log_evidence


def monitor_steps(
    config: ExperimentConfig, model: SwitchingGPModel, series, energy_weight: float
):
    """Adaptive sensing on one series, cut to ``config.max_steps`` rows.

    Yields one record per row after the first, as soon as the row is
    absorbed: 1-based time, the chosen group with its cost, expected entropy
    and Monte Carlo standard error, then the MAP state, filtered state
    posterior, realized entropy and the row's increment of the log evidence.
    The last record is ``{"summary": ...}``, the series folded through
    `monitor.AdaptiveSummary` as `monitor.run_adaptive` folds it; its
    ``runtime_s`` includes the time the consumer held each record.
    """
    (series,) = _limit(config, [series])
    catalog = monitor.default_catalog(model.num_features, sizes=config.group_sizes)
    t0 = time.perf_counter()
    fold = monitor.AdaptiveSummary(model.num_features)
    steps = monitor.adaptive_steps(model, series.observations, catalog, energy_weight,
                                   config.num_samples, config.seed, series.mask)
    for rec in fold.feed(steps, series.labels):
        sel = rec.selection
        if sel is None:
            continue
        yield {
            "time": sel.time_index,
            "group": list(sel.group),
            "cost": sel.cost,
            "expected_entropy": sel.expected_entropy,
            "stderr": sel.stderr,
            "map_state": rec.map_state,
            "posterior": rec.posterior.tolist(),
            "realized_entropy": rec.realized_entropy,
            "log_evidence_delta": rec.log_evidence_delta,
        }
    yield {"summary": fold.summary(time.perf_counter() - t0)}


def experiment_recognition(config: ExperimentConfig, model: SwitchingGPModel, data) -> dict:
    """Forward filtering on labeled streams, observing each series' mask.

    Reports stepwise accuracy, confusion counts, per-step trajectories, and
    switch-lag statistics (steps from each true switch until the MAP state
    first matches the new label, within that segment).
    """
    A = model.num_states
    confusion = np.zeros((A, A), dtype=int)
    correct = 0
    total = 0
    lags = []
    switches = 0
    trajectories = []

    for series in _limit(config, data):
        if series.labels is None:
            raise ValueError("recognition experiment requires labeled series")
        lab = series.labels
        steps = [
            {**rec, "label": int(lab[t])} for t, rec in enumerate(filter_steps(model, series))
        ]
        maps = np.array([rec["map_state"] for rec in steps])
        confusion += np.histogram2d(
            lab - 1, maps - 1, bins=(np.arange(A + 1), np.arange(A + 1))
        )[0].astype(int)
        correct += int(np.sum(maps == lab))
        total += lab.shape[0]

        segs = segment_series(lab)
        for state_j, start, dur in segs[1:]:
            switches += 1
            hits = np.nonzero(maps[start : start + dur] == state_j)[0]
            if hits.size:
                lags.append(int(hits[0]))
        trajectories.append({"subject_id": series.subject_id, "steps": steps})

    return {
        "accuracy": correct / total if total else float("nan"),
        "num_steps": total,
        "confusion": confusion.tolist(),
        "num_switches": switches,
        "num_detected_switches": len(lags),
        "mean_switch_lag": float(np.mean(lags)) if lags else float("nan"),
        "trajectories": trajectories,
    }


def experiment_sweep(config: ExperimentConfig, model: SwitchingGPModel, data) -> list:
    """Energy/accuracy trade-off rows, one per lambda in the grid, each
    pooling the lambda's series: sensor usage over the selected rows,
    entropy over all rows, accuracy over the labeled rows (NaN when none
    is labeled) and the row's wall seconds."""
    data = _limit(config, data)
    catalog = monitor.default_catalog(model.num_features, sizes=config.group_sizes)
    rows = []
    for li, lam in enumerate(config.lambda_grid):
        t0 = time.perf_counter()
        fold = monitor.AdaptiveSummary(model.num_features)
        for si, series in enumerate(data):
            child = np.random.default_rng(
                np.random.SeedSequence(config.seed, spawn_key=(li, si))
            )
            steps = monitor.adaptive_steps(model, series.observations, catalog, lam,
                                           config.num_samples, child, series.mask)
            for _ in fold.feed(steps, series.labels):
                pass
        row = {"lambda": float(lam), "accuracy": float("nan")}  # kept if no row is labeled
        row.update(fold.summary(time.perf_counter() - t0))
        rows.append({c: row[c] for c in SWEEP_COLUMNS})
    return rows


def write_sweep_csv(rows, out) -> None:
    """Fixed-header CSV to an open text file; the timing column is last so
    byte-level comparisons can strip it."""
    writer = csv.writer(out)
    writer.writerow(SWEEP_COLUMNS)
    for row in rows:
        writer.writerow([repr(float(row[c])) for c in SWEEP_COLUMNS])
