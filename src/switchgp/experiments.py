"""Experiment harness: trajectory prediction, activity recognition, and the
energy/accuracy sweep.

All three experiments run on lists of SegmentedSeries in model units. When a
model carries a PCA projection, raw feature rows are projected and whitened
by the training explained variances first, so errors are reported in
PCA-normalized units (unit prior variance per component on the training
split).

Sweep seeding is hierarchical: each (lambda index, series index) cell gets
an independent child of the root seed, so results do not depend on
evaluation order and are reproducible cell by cell.
"""

from __future__ import annotations

import csv
import os
import time
from dataclasses import dataclass, replace

import numpy as np

from . import filtering, monitor
from .data import PcaProjection, apply_pca
from .gp_predict import joint_conditional, trajectory_metrics
from .model import SwitchingGPModel, segment_series

SWEEP_COLUMNS = ("lambda", "accuracy", "avg_sensor_usage", "avg_entropy", "runtime_s")


@dataclass
class ExperimentConfig:
    """Shared knobs for the experiment entry points."""

    data_dir: str | None = None
    model_path: str | None = None
    eval_split: str = "test"
    observed_fraction: float = 0.2  # 1 observed : 4 held out
    lambda_grid: tuple = (0.0, 0.1, 0.25, 0.5, 1.0)
    num_samples: int = 50
    seed: int = 0
    group_sizes: tuple = monitor.DEFAULT_GROUP_SIZES
    concatenate_subjects: bool = True
    max_steps: int | None = None
    max_series: int | None = None

    def __post_init__(self):
        if not 0.0 < self.observed_fraction < 1.0:
            raise ValueError("observed_fraction must lie in (0, 1)")
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


def prepare_series(model: SwitchingGPModel, series_list) -> list:
    """Project raw series into model units via the model's stored PCA.

    Every component loads on every raw feature, so a row with a missing raw
    entry becomes a fully masked row of scores.
    """
    if model.pca is None:
        return list(series_list)
    proj = PcaProjection.from_dict(model.pca)
    out = []
    for s in series_list:
        scores = apply_pca(proj, s.observations, whiten=True)
        mask = np.repeat(np.all(s.mask, axis=1, keepdims=True), scores.shape[1], axis=1)
        out.append(replace(s, observations=scores, mask=mask))
    return out


def _limit(config: ExperimentConfig, series_list) -> list:
    out = list(series_list)
    if config.max_series is not None:
        out = out[: config.max_series]
    if config.max_steps is not None:
        clipped = []
        for s in out:
            n = min(config.max_steps, s.num_steps)
            clipped.append(
                replace(
                    s,
                    observations=s.observations[:n],
                    labels=None if s.labels is None else s.labels[:n],
                    mask=None if s.mask is None else s.mask[:n],
                )
            )
        out = clipped
    return out


def _load_eval(config: ExperimentConfig, model, data):
    from .data import load_har
    from .model import load_model

    if model is None:
        if config.model_path is None:
            raise ValueError("either a model or config.model_path is required")
        model = load_model(config.model_path)
    if data is None:
        if config.data_dir is None:
            raise ValueError("either data or config.data_dir is required")
        data = load_har(
            config.data_dir, config.eval_split, config.concatenate_subjects
        )
        data = prepare_series(model, data)
    return model, _limit(config, data)


def experiment_trajectory(
    config: ExperimentConfig, model: SwitchingGPModel | None = None, data=None
) -> dict:
    """Known-state signal prediction with interleaved observed rows.

    Every ``stride``-th row of each stream is observed; the rest are
    predicted from the observed rows of the same (true-label) segment via
    the state's GP posterior. Reports MSE/ABS overall and per activity.
    """
    model, data = _load_eval(config, model, data)
    stride = int(round(1.0 / config.observed_fraction))
    preds, truths, labels_all = [], [], []
    num_observed = 0

    for series in data:
        if series.labels is None:
            raise ValueError("trajectory experiment requires labeled series")
        Y = series.observations
        P = Y.shape[1]
        for state, start, dur in segment_series(series.labels):
            e = model.emissions[state - 1]
            rel = np.arange(dur)
            obs_rel = rel[(start + rel) % stride == 0]
            held_rel = rel[(start + rel) % stride != 0]
            num_observed += obs_rel.size
            if held_rel.size == 0:
                continue
            ot = np.repeat(obs_rel.astype(float), P)
            of = np.tile(np.arange(P), obs_rel.size)
            ov = Y[start + obs_rel].reshape(-1)
            qt = np.repeat(held_rel.astype(float), P)
            qf = np.tile(np.arange(P), held_rel.size)
            mean, _ = joint_conditional(e, model.noise, ot, of, ov, qt, qf)
            preds.append(mean.reshape(held_rel.size, P))
            truths.append(Y[start + held_rel])
            labels_all.append(np.full(held_rel.size, state))

    pred = np.vstack(preds)
    truth = np.vstack(truths)
    lab = np.concatenate(labels_all)
    full = np.ones(pred.shape, dtype=bool)
    mse, mabs = trajectory_metrics(pred, truth, full)
    per_state = {}
    for j in sorted(set(lab.tolist())):
        rows = lab == j
        s_mse, s_abs = trajectory_metrics(pred[rows], truth[rows], full[rows])
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
    The last record is ``{"summary": ...}`` as `monitor.run_adaptive` reports
    it; its ``runtime_s`` includes the time the consumer held each record.
    """
    (series,) = _limit(config, [series])
    catalog = monitor.default_catalog(model.num_features, 1.0, sizes=config.group_sizes)
    t0 = time.perf_counter()
    steps = []
    for rec in monitor.adaptive_steps(
        model,
        series.observations,
        catalog,
        energy_scale=energy_weight,
        num_samples=config.num_samples,
        rng=config.seed,
        mask=series.mask,
    ):
        steps.append(rec)
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
    result = monitor.AdaptiveResult.from_steps(
        steps, model.num_features, series.labels, time.perf_counter() - t0
    )
    yield {"summary": result.summary}


def experiment_recognition(
    config: ExperimentConfig, model: SwitchingGPModel | None = None, data=None
) -> dict:
    """Forward filtering on labeled streams, observing each series' mask.

    Reports stepwise accuracy, confusion counts, per-step trajectories, and
    switch-lag statistics (steps from each true switch until the MAP state
    first matches the new label, within that segment).
    """
    model, data = _load_eval(config, model, data)
    A = model.num_states
    confusion = np.zeros((A, A), dtype=int)
    correct = 0
    total = 0
    lags = []
    switches = 0
    trajectories = []

    for series in data:
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


def experiment_sweep(
    config: ExperimentConfig, model: SwitchingGPModel | None = None, data=None
) -> list:
    """Energy/accuracy trade-off rows, one per lambda in the grid."""
    model, data = _load_eval(config, model, data)
    P = model.num_features
    catalog = monitor.default_catalog(P, 1.0, sizes=config.group_sizes)
    rows = []
    for li, lam in enumerate(config.lambda_grid):
        t0 = time.perf_counter()
        correct_w = 0.0
        steps_w = 0
        usage_w = 0.0
        usage_n = 0
        ent_w = 0.0
        for si, series in enumerate(data):
            child = np.random.default_rng(
                np.random.SeedSequence(config.seed, spawn_key=(li, si))
            )
            res = monitor.run_adaptive(
                model,
                series.observations,
                catalog,
                labels=series.labels,
                energy_scale=float(lam),
                num_samples=config.num_samples,
                rng=child,
                mask=series.mask,
            )
            T = res.summary["num_steps"]
            steps_w += T
            ent_w += res.summary["avg_entropy"] * T
            usage_w += res.summary["avg_sensor_usage"] * (T - 1)
            usage_n += T - 1
            if "accuracy" in res.summary:
                correct_w += res.summary["accuracy"] * T
        rows.append(
            {
                "lambda": float(lam),
                "accuracy": correct_w / steps_w if steps_w else float("nan"),
                "avg_sensor_usage": usage_w / usage_n if usage_n else 0.0,
                "avg_entropy": ent_w / steps_w if steps_w else float("nan"),
                "runtime_s": time.perf_counter() - t0,
            }
        )
    return rows


def write_sweep_csv(rows, out) -> None:
    """Fixed-header CSV to a path or an open text file; the timing column is
    last so byte-level comparisons can strip it."""
    if isinstance(out, (str, os.PathLike)):
        with open(out, "w", newline="") as fh:
            write_sweep_csv(rows, fh)
        return
    writer = csv.writer(out)
    writer.writerow(SWEEP_COLUMNS)
    for row in rows:
        writer.writerow([repr(float(row[c])) for c in SWEEP_COLUMNS])
