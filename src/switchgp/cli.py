"""Command-line interface, a thin shell over `experiments` and `model`.

Subcommands: train, predict, filter, monitor, sweep, simulate, pca. Tables
go to CSV, run outputs to JSON (one document per run; the streaming modes
filter and monitor write one JSON record per line as each step finishes).
On failure a machine-readable error record is written to stderr and the
exit code is nonzero.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
import time

import numpy as np

from . import experiments, monitor
from .data import (
    DEFAULT_NUM_COMPONENTS,
    apply_pca,
    fit_pca,
    generate_synthetic,
    load_har,
)
from .errors import SwitchGPError
from .fit import FitConfig
from .kernels import MaternKernel, NoiseModel, TaskCovariance
from .likelihood import negative_loglik
from .model import (
    GammaDuration,
    StateEmission,
    SwitchingGPModel,
    TransitionMatrix,
    fit,
    load_model,
    save_model,
)


def _parse_float_list(text: str) -> tuple:
    vals = tuple(float(v) for v in text.split(",") if v.strip() != "")
    if not vals:
        raise ValueError("empty numeric list")
    return vals


def _parse_int_list(text: str) -> tuple:
    return tuple(int(v) for v in text.split(",") if v.strip() != "")


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text}")
    return value


def _open_out(path):
    return sys.stdout if path in (None, "-") else open(path, "w")


def _pick_series(series_list, subject):
    if subject is None:
        return series_list[0]
    for s in series_list:
        if s.subject_id == subject:
            return s
    raise ValueError(f"subject {subject} not found")


def _load_units(args, model):
    raw = load_har(args.data_dir, args.split, not args.split_sessions)
    return experiments.prepare_series(model, raw)


def _json_default(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    raise TypeError(f"not JSON serializable: {type(obj)!r}")


def _emit(doc, fh):
    json.dump(doc, fh, default=_json_default)
    fh.write("\n")
    fh.flush()


def _write_lines(docs, path) -> None:
    """Write each document as one JSON line, as soon as it is produced."""
    fh = _open_out(path)
    try:
        for doc in docs:
            _emit(doc, fh)
    finally:
        if fh is not sys.stdout:
            fh.close()


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_train(args) -> int:
    raw = load_har(args.data_dir, "train", not args.split_sessions)
    pca_doc = None
    if args.pca > 0 and raw[0].num_features > args.pca:
        stacked = np.vstack([s.observations for s in raw])
        proj = fit_pca(stacked, args.pca)
        pca_doc = proj.to_dict()
        data = []
        from dataclasses import replace

        for s in raw:
            data.append(replace(s, observations=apply_pca(proj, s.observations, whiten=True)))
    else:
        data = raw

    A = int(max(int(s.labels.max()) for s in data))
    P = data[0].num_features
    shared = TaskCovariance(np.eye(P))
    emissions = tuple(
        StateEmission(
            mean=np.zeros(P),
            temporal=MaternKernel(1.0, args.lengthscale, args.smoothness),
            task=shared,
        )
        for _ in range(A)
    )
    skeleton = SwitchingGPModel(
        durations=tuple(GammaDuration(2.0, 2.0) for _ in range(A)),
        transitions=TransitionMatrix(
            np.full((A, A), 1.0 / (A - 1)) * (1 - np.eye(A)) if A > 1 else np.zeros((1, 1))
        ),
        emissions=emissions,
        noise=NoiseModel(np.full(P, 0.1)),
        duration_cap=args.dmax or 1,
        shared_task=True,
        pca=pca_doc,
    )
    config = FitConfig(duration_cap=args.dmax, max_iterations=args.max_iterations)
    t0 = time.perf_counter()
    model = fit(skeleton, data, config)
    save_model(model, args.out)
    report = model.fit_report
    summary = {
        "model": args.out,
        "num_states": model.num_states,
        "num_features": model.num_features,
        "duration_cap": model.duration_cap,
        "untrained_states": list(model.untrained_states),
        "pca": pca_doc is not None,
        "fit": None
        if report is None
        else {
            "initial_objective": report.initial_objective,
            "final_objective": report.final_objective,
            "iterations": report.iterations,
            "converged": report.converged,
            "message": report.message,
        },
        "train_nll": negative_loglik(model, data, use_fft=args.use_fft),
        "runtime_s": time.perf_counter() - t0,
    }
    _emit(summary, sys.stdout)
    return 0


def cmd_predict(args) -> int:
    model = load_model(args.model)
    data = _load_units(args, model)
    cfg = experiments.ExperimentConfig(
        observed_fraction=args.ratio,
        max_steps=args.max_steps,
        max_series=args.max_series,
    )
    _write_lines([experiments.experiment_trajectory(cfg, model=model, data=data)], args.out)
    return 0


def cmd_filter(args) -> int:
    model = load_model(args.model)
    series = _pick_series(_load_units(args, model), args.subject)
    steps = experiments.filter_steps(model, series)
    _write_lines(itertools.islice(steps, args.max_steps), args.out)
    return 0


def cmd_monitor(args) -> int:
    model = load_model(args.model)
    series = _pick_series(_load_units(args, model), args.subject)
    cfg = experiments.ExperimentConfig(
        num_samples=args.mc_samples,
        seed=args.seed,
        group_sizes=args.groups,
        max_steps=args.max_steps,
    )
    _write_lines(experiments.monitor_steps(cfg, model, series, args.energy_weight), args.out)
    return 0


def cmd_sweep(args) -> int:
    model = load_model(args.model)
    data = _load_units(args, model)
    cfg = experiments.ExperimentConfig(
        lambda_grid=args.energy_weights,
        num_samples=args.mc_samples,
        seed=args.seed,
        group_sizes=args.groups,
        max_steps=args.max_steps,
        max_series=args.max_series,
    )
    rows = experiments.experiment_sweep(cfg, model=model, data=data)
    experiments.write_sweep_csv(rows, sys.stdout if args.out in (None, "-") else args.out)
    return 0


def cmd_simulate(args) -> int:
    from pathlib import Path

    model = load_model(args.model)
    root = Path(args.out)
    counts = {"train": args.num_train, "test": args.num_test}
    names = {
        "train": ("X_train.txt", "y_train.txt", "subject_train.txt"),
        "test": ("X_test.txt", "y_test.txt", "subject_test.txt"),
    }
    subject = 1
    for si, split in enumerate(("train", "test")):
        n = counts[split]
        if n == 0:
            continue
        Xs, ys, subs = [], [], []
        for k in range(n):
            rng = np.random.default_rng(np.random.SeedSequence(args.seed, spawn_key=(si, k)))
            s = generate_synthetic(model, args.steps, seed=rng)
            Xs.append(s.observations)
            ys.append(s.labels)
            subs.append(np.full(s.labels.shape[0], subject, dtype=int))
            subject += 1
        d = root / split
        d.mkdir(parents=True, exist_ok=True)
        xf, yf, sf = names[split]
        np.savetxt(d / xf, np.vstack(Xs), fmt="%.17g")
        np.savetxt(d / yf, np.concatenate(ys)[:, None], fmt="%d")
        np.savetxt(d / sf, np.concatenate(subs)[:, None], fmt="%d")
    _emit({"out": str(root), "steps": args.steps, "train_series": args.num_train,
           "test_series": args.num_test}, sys.stdout)
    return 0


def cmd_pca(args) -> int:
    raw = load_har(args.data_dir, "train", not args.split_sessions)
    stacked = np.vstack([s.observations for s in raw])
    proj = fit_pca(stacked, args.components)
    _write_lines([proj.to_dict()], args.out)
    _emit({"explained_variance": proj.explained_variance}, sys.stdout)
    return 0


# ---------------------------------------------------------------------------
# argument wiring
# ---------------------------------------------------------------------------


def _add_common_eval(p):
    p.add_argument("--model", required=True, help="model JSON file")
    p.add_argument("--data-dir", required=True)
    p.add_argument("--split", default="test", choices=("train", "test", "both"))
    p.add_argument("--split-sessions", action="store_true",
                   help="one series per contiguous subject block instead of "
                        "per-subject concatenation")
    p.add_argument("--max-steps", type=_positive_int, default=None)
    p.add_argument("--out", default=None)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="switchgp")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="fit a model on the train split")
    p.add_argument("--data-dir", required=True)
    p.add_argument("--out", required=True, help="output model JSON")
    p.add_argument("--dmax", type=int, default=None)
    p.add_argument("--pca", type=int, default=DEFAULT_NUM_COMPONENTS,
                   help="PCA components (0 disables)")
    p.add_argument("--smoothness", type=float, default=1.5)
    p.add_argument("--lengthscale", type=float, default=5.0)
    p.add_argument("--max-iterations", type=int, default=500)
    p.add_argument("--use-fft", action="store_true",
                   help="evaluate the reported train NLL via the FFT path")
    p.add_argument("--split-sessions", action="store_true")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="known-state trajectory prediction")
    _add_common_eval(p)
    p.add_argument("--ratio", type=float, default=0.2,
                   help="observed fraction (0.2 = 1 observed : 4 held out)")
    p.add_argument("--max-series", type=_positive_int, default=None)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("filter", help="stream one series through the filter")
    _add_common_eval(p)
    p.add_argument("--subject", type=int, default=None)
    p.set_defaults(func=cmd_filter)

    p = sub.add_parser("monitor", help="adaptive sensing on one series")
    _add_common_eval(p)
    p.add_argument("--subject", type=int, default=None)
    p.add_argument("--lambda", dest="energy_weight", type=float, default=0.1)
    p.add_argument("--mc-samples", type=_positive_int, default=monitor.DEFAULT_NUM_SAMPLES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--groups", type=_parse_int_list, default=monitor.DEFAULT_GROUP_SIZES,
                   help="comma-separated group sizes")
    p.set_defaults(func=cmd_monitor)

    p = sub.add_parser("sweep", help="energy/accuracy trade-off over lambda grid")
    _add_common_eval(p)
    p.add_argument("--lambda", dest="energy_weights", type=_parse_float_list,
                   default=(0.0, 0.1, 0.25, 0.5, 1.0), help="comma-separated grid")
    p.add_argument("--mc-samples", type=_positive_int, default=monitor.DEFAULT_NUM_SAMPLES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--groups", type=_parse_int_list, default=monitor.DEFAULT_GROUP_SIZES)
    p.add_argument("--max-series", type=_positive_int, default=None)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("simulate", help="sample synthetic data into a dataset layout")
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--steps", type=int, default=500)
    p.add_argument("--num-train", type=int, default=2)
    p.add_argument("--num-test", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("pca", help="fit the PCA projection on the train split")
    p.add_argument("--data-dir", required=True)
    p.add_argument("--components", type=int, default=DEFAULT_NUM_COMPONENTS)
    p.add_argument("--split-sessions", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_pca)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (SwitchGPError, ValueError, OSError) as exc:
        record = {"error": type(exc).__name__, "message": str(exc)}
        for attr in ("path", "line", "time_index", "state", "fourier_index", "features"):
            val = getattr(exc, attr, None)
            if val is not None:
                record[attr] = val
        json.dump(record, sys.stderr)
        sys.stderr.write("\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
