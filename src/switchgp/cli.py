"""Command-line interface: it parses flags, makes one `experiments` call per
subcommand (after loading its inputs) and writes what that call returns.

Subcommands: train, predict, filter, monitor, sweep, simulate, pca. Tables
go to CSV, run outputs to JSON (one document per run; the streaming modes
filter and monitor write one JSON record per line as each step finishes).
On failure a machine-readable error record is written to stderr and the
exit code is nonzero.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import itertools
import json
import sys
from pathlib import Path

import numpy as np

from . import experiments, monitor
from .data import DEFAULT_NUM_COMPONENTS, load_har, save_har
from .errors import SwitchGPError
from .model import load_model, save_model


def _finite_float(text: str) -> float:
    value = float(text)
    if not np.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text}")
    return value


def _parse_float_list(text: str) -> tuple:
    vals = tuple(_finite_float(v) for v in text.split(",") if v.strip() != "")
    if not vals:
        raise argparse.ArgumentTypeError(f"must list finite numbers, got {text!r}")
    return vals


def _parse_int_list(text: str) -> tuple:
    vals = tuple(_positive_int(v) for v in text.split(",") if v.strip() != "")
    if not vals:
        raise argparse.ArgumentTypeError(f"must list positive integers, got {text!r}")
    return vals


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text}")
    return value


def _non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be zero or a positive integer, got {text}")
    return value


@contextlib.contextmanager
def _open_out(path):
    """Standard output for no path or "-", else the file. Newlines are not
    translated, so the sweep CSV's CRLF line ends reach the file as written."""
    if path in (None, "-"):
        yield sys.stdout
        return
    with open(path, "w", newline="") as fh:
        yield fh


def _pick_series(series_list, subject):
    if subject is None:
        return series_list[0]
    for s in series_list:
        if s.subject_id == subject:
            return s
    raise ValueError(f"subject {subject} not found")


def _experiment_config(args) -> experiments.ExperimentConfig:
    """The config from the command's flags whose dest names a config field."""
    names = [f.name for f in dataclasses.fields(experiments.ExperimentConfig)]
    return experiments.ExperimentConfig(**{n: getattr(args, n) for n in names if n in args})


def _load_units(args, model):
    raw = load_har(args.data_dir, args.split)
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
    with _open_out(path) as fh:
        for doc in docs:
            _emit(doc, fh)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_train(args) -> int:
    raw = load_har(args.data_dir, "train")
    model, summary = experiments.train(raw, args.pca, args.lengthscale, args.smoothness,
                                       args.dmax, args.max_iterations, args.use_fft)
    save_model(model, args.out)
    _emit({"model": args.out, **summary}, sys.stdout)
    return 0


def cmd_predict(args) -> int:
    model = load_model(args.model)
    data = _load_units(args, model)
    doc = experiments.experiment_trajectory(_experiment_config(args), model=model, data=data)
    _write_lines([doc], args.out)
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
    cfg = _experiment_config(args)
    _write_lines(experiments.monitor_steps(cfg, model, series, args.energy_weight), args.out)
    return 0


def cmd_sweep(args) -> int:
    model = load_model(args.model)
    data = _load_units(args, model)
    rows = experiments.experiment_sweep(_experiment_config(args), model=model, data=data)
    with _open_out(args.out) as fh:
        experiments.write_sweep_csv(rows, fh)
    return 0


def cmd_simulate(args) -> int:
    model = load_model(args.model)
    splits = experiments.simulate(model, args.steps, args.num_train, args.num_test, args.seed)
    for split, series in splits.items():
        if series:
            save_har(args.out, split, series)
    _emit({"out": str(Path(args.out)), "steps": args.steps, "train_series": args.num_train,
           "test_series": args.num_test}, sys.stdout)
    return 0


def cmd_pca(args) -> int:
    proj = experiments.split_pca(load_har(args.data_dir, "train"), args.components)
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
    p.add_argument("--max-steps", type=_positive_int, default=None)
    p.add_argument("--out", default=None)


def _add_sampling(p):
    """The Monte Carlo, seed and sensor-group flags of monitor and sweep."""
    p.add_argument("--mc-samples", dest="num_samples", type=_positive_int,
                   default=monitor.DEFAULT_NUM_SAMPLES)
    p.add_argument("--seed", type=_non_negative_int, default=0)
    p.add_argument("--groups", dest="group_sizes", type=_parse_int_list,
                   default=monitor.DEFAULT_GROUP_SIZES, help="comma-separated group sizes")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="switchgp")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="fit a model on the train split")
    p.add_argument("--data-dir", required=True)
    p.add_argument("--out", required=True, help="output model JSON")
    p.add_argument("--dmax", type=_positive_int, default=None)
    p.add_argument("--pca", type=_non_negative_int, default=DEFAULT_NUM_COMPONENTS,
                   help="PCA components (0 disables)")
    p.add_argument("--smoothness", type=float, default=1.5)
    p.add_argument("--lengthscale", type=float, default=5.0)
    p.add_argument("--max-iterations", type=_positive_int, default=500)
    p.add_argument("--use-fft", action="store_true",
                   help="evaluate the reported train NLL via the FFT path")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="known-state trajectory prediction")
    _add_common_eval(p)
    p.add_argument("--ratio", dest="observed_fraction", type=float, default=0.2,
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
    p.add_argument("--lambda", dest="energy_weight", type=_finite_float, default=0.1)
    _add_sampling(p)
    p.set_defaults(func=cmd_monitor)

    p = sub.add_parser("sweep", help="energy/accuracy trade-off over lambda grid")
    _add_common_eval(p)
    p.add_argument("--lambda", dest="lambda_grid", type=_parse_float_list,
                   default=(0.0, 0.1, 0.25, 0.5, 1.0), help="comma-separated grid")
    _add_sampling(p)
    p.add_argument("--max-series", type=_positive_int, default=None)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("simulate", help="sample synthetic data into a dataset layout")
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--steps", type=_positive_int, default=500)
    p.add_argument("--num-train", type=_non_negative_int, default=2)
    p.add_argument("--num-test", type=_non_negative_int, default=1)
    p.add_argument("--seed", type=_non_negative_int, default=0)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("pca", help="fit the PCA projection on the train split")
    p.add_argument("--data-dir", required=True)
    p.add_argument("--components", type=_positive_int, default=DEFAULT_NUM_COMPONENTS)
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
