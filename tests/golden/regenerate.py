"""Golden outputs of the CLI pipeline on one seeded synthetic set.

The set is `helpers.random_model(A=3, P=4, cap=12, seed=2)`, sampled by
`simulate` and fitted by `train --pca 0`, then run through `filter`,
`monitor`, `sweep`, `predict` and `pca`. `tests/test_golden.py` runs the
same commands and compares their outputs with the files in this directory.
A change that moves outputs on purpose rewrites the files with

    PYTHONPATH=src python tests/golden/regenerate.py

and names the fields that moved.
"""

from __future__ import annotations

import contextlib
import io
import os
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

import helpers  # noqa: E402
from switchgp.cli import main  # noqa: E402
from switchgp.model import save_model  # noqa: E402

DATA_FILES = tuple(
    f"synth/{split}/{name}_{split}.txt"
    for split in ("train", "test")
    for name in ("X", "y", "subject")
)

_EVAL = ("--model", "model.json", "--data-dir", "synth")

# (file that receives the command's standard output, or None; arguments)
COMMANDS = (
    ("simulate.json", ("simulate", "--model", "seed.json", "--out", "synth", "--steps", "150",
                       "--num-train", "2", "--num-test", "2", "--seed", "4")),
    ("train.json", ("train", "--data-dir", "synth", "--out", "model.json", "--pca", "0",
                    "--dmax", "12", "--max-iterations", "15")),
    ("train_fft.json", ("train", "--data-dir", "synth", "--out", "model_fft.json", "--pca", "0",
                        "--dmax", "12", "--max-iterations", "15", "--use-fft")),
    (None, ("filter", *_EVAL, "--out", "filter.jsonl")),
    (None, ("filter", *_EVAL, "--subject", "4", "--max-steps", "50", "--out", "filter2.jsonl")),
    (None, ("monitor", *_EVAL, "--groups", "1,2,4", "--lambda", "0.3", "--mc-samples", "16",
            "--seed", "7", "--max-steps", "45", "--out", "monitor.jsonl")),
    (None, ("monitor", *_EVAL, "--subject", "4", "--groups", "2", "--mc-samples", "8",
            "--max-steps", "30", "--out", "monitor2.jsonl")),
    (None, ("sweep", *_EVAL, "--lambda", "0,0.5", "--groups", "1,2", "--mc-samples", "8",
            "--seed", "3", "--max-steps", "40", "--out", "sweep.csv")),
    ("sweep_stdout.csv", ("sweep", *_EVAL, "--lambda", "0,0.5", "--groups", "1,2",
                          "--mc-samples", "8", "--seed", "3", "--max-steps", "40")),
    (None, ("predict", *_EVAL, "--ratio", "0.25", "--out", "predict.json")),
    (None, ("predict", *_EVAL, "--ratio", "0.5", "--max-series", "1", "--max-steps", "100",
            "--out", "predict2.json")),
    ("pca_stdout.json", ("pca", "--data-dir", "synth", "--components", "3", "--out", "pca.json")),
)

OUTPUTS = DATA_FILES + (
    "model.json", "model_fft.json", "pca.json", "filter.jsonl", "filter2.jsonl",
    "monitor.jsonl", "monitor2.jsonl", "sweep.csv", "predict.json", "predict2.json",
) + tuple(name for name, _ in COMMANDS if name is not None)


def run(workdir: Path) -> None:
    """Run every command in ``workdir``, which must be empty."""
    save_model(helpers.random_model(A=3, P=4, cap=12, seed=2), workdir / "seed.json")
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        for stdout_name, argv in COMMANDS:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                rc = main(list(argv))
            if rc != 0:
                raise RuntimeError(f"switchgp {' '.join(argv)} exited {rc}")
            if stdout_name is not None:
                with open(stdout_name, "w", newline="") as fh:
                    fh.write(out.getvalue())
    finally:
        os.chdir(cwd)


def regenerate() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        run(Path(tmp))
        for name in OUTPUTS:
            target = HERE / name
            target.parent.mkdir(parents=True, exist_ok=True)
            shutil.copyfile(Path(tmp) / name, target)


if __name__ == "__main__":
    regenerate()
