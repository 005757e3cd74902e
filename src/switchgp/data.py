"""Dataset ingestion, PCA preprocessing, and the synthetic generator.

The activity-recognition corpus ships as whitespace-delimited text: a
feature matrix (rows x 561), an integer activity label per row (1..6), and
a subject id per row, in parallel train/ and test/ files. Rows are treated
as a uniform time grid, and each subject's rows are concatenated in file
order into one series (on the published files every subject's rows are
contiguous, so each series is one block of rows). `load_har` reads this
layout and `save_har` writes it.

`fit_pca` fits the projection on training rows and `apply_pca` projects
and whitens rows with it. The projection is `model.PcaProjection` (imported
here, so `switchgp.data.PcaProjection` names it too): a model component that
checks its shapes, finiteness and variances once, when it is built.

The synthetic generator samples the exact generative model the filter
assumes, including the discretized, truncated duration law, so generated
streams double as oracles for parameter-recovery and consistency tests.
"""

from __future__ import annotations

import warnings
from pathlib import Path

import numpy as np

from .errors import FormatError, InsufficientRankError, NonPositiveDefiniteError
from .filtering import build_duration_table
from .kernels import matern_eval
from .model import PcaProjection, SegmentedSeries, SwitchingGPModel

NUM_ACTIVITY_LABELS = 6
DEFAULT_NUM_COMPONENTS = 10

_SPLIT_FILES = {
    "train": ("train", "X_train.txt", "y_train.txt", "subject_train.txt"),
    "test": ("test", "X_test.txt", "y_test.txt", "subject_test.txt"),
}


def _read_matrix(path: Path) -> np.ndarray:
    """The file's rows; a file without any is a FormatError naming it."""
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")  # see below
            mat = np.loadtxt(path, dtype=float, ndmin=2)
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc}", path=str(path)) from exc
    except ValueError as exc:
        line = _first_bad_line(path)
        where = "" if line is None else f" at line {line}"
        message = f"malformed matrix in {path}{where} ({exc})"
        raise FormatError(message, path=str(path), line=line) from exc
    if mat.shape[0] == 0:
        raise FormatError(f"no rows in {path}", path=str(path))
    return mat


def _first_bad_line(path: Path) -> int | None:
    """1-based line of the first data row that holds a non-number or whose
    column count differs from the first row's."""
    width = None
    for number, text in enumerate(path.read_text(errors="replace").splitlines(), start=1):
        tokens = text.split("#", 1)[0].split()
        width = width or len(tokens)
        try:
            list(map(float, tokens))
        except ValueError:
            return number
        if len(tokens) not in (0, width):
            return number
    return None


def _read_int_vector(path: Path, name: str) -> np.ndarray:
    mat = _read_matrix(path)
    if mat.shape[1] != 1:
        raise FormatError(
            f"{name} file must have one column, found {mat.shape[1]}", path=str(path)
        )
    vec = mat[:, 0]
    if not np.all(vec == np.round(vec)):
        bad = int(np.nonzero(vec != np.round(vec))[0][0])
        raise FormatError(
            f"{name} file contains a non-integer at line {bad + 1}",
            path=str(path),
            line=bad + 1,
        )
    return vec.astype(int)


def load_har(data_dir, split: str = "both") -> list:
    """Load the activity corpus into per-subject series.

    ``split`` is "train", "test", or "both" (train first). Each file must
    hold at least one row, labels must lie in 1..6 and the three files of a
    split must agree on row count. Series come in the order each subject
    first appears.
    """
    data_dir = Path(data_dir)
    if split == "both":
        return load_har(data_dir, "train") + load_har(data_dir, "test")
    if split not in _SPLIT_FILES:
        raise ValueError("split must be 'train', 'test', or 'both'")
    sub, xf, yf, sf = _SPLIT_FILES[split]
    base = data_dir / sub
    X = _read_matrix(base / xf)
    y = _read_int_vector(base / yf, "label")
    subj = _read_int_vector(base / sf, "subject")

    if not (X.shape[0] == y.shape[0] == subj.shape[0]):
        raise FormatError(
            f"row counts disagree in {base}: features {X.shape[0]}, "
            f"labels {y.shape[0]}, subjects {subj.shape[0]}",
            path=str(base),
        )
    bad = np.nonzero((y < 1) | (y > NUM_ACTIVITY_LABELS))[0]
    if bad.size:
        raise FormatError(
            f"label {y[bad[0]]} outside 1..{NUM_ACTIVITY_LABELS} at line {bad[0] + 1}",
            path=str(base / yf),
            line=int(bad[0] + 1),
        )

    series = []
    for s in dict.fromkeys(subj.tolist()):
        rows = np.nonzero(subj == s)[0]
        series.append(SegmentedSeries(observations=X[rows], labels=y[rows], subject_id=s))
    return series


def save_har(data_dir, split: str, series_list) -> None:
    """Write labeled series as one split of the corpus layout `load_har` reads.

    Rows are written series after series, each tagged with its series'
    ``subject_id``; features keep full float precision.
    """
    sub, xf, yf, sf = _SPLIT_FILES[split]
    base = Path(data_dir) / sub
    base.mkdir(parents=True, exist_ok=True)
    np.savetxt(base / xf, np.vstack([s.observations for s in series_list]), fmt="%.17g")
    np.savetxt(base / yf, np.concatenate([s.labels for s in series_list])[:, None], fmt="%d")
    subjects = np.concatenate([np.full(s.num_steps, s.subject_id) for s in series_list])
    np.savetxt(base / sf, subjects[:, None], fmt="%d")


def fit_pca(features, num_components: int = DEFAULT_NUM_COMPONENTS) -> PcaProjection:
    """Fit the projection on training rows only.

    Signs are fixed deterministically (largest-magnitude loading positive)
    so refits reproduce byte-identical projections.
    """
    if num_components < 1:
        raise ValueError(f"num_components must be at least 1, got {num_components}")
    X = np.asarray(features, dtype=float)
    if X.ndim != 2:
        raise ValueError("features must be a 2-D matrix")
    n = X.shape[0]
    means = X.mean(axis=0)
    centered = X - means
    _, S, Vt = np.linalg.svd(centered, full_matrices=False)
    tol = S[0] * 1e-10 if S.size and S[0] > 0 else 0.0
    rank = int(np.sum(S > tol))
    if rank < num_components:
        raise InsufficientRankError(
            f"requested {num_components} components but data rank is {rank}"
        )
    comps = Vt[:num_components].copy()
    for r in range(num_components):
        pivot = int(np.argmax(np.abs(comps[r])))
        if comps[r, pivot] < 0:
            comps[r] = -comps[r]
    explained = (S[:num_components] ** 2) / (n - 1)
    return PcaProjection(comps, means, explained)


def apply_pca(proj: PcaProjection, features) -> np.ndarray:
    """Project rows onto the components, scaled to unit training variance."""
    X = np.asarray(features, dtype=float)
    return (X - proj.feature_means) @ proj.component_matrix.T / np.sqrt(proj.explained_variance)


def generate_synthetic(model: SwitchingGPModel, num_steps: int, seed=0) -> SegmentedSeries:
    """Sample a labeled stream from the model, deterministic per seed.

    State and duration draws follow the same discretized, truncated laws the
    filter uses (initial distribution, zero-diagonal transitions with the
    single-state self-loop exception, per-step Gamma CDF-difference masses).
    Segment values are exact GP draws plus independent noise; the final
    segment is cut at ``num_steps``.
    """
    if num_steps < 1:
        raise ValueError("num_steps must be positive")
    rng = np.random.default_rng(seed)
    table = build_duration_table(model)
    masses = np.exp(table.log_g)
    trans = np.exp(table.log_p)
    init = np.exp(table.log_pi)
    A, D = masses.shape
    P = model.num_features
    Dn = model.noise.per_feature_variance

    obs = np.empty((num_steps, P))
    labels = np.empty(num_steps, dtype=int)
    t = 0
    state = int(rng.choice(A, p=init / init.sum()))
    while t < num_steps:
        row = masses[state]
        dur = int(rng.choice(D, p=row / row.sum())) + 1
        take = min(dur, num_steps - t)
        e = model.emissions[state]
        lags = np.arange(dur, dtype=float)
        K_T = matern_eval(e.temporal, lags)[np.abs(np.subtract.outer(lags, lags)).astype(int)]
        K_T[np.diag_indices(dur)] += 1e-8 * e.temporal.variance  # relative jitter
        try:
            Lt = np.linalg.cholesky(K_T)
        except np.linalg.LinAlgError as exc:
            raise NonPositiveDefiniteError(
                "covariance not positive definite in generate_synthetic", state=state
            ) from exc
        Z = rng.standard_normal((dur, P))
        F = Lt @ Z @ e.task.cholesky_factor.T
        Y = F + e.mean[None, :] + rng.standard_normal((dur, P)) * np.sqrt(Dn)[None, :]
        obs[t : t + take] = Y[:take]
        labels[t : t + take] = state + 1
        t += take
        prow = trans[state]
        state = int(rng.choice(A, p=prow / prow.sum()))
    return SegmentedSeries(observations=obs, labels=labels, subject_id=0)
