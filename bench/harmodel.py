"""HAR-shaped synthetic switching-GP models and streams, generated from a seed.

The real UCI HAR files are not on disk, so every workload runs on a model
with the shape a HAR fit has: six activities, ten whitened PCA channels,
Matern 3/2 emissions sharing one coregionalization factor, Gamma dwell times
with means of 20 to 45 rows (one row per 2.56 s window at 50% overlap), and a
duration cap of 80 rows. The program under test receives only the arrays
produced here; the sampling code is the benchmark's own.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.stats

from switchgp.kernels import MaternKernel, NoiseModel, TaskCovariance
from switchgp.model import (
    GammaDuration,
    SegmentedSeries,
    StateEmission,
    SwitchingGPModel,
    TransitionMatrix,
)

NUM_STATES = 6
NUM_CHANNELS = 10
DURATION_CAP = 80
SMOOTHNESS = 1.5


def rng_for(seed: int, stream: str) -> np.random.Generator:
    """Independent generator for one named input stream of one seed."""
    return np.random.default_rng([int(seed), *stream.encode()])


def model_params(seed: int, stream: str = "model") -> dict:
    """Plain parameter arrays of one HAR-shaped model."""
    rng = rng_for(seed, stream)
    A, P = NUM_STATES, NUM_CHANNELS
    L = np.tril(rng.normal(size=(P, P)) * 0.25)
    np.fill_diagonal(L, np.abs(np.diag(L)) + 0.5)
    trans = rng.uniform(0.2, 1.0, size=(A, A))
    np.fill_diagonal(trans, 0.0)
    init = rng.uniform(0.2, 1.0, size=A)
    dwell_mean = rng.uniform(20.0, 45.0, size=A)
    dwell_shape = rng.uniform(2.0, 4.0, size=A)
    return {
        "means": rng.normal(scale=2.0, size=(A, P)),
        "variances": rng.uniform(0.6, 1.2, size=A),
        "lengthscales": rng.uniform(2.0, 6.0, size=A),
        "task_factor": L,
        "noise": rng.uniform(0.1, 0.3, size=P),
        "transitions": trans / trans.sum(axis=1, keepdims=True),
        "initial": init / init.sum(),
        "dwell_shape": dwell_shape,
        "dwell_scale": dwell_mean / dwell_shape,
    }


def build_model(params: dict) -> SwitchingGPModel:
    task = TaskCovariance(params["task_factor"])
    emissions = [
        StateEmission(
            mean=params["means"][j],
            temporal=MaternKernel(
                float(params["variances"][j]), float(params["lengthscales"][j]), SMOOTHNESS
            ),
            task=task,
        )
        for j in range(NUM_STATES)
    ]
    return SwitchingGPModel(
        durations=[
            GammaDuration(float(k), float(s))
            for k, s in zip(params["dwell_shape"], params["dwell_scale"])
        ],
        transitions=TransitionMatrix(params["transitions"]),
        emissions=emissions,
        noise=NoiseModel(params["noise"]),
        duration_cap=DURATION_CAP,
        initial=params["initial"],
        shared_task=True,
    )


def matern32(variance: float, lengthscale: float, lags) -> np.ndarray:
    a = math.sqrt(3.0) * np.abs(np.asarray(lags, dtype=float)) / lengthscale
    return variance * (1.0 + a) * np.exp(-a)


def duration_masses(params: dict, cap: int = DURATION_CAP) -> np.ndarray:
    """(A, cap) truncated, renormalized Gamma CDF differences on unit bins."""
    edges = np.arange(cap + 1, dtype=float)
    out = []
    for k, s in zip(params["dwell_shape"], params["dwell_scale"]):
        cdf = scipy.stats.gamma.cdf(edges, a=k, scale=s)
        out.append(np.diff(cdf) / cdf[-1])
    return np.array(out)


def _latent_short(rng, params, state, length):
    """Exact unit-coregionalized GP draw of a short segment by Cholesky."""
    K = matern32(
        params["variances"][state],
        params["lengthscales"][state],
        np.subtract.outer(np.arange(length), np.arange(length)),
    )
    K[np.diag_indices_from(K)] += 1e-10
    return np.linalg.cholesky(K) @ rng.standard_normal((length, NUM_CHANNELS))


def _latent_long(rng, params, state, length):
    """GP draw of a long segment by circulant embedding.

    The embedding is padded until the kernel has decayed to rounding level at
    the wrap point, so its spectrum is non-negative and the draw is exact up
    to rounding.
    """
    ell = params["lengthscales"][state]
    size = 1 << int(math.ceil(math.log2(max(2 * length, length + 40.0 * ell))))
    lags = np.minimum(np.arange(size), size - np.arange(size))
    spec = np.fft.fft(matern32(params["variances"][state], ell, lags)).real
    if spec.min() < -1e-9 * spec.max():
        raise RuntimeError("circulant embedding of the sampling kernel is indefinite")
    z = rng.standard_normal((size, NUM_CHANNELS)) + 1j * rng.standard_normal(
        (size, NUM_CHANNELS)
    )
    f = np.fft.fft(np.sqrt(np.maximum(spec, 0.0) / size)[:, None] * z, axis=0)
    return f.real[:length]


def segment_values(rng, params, state, length) -> np.ndarray:
    """Observed rows of one segment: mean + coregionalized GP + noise."""
    if length <= 2 * DURATION_CAP:
        latent = _latent_short(rng, params, state, length)
    else:
        latent = _latent_long(rng, params, state, length)
    noise = rng.standard_normal((length, NUM_CHANNELS)) * np.sqrt(params["noise"])
    return params["means"][state] + latent @ params["task_factor"].T + noise


class Stream:
    """Endless labeled stream from the semi-Markov model, grown on demand."""

    def __init__(self, params: dict, rng: np.random.Generator):
        self.params = params
        self.rng = rng
        self.masses = duration_masses(params)
        self.rows = np.empty((0, NUM_CHANNELS))
        self.labels = np.empty(0, dtype=int)
        self._state = int(rng.choice(NUM_STATES, p=params["initial"]))

    def ensure(self, num_rows: int) -> None:
        chunks, labs = [self.rows], [self.labels]
        have = self.rows.shape[0]
        while have < num_rows:
            j = self._state
            dur = int(self.rng.choice(DURATION_CAP, p=self.masses[j])) + 1
            chunks.append(segment_values(self.rng, self.params, j, dur))
            labs.append(np.full(dur, j + 1))
            have += dur
            p = self.params["transitions"][j]
            self._state = int(self.rng.choice(NUM_STATES, p=p))
        self.rows = np.concatenate(chunks)
        self.labels = np.concatenate(labs)

    def row(self, t: int) -> np.ndarray:
        self.ensure(t + 1)
        return self.rows[t]


def subject(params: dict, rng: np.random.Generator, num_rows: int) -> SegmentedSeries:
    stream = Stream(params, rng)
    stream.ensure(num_rows)
    return SegmentedSeries(
        observations=stream.rows[:num_rows], labels=stream.labels[:num_rows]
    )


def long_series(params: dict, rng: np.random.Generator, lengths) -> SegmentedSeries:
    """One series whose segments have the given lengths, in random order,
    with states drawn so that neighbouring segments differ."""
    order = rng.permutation(len(lengths))
    rows, labels, prev = [], [], -1
    for i in order:
        j = int(rng.choice([s for s in range(NUM_STATES) if s != prev]))
        rows.append(segment_values(rng, params, j, int(lengths[i])))
        labels.append(np.full(int(lengths[i]), j + 1))
        prev = j
    return SegmentedSeries(observations=np.concatenate(rows), labels=np.concatenate(labels))


def params_of(model: SwitchingGPModel) -> dict:
    """Emission parameters of a shared-task model, in `model_params` form."""
    return {
        "means": np.array([e.mean for e in model.emissions]),
        "variances": np.array([e.temporal.variance for e in model.emissions]),
        "lengthscales": np.array([e.temporal.lengthscale for e in model.emissions]),
        "task_factor": model.emissions[0].task.cholesky_factor,
        "noise": model.noise.per_feature_variance,
    }
