"""Emission-parameter optimization in unconstrained coordinates.

Every emission parameter is trained. Positive scalars (kernel variance,
lengthscale, noise variances) are optimized as logs; task Cholesky factors
as raw lower-triangular entries with log-diagonal. The (0,0) task entry is
gauge-fixed at 1 after rescaling the initial model (the overall scale of
L L^T trades off exactly against the kernel variances, and pinning it
removes the flat direction without restricting the model class).

The optimizer contract is kept in the callback of scipy's L-BFGS-B, which
reads each accepted iterate's objective: no accepted step may increase it, and
the run stops, converged, once its relative change stays below ``REL_TOL`` for
``PATIENCE`` iterations. The start is L-BFGS-B's first evaluation, made at
the start vector clipped into the ``PARAM_BOUND`` box; its objective is the
report's initial one and scales the barrier. Degenerate line-search probes
get that finite barrier value; a start that does not evaluate aborts, a
non-finite one with a parameter snapshot.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import scipy.optimize

from .errors import (
    NonFiniteObjectiveError,
    NonPositiveDefiniteError,
    OptimizerContractError,
)
from .kernels import MaternKernel, NoiseModel, TaskCovariance
from .likelihood import nll_and_gradients, segment_layout
from .model import FitReport, SwitchingGPModel

# Box bound (in log / raw coordinates) keeping every evaluation finite.
PARAM_BOUND = 30.0
# Early stop: relative objective change below REL_TOL over PATIENCE iterations.
REL_TOL = 1e-6
PATIENCE = 5


@dataclass(frozen=True)
class FitConfig:
    """Controls for fit_emissions / fit."""

    max_iterations: int = 500
    duration_cap: int | None = None

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError(f"max_iterations must be at least 1, got {self.max_iterations}")
        if self.duration_cap is not None and self.duration_cap < 1:
            raise ValueError(f"duration_cap must be at least 1, got {self.duration_cap}")


class _Packing:
    """Maps between the parameter vector and model components.

    The vector holds (log variance, log lengthscale) for each state, then the
    raw lower-triangular entries of each task factor with log diagonal and
    L[0,0] left out (one factor when the model shares it), then the log noise
    variances. The layout depends on the model only; ``config`` is not read.
    """

    def __init__(self, model: SwitchingGPModel, config: FitConfig | None = None):
        self.A = model.num_states
        self.P = model.num_features
        self.shared_task = model.shared_task
        self.n_task = 1 if self.shared_task else self.A
        # task factor of each state's emission
        self.task_of = [0 if self.shared_task else j for j in range(self.A)]
        self.smoothness = tuple(e.temporal.smoothness for e in model.emissions)

        self.tril_rc = [(i, j) for i in range(self.P) for j in range(i + 1)][1:]
        n = 2 * self.A
        m = len(self.tril_rc)
        self.task_slices = [slice(n + k * m, n + (k + 1) * m) for k in range(self.n_task)]
        n += self.n_task * m
        self.noise_slice = slice(n, n + self.P)
        self.size = self.noise_slice.stop

    def rescaled_init(self, model: SwitchingGPModel) -> SwitchingGPModel:
        """Apply the gauge: L[0,0] -> 1, scale absorbed into kernel variances."""
        factors = [model.emissions[k].task.cholesky_factor for k in range(self.n_task)]
        tasks = [TaskCovariance(L / L[0, 0]) for L in factors]
        emissions = []
        for e, k in zip(model.emissions, self.task_of):
            c = factors[k][0, 0]
            temporal = replace(e.temporal, variance=e.temporal.variance * c * c)
            emissions.append(replace(e, temporal=temporal, task=tasks[k]))
        return replace(model, emissions=tuple(emissions))

    def pack(self, model: SwitchingGPModel) -> np.ndarray:
        x = np.zeros(self.size)
        for j, e in enumerate(model.emissions):
            x[2 * j : 2 * j + 2] = [np.log(e.temporal.variance), np.log(e.temporal.lengthscale)]
        for k, sl in enumerate(self.task_slices):
            L = model.emissions[k].task.cholesky_factor
            x[sl] = [np.log(L[i, j]) if i == j else L[i, j] for i, j in self.tril_rc]
        x[self.noise_slice] = np.log(model.noise.per_feature_variance)
        return x

    def unpack(self, x: np.ndarray, template: SwitchingGPModel) -> SwitchingGPModel:
        tasks = []
        for k, sl in enumerate(self.task_slices):
            L = np.array(template.emissions[k].task.cholesky_factor, copy=True)
            L[0, 0] = 1.0
            for (i, j), v in zip(self.tril_rc, x[sl]):
                L[i, j] = np.exp(v) if i == j else v
            tasks.append(TaskCovariance(L))
        emissions = tuple(
            replace(
                e,
                temporal=MaternKernel(
                    float(np.exp(x[2 * j])),
                    float(np.exp(x[2 * j + 1])),
                    smoothness=self.smoothness[j],
                ),
                task=tasks[self.task_of[j]],
            )
            for j, e in enumerate(template.emissions)
        )
        return replace(template, emissions=emissions, noise=NoiseModel(np.exp(x[self.noise_slice])))

    def pack_gradient(self, acc) -> np.ndarray:
        g = np.zeros(self.size)
        g[: 2 * self.A] = acc.temporal.ravel()
        for k, sl in enumerate(self.task_slices):
            M, L = acc.task[k], self._L_cache[k]
            g[sl] = [M[i, j] * L[i, j] if i == j else M[i, j] for i, j in self.tril_rc]
        g[self.noise_slice] = acc.noise
        return g

    def set_L_cache(self, model: SwitchingGPModel):
        self._L_cache = [model.emissions[k].task.cholesky_factor for k in range(self.n_task)]


def fit_emissions(data, init: SwitchingGPModel, config: FitConfig | None = None) -> SwitchingGPModel:
    """Optimize kernel, task, and noise parameters on labeled data.

    Returns a model at a local minimum of the dense negative log-likelihood,
    carrying a FitReport with initial/final objectives and iteration count.
    """
    if config is None:
        config = FitConfig()
    packing = _Packing(init)
    model0 = packing.rescaled_init(init)
    x0 = packing.pack(model0)
    # The means are not fitted here, so every call reads one segment layout.
    layout = segment_layout(model0, data)
    # objective at the start (L-BFGS-B's first evaluation) and at each
    # accepted iterate
    history = []

    def objective(x):
        m = packing.unpack(x, model0)
        packing.set_L_cache(m)
        try:
            val, acc = nll_and_gradients(m, layout)
            grad = packing.pack_gradient(acc)
            if not np.isfinite(val) or not np.all(np.isfinite(grad)):
                raise NonFiniteObjectiveError(
                    "objective or gradient evaluated non-finite", params=x.copy()
                )
        except (NonPositiveDefiniteError, NonFiniteObjectiveError, np.linalg.LinAlgError):
            # Line searches may probe parameters whose covariance is
            # numerically degenerate or whose objective is not finite. A
            # finite penalty (zero gradient) makes the sufficient-decrease
            # test fail so the step is rejected and backtracked; the start
            # point must evaluate.
            if not history:
                raise
            return 1e6 * (1.0 + abs(history[0])), np.zeros(packing.size)
        if not history:
            history.append(val)
        return val, grad

    def stalled():
        prev = history[-1 - PATIENCE] if len(history) > PATIENCE else np.inf
        return abs(prev - history[-1]) < REL_TOL * max(1.0, abs(history[-1]))

    def callback(intermediate_result):
        fk = intermediate_result.fun
        if fk > history[-1] + 1e-9 * (1.0 + abs(history[-1])):
            raise OptimizerContractError(
                f"objective increased across an accepted step: {history[-1]} -> {fk}"
            )
        history.append(fk)
        if stalled():
            raise StopIteration

    res = scipy.optimize.minimize(
        objective,
        x0,
        jac=True,
        method="L-BFGS-B",
        bounds=[(-PARAM_BOUND, PARAM_BOUND)] * packing.size,
        callback=callback,
        options={"maxiter": config.max_iterations, "ftol": 1e-14, "gtol": 1e-9},
    )
    early = stalled()
    message = f"relative change < {REL_TOL} over {PATIENCE} iterations" if early else res.message
    # res.x is the last accepted iterate; res.fun is the last evaluation,
    # which after a failed line search is a rejected probe.
    report = FitReport(
        initial_objective=float(history[0]),
        final_objective=float(history[-1]),
        iterations=len(history) - 1,
        converged=early or bool(res.success),
        message=str(message),
    )
    return replace(packing.unpack(res.x, model0), fit_report=report)
