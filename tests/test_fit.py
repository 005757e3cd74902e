"""Emission-parameter optimizer contract tests."""

import numpy as np
import pytest

import helpers
from switchgp.data import generate_synthetic
from switchgp.fit import FitConfig, fit_emissions
from switchgp.kernels import MaternKernel, NoiseModel, TaskCovariance
from switchgp.likelihood import negative_loglik
from switchgp.model import (
    GammaDuration,
    SegmentedSeries,
    StateEmission,
    SwitchingGPModel,
    TransitionMatrix,
)


def iid_series(mean, variance, n, seed=0):
    rng = np.random.default_rng(seed)
    obs = rng.normal(mean, np.sqrt(variance), size=(n, 1))
    return SegmentedSeries(observations=obs, labels=np.ones(n, dtype=int))


class TestFitConfig:
    @pytest.mark.parametrize("value", [0, -2])
    def test_rejects_fewer_than_one_iteration(self, value):
        with pytest.raises(ValueError, match="max_iterations"):
            FitConfig(max_iterations=value)

    @pytest.mark.parametrize("value", [0, -4])
    def test_rejects_a_duration_cap_below_one(self, value):
        with pytest.raises(ValueError, match="duration_cap"):
            FitConfig(duration_cap=value)


class TestFitEmissions:
    def test_near_stationarity_at_generating_parameters(self):
        truth = helpers.random_model(A=2, P=2, cap=30, seed=1, lengthscale=3.0)
        data = [generate_synthetic(truth, 2500, seed=2)]
        # start exactly at the generating parameters; the optimizer should
        # find almost nothing left to improve
        fitted = fit_emissions(data, truth, FitConfig(max_iterations=100))
        rep = fitted.fit_report
        assert rep.final_objective <= rep.initial_objective
        decrease = (rep.initial_objective - rep.final_objective) / abs(
            rep.initial_objective
        )
        assert decrease < 0.01

    def test_variance_only_recovery_on_iid_samples(self):
        # tiny lengthscale: rows are nearly independent, so the model reduces
        # to N(mean, temporal_variance + noise) and the MLE of the total is
        # the biased sample variance
        n = 800
        series = iid_series(mean=1.5, variance=2.3, n=n, seed=3)
        sample_var = float(np.var(series.observations))
        emission = StateEmission(
            mean=np.array([float(series.observations.mean())]),
            temporal=MaternKernel(1.0, 0.05, 1.5),
            task=TaskCovariance(np.eye(1)),
        )
        init = SwitchingGPModel(
            durations=(GammaDuration(2.0, 2.0),),
            transitions=TransitionMatrix(np.zeros((1, 1))),
            emissions=(emission,),
            noise=NoiseModel(np.array([1e-4])),
            duration_cap=5,
        )
        fitted = fit_emissions([series], init)
        total = fitted.emissions[0].temporal.variance + fitted.noise.per_feature_variance[0]
        assert total == pytest.approx(sample_var, rel=0.02)

    def test_objective_decreases_from_bad_init(self):
        truth = helpers.random_model(A=2, P=1, cap=30, seed=5, lengthscale=4.0)
        data = [generate_synthetic(truth, 1500, seed=6)]
        from dataclasses import replace

        bad = replace(
            truth,
            emissions=tuple(
                replace(e, temporal=MaternKernel(5.0, 1.0, 1.5))
                for e in truth.emissions
            ),
        )
        fitted = fit_emissions(data, bad, FitConfig(max_iterations=200))
        rep = fitted.fit_report
        assert rep.final_objective < rep.initial_objective
        assert rep.converged
        assert rep.iterations <= 200
        # the report matches an independent objective evaluation
        assert negative_loglik(fitted, data) == pytest.approx(
            rep.final_objective, rel=1e-9
        )

    def test_shared_task_stays_shared(self):
        from dataclasses import replace

        base = helpers.random_model(A=2, P=2, cap=20, seed=7)
        shared = base.emissions[0].task
        truth = replace(
            base,
            emissions=tuple(replace(e, task=shared) for e in base.emissions),
            shared_task=True,
        )
        data = [generate_synthetic(truth, 800, seed=8)]
        fitted = fit_emissions(data, truth, FitConfig(max_iterations=30))
        a, b = (e.task.cholesky_factor for e in fitted.emissions)
        np.testing.assert_array_equal(a, b)

    def test_gauge_rescale_preserves_covariance(self):
        # with both variance and task trained, L[0,0] is pinned at 1 and the
        # scale moves into the temporal variance; sigma^2 * L L^T must be
        # unchanged by the reparameterization at init
        from switchgp.fit import _Packing

        model = helpers.random_model(A=2, P=3, seed=9)
        packing = _Packing(model, FitConfig())
        rescaled = packing.rescaled_init(model)
        for e0, e1 in zip(model.emissions, rescaled.emissions):
            K0 = e0.temporal.variance * (e0.task.cholesky_factor @ e0.task.cholesky_factor.T)
            K1 = e1.temporal.variance * (e1.task.cholesky_factor @ e1.task.cholesky_factor.T)
            np.testing.assert_allclose(K0, K1, rtol=1e-12)
            assert e1.task.cholesky_factor[0, 0] == pytest.approx(1.0)
