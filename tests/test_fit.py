"""Emission-parameter optimizer contract tests."""

import functools
import json
import sys
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.optimize

import helpers
from switchgp import likelihood
from switchgp.data import generate_synthetic
from switchgp.errors import (
    NonFiniteObjectiveError,
    NonPositiveDefiniteError,
    OptimizerContractError,
)
from switchgp.experiments import initial_model
from switchgp.fit import PATIENCE, REL_TOL, FitConfig, fit_emissions
from switchgp.kernels import MaternKernel, NoiseModel, TaskCovariance
from switchgp.likelihood import negative_loglik
from switchgp.model import (
    GammaDuration,
    SegmentedSeries,
    StateEmission,
    SwitchingGPModel,
    TransitionMatrix,
    fit,
    model_to_dict,
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


@pytest.fixture
def minimize_spy(monkeypatch):
    """Counts the accepted steps (callback calls) of each L-BFGS-B run and
    keeps scipy's result of the last run that returned one."""
    seen = SimpleNamespace(accepted=0, result=None)
    real = scipy.optimize.minimize

    def spy(fun, x0, *args, callback, **kwargs):
        @functools.wraps(callback)
        def counted(*cb_args, **cb_kwargs):
            seen.accepted += 1
            return callback(*cb_args, **cb_kwargs)

        seen.result = real(fun, x0, *args, callback=counted, **kwargs)
        return seen.result

    monkeypatch.setattr(scipy.optimize, "minimize", spy)
    return seen


def stop_path_data(seed=0):
    truth = helpers.random_model(A=3, P=2, cap=10, seed=seed)
    return [generate_synthetic(truth, 240, seed=1000 + seed)]


class TestStopPaths:
    """How a fit ends: the relative-change rule, the iteration cap, a line
    search hitting the finite barrier, and a non-finite start."""

    def test_early_stop_reports_the_accepted_steps(self, minimize_spy):
        config = FitConfig(max_iterations=500, duration_cap=10)
        rep = fit(initial_model(3, 2, 5.0, 1.5), stop_path_data(), config).fit_report
        assert rep.converged
        assert rep.message == f"relative change < {REL_TOL} over {PATIENCE} iterations"
        assert rep.iterations == minimize_spy.accepted
        assert PATIENCE < rep.iterations < config.max_iterations
        assert rep.final_objective < rep.initial_objective

    def test_iteration_cap_reports_scipys_message(self, minimize_spy):
        config = FitConfig(max_iterations=3, duration_cap=10)
        rep = fit(initial_model(3, 2, 5.0, 1.5), stop_path_data(), config).fit_report
        assert not rep.converged
        assert rep.message == str(minimize_spy.result.message)
        assert "ITERATIONS REACHED LIMIT" in rep.message
        assert rep.iterations == minimize_spy.accepted == 3

    def test_barrier_probes_end_at_an_evaluated_point(self, monkeypatch):
        # the likelihood refuses every lengthscale below 3, so line searches
        # toward the generating lengthscale of 1 meet the finite barrier
        fit_module = sys.modules["switchgp.fit"]
        real = fit_module.nll_and_gradients
        evaluated, refused = {}, []

        def guarded(model, data):
            if min(e.temporal.lengthscale for e in model.emissions) < 3.0:
                refused.append(model)
                raise NonPositiveDefiniteError("lengthscale below 3")
            val, acc = real(model, data)
            evaluated[json.dumps(model_to_dict(model))] = val
            return val, acc

        monkeypatch.setattr(fit_module, "nll_and_gradients", guarded)
        truth = helpers.random_model(A=2, P=2, cap=10, seed=0, lengthscale=1.0)
        data = [generate_synthetic(truth, 300, seed=3000)]
        fitted = fit(initial_model(2, 2, 5.0, 1.5), data, FitConfig(duration_cap=10))
        rep = fitted.fit_report
        assert refused
        assert evaluated[json.dumps(model_to_dict(fitted))] == rep.final_objective
        assert rep.final_objective <= rep.initial_objective

    def test_degenerate_start_raises(self, monkeypatch):
        def degenerate(model, data):
            raise NonPositiveDefiniteError("degenerate start", state=0)

        monkeypatch.setattr(sys.modules["switchgp.fit"], "nll_and_gradients", degenerate)
        start = helpers.random_model(A=3, P=2, cap=10, seed=0)
        with pytest.raises(NonPositiveDefiniteError, match="degenerate start"):
            fit_emissions(stop_path_data(), start)

    def test_non_finite_probe_is_rejected(self, monkeypatch):
        # the first point past the start evaluates NaN: it gets the barrier,
        # and the fit goes on from the start point
        fit_module = sys.modules["switchgp.fit"]
        real = fit_module.nll_and_gradients
        evaluated, probes = {}, []

        def nan_probe(model, data):
            val, acc = real(model, data)
            key = json.dumps(model_to_dict(model))
            if evaluated and key not in evaluated and not probes:
                probes.append(key)
                return np.nan, acc
            evaluated[key] = val
            return val, acc

        monkeypatch.setattr(fit_module, "nll_and_gradients", nan_probe)
        start = helpers.random_model(A=3, P=2, cap=10, seed=0)
        fitted = fit_emissions(stop_path_data(), start, FitConfig(max_iterations=20))
        rep = fitted.fit_report
        assert probes and rep.iterations >= 1
        final = evaluated[json.dumps(model_to_dict(fitted))]
        assert final == rep.final_objective and np.isfinite(final)
        assert rep.final_objective < rep.initial_objective

    def test_non_finite_start_raises(self, monkeypatch):
        fit_module = sys.modules["switchgp.fit"]
        real = fit_module.nll_and_gradients

        def non_finite(model, data):
            return np.nan, real(model, data)[1]

        monkeypatch.setattr(fit_module, "nll_and_gradients", non_finite)
        start = helpers.random_model(A=3, P=2, cap=10, seed=0)
        with pytest.raises(NonFiniteObjectiveError) as exc:
            fit_emissions(stop_path_data(), start)
        assert exc.value.params is not None and np.isfinite(exc.value.params).all()


class TestStartAndContract:
    """The start is L-BFGS-B's own first evaluation, and an accepted step
    that raises the objective breaks the optimizer contract."""

    def test_the_start_is_evaluated_once(self, monkeypatch):
        fit_module = sys.modules["switchgp.fit"]
        real = fit_module.nll_and_gradients
        calls = []

        def spy(model, data):
            val, acc = real(model, data)
            calls.append((json.dumps(model_to_dict(model)), val))
            return val, acc

        monkeypatch.setattr(fit_module, "nll_and_gradients", spy)
        start = helpers.random_model(A=3, P=2, cap=10, seed=0)
        rep = fit_emissions(stop_path_data(), start, FitConfig(max_iterations=5)).fit_report
        assert len(calls) >= 2 and calls[0][0] != calls[1][0]
        assert rep.initial_objective == calls[0][1]

    def test_an_increase_across_an_accepted_step_raises(self, monkeypatch):
        seen = []

        def increasing(fun, x0, *args, callback, **kwargs):
            f0, _ = fun(x0)
            seen.append(f0)
            callback(intermediate_result=scipy.optimize.OptimizeResult(x=x0, fun=f0 + 1.0))
            raise AssertionError("the callback accepted an increase")

        monkeypatch.setattr(scipy.optimize, "minimize", increasing)
        start = helpers.random_model(A=3, P=2, cap=10, seed=0)
        with pytest.raises(OptimizerContractError) as err:
            fit_emissions(stop_path_data(), start)
        assert f"{seen[0]} -> {seen[0] + 1.0}" in str(err.value)


class TestSegmentLayout:
    def test_one_layout_per_fit(self, monkeypatch):
        fit_module = sys.modules["switchgp.fit"]
        stack, objective = likelihood._StateSegments.stack, fit_module.nll_and_gradients
        builds, calls = [], []

        def counted_stack(resids):
            builds.append(len(resids))
            return stack(resids)

        def counted_objective(model, data):
            calls.append(data)
            return objective(model, data)

        monkeypatch.setattr(likelihood._StateSegments, "stack", staticmethod(counted_stack))
        monkeypatch.setattr(fit_module, "nll_and_gradients", counted_objective)
        start = helpers.random_model(A=3, P=2, cap=10, seed=0)
        data = stop_path_data()
        states = likelihood.segment_layout(start, data).full  # lays out, does not stack
        assert builds == []
        fit_emissions(data, start, FitConfig(max_iterations=20))
        # each state's segments are stacked once for the whole fit
        assert builds == [len(resids) for resids in states.values()]
        assert len(states) == 3
        assert len(calls) >= 10
