"""Population likelihood tests: dense path, FFT path, analytic gradients."""

import math
from dataclasses import replace

import numpy as np
import pytest

import helpers
import oracles
from switchgp.data import generate_synthetic
from switchgp.errors import InsufficientDataError
from switchgp.fit import FitConfig, _Packing
from switchgp.kernels import MaternKernel, NoiseModel, TaskCovariance
from switchgp.likelihood import negative_loglik, nll_and_gradients
from switchgp.model import (
    GammaDuration,
    SegmentedSeries,
    StateEmission,
    SwitchingGPModel,
    TransitionMatrix,
)


def scalar_model(temporal_variance=1.3, noise_var=0.4, mean=0.7):
    emission = StateEmission(
        mean=np.array([mean]),
        temporal=MaternKernel(temporal_variance, 2.0, 1.5),
        task=TaskCovariance(np.eye(1)),
    )
    return SwitchingGPModel(
        durations=(GammaDuration(2.0, 1.0),),
        transitions=TransitionMatrix(np.zeros((1, 1))),
        emissions=(emission,),
        noise=NoiseModel(np.array([noise_var])),
        duration_cap=3,
    )


def labeled(observations, labels, mask=None, subject_id=0):
    return SegmentedSeries(
        observations=np.asarray(observations, float),
        labels=np.asarray(labels, int),
        mask=mask,
        subject_id=subject_id,
    )


class TestDensePath:
    def test_scalar_closed_form(self):
        model = scalar_model(temporal_variance=1.3, noise_var=0.4, mean=0.7)
        y = 2.1
        series = labeled([[y]], [1])
        v = 1.3 + 0.4
        r = y - 0.7
        expected = 0.5 * (math.log(v) + r * r / v + math.log(2 * math.pi))
        assert negative_loglik(model, [series]) == pytest.approx(expected, rel=1e-12)

    def test_zero_residuals_leave_logdet_terms_only(self):
        model = helpers.random_model(A=2, P=2, seed=4)
        labels = np.array([1, 1, 1, 2, 2, 1, 1])
        rows = np.array([model.emissions[lab - 1].mean for lab in labels])
        series = labeled(rows, labels)
        expected = 0.0
        for state, start, dur in oracles.run_lengths(labels):
            cov = oracles.segment_cov(model.emissions[state - 1], model.noise, dur)
            expected += 0.5 * (
                np.linalg.slogdet(cov)[1] + dur * 2 * math.log(2 * math.pi)
            )
        assert negative_loglik(model, [series]) == pytest.approx(expected, rel=1e-10)

    def test_matches_kron_oracle_with_masks(self):
        model = helpers.random_model(A=3, P=2, seed=6)
        rng = np.random.default_rng(0)
        labels = np.array([1, 1, 2, 2, 2, 3, 1, 1, 3, 3])
        obs = rng.normal(size=(10, 2))
        mask = rng.uniform(size=(10, 2)) < 0.7
        series = labeled(obs, labels, mask=mask)
        got = negative_loglik(model, [series])
        assert got == pytest.approx(oracles.dense_nll(model, [series]), rel=1e-10)

    def test_subject_permutation_invariance(self):
        model = helpers.random_model(A=2, P=2, seed=2)
        rng = np.random.default_rng(3)
        series = [
            labeled(rng.normal(size=(8, 2)), rng.integers(1, 3, size=8), subject_id=i)
            for i in range(4)
        ]
        base = negative_loglik(model, series)
        shuffled = negative_loglik(model, series[::-1])
        assert shuffled == pytest.approx(base, abs=1e-10)

    def test_segment_order_invariance(self):
        # the same multiset of (state, window) segments in a different order
        model = helpers.random_model(A=2, P=1, seed=9)
        rng = np.random.default_rng(1)
        w1, w2, w3 = rng.normal(size=(3, 2, 1))
        a = labeled(np.vstack([w1, w2, w3]), [1, 1, 2, 2, 1, 1])
        b = labeled(np.vstack([w3, w2, w1]), [1, 1, 2, 2, 1, 1])
        assert negative_loglik(model, [a]) == pytest.approx(
            negative_loglik(model, [b]), abs=1e-10
        )

    def test_duplicated_subject_doubles_contribution(self):
        model = helpers.random_model(A=2, P=2, seed=5)
        rng = np.random.default_rng(7)
        series = labeled(rng.normal(size=(9, 2)), rng.integers(1, 3, size=9))
        single = negative_loglik(model, [series])
        doubled = negative_loglik(model, [series, series])
        assert doubled == pytest.approx(2.0 * single, abs=1e-10)


class TestFFTPath:
    def test_close_to_dense_on_synthetic_segments(self):
        model = helpers.random_model(A=2, P=2, cap=40, seed=8, lengthscale=3.0)
        data = [generate_synthetic(model, 64, seed=1)]
        dense = negative_loglik(model, data, use_fft=False)
        fast = negative_loglik(model, data, use_fft=True)
        assert abs(fast - dense) / abs(dense) < 0.02

    def test_masked_data_rejected(self):
        model = helpers.random_model(A=1, P=1, seed=1)
        obs = np.zeros((4, 1))
        mask = np.array([[True], [False], [True], [True]])
        series = labeled(obs, [1, 1, 1, 1], mask=mask)
        with pytest.raises(InsufficientDataError):
            negative_loglik(model, [series], use_fft=True)

    @pytest.mark.parametrize("bad", [0, 3])
    def test_out_of_range_label_rejected(self, bad):
        # same check as the dense path: label 0 must not wrap to state A,
        # and label A + 1 must not reach the emission list
        model = helpers.random_model(A=2, P=2, cap=6, seed=1)
        rng = np.random.default_rng(0)
        series = labeled(rng.normal(size=(6, 2)), [1, 1, bad, bad, 2, 2])
        for use_fft in (False, True):
            with pytest.raises(ValueError, match="outside 1..2"):
                negative_loglik(model, [series], use_fft=use_fft)


class TestGradients:
    @pytest.mark.parametrize("shared_task", [False, True])
    def test_analytic_gradient_matches_central_differences(self, shared_task):
        model = helpers.random_model(A=2, P=2, cap=6, seed=11)
        if shared_task:
            # one task factor for every state: the packing holds one block
            task = model.emissions[0].task
            emissions = tuple(replace(e, task=task) for e in model.emissions)
            model = replace(model, emissions=emissions, shared_task=True)
        rng = np.random.default_rng(4)
        labels = np.array([1, 1, 1, 2, 2, 1, 2, 2, 2, 1, 1, 2])
        series = labeled(rng.normal(size=(12, 2)), labels)
        packing = _Packing(model, FitConfig())
        # L[0,0] is gauged to 1, so pack the rescaled model
        model = packing.rescaled_init(model)
        x0 = packing.pack(model)

        def objective(x):
            return negative_loglik(packing.unpack(x, model), [series])

        _, acc = nll_and_gradients(model, [series])
        packing.set_L_cache(model)
        analytic = packing.pack_gradient(acc)
        fd = oracles.central_difference(objective, x0, eps=1e-5)
        scale = np.maximum(np.abs(fd), 1.0)
        assert np.max(np.abs(analytic - fd) / scale) < 1e-4

    def test_gradient_value_agrees_with_objective(self):
        model = helpers.random_model(A=2, P=2, seed=12)
        rng = np.random.default_rng(9)
        series = labeled(rng.normal(size=(10, 2)), rng.integers(1, 3, size=10))
        value, _ = nll_and_gradients(model, [series])
        assert value == pytest.approx(negative_loglik(model, [series]), rel=1e-12)

    def test_masked_entries_contribute_gradients(self):
        model = helpers.random_model(A=1, P=2, seed=13)
        rng = np.random.default_rng(2)
        obs = rng.normal(size=(6, 2))
        mask = rng.uniform(size=(6, 2)) < 0.6
        series = labeled(obs, np.ones(6, int), mask=mask)
        packing = _Packing(model, FitConfig())
        # L[0,0] is gauged to 1, so pack the rescaled model
        model = packing.rescaled_init(model)
        x0 = packing.pack(model)

        def objective(x):
            return negative_loglik(packing.unpack(x, model), [series])

        _, acc = nll_and_gradients(model, [series])
        packing.set_L_cache(model)
        analytic = packing.pack_gradient(acc)
        fd = oracles.central_difference(objective, x0, eps=1e-5)
        scale = np.maximum(np.abs(fd), 1.0)
        assert np.max(np.abs(analytic - fd) / scale) < 1e-4
