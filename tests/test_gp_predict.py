"""Within-segment GP posterior and dense segment likelihood tests."""

import math

import numpy as np
import pytest

import helpers
import oracles
from switchgp.errors import UndefinedMetricError
from switchgp.gp_predict import (
    joint_conditional,
    segment_emission_loglik,
    trajectory_metrics,
)
from switchgp.kernels import MaternKernel, NoiseModel, TaskCovariance, matern_eval
from switchgp.model import StateEmission


def correlated_emission(offdiag=0.9):
    L = np.linalg.cholesky(np.array([[1.0, offdiag], [offdiag, 1.0]]))
    return StateEmission(
        mean=np.array([0.5, -0.25]),
        temporal=MaternKernel(variance=1.0, lengthscale=2.0, smoothness=1.5),
        task=TaskCovariance(L),
    )


def posterior(emission, noise, obs_times, obs_features, obs_values, query_times, query_feature):
    """Posterior mean and covariance of one feature at the query times."""
    qt = np.asarray(query_times, dtype=float)
    qf = np.full(qt.shape[0], query_feature)
    return joint_conditional(emission, noise, obs_times, obs_features, obs_values, qt, qf)


class TestPosteriorPredict:
    def test_noise_free_interpolation(self):
        e = correlated_emission()
        noise = NoiseModel(np.full(2, 1e-12))
        mean, cov = posterior(
            e, noise,
            obs_times=[0.0, 1.0, 2.0], obs_features=[0, 0, 0],
            obs_values=[1.0, 0.3, -0.2],
            query_times=[1.0], query_feature=0,
        )
        assert mean[0] == pytest.approx(0.3, abs=1e-6)
        assert cov[0, 0] < 1e-6

    def test_no_observations_returns_prior(self):
        e = correlated_emission()
        noise = NoiseModel(np.full(2, 0.1))
        qt = np.array([0.0, 1.0, 3.0])
        mean, cov = posterior(
            e, noise, obs_times=[], obs_features=[], obs_values=[],
            query_times=qt, query_feature=1,
        )
        np.testing.assert_allclose(mean, np.full(3, -0.25))
        KY = e.task.cholesky_factor @ e.task.cholesky_factor.T
        lags = np.subtract.outer(qt, qt)
        np.testing.assert_allclose(
            cov, KY[1, 1] * matern_eval(e.temporal, lags), atol=1e-12
        )

    def test_correlated_channel_borrows_information(self):
        # observing feature 0 must shrink feature 1's variance more when the
        # task covariance couples them than when it is diagonal
        noise = NoiseModel(np.full(2, 0.05))
        kwargs = dict(
            obs_times=[1.0], obs_features=[0], obs_values=[2.0],
            query_times=[1.0], query_feature=1,
        )
        _, coupled = posterior(correlated_emission(0.9), noise, **kwargs)
        _, independent = posterior(correlated_emission(0.0), noise, **kwargs)
        assert coupled[0, 0] < independent[0, 0] - 1e-3

    def test_posterior_variance_never_exceeds_prior(self):
        rng = np.random.default_rng(0)
        for trial in range(10):
            P = int(rng.integers(1, 4))
            model = helpers.random_model(A=1, P=P, seed=trial)
            e = model.emissions[0]
            n_obs = int(rng.integers(1, 21))
            ot = rng.integers(0, 8, size=n_obs).astype(float)
            of = rng.integers(0, P, size=n_obs)
            ov = rng.normal(size=n_obs)
            qt = np.arange(5.0)
            feat = int(rng.integers(0, P))
            _, post = posterior(e, model.noise, ot, of, ov, qt, feat)
            _, prior = posterior(e, model.noise, [], [], [], qt, feat)
            assert np.all(np.diag(post) <= np.diag(prior) + 1e-8)

    def test_adding_observations_is_monotone(self):
        rng = np.random.default_rng(7)
        model = helpers.random_model(A=1, P=3, seed=5)
        e = model.emissions[0]
        ot = rng.integers(0, 10, size=12).astype(float)
        of = rng.integers(0, 3, size=12)
        ov = rng.normal(size=12)
        qt = np.array([4.0])
        prev = np.inf
        for n in range(0, 13, 3):
            _, cov = posterior(e, model.noise, ot[:n], of[:n], ov[:n], qt, 1)
            var = float(cov[0, 0])
            assert var <= prev + 1e-8
            prev = var


class TestJointConditional:
    def test_matches_manual_gaussian_conditioning(self):
        # oracle: condition the dense joint over all entries directly
        model = helpers.random_model(A=1, P=2, seed=9)
        e = model.emissions[0]
        rng = np.random.default_rng(2)
        window = rng.normal(size=(3, 2))
        cov = oracles.segment_cov(e, model.noise, 4)
        d = 4
        obs_idx = [0 * d + 0, 0 * d + 1, 1 * d + 2]  # entries (t,p): (0,0),(1,0),(2,1)
        qry_idx = [0 * d + 3, 1 * d + 3]
        mean_full = np.repeat(np.asarray(e.mean, float), d)
        obs_vals = np.array([window[0, 0], window[1, 0], window[2, 1]])
        Koo = cov[np.ix_(obs_idx, obs_idx)]
        Kqo = cov[np.ix_(qry_idx, obs_idx)]
        Kqq = cov[np.ix_(qry_idx, qry_idx)]
        expected_mean = mean_full[qry_idx] + Kqo @ np.linalg.solve(
            Koo, obs_vals - mean_full[obs_idx]
        )
        expected_cov = Kqq - Kqo @ np.linalg.solve(Koo, Kqo.T)

        mean, covar = joint_conditional(
            e, model.noise,
            obs_times=[0.0, 1.0, 2.0], obs_features=[0, 0, 1],
            obs_values=obs_vals,
            query_times=[3.0, 3.0], query_features=[0, 1],
            include_noise=True,
        )
        np.testing.assert_allclose(mean, expected_mean, atol=1e-6)
        np.testing.assert_allclose(covar, expected_cov, atol=1e-6)

    def test_prior_fallback_with_noise(self):
        model = helpers.random_model(A=1, P=2, seed=3)
        e = model.emissions[0]
        mean, cov = joint_conditional(
            e, model.noise, [], [], [], query_times=[0.0, 0.0],
            query_features=[0, 1], include_noise=True,
        )
        KY = e.task.cholesky_factor @ e.task.cholesky_factor.T
        expected = e.temporal.variance * KY + np.diag(model.noise.per_feature_variance)
        np.testing.assert_allclose(cov, expected, atol=1e-12)
        np.testing.assert_allclose(mean, e.mean)


class TestSegmentEmissionLoglik:
    def test_fully_masked_window_is_vacuous(self):
        model = helpers.random_model(A=1, P=2, seed=1)
        window = np.ones((3, 2))
        mask = np.zeros((3, 2), dtype=bool)
        assert segment_emission_loglik(model.emissions[0], model.noise, window, mask=mask) == 0.0

    def test_single_entry_closed_form(self):
        e = correlated_emission()
        noise = NoiseModel(np.array([0.3, 0.7]))
        KY = e.task.cholesky_factor @ e.task.cholesky_factor.T
        value = 1.9
        p = 1
        v = e.temporal.variance * KY[p, p] + noise.per_feature_variance[p]
        r = value - e.mean[p]
        expected = -0.5 * (math.log(2 * math.pi * v) + r * r / v)
        window = np.array([[0.0, value]])
        mask = np.array([[False, True]])
        got = segment_emission_loglik(e, noise, window, mask=mask)
        assert got == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("T", [1, 4, 17, 32])
    def test_scalar_channel_matches_dense_oracle(self, T):
        model = helpers.random_model(A=1, P=1, seed=T)
        e = model.emissions[0]
        rng = np.random.default_rng(T)
        window = rng.normal(size=(T, 1))
        got = segment_emission_loglik(e, model.noise, window)
        expected = oracles.segment_logdensity(e, model.noise, window)
        assert got == pytest.approx(expected, abs=1e-8)

    def test_partial_mask_matches_dense_oracle(self):
        model = helpers.random_model(A=1, P=3, seed=12)
        e = model.emissions[0]
        rng = np.random.default_rng(1)
        window = rng.normal(size=(5, 3))
        mask = rng.uniform(size=(5, 3)) < 0.6
        got = segment_emission_loglik(e, model.noise, window, mask=mask)
        expected = oracles.segment_logdensity(e, model.noise, window, mask=mask)
        assert got == pytest.approx(expected, abs=1e-8)

    def test_full_mask_equals_no_mask(self):
        model = helpers.random_model(A=1, P=2, seed=8)
        e = model.emissions[0]
        rng = np.random.default_rng(4)
        window = rng.normal(size=(6, 2))
        a = segment_emission_loglik(e, model.noise, window)
        b = segment_emission_loglik(e, model.noise, window, mask=np.ones((6, 2), bool))
        assert a == pytest.approx(b, abs=1e-12)


class TestTrajectoryMetrics:
    def test_perfect_prediction(self):
        truth = np.arange(6.0).reshape(3, 2)
        mse, abse = trajectory_metrics(truth, truth, np.ones((3, 2), bool))
        assert mse == 0.0 and abse == 0.0

    def test_constant_offset(self):
        truth = np.zeros((4, 2))
        mse, abse = trajectory_metrics(truth + 0.3, truth, np.ones((4, 2), bool))
        assert mse == pytest.approx(0.09, rel=1e-12)
        assert abse == pytest.approx(0.3, rel=1e-12)

    def test_masked_entries_only(self):
        truth = np.zeros((2, 2))
        pred = np.array([[1.0, 100.0], [100.0, 2.0]])
        mask = np.array([[True, False], [False, True]])
        mse, abse = trajectory_metrics(pred, truth, mask)
        assert mse == pytest.approx(2.5)
        assert abse == pytest.approx(1.5)

    def test_empty_mask_raises(self):
        z = np.zeros((2, 2))
        with pytest.raises(UndefinedMetricError):
            trajectory_metrics(z, z, np.zeros((2, 2), bool))
