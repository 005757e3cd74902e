"""Matern kernel, task covariance, Gaussian density and logsumexp tests.

Closed-form oracle values live in oracles.matern_value; everything here is
checked against that or against hand-expanded matrices.
"""

import math

import numpy as np
import pytest
import scipy.special
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from switchgp.kernels import (
    MaternKernel,
    TaskCovariance,
    gaussian_logpdf,
    logsumexp,
    matern_eval,
    matern_grad,
    task_cov_assemble,
)


class TestMaternEval:
    def test_zero_lag_returns_variance(self):
        k = MaternKernel(variance=2.0, lengthscale=3.7, smoothness=1.5)
        assert matern_eval(k, 0.0) == pytest.approx(2.0, abs=1e-15)

    def test_exponential_special_case(self):
        # nu = 1/2 is the exponential kernel
        k = MaternKernel(variance=1.0, lengthscale=1.0, smoothness=0.5)
        assert matern_eval(k, 1.0) == pytest.approx(math.exp(-1.0), rel=1e-12)

    def test_long_lag_decays_to_zero(self):
        k = MaternKernel(variance=1.0, lengthscale=1.0, smoothness=1.5)
        assert abs(matern_eval(k, 100.0)) < 1e-10

    @pytest.mark.parametrize("smoothness", [0.5, 1.5, 2.5])
    def test_matches_closed_form_oracle(self, smoothness):
        k = MaternKernel(variance=1.7, lengthscale=2.3, smoothness=smoothness)
        for lag in [0.0, 0.3, 1.0, 2.5, 7.0, -4.0]:
            expected = oracles.matern_value(1.7, 2.3, smoothness, lag)
            assert matern_eval(k, lag) == pytest.approx(expected, rel=1e-12)

    def test_symmetry_in_lag(self):
        k = MaternKernel(variance=1.0, lengthscale=1.5, smoothness=2.5)
        lags = np.linspace(0.0, 6.0, 13)
        np.testing.assert_allclose(matern_eval(k, lags), matern_eval(k, -lags))

    def test_unsupported_smoothness_rejected(self):
        with pytest.raises(ValueError):
            MaternKernel(variance=1.0, lengthscale=1.0, smoothness=1.0)

    @pytest.mark.parametrize("field", ["variance", "lengthscale"])
    def test_nonpositive_parameters_rejected(self, field):
        kwargs = {"variance": 1.0, "lengthscale": 1.0, "smoothness": 1.5}
        kwargs[field] = 0.0
        with pytest.raises(ValueError):
            MaternKernel(**kwargs)


class TestMaternGrad:
    """Gradients are taken with respect to log(variance) and log(lengthscale)."""

    @pytest.mark.parametrize("smoothness", [0.5, 1.5, 2.5])
    @pytest.mark.parametrize("lag", [0.0, 0.4, 1.3, 5.0])
    def test_matches_central_differences(self, smoothness, lag):
        var, ell = 1.4, 2.1

        def value(logs):
            return oracles.matern_value(
                math.exp(logs[0]), math.exp(logs[1]), smoothness, lag
            )

        fd = oracles.central_difference(value, np.log([var, ell]), eps=1e-6)
        d_var, d_ell = matern_grad(
            MaternKernel(variance=var, lengthscale=ell, smoothness=smoothness), lag
        )
        assert float(d_var) == pytest.approx(fd[0], abs=1e-7)
        assert float(d_ell) == pytest.approx(fd[1], abs=1e-7)

    def test_variance_gradient_is_kernel_value(self):
        k = MaternKernel(variance=2.0, lengthscale=1.0, smoothness=1.5)
        lags = np.array([0.0, 1.0, 3.0])
        d_var, _ = matern_grad(k, lags)
        np.testing.assert_allclose(d_var, matern_eval(k, lags))


class TestTaskCovariance:
    def test_identity_factor(self):
        np.testing.assert_array_equal(
            task_cov_assemble(TaskCovariance(np.eye(2))), np.eye(2)
        )

    def test_hand_expanded_two_by_two(self):
        L = np.array([[1.0, 0.0], [2.0, 1.0]])
        np.testing.assert_allclose(
            task_cov_assemble(TaskCovariance(L)),
            np.array([[1.0, 2.0], [2.0, 5.0]]),
        )

    def test_symmetric_positive_definite(self):
        rng = np.random.default_rng(0)
        L = np.tril(rng.normal(size=(4, 4)))
        np.fill_diagonal(L, np.abs(np.diag(L)) + 0.5)
        K = task_cov_assemble(TaskCovariance(L))
        np.testing.assert_allclose(K, K.T)
        assert np.linalg.eigvalsh(K).min() > 0

    def test_nonpositive_diagonal_rejected(self):
        with pytest.raises(ValueError):
            TaskCovariance(np.array([[1.0, 0.0], [1.0, 0.0]]))

    def test_upper_triangle_rejected(self):
        with pytest.raises(ValueError):
            TaskCovariance(np.array([[1.0, 0.5], [0.0, 1.0]]))


class TestGaussianLogpdf:
    @staticmethod
    def laws(rng, batch, m):
        """Residuals and SPD covariances of shape batch + (m,) and batch + (m, m)."""
        B = rng.normal(size=batch + (m, m))
        cov = B @ np.swapaxes(B, -1, -2) + 0.5 * np.eye(m)
        return rng.normal(size=batch + (m,)), cov

    def test_batch_matches_scipy(self):
        rng = np.random.default_rng(0)
        diff, cov = self.laws(rng, (3, 4), 5)
        got = gaussian_logpdf(diff, np.linalg.cholesky(cov))
        assert got.shape == (3, 4)
        for k in np.ndindex(3, 4):
            want = scipy.stats.multivariate_normal.logpdf(diff[k], cov=cov[k])
            assert got[k] == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_single_vector_matches_scipy(self):
        diff, cov = self.laws(np.random.default_rng(1), (), 4)
        got = gaussian_logpdf(diff, np.linalg.cholesky(cov))
        assert np.shape(got) == ()
        want = scipy.stats.multivariate_normal.logpdf(diff, cov=cov)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


class TestLogsumexp:
    @pytest.mark.parametrize("axis", [None, 0, 1])
    def test_matches_scipy_with_vanished_entries(self, axis):
        rng = np.random.default_rng(7)
        a = rng.normal(scale=30.0, size=(5, 40))
        a[rng.random(a.shape) < 0.3] = -np.inf
        a[2] = -np.inf  # an all--inf row
        a[:, 3] = -np.inf  # and column
        got = logsumexp(a, axis=axis)
        want = scipy.special.logsumexp(a, axis=axis)
        assert np.shape(got) == np.shape(want)
        np.testing.assert_allclose(got, want, rtol=1e-14)

    def test_all_vanished_input_gives_minus_infinity(self):
        assert logsumexp(np.full(4, -np.inf)) == -np.inf

    def test_nan_propagates(self):
        a = np.array([[0.0, np.nan, -np.inf], [1.0, 2.0, 3.0]])
        assert np.isnan(logsumexp(a))
        got = logsumexp(a, axis=1)
        assert np.isnan(got[0]) and got[1] == pytest.approx(scipy.special.logsumexp(a[1]))

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(
        rows=st.integers(1, 6),
        cols=st.integers(1, 8),
        axis=st.sampled_from([None, 0, 1, -1]),
        seed=st.integers(0, 10_000),
    )
    def test_bitwise_equal_to_the_split_peak_oracle(self, rows, cols, axis, seed):
        rng = np.random.default_rng(seed)
        # few distinct values, so ties within a row, a column or the whole
        # array are common
        a = rng.choice([-3.5, -1.0, 0.0, 0.25, 2.0, 700.0], size=(rows, cols))
        a += rng.normal(scale=40.0, size=a.shape) * (rng.random(a.shape) < 0.3)
        a[rng.random(a.shape) < 0.2] = -np.inf
        a[rng.integers(rows)] = -np.inf  # an all--inf row
        if rng.random() < 0.3:
            a[rng.integers(rows), rng.integers(cols)] = np.nan
        got = np.asarray(logsumexp(a, axis=axis))
        want = np.asarray(oracles.split_peak_logsumexp(a, axis=axis))
        assert got.shape == want.shape
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))
