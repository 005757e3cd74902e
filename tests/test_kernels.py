"""Matern kernel, task covariance, Gram matrix, jitter and factorization tests.

Closed-form oracle values live in oracles.matern_value; everything here is
checked against that or against hand-expanded matrices.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from switchgp.errors import NonPositiveDefiniteError
from switchgp.kernels import (
    JITTER,
    MaternKernel,
    TaskCovariance,
    add_jitter,
    chol_or_raise,
    gram_matrix,
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


class TestGramMatrix:
    def test_single_step_grid(self):
        k = MaternKernel(variance=1.3, lengthscale=2.0, smoothness=1.5)
        np.testing.assert_allclose(gram_matrix(k, 0), [[1.3]])

    def test_exponential_row(self):
        k = MaternKernel(variance=1.0, lengthscale=1.0, smoothness=0.5)
        G = gram_matrix(k, 2)
        np.testing.assert_allclose(
            G[0], [1.0, math.exp(-1.0), math.exp(-2.0)], rtol=1e-12
        )

    def test_exact_symmetry(self):
        k = MaternKernel(variance=0.8, lengthscale=3.0, smoothness=2.5)
        G = gram_matrix(k, 7)
        assert np.array_equal(G, G.T)

    def test_matches_entrywise_oracle(self):
        k = MaternKernel(variance=1.1, lengthscale=1.7, smoothness=1.5)
        np.testing.assert_allclose(gram_matrix(k, 5), oracles.dense_gram(k, 5), rtol=1e-13)


class TestJitterAndFactorization:
    @given(
        num_steps=st.integers(min_value=0, max_value=12),
        lengthscale=st.floats(min_value=0.2, max_value=50.0),
        smoothness=st.sampled_from([0.5, 1.5, 2.5]),
    )
    @settings(max_examples=40, deadline=None)
    def test_jittered_gram_is_positive_definite(self, num_steps, lengthscale, smoothness):
        k = MaternKernel(variance=1.0, lengthscale=lengthscale, smoothness=smoothness)
        G = add_jitter(gram_matrix(k, num_steps), k.variance)
        np.linalg.cholesky(G)

    def test_jitter_magnitude(self):
        mat = np.eye(3)
        out = add_jitter(mat, 2.0)
        np.testing.assert_allclose(out, np.eye(3) * (1.0 + 2.0 * JITTER))

    def test_cholesky_round_trip(self):
        rng = np.random.default_rng(4)
        L = np.tril(rng.normal(size=(5, 5)))
        np.fill_diagonal(L, np.abs(np.diag(L)) + 1.0)
        back = chol_or_raise(L @ L.T, "test")
        np.testing.assert_allclose(back, L, atol=1e-10)

    def test_indefinite_matrix_raises_with_state(self):
        bad = np.array([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(NonPositiveDefiniteError) as info:
            chol_or_raise(bad, "test", state=3)
        assert info.value.state == 3
