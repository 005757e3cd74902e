"""Circulant embedding and FFT likelihood tests.

Dense oracles come from scipy.linalg.toeplitz / numpy.linalg; the fast
segment likelihood is compared against the O((TP)^3) exact path.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.fft
import scipy.linalg

import helpers
from switchgp import circulant, likelihood
from switchgp.data import generate_synthetic
from switchgp.circulant import (
    CirculantSpec,
    circulant_logdet_solve,
    embed_circulant,
    fast_segment_loglik,
    toeplitz_matvec,
)
from switchgp.errors import SingularEmbeddingError
from switchgp.gp_predict import exact_segment_loglik
from switchgp.kernels import MaternKernel, NoiseModel, TaskCovariance, matern_eval
from switchgp.model import (
    GammaDuration,
    SegmentedSeries,
    StateEmission,
    SwitchingGPModel,
    TransitionMatrix,
    segment_series,
)


def dense_circulant(first_row):
    """Dense circulant matrix with the given first row."""
    n = len(first_row)
    return np.array([[first_row[(j - i) % n] for j in range(n)] for i in range(n)])


class TestEmbedCirculant:
    def test_length_three_column(self):
        spec = embed_circulant([1.0, 0.5, 0.25])
        np.testing.assert_allclose(spec.first_row, [1.0, 0.5, 0.25, 0.5])

    def test_minimal_column(self):
        spec = embed_circulant([1.0, 0.3])
        np.testing.assert_allclose(spec.first_row, [1.0, 0.3])

    def test_length_four_column(self):
        spec = embed_circulant([1.0, 0.5, 0.25, 0.125])
        np.testing.assert_allclose(
            spec.first_row, [1.0, 0.5, 0.25, 0.125, 0.25, 0.5]
        )

    def test_short_column_rejected(self):
        with pytest.raises(ValueError):
            embed_circulant([1.0])

    @pytest.mark.parametrize("T", [1, 2, 5, 16])
    def test_principal_submatrix_is_the_toeplitz(self, T):
        k = MaternKernel(variance=1.2, lengthscale=3.0, smoothness=1.5)
        col = matern_eval(k, np.arange(T + 1, dtype=float))
        spec = embed_circulant(col)
        C = dense_circulant(spec.first_row)
        np.testing.assert_allclose(
            C[: T + 1, : T + 1], scipy.linalg.toeplitz(col), atol=1e-12
        )


class TestCirculantEigenvalues:
    def test_hand_computed_case(self):
        spec = CirculantSpec(np.array([2.0, 1.0, 0.0, 1.0]))
        np.testing.assert_allclose(spec.eigenvalues.real, [4.0, 2.0, 0.0, 2.0], atol=1e-12)

    def test_scaled_identity(self):
        spec = CirculantSpec(np.array([3.5, 0.0, 0.0, 0.0, 0.0]))
        np.testing.assert_allclose(spec.eigenvalues.real, np.full(5, 3.5), atol=1e-12)

    def test_constant_column_concentrates_mass(self):
        T = 6
        spec = embed_circulant(np.full(T + 1, 0.7))
        lam = spec.eigenvalues.real
        expected = np.zeros(2 * T)
        expected[0] = 2 * T * 0.7
        np.testing.assert_allclose(lam, expected, atol=1e-12)

    def test_matches_dense_eigenvalues(self):
        rng = np.random.default_rng(3)
        col = rng.normal(size=5)
        spec = embed_circulant(col)
        dense = dense_circulant(spec.first_row)
        got = np.sort(spec.eigenvalues.real)
        np.testing.assert_allclose(got, np.sort(np.linalg.eigvalsh(dense)), atol=1e-10)


class TestMatvec:
    @pytest.mark.parametrize("T", [1, 4, 17, 64])
    def test_toeplitz_matvec_exact(self, T):
        # embedding must not leak into the Toeplitz product at all
        k = MaternKernel(variance=2.0, lengthscale=T / 6.0 + 0.5, smoothness=1.5)
        col = matern_eval(k, np.arange(T + 1, dtype=float))
        spec = embed_circulant(col)
        rng = np.random.default_rng(T + 100)
        vec = rng.normal(size=T + 1)
        expected = scipy.linalg.toeplitz(col) @ vec
        np.testing.assert_allclose(toeplitz_matvec(spec, vec), expected, atol=1e-9)

    def test_matrix_right_hand_sides(self):
        rng = np.random.default_rng(9)
        col = np.array([2.0, 0.8, 0.3, 0.1])
        spec = embed_circulant(col)
        block = rng.normal(size=(4, 3))
        expected = scipy.linalg.toeplitz(col) @ block
        np.testing.assert_allclose(toeplitz_matvec(spec, block), expected, atol=1e-9)

    def test_overlong_vector_rejected(self):
        spec = embed_circulant([1.0, 0.5, 0.25])
        with pytest.raises(ValueError):
            toeplitz_matvec(spec, np.ones(4))


class TestLogdetSolve:
    def test_scaled_identity_closed_form(self):
        spec = CirculantSpec(np.array([2.0, 0.0, 0.0, 0.0]))
        logdet, sol = circulant_logdet_solve(spec, np.ones(4))
        assert logdet == pytest.approx(4.0 * math.log(2.0), rel=1e-12)
        np.testing.assert_allclose(sol, np.full(4, 0.5), atol=1e-12)

    @pytest.mark.parametrize("T", [2, 5, 8])
    def test_random_pd_matches_dense(self, T):
        # diagonally dominant first column keeps the embedding PD
        rng = np.random.default_rng(T)
        col = np.concatenate([[3.0], rng.uniform(-0.2, 0.2, size=T)])
        spec = embed_circulant(col)
        dense = dense_circulant(spec.first_row)
        rhs = rng.normal(size=spec.size)
        logdet, sol = circulant_logdet_solve(spec, rhs)
        assert logdet == pytest.approx(np.linalg.slogdet(dense)[1], abs=1e-8)
        np.testing.assert_allclose(sol, np.linalg.solve(dense, rhs), atol=1e-8)

    def test_singular_embedding_raises(self):
        # constant column: all eigenvalue mass at index 0, zeros elsewhere
        spec = embed_circulant(np.full(4, 1.0))
        with pytest.raises(SingularEmbeddingError) as info:
            circulant_logdet_solve(spec, np.ones(spec.size))
        assert info.value.fourier_index is not None


class TestFastSegmentLoglik:
    @pytest.mark.parametrize("P", [1, 3, 5])
    @pytest.mark.parametrize("nu", [0.5, 1.5, 2.5])
    def test_single_step_is_exact(self, nu, P):
        # at one row the embedding is the 1 x 1 Toeplitz matrix itself
        model = helpers.random_model(A=1, P=P, seed=2)
        e = model.emissions[0]
        e = replace(e, temporal=replace(e.temporal, smoothness=nu))
        values = np.random.default_rng(0).normal(size=(1, P))
        fast = fast_segment_loglik(e, model.noise, values)
        exact = exact_segment_loglik(e, model.noise, values)
        assert fast == pytest.approx(exact, rel=1e-12)

    def test_single_step_takes_the_embedding_formula(self, monkeypatch):
        solve, solved = circulant._block_preconditioned_cg, []

        def spy(m, lam_mu, B):
            solved.append((m, B.shape))
            return solve(m, lam_mu, B)

        monkeypatch.setattr(circulant, "_block_preconditioned_cg", spy)
        model = helpers.random_model(A=1, P=3, seed=2)
        fast_segment_loglik(model.emissions[0], model.noise, np.ones((1, 3)))
        assert solved == [(1, (3, 1))]

    @pytest.mark.parametrize("T", [16, 32, 64])
    def test_scalar_channel_close_to_exact(self, T):
        model = helpers.random_model(A=1, P=1, seed=4, lengthscale=T / 10.0)
        e = model.emissions[0]
        rng = np.random.default_rng(T)
        values = rng.normal(size=(T, 1))
        fast = fast_segment_loglik(e, model.noise, values)
        exact = exact_segment_loglik(e, model.noise, values)
        assert abs(fast - exact) / abs(exact) < 0.02

    def test_zero_residuals_drop_the_quadratic_form(self):
        model = helpers.random_model(A=1, P=2, seed=6)
        e = model.emissions[0]
        T = 24
        at_mean = np.broadcast_to(np.asarray(e.mean, float), (T, 2)).copy()
        fast0 = fast_segment_loglik(e, model.noise, at_mean)
        # the quadratic form is PSD, so the mean maximizes the density ...
        rng = np.random.default_rng(1)
        for _ in range(5):
            assert fast_segment_loglik(e, model.noise, at_mean + rng.normal(size=(T, 2))) < fast0
        # ... and what remains at the mean is the logdet + constant, which
        # must sit within the fast-vs-exact envelope
        exact0 = exact_segment_loglik(e, model.noise, at_mean)
        assert abs(fast0 - exact0) / abs(exact0) < 0.02

    def test_explicit_means_argument(self):
        model = helpers.random_model(A=1, P=2, seed=8)
        e = model.emissions[0]
        rng = np.random.default_rng(5)
        values = rng.normal(size=(12, 2))
        means = rng.normal(size=(12, 2))
        shifted = fast_segment_loglik(e, model.noise, values + 1.5, means=means + 1.5)
        base = fast_segment_loglik(e, model.noise, values, means=means)
        assert shifted == pytest.approx(base, abs=1e-9)

    def test_means_of_another_shape_are_refused(self):
        model = helpers.random_model(A=1, P=2, seed=8)
        values = np.zeros((12, 2))
        with pytest.raises(ValueError, match=r"means shape \(11, 2\)"):
            fast_segment_loglik(model.emissions[0], model.noise, values, means=np.zeros((11, 2)))

    def test_approximation_gap_shrinks_with_length(self):
        # normalized fast-vs-exact gap decreases as the segment grows
        # relative to the lengthscale; allow 10% slack per doubling
        model = helpers.random_model(A=1, P=1, seed=11, lengthscale=2.0)
        e = model.emissions[0]
        rng = np.random.default_rng(21)
        gaps = []
        for T in (16, 32, 64, 128):
            values = rng.normal(size=(T, 1))
            fast = fast_segment_loglik(e, model.noise, values)
            exact = exact_segment_loglik(e, model.noise, values)
            gaps.append(abs(fast - exact) / T)
        for a, b in zip(gaps, gaps[1:]):
            assert b <= a * 1.1 + 1e-12


def quadratic_gap(score, emission, noise, values):
    """score(values) - score(mean): the log-determinant cancels, leaving
    minus half the quadratic form of the residuals."""
    at_mean = np.broadcast_to(np.asarray(emission.mean, float), values.shape)
    return score(emission, noise, values) - score(emission, noise, at_mean)


class TestSolveGrids:
    """The log-determinant is the minimal embedding's (n = 2T - 2); the
    quadratic form is solved exactly on a 5-smooth grid m >= n, or on n
    where the m-grid has a block that is not positive."""

    @pytest.mark.parametrize("T", [24, 192, 384])
    def test_exact_quadratic_form_off_the_minimal_grid(self, T):
        n = 2 * T - 2
        assert scipy.fft.next_fast_len(n, real=True) > n  # n is not 5-smooth
        model = helpers.random_model(A=1, P=3, seed=T, lengthscale=T / 12.0)
        e = model.emissions[0]
        values = e.mean + np.random.default_rng(T).normal(size=(T, 3))
        fast = quadratic_gap(fast_segment_loglik, e, model.noise, values)
        exact = quadratic_gap(exact_segment_loglik, e, model.noise, values)
        assert fast == pytest.approx(exact, rel=1e-9)

    def test_indefinite_fast_grid_stays_on_the_fft_path(self, monkeypatch):
        # nu = 5/2, lengthscale 100 and mu = 10 over T = 24 rows: every block
        # of the minimal embedding (n = 46) is positive, but the kernel's
        # periodic row on the 5-smooth grid m = 48 has a negative one
        T, mu = 24, 10.0
        kernel = MaternKernel(1.0, 100.0, 2.5)
        lags = matern_eval(kernel, np.arange(T, dtype=float))
        periodic = matern_eval(kernel, np.minimum(np.arange(48), 48 - np.arange(48)).astype(float))
        assert np.linalg.eigvalsh(dense_circulant(embed_circulant(lags).first_row)).min() * mu > -1
        assert np.linalg.eigvalsh(dense_circulant(periodic)).min() * mu < -1

        def refuse(*args, **kwargs):
            raise AssertionError("dense fallback")

        monkeypatch.setattr(likelihood, "segment_emission_loglik", refuse)
        # conjugate gradients needs a positive-definite preconditioner
        solve, least_block = circulant._block_preconditioned_cg, []

        def checked(m, lam_mu, B):
            least_block.append(float(np.min(1.0 + lam_mu)))
            return solve(m, lam_mu, B)

        monkeypatch.setattr(circulant, "_block_preconditioned_cg", checked)
        e = StateEmission(np.array([0.5]), kernel, TaskCovariance(np.eye(1)))
        model = SwitchingGPModel(
            durations=[GammaDuration(2.0, 2.0)],
            transitions=TransitionMatrix(np.zeros((1, 1))),
            emissions=[e],
            noise=NoiseModel(np.array([1.0 / mu])),
            duration_cap=T,
        )

        def fft_loglik(emission, noise, values):
            seg = SegmentedSeries(values, labels=np.ones(T, dtype=int))
            return -likelihood.negative_loglik(model, [seg], use_fft=True)

        values = e.mean + np.random.default_rng(5).normal(size=(T, 1))
        fast = quadratic_gap(fft_loglik, e, model.noise, values)
        exact = quadratic_gap(exact_segment_loglik, e, model.noise, values)
        assert fast == pytest.approx(exact, rel=1e-9)
        assert least_block and min(least_block) > 0


class TestConjugateGradientFailure:
    """A quadratic-form solve still short of its tolerance after
    `CG_MAXITER` iterations is a singular embedding; the FFT likelihood then
    scores the segment densely."""

    def test_unconverged_solve_raises(self, monkeypatch):
        monkeypatch.setattr(circulant, "CG_MAXITER", 1)
        model = helpers.random_model(A=1, P=3, seed=3, lengthscale=4.0)
        e = model.emissions[0]
        values = e.mean + np.random.default_rng(3).normal(size=(40, 3))
        with pytest.raises(SingularEmbeddingError, match="failed to converge") as err:
            fast_segment_loglik(e, model.noise, values)
        assert err.value.fourier_index is None

    def test_fft_likelihood_falls_back_to_the_dense_value(self, monkeypatch):
        model = helpers.random_model(A=2, P=2, cap=30, seed=5, lengthscale=4.0)
        series = generate_synthetic(model, 120, seed=6)
        dense = 0.0
        for label, start, dur in segment_series(series.labels):
            rows = series.observations[start : start + dur]
            dense -= exact_segment_loglik(model.emissions[label - 1], model.noise, rows)
        fft = likelihood.negative_loglik(model, [series], use_fft=True)
        assert fft != pytest.approx(dense, rel=1e-9)  # the embedding is an approximation
        monkeypatch.setattr(circulant, "CG_MAXITER", 1)
        got = likelihood.negative_loglik(model, [series], use_fft=True)
        assert got == pytest.approx(dense, rel=1e-12)
