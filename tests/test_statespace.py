"""State-space form of the Matern emissions.

The Kalman route must reproduce dense Gaussian conditioning on the segment
window; every per-row conditional is checked against a direct dense oracle.
"""

from dataclasses import replace

import numpy as np
import pytest

import helpers
import oracles
from switchgp import statespace
from switchgp.kernels import MaternKernel, gram_matrix, task_cov_assemble

SMOOTHNESS = [0.5, 1.5, 2.5]


def kalman_segment_logdensity(model, state, rows, mask=None):
    """Sum of per-row Kalman log-densities for one segment.

    Mirrors the filter's driver: stationary prior for the first row, then
    predict/update per row.
    """
    e = model.emissions[state]
    ss = statespace.build_statespace(e, model.noise)
    pm = np.zeros((1, ss.A.shape[0]))
    pc = ss.P0[None, :, :].copy()
    total = 0.0
    for t in range(rows.shape[0]):
        m = np.ones(rows.shape[1], dtype=bool) if mask is None else mask[t]
        if t > 0:
            pm, pc = statespace.predict(ss, pm, pc)
        pm, pc, ld = statespace.update(ss, e.mean, model.noise, pm, pc, rows[t], m)
        total += float(ld[0])
    return total


class TestContinuousForm:
    @pytest.mark.parametrize("nu", SMOOTHNESS)
    def test_stationary_output_variance_is_kernel_variance(self, nu):
        _, _, _, pinf = statespace.matern_sde(MaternKernel(1.7, 2.3, nu))
        assert pinf[0, 0] == pytest.approx(1.7, rel=1e-10)

    @pytest.mark.parametrize("nu,dim", [(0.5, 1), (1.5, 2), (2.5, 3)])
    def test_state_dimension(self, nu, dim):
        F, L, _, pinf = statespace.matern_sde(MaternKernel(1.0, 1.0, nu))
        assert F.shape == (dim, dim)
        assert L.shape == (dim, 1)
        assert pinf.shape == (dim, dim)

    @pytest.mark.parametrize("nu", SMOOTHNESS)
    def test_lyapunov_residual_vanishes(self, nu):
        # P_inf solves F P + P F^T + q L L^T = 0
        F, L, q, pinf = statespace.matern_sde(MaternKernel(0.9, 1.4, nu))
        resid = F @ pinf + pinf @ F.T + q * (L @ L.T)
        np.testing.assert_allclose(resid, 0.0, atol=1e-10)


class TestDiscretize:
    @pytest.mark.parametrize("nu", SMOOTHNESS)
    def test_transition_is_stable(self, nu):
        A, _, _ = statespace.discretize(MaternKernel(1.0, 3.0, nu))
        assert np.max(np.abs(np.linalg.eigvals(A))) < 1.0

    @pytest.mark.parametrize("nu", SMOOTHNESS)
    def test_process_noise_psd(self, nu):
        _, Q, _ = statespace.discretize(MaternKernel(2.0, 0.7, nu))
        assert np.min(np.linalg.eigvalsh(Q)) >= -1e-12

    @pytest.mark.parametrize("nu", SMOOTHNESS)
    @pytest.mark.parametrize("ell", [0.6, 2.0, 9.0])
    def test_grid_covariance_matches_kernel_gram(self, nu, ell):
        # transition powers and kernel evaluations are independent routes
        kernel = MaternKernel(1.3, ell, nu)
        A, _, P_inf = statespace.discretize(kernel)
        via_sde = oracles.grid_covariance(A, P_inf, 16)
        via_kernel = gram_matrix(kernel, 16)
        np.testing.assert_allclose(via_sde, via_kernel, rtol=0, atol=1e-10)


class TestJointStateSpace:
    def test_transition_is_channel_block_diagonal(self):
        model = helpers.random_model(A=1, P=3, seed=5)
        e = model.emissions[0]
        ss = statespace.build_statespace(e, model.noise)
        unit = MaternKernel(1.0, e.temporal.lengthscale, e.temporal.smoothness)
        a1, _, _ = statespace.discretize(unit)
        np.testing.assert_allclose(ss.A, np.kron(np.eye(3), a1), atol=1e-12)

    def test_stationary_observation_is_prior_marginal(self):
        model = helpers.random_model(A=1, P=3, seed=7)
        e = model.emissions[0]
        ss = statespace.build_statespace(e, model.noise)
        mean, cov = statespace.stationary_observation(ss, e.mean, model.noise)
        expected = e.temporal.variance * task_cov_assemble(e.task)
        expected = expected + np.diag(model.noise.per_feature_variance)
        np.testing.assert_allclose(mean, e.mean)
        np.testing.assert_allclose(cov, expected, atol=1e-9)

    def test_first_row_update_matches_stationary_density(self):
        model = helpers.random_model(A=1, P=2, seed=11)
        e = model.emissions[0]
        ss = statespace.build_statespace(e, model.noise)
        row = np.array([0.4, -1.1])
        got = kalman_segment_logdensity(model, 0, row[None, :])
        want = oracles.segment_logdensity(e, model.noise, row[None, :])
        assert got == pytest.approx(want, abs=1e-10)


class TestKalmanMatchesDense:
    @pytest.mark.parametrize("P,d", [(1, 1), (1, 7), (2, 5), (3, 9)])
    def test_full_observation(self, P, d):
        model = helpers.random_model(A=2, P=P, cap=max(d, 2), seed=P * 10 + d)
        rng = np.random.default_rng(d)
        rows = rng.normal(size=(d, P))
        for j in range(2):
            e = model.emissions[j]
            dense = oracles.segment_logdensity(e, model.noise, rows)
            kal = kalman_segment_logdensity(model, j, rows)
            assert kal == pytest.approx(dense, abs=1e-9)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_partial_masks(self, seed):
        rng = np.random.default_rng(100 + seed)
        P, d = 3, 8
        model = helpers.random_model(A=2, P=P, cap=d, seed=seed)
        rows = rng.normal(size=(d, P))
        mask = rng.random(size=(d, P)) < 0.6
        mask[0, 0] = True  # keep at least one observation
        e = model.emissions[1]
        dense = oracles.segment_logdensity(e, model.noise, rows, mask=mask)
        kal = kalman_segment_logdensity(model, 1, rows, mask=mask)
        assert kal == pytest.approx(dense, abs=1e-9)

    def test_fully_masked_rows_pass_prediction_through(self):
        model = helpers.random_model(A=1, P=2, cap=6, seed=3)
        rng = np.random.default_rng(8)
        rows = rng.normal(size=(5, 2))
        mask = np.ones((5, 2), dtype=bool)
        mask[2] = False
        e = model.emissions[0]
        dense = oracles.segment_logdensity(e, model.noise, rows, mask=mask)
        kal = kalman_segment_logdensity(model, 0, rows, mask=mask)
        assert kal == pytest.approx(dense, abs=1e-9)

    def test_update_with_empty_mask_returns_zero_evidence(self):
        model = helpers.random_model(A=1, P=2, seed=4)
        e = model.emissions[0]
        ss = statespace.build_statespace(e, model.noise)
        pm = np.zeros((3, ss.A.shape[0]))
        pc = np.broadcast_to(ss.P0, (3,) + ss.P0.shape).copy()
        row = np.array([1.0, 2.0])
        nm, nc, ld = statespace.update(
            ss, e.mean, model.noise, pm, pc, row, np.zeros(2, dtype=bool)
        )
        np.testing.assert_array_equal(nm, pm)
        np.testing.assert_array_equal(nc, pc)
        np.testing.assert_array_equal(ld, np.zeros(3))

    def test_smoothness_variants_agree_with_dense(self):
        # state dimension differs per smoothness; the densities must not
        for nu in SMOOTHNESS:
            model = helpers.random_model(A=1, P=2, cap=6, seed=21)
            e = model.emissions[0]
            e = type(e)(
                mean=e.mean,
                temporal=MaternKernel(e.temporal.variance, e.temporal.lengthscale, nu),
                task=e.task,
            )
            model = type(model)(
                durations=model.durations,
                transitions=model.transitions,
                emissions=(e,),
                noise=model.noise,
                duration_cap=model.duration_cap,
            )
            rng = np.random.default_rng(31)
            rows = rng.normal(size=(6, 2))
            dense = oracles.segment_logdensity(e, model.noise, rows)
            kal = kalman_segment_logdensity(model, 0, rows)
            assert kal == pytest.approx(dense, abs=1e-9)


class TestCovarianceTable:
    @pytest.mark.parametrize("nu", SMOOTHNESS)
    def test_clean_path_matches_joint_path(self, nu):
        model = helpers.random_model(A=1, P=3, cap=8, seed=41)
        e = model.emissions[0]
        e = replace(e, temporal=replace(e.temporal, smoothness=nu))
        ss = statespace.build_statespace(e, model.noise)
        table = statespace.CovarianceTable(ss, model.noise)
        rows = np.random.default_rng(42).normal(size=(8, 3))
        full = np.ones(3, dtype=bool)
        jm = cm = np.zeros((2, ss.A.shape[0]))
        joint = np.stack([ss.P0, ss.P0])
        clean = statespace.TableCovs(table, 0, 2)
        for t in range(7):
            if t > 0:
                jm, joint = statespace.predict(ss, jm, joint)
                cm, clean = statespace.predict(ss, cm, clean)
            np.testing.assert_allclose(clean.dense()[0], joint[0], rtol=0, atol=1e-12)
            jo = statespace.observation_conditionals(ss, e.mean, model.noise, jm, joint)
            co = statespace.observation_conditionals(ss, e.mean, model.noise, cm, clean)
            np.testing.assert_allclose(co[0], jo[0], rtol=0, atol=1e-12)
            np.testing.assert_allclose(co[1][0], jo[1][0], rtol=0, atol=1e-12)
            assert not co[1].flags.writeable
            jm, joint, jl = statespace.update(ss, e.mean, model.noise, jm, joint, rows[t], full)
            cm, clean, cl = statespace.update(ss, e.mean, model.noise, cm, clean, rows[t], full)
            np.testing.assert_allclose(cm[0], jm[0], rtol=0, atol=1e-12)
            assert cl[0] == pytest.approx(jl[0], abs=1e-12)
            # the second hypothesis absorbed the same rows one step later
            joint[1], jm[1] = clean.dense()[1], cm[1]
            assert table.size <= t + 3

        # a row with a missing feature leaves the table for joint covariances
        jm, joint = statespace.predict(ss, jm, joint)
        cm, clean = statespace.predict(ss, cm, clean)
        partial = np.array([True, False, True])
        jm, joint, jl = statespace.update(ss, e.mean, model.noise, jm, joint, rows[7], partial)
        cm, dense, cl = statespace.update(ss, e.mean, model.noise, cm, clean, rows[7], partial)
        np.testing.assert_allclose(dense[0], joint[0], rtol=0, atol=1e-12)
        np.testing.assert_allclose(cl[0], jl[0], rtol=0, atol=1e-12)
