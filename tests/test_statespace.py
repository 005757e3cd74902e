"""State-space form of the Matern emissions.

The Kalman route must reproduce dense Gaussian conditioning on the segment
window; every per-row conditional is checked against a direct dense oracle.
"""

from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg

import helpers
import oracles
from switchgp import statespace
from switchgp.kernels import MaternKernel, task_cov_assemble

SMOOTHNESS = [0.5, 1.5, 2.5]


def kalman_segment_logdensity(model, state, rows, mask=None):
    """Sums of per-row Kalman log-densities for one segment, two ways.

    Mirrors the filter's driver: predict/update per row. The segment is
    scored by the slot that `update` starts fresh at the first row (on the
    table while the rows are fully observed), and by a joint slot that
    enters with the stationary prior and always sits one slot behind it.
    """
    ss = statespace.StateSpace(model, [state])
    T = rows.shape[0]
    slots = statespace.Slots(np.zeros((1, 1, ss.A.shape[1])), 0, ss.dense(0, 1))
    total = np.zeros(2)
    for t in range(T):
        m = np.ones(rows.shape[1], dtype=bool) if mask is None else mask[t]
        if t > 0:
            slots = statespace.predict(ss, slots)
        slots, ld = statespace.update(ss, slots, rows[t], m, T + 1)
        total += ld[0, t : t + 2]
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
        via_kernel = oracles.dense_gram(kernel, 16)
        np.testing.assert_allclose(via_sde, via_kernel, rtol=0, atol=1e-10)


class TestJointStateSpace:
    def test_transition_is_channel_block_diagonal(self):
        model = helpers.random_model(A=1, P=3, seed=5)
        e = model.emissions[0]
        ss = statespace.StateSpace(model, [0])
        unit = MaternKernel(1.0, e.temporal.lengthscale, e.temporal.smoothness)
        a1, _, _ = statespace.discretize(unit)
        np.testing.assert_allclose(ss.A[0], np.kron(np.eye(3), a1), atol=1e-12)
        # process noise and prior are the block diagonals of their channel blocks
        for joint, blocks in ((ss.Q[0], ss.Q1[0]), (ss.dense(0, 1)[0, 0], ss.P0[0])):
            want = scipy.linalg.block_diag(*blocks)
            np.testing.assert_array_equal(joint, want)

    def test_stationary_observation_is_prior_marginal(self):
        # a fresh segment's law: the emission mean and table entry 0
        model = helpers.random_model(A=1, P=3, seed=7)
        e = model.emissions[0]
        ss = statespace.StateSpace(model, [0])
        cov = ss.rows("ycov", 0, 1)[0, 0]
        expected = e.temporal.variance * task_cov_assemble(e.task)
        expected = expected + np.diag(model.noise.per_feature_variance)
        np.testing.assert_allclose(ss.mean[0], e.mean)
        np.testing.assert_allclose(cov, expected, atol=1e-9)

    def test_first_row_update_matches_stationary_density(self):
        model = helpers.random_model(A=1, P=2, seed=11)
        e = model.emissions[0]
        row = np.array([0.4, -1.1])
        got = kalman_segment_logdensity(model, 0, row[None, :])
        want = oracles.segment_logdensity(e, model.noise, row[None, :])
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-10)


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
            np.testing.assert_allclose(kal, dense, rtol=0, atol=1e-9)

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
        np.testing.assert_allclose(kal, dense, rtol=0, atol=1e-9)

    def test_fully_masked_rows_pass_prediction_through(self):
        model = helpers.random_model(A=1, P=2, cap=6, seed=3)
        rng = np.random.default_rng(8)
        rows = rng.normal(size=(5, 2))
        mask = np.ones((5, 2), dtype=bool)
        mask[2] = False
        e = model.emissions[0]
        dense = oracles.segment_logdensity(e, model.noise, rows, mask=mask)
        kal = kalman_segment_logdensity(model, 0, rows, mask=mask)
        np.testing.assert_allclose(kal, dense, rtol=0, atol=1e-9)

    def test_update_with_empty_mask_returns_zero_evidence(self):
        model = helpers.random_model(A=1, P=2, seed=4)
        ss = statespace.StateSpace(model, [0])
        n = ss.A.shape[1]
        pm = np.random.default_rng(4).normal(size=(1, 3, n))
        pc = np.broadcast_to(ss.dense(0, 1), (1, 3, n, n)).copy()
        row = np.array([1.0, 2.0])
        out, ld = statespace.update(
            ss, statespace.Slots(pm, 0, pc), row, np.zeros(2, dtype=bool), 4
        )
        # the fresh slot joins in front with the stationary prior
        assert out.clean == 0
        np.testing.assert_array_equal(
            out.means, np.concatenate([np.zeros((1, 1, n)), pm], axis=1)
        )
        np.testing.assert_array_equal(
            out.covs, np.concatenate([ss.dense(0, 1), pc], axis=1)
        )
        np.testing.assert_array_equal(ld, np.zeros((1, 4)))

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
            np.testing.assert_allclose(kal, dense, rtol=0, atol=1e-9)


class TestCovarianceTable:
    @pytest.mark.parametrize("nu", SMOOTHNESS)
    def test_clean_path_matches_joint_path(self, nu):
        # a stack of two states with one smoothness
        model = helpers.random_model(A=2, P=3, cap=8, seed=41)
        emissions = tuple(
            replace(e, temporal=replace(e.temporal, smoothness=nu)) for e in model.emissions
        )
        model = replace(model, emissions=emissions)
        ss = statespace.StateSpace(model, [0, 1])
        rows = np.random.default_rng(42).normal(size=(8, 3))
        full = np.ones(3, dtype=bool)
        # A joint slot with the stationary prior enters behind the fresh slot
        # of row 0, so after each row slot t (clean) and slot t + 1 (joint)
        # hold the same hypothesis. `clean` runs the same rows from nothing.
        n = ss.A.shape[1]
        mixed = statespace.Slots(np.zeros((2, 1, n)), 0, ss.dense(0, 1))
        clean = None
        for t in range(7):
            if t > 0:
                mixed = statespace.predict(ss, mixed)
                clean = statespace.predict(ss, clean)
                np.testing.assert_allclose(
                    ss.dense(t, t + 1)[:, 0], mixed.covs[:, 0], rtol=0, atol=1e-12
                )
                om, oc = statespace.observation_conditionals(ss, mixed)
                np.testing.assert_allclose(om[:, t - 1], om[:, t], rtol=0, atol=1e-12)
                np.testing.assert_allclose(oc[:, t - 1], oc[:, t], rtol=0, atol=1e-12)
                # with no joint slot the covariances are read-only table views
                co = statespace.observation_conditionals(ss, clean)
                np.testing.assert_allclose(co[0], om[:, :t], rtol=0, atol=1e-12)
                np.testing.assert_array_equal(co[1], oc[:, :t])
                assert not co[1].flags.writeable
            mixed, ml = statespace.update(ss, mixed, rows[t], full, 9)
            clean, cl = statespace.update(ss, clean, rows[t], full, 9)
            assert (mixed.clean, clean.clean, mixed.covs.shape[1]) == (t + 1, t + 1, 1)
            np.testing.assert_allclose(
                mixed.means[:, t], mixed.means[:, t + 1], rtol=0, atol=1e-12
            )
            np.testing.assert_allclose(ml[:, t], ml[:, t + 1], rtol=0, atol=1e-12)
            np.testing.assert_allclose(cl, ml[:, : t + 1], rtol=0, atol=1e-12)
            assert ss.size <= t + 3

        # a row with a missing feature turns every slot joint
        mixed = statespace.predict(ss, mixed)
        clean = statespace.predict(ss, clean)
        partial = np.array([True, False, True])
        mixed, ml = statespace.update(ss, mixed, rows[7], partial, 9)
        clean, cl = statespace.update(ss, clean, rows[7], partial, 9)
        assert (mixed.clean, clean.clean) == (0, 0)
        np.testing.assert_allclose(mixed.covs[:, 7], mixed.covs[:, 8], rtol=0, atol=1e-12)
        np.testing.assert_allclose(ml[:, 7], ml[:, 8], rtol=0, atol=1e-12)
        np.testing.assert_allclose(clean.covs, mixed.covs[:, :8], rtol=0, atol=1e-12)
        np.testing.assert_allclose(cl, ml[:, :8], rtol=0, atol=1e-12)

    @staticmethod
    def run_stacks(model):
        """Space, final slots and every call's outputs of the stack of states
        0-2, then of each state alone, on clean, joint and empty rows."""
        rows = np.random.default_rng(44).normal(size=(10, 3))
        masks = np.ones((10, 3), dtype=bool)
        masks[4, 1] = False
        masks[7] = False
        out = []
        for states in ([0, 1, 2], [0], [1], [2]):
            ss = statespace.StateSpace(model, states)
            slots, lds = None, []
            for t in range(10):
                if t > 0:
                    slots = statespace.predict(ss, slots)
                    lds.append(statespace.observation_conditionals(ss, slots))
                slots, ld = statespace.update(ss, slots, rows[t], masks[t], 6)
                lds.append((ld,))
            out.append((ss, slots, lds))
        return out

    def test_stack_matches_one_state_at_a_time(self):
        # every state of a stack gets bitwise the moments and densities it
        # gets alone
        model = helpers.random_model(A=3, P=3, cap=6, seed=43)
        (_, stacked, stacked_lds), *singles = self.run_stacks(model)
        for j, (_, slots, lds) in enumerate(singles):
            np.testing.assert_array_equal(stacked.means[j], slots.means[0])
            np.testing.assert_array_equal(stacked.covs[j], slots.covs[0])
            for got, want in zip(stacked_lds, lds):
                for a, b in zip(got, want):
                    np.testing.assert_array_equal(a[j], b[0])

    def test_padded_stack_matches_one_state_at_a_time(self):
        # nu = 1/2 and 3/2 fill the leading components of each channel's
        # three; the padding stays exactly 0
        model = helpers.random_model(A=3, P=3, cap=6, seed=43)
        emissions = tuple(
            replace(e, temporal=replace(e.temporal, smoothness=nu))
            for e, nu in zip(model.emissions, SMOOTHNESS)
        )
        model = replace(model, emissions=emissions)
        (ss, stacked, stacked_lds), *singles = self.run_stacks(model)
        assert ss.dim == 3
        for j, (one, slots, lds) in enumerate(singles):
            s = one.dim
            means = stacked.means[j].reshape(-1, 3, 3)
            covs = stacked.covs[j].reshape(-1, 3, 3, 3, 3)
            assert not np.any(means[..., s:])
            assert not np.any(covs[..., s:, :, :]) and not np.any(covs[..., s:])
            np.testing.assert_allclose(
                means[..., :s].reshape(slots.means[0].shape), slots.means[0], rtol=0, atol=1e-12
            )
            np.testing.assert_allclose(
                covs[..., :s, :, :s].reshape(slots.covs[0].shape), slots.covs[0], rtol=0, atol=1e-12
            )
            for got, want in zip(stacked_lds, lds):
                for a, b in zip(got, want):
                    np.testing.assert_allclose(a[j], b[0], rtol=0, atol=1e-12)
