"""Explicit-duration forward filter: duration table, recursion, predictives.

The recursion is validated against exhaustive enumeration over segmentations
(complete segments scored by duration mass, the ongoing suffix by survival).
"""

import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.special
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
import oracles
from switchgp import kernels, statespace
from switchgp.data import generate_synthetic
from switchgp.errors import FilterCollapseError, NonFiniteObservationError
from switchgp.filtering import (
    ForwardState,
    KalmanBackend,
    ReferenceBackend,
    apply_row,
    build_duration_table,
    forward_init,
    forward_step,
    map_state,
    state_posterior,
    step_predictives,
)
from switchgp.kernels import MaternKernel, NoiseModel, task_cov_assemble
from switchgp.model import GammaDuration, StateEmission, SwitchingGPModel


def run_filter(model, rows, mask=None, backend="kalman"):
    state = forward_init(
        model, rows[0], None if mask is None else mask[0], backend=backend
    )
    for t in range(1, rows.shape[0]):
        state = forward_step(state, rows[t], model, None if mask is None else mask[t])
    return state


def true_path_logdensity(model, series):
    """Joint log-density of a labeled series under its own segmentation.

    Complete segments carry the discretized duration mass; the final one the
    survival mass. Built from the oracle pieces only.
    """
    segs = oracles.run_lengths(series.labels)
    total = math.log(model.initial[segs[0][0] - 1])
    for k, (label, start, dur) in enumerate(segs):
        j = label - 1
        g, S = oracles.gamma_duration_masses(model.durations[j], model.duration_cap)
        last = k == len(segs) - 1
        total += math.log(S[dur - 1] if last else g[dur - 1])
        if not last:
            nxt = segs[k + 1][0] - 1
            p = 1.0 if model.num_states == 1 else model.transitions.probs[j][nxt]
            total += math.log(p)
        total += oracles.segment_logdensity(
            model.emissions[j],
            model.noise,
            series.observations[start : start + dur],
            mask=series.mask[start : start + dur],
        )
    return total


class TestDurationTable:
    def test_masses_match_gamma_cdf_oracle(self):
        model = helpers.random_model(A=3, P=1, cap=6, seed=0)
        tbl = build_duration_table(model)
        for j, gam in enumerate(model.durations):
            g, S = oracles.gamma_duration_masses(gam, 6)
            np.testing.assert_allclose(np.exp(tbl.log_g[j]), g, atol=1e-10)
            np.testing.assert_allclose(np.exp(tbl.log_S[j]), S, atol=1e-10)

    def test_survival_recursion(self):
        # S(d) = g(d) + S(d+1), S(1) = 1, S(D+1) = 0
        model = helpers.random_model(A=2, P=1, cap=5, seed=1)
        tbl = build_duration_table(model)
        g = np.exp(tbl.log_g)
        S = np.exp(tbl.log_S)
        np.testing.assert_allclose(S[:, 0], 1.0, atol=1e-12)
        np.testing.assert_allclose(S[:, :-1], g[:, :-1] + S[:, 1:], atol=1e-12)
        np.testing.assert_allclose(S[:, -1], g[:, -1], atol=1e-12)

    def test_cap_forces_segment_end(self):
        model = helpers.random_model(A=2, P=1, cap=4, seed=2)
        tbl = build_duration_table(model)
        assert np.all(np.isneginf(tbl.cont_ratio[:, -1]))
        np.testing.assert_allclose(tbl.hazard[:, -1], 0.0, atol=1e-12)

    def test_single_state_reenters_itself(self):
        model = helpers.random_model(A=1, P=1, cap=3, seed=3)
        tbl = build_duration_table(model)
        np.testing.assert_array_equal(tbl.log_p, np.zeros((1, 1)))

    def test_untrained_state_excluded_and_rows_renormalized(self):
        model = helpers.random_model(A=3, P=1, cap=3, seed=4)
        model = replace(model, untrained_states=(1,))
        tbl = build_duration_table(model)
        assert np.all(np.isneginf(tbl.log_p[:, 1]))
        assert np.isneginf(tbl.log_pi[1])
        for i in range(3):
            assert scipy.special.logsumexp(tbl.log_p[i]) == pytest.approx(0.0, abs=1e-12)
        assert scipy.special.logsumexp(tbl.log_pi) == pytest.approx(0.0, abs=1e-12)

    # Rebirth kernel a_{(i,d')(j,d)} = p_ij * g_j(d): the source duration d'
    # cancels in the normalization, so the table's log_p and log_g carry it.
    def test_forbidden_same_state_transition(self):
        model = helpers.random_model(A=2, P=1, cap=3, seed=0)
        tbl = build_duration_table(model)
        assert np.all(np.isneginf(np.diag(tbl.log_p)))

    def test_rebirth_normalizes_over_destinations(self):
        model = helpers.random_model(A=3, P=1, cap=4, seed=5)
        tbl = build_duration_table(model)
        kernel = np.exp(tbl.log_p[:, :, None] + tbl.log_g[None, :, :])  # (i, j, d)
        np.testing.assert_allclose(kernel.sum(axis=(1, 2)), 1.0, atol=1e-8)

    def test_rebirth_hand_case_matches_cdf_oracle(self):
        model = helpers.random_model(A=2, P=1, cap=5, seed=6)
        model = replace(
            model, durations=(model.durations[0], type(model.durations[0])(2.0, 1.0))
        )
        g, _ = oracles.gamma_duration_masses(model.durations[1], 5)
        p12 = model.transitions.probs[0][1]
        tbl = build_duration_table(model)
        got = math.exp(tbl.log_p[0, 1] + tbl.log_g[1, 1])
        assert got == pytest.approx(p12 * g[1], abs=1e-10)


def exact_log_masses(shape, scale, cap):
    """log g(d) and log S(d), d = 1..cap, from the upper incomplete gamma
    function at 60 digits; None where the value is below double range."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(60):
        Q = [
            mpmath.gammainc(shape, e / mpmath.mpf(scale), mpmath.inf, regularized=True)
            for e in range(cap + 1)
        ]
        total = 1 - Q[cap]

        def log_or_none(x):
            return float(mpmath.log(x)) if x > mpmath.mpf("1e-300") else None

        log_g = [log_or_none((Q[d - 1] - Q[d]) / total) for d in range(1, cap + 1)]
        log_S = [log_or_none((Q[d - 1] - Q[cap]) / total) for d in range(1, cap + 1)]
    return log_g, log_S


class TestDurationSaturation:
    """Caps far beyond the point where the Gamma CDF rounds to 1."""

    @pytest.mark.parametrize(
        "shape, scale, cap",
        [
            (2.0, 1.0, 5),
            (2.0, 1.0, 80),
            (4.5, 2.0, 80),
            (0.7, 3.0, 60),
            (30.0, 0.2, 40),
            (8.0, 0.5, 300),
            (2.0, 1.0, 1000),
        ],
    )
    def test_table_is_exact_and_nan_free(self, shape, scale, cap):
        base = helpers.random_model(A=1, P=1, cap=cap, seed=0)
        model = replace(base, durations=(GammaDuration(shape, scale),))
        tbl = build_duration_table(model)
        for arr in (tbl.log_g, tbl.log_S, tbl.cont_ratio, tbl.hazard):
            assert not np.any(np.isnan(arr))
        want_g, want_S = exact_log_masses(shape, scale, cap)
        for got, want in ((tbl.log_g[0], want_g), (tbl.log_S[0], want_S)):
            for d, w in enumerate(want):
                if w is None:
                    assert got[d] < -650.0
                elif w > -650.0:
                    assert got[d] == pytest.approx(w, rel=1e-9, abs=1e-9)
        live = np.isfinite(tbl.cont_ratio)
        assert np.all(tbl.cont_ratio[live] <= 0.0)
        assert np.all(tbl.hazard[np.isfinite(tbl.hazard)] <= 1e-12)

    def test_saturated_model_streams_without_collapse(self):
        model = helpers.random_model(A=6, P=10, cap=80, seed=1)
        series = generate_synthetic(model, 12, seed=0)
        state = run_filter(model, series.observations)
        assert np.isfinite(state.log_evidence)
        assert state.log_evidence >= true_path_logdensity(model, series) - 1e-8
        assert state_posterior(state).sum() == pytest.approx(1.0)


class TestForwardInit:
    def test_identical_emissions_give_uniform_posterior(self):
        base = helpers.random_model(A=2, P=2, cap=3, seed=8)
        e = base.emissions[0]
        model = replace(base, emissions=(e, e), initial=np.array([0.5, 0.5]))
        state = forward_init(model, np.array([0.3, -0.8]))
        np.testing.assert_allclose(state_posterior(state), [0.5, 0.5], atol=1e-12)

    def test_separated_emission_pins_state(self):
        model = helpers.separated_model(P=1, gap=10.0)
        row = model.emissions[1].mean
        state = forward_init(model, row)
        assert map_state(state) == 2
        assert state_posterior(state)[1] > 0.99

    def test_single_state_point_mass(self):
        model = helpers.random_model(A=1, P=1, cap=3, seed=9)
        state = forward_init(model, np.array([0.2]))
        np.testing.assert_array_equal(state_posterior(state), [1.0])

    def test_log_evidence_matches_dense_oracle(self):
        model = helpers.random_model(A=3, P=2, cap=3, seed=10)
        row = np.array([0.4, 1.2])
        state = forward_init(model, row)
        terms = [
            math.log(model.initial[j])
            + oracles.segment_logdensity(model.emissions[j], model.noise, row[None, :])
            for j in range(3)
        ]
        assert state.log_evidence == pytest.approx(scipy.special.logsumexp(terms), abs=1e-10)

    def test_fully_masked_first_row_keeps_initial_distribution(self):
        model = helpers.random_model(A=3, P=2, cap=3, seed=11)
        state = forward_init(model, np.zeros(2), mask=np.zeros(2, dtype=bool))
        np.testing.assert_allclose(state_posterior(state), model.initial, atol=1e-12)
        assert state.log_evidence == pytest.approx(0.0, abs=1e-12)


class TestEnumerationEquivalence:
    @pytest.mark.parametrize("seed", range(8))
    def test_posterior_and_evidence_match_enumeration(self, seed):
        rng = np.random.default_rng(seed)
        A = int(rng.integers(1, 4))
        cap = int(rng.integers(1, 4))
        T = int(rng.integers(2, 6))
        model = helpers.random_model(A=A, P=2, cap=cap, seed=seed)
        series = generate_synthetic(model, T, seed=seed + 100)
        rows = series.observations

        state = forward_init(model, rows[0])
        for t in range(1, T):
            state = forward_step(state, rows[t], model)
            want_post = oracles.enumerate_state_posterior(model, rows[: t + 1])
            np.testing.assert_allclose(state_posterior(state), want_post, atol=1e-8)
        want_ev = oracles.enumerate_log_evidence(model, rows)
        assert state.log_evidence == pytest.approx(want_ev, abs=1e-8)

    @pytest.mark.parametrize("seed", range(4))
    def test_masked_rows_match_enumeration(self, seed):
        rng = np.random.default_rng(200 + seed)
        model = helpers.random_model(A=2, P=2, cap=3, seed=seed)
        T = 5
        series = generate_synthetic(model, T, seed=seed)
        rows = series.observations
        mask = rng.random(size=(T, 2)) < 0.7
        mask[2] = False  # one fully missing row
        mask[0, 0] = True

        state = run_filter(model, rows, mask=mask)
        want_ev = oracles.enumerate_log_evidence(model, rows, mask=mask)
        want_post = oracles.enumerate_state_posterior(model, rows, mask=mask)
        assert state.log_evidence == pytest.approx(want_ev, abs=1e-8)
        np.testing.assert_allclose(state_posterior(state), want_post, atol=1e-8)

    def test_alpha_table_matches_enumeration(self):
        model = helpers.random_model(A=2, P=2, cap=3, seed=42)
        series = generate_synthetic(model, 4, seed=7)
        rows = series.observations
        state = run_filter(model, rows)
        want = oracles.enumerate_alpha(model, rows)
        want = want - scipy.special.logsumexp(want)
        finite = np.isfinite(want)
        np.testing.assert_array_equal(np.isfinite(state.log_alpha), finite)
        np.testing.assert_allclose(
            state.log_alpha[finite], want[finite], atol=1e-8
        )

    @pytest.mark.parametrize("seed", [0, 3])
    def test_backends_agree(self, seed):
        model = helpers.random_model(A=2, P=2, cap=3, seed=seed)
        series = generate_synthetic(model, 6, seed=seed + 50)
        rows = series.observations
        kal = run_filter(model, rows, backend="kalman")
        ref = run_filter(model, rows, backend="reference")
        assert kal.log_evidence == pytest.approx(ref.log_evidence, abs=1e-10)
        np.testing.assert_allclose(
            state_posterior(kal), state_posterior(ref), atol=1e-10
        )


def rescaled_model(model, s):
    """Scale observations by s: means *s, signal and noise variances *s^2."""
    emissions = tuple(
        StateEmission(
            mean=e.mean * s,
            temporal=MaternKernel(
                e.temporal.variance * s * s,
                e.temporal.lengthscale,
                e.temporal.smoothness,
            ),
            task=e.task,
        )
        for e in model.emissions
    )
    noise = NoiseModel(model.noise.per_feature_variance * s * s)
    return replace(model, emissions=emissions, noise=noise)


class TestGlobalDensityShiftInvariance:
    def test_posterior_unchanged_and_evidence_shifts_by_constant(self):
        # scaling y by s shifts every per-row emission log-density by the
        # same constant -P log s (full masks); the posterior must not move
        model = helpers.random_model(A=2, P=2, cap=3, seed=13)
        series = generate_synthetic(model, 6, seed=3)
        rows = series.observations
        s = 3.7
        scaled = rescaled_model(model, s)

        base = forward_init(model, rows[0])
        shifted = forward_init(scaled, rows[0] * s)
        for t in range(1, rows.shape[0]):
            base = forward_step(base, rows[t], model)
            shifted = forward_step(shifted, rows[t] * s, scaled)
            np.testing.assert_allclose(
                state_posterior(base), state_posterior(shifted), atol=1e-10
            )
        expected_shift = -rows.size * math.log(s)
        assert shifted.log_evidence - base.log_evidence == pytest.approx(
            expected_shift, abs=1e-8
        )


class TestMapState:
    def test_exact_tie_goes_to_lowest_label(self):
        log_alpha = np.log(np.array([[0.2, 0.2], [0.1, 0.1], [0.25, 0.15]]))
        state = ForwardState(
            log_alpha=log_alpha,
            time_index=1,
            log_evidence=0.0,
            backend=None,
            cache=None,
        )
        # states 1 and 3 both hold 0.4
        assert map_state(state) == 1

    def test_well_separated_stream_accuracy(self):
        model = helpers.separated_model(P=1, gap=6.0, cap=20)
        series = generate_synthetic(model, 200, seed=17)
        rows = series.observations
        state = forward_init(model, rows[0])
        hits = int(map_state(state) == series.labels[0])
        for t in range(1, 200):
            state = forward_step(state, rows[t], model)
            hits += int(map_state(state) == series.labels[t])
        assert hits / 200 >= 0.90


class TestStatePosterior:
    def test_sums_to_one(self):
        model = helpers.random_model(A=3, P=2, cap=4, seed=14)
        series = generate_synthetic(model, 8, seed=2)
        state = run_filter(model, series.observations)
        assert state_posterior(state).sum() == pytest.approx(1.0, abs=1e-12)

    def test_symmetric_model_on_symmetric_data_is_uniform(self):
        model = helpers.symmetric_model(P=1)
        rows = np.zeros((5, 1))
        state = forward_init(model, rows[0])
        for t in range(1, 5):
            state = forward_step(state, rows[t], model)
            np.testing.assert_allclose(state_posterior(state), [0.5, 0.5], atol=1e-9)


def one_step_mixture(state, model):
    return step_predictives(state, model).live


class TestPredictiveMixture:
    def test_single_hypothesis_is_fresh_predictive(self):
        model = helpers.random_model(A=1, P=2, cap=1, seed=15)
        state = forward_init(model, np.array([0.5, -0.2]))
        mix = one_step_mixture(state, model)
        assert mix.log_weights.shape == (1,)
        assert mix.log_weights[0] == pytest.approx(0.0, abs=1e-12)
        e = model.emissions[0]
        want_cov = e.temporal.variance * task_cov_assemble(e.task) + np.diag(
            model.noise.per_feature_variance
        )
        np.testing.assert_allclose(mix.means[0], e.mean, atol=1e-12)
        np.testing.assert_allclose(mix.covariances[0], want_cov, atol=1e-9)

    def test_weights_normalize_and_covariances_psd(self):
        model = helpers.random_model(A=2, P=2, cap=3, seed=16)
        series = generate_synthetic(model, 5, seed=4)
        state = run_filter(model, series.observations)
        mix = one_step_mixture(state, model)
        assert scipy.special.logsumexp(mix.log_weights) == pytest.approx(0.0, abs=1e-12)
        for cov in mix.covariances:
            assert np.min(np.linalg.eigvalsh(cov)) > -1e-10

    def test_mixture_mean_against_monte_carlo(self):
        model = helpers.random_model(A=2, P=2, cap=3, seed=18)
        series = generate_synthetic(model, 4, seed=6)
        state = run_filter(model, series.observations)
        mix = one_step_mixture(state, model)
        analytic = np.exp(mix.log_weights) @ mix.means
        draws = mix.sample(1_000_000, np.random.default_rng(0))
        se = draws.std(axis=0, ddof=1) / math.sqrt(draws.shape[0])
        np.testing.assert_array_less(np.abs(draws.mean(axis=0) - analytic), 3 * se)

    def test_live_set_keeps_near_entries_with_their_states(self):
        model = helpers.random_model(A=3, P=4, cap=6, seed=33)
        series = generate_synthetic(model, 12, seed=33)
        pred = step_predictives(run_filter(model, series.observations), model)
        entries = [(w, j, m) for j, (w, m) in enumerate(zip(pred.fresh_logw, pred.fresh_mean))]
        for j in range(3):
            entries += [(w, j, m) for w, m in zip(pred.cont_logw[j], pred.cont_mean[j])]
        top = max(w for w, _, _ in entries)
        near = [(w, j, m) for w, j, m in entries if w >= top - 30.0]
        assert 0 < len(near) < sum(np.isfinite(w) for w, _, _ in entries)
        live = pred.live
        np.testing.assert_array_equal(live.states, [j for _, j, _ in near])
        np.testing.assert_array_equal(live.means, [m for _, _, m in near])
        want = np.array([w for w, _, _ in near])
        want = want - scipy.special.logsumexp(want)
        np.testing.assert_allclose(live.log_weights, want, atol=1e-12)
        assert pred.live is live  # built once per step

    def test_pruning_changes_density_negligibly(self):
        # mixture weights for the wrong state fall below max - 30 after a
        # long stay in one state; the pruned and unpruned densities must agree
        model = helpers.separated_model(P=1, gap=12.0, cap=12)
        series = generate_synthetic(model, 1, seed=0)
        row = model.emissions[0].mean.copy()
        state = forward_init(model, row)
        for _ in range(7):
            state = forward_step(state, row, model)
        pred = step_predictives(state, model)
        mix = pred.live

        logw, means, covs = [], [], []
        for j in range(2):
            if np.isfinite(pred.fresh_logw[j]):
                logw.append(pred.fresh_logw[j])
                means.append(pred.fresh_mean[j, 0])
                covs.append(pred.fresh_cov[j][0, 0])
        for j in range(2):
            for d in range(model.duration_cap):
                if np.isfinite(pred.cont_logw[j, d]):
                    logw.append(pred.cont_logw[j, d])
                    means.append(pred.cont_mean[j, d, 0])
                    covs.append(pred.cont_cov[j, d][0, 0])
        logw = np.array(logw) - scipy.special.logsumexp(logw)
        assert mix.log_weights.shape[0] < logw.shape[0]  # something was pruned

        grid = np.linspace(-20.0, 20.0, 801)

        def density(logw, means, variances):
            return sum(
                np.exp(w) * scipy.stats.norm.pdf(grid, m, math.sqrt(v))
                for w, m, v in zip(logw, means, variances)
            )

        unpruned = density(logw, means, covs)
        pruned = density(mix.log_weights, mix.means[:, 0], mix.covariances[:, 0, 0])
        tv = 0.5 * np.trapezoid(np.abs(unpruned - pruned), grid)
        assert tv < 1e-9


class TestEvidenceProperties:
    def test_per_step_increment_bounded_by_peak_density(self):
        # Gaussian peak density is bounded by the noise floor determinant
        model = helpers.random_model(A=2, P=2, cap=3, seed=22)
        series = generate_synthetic(model, 30, seed=11)
        rows = series.observations
        bound = -0.5 * (
            2 * math.log(2 * math.pi)
            + np.sum(np.log(model.noise.per_feature_variance))
        )
        state = forward_init(model, rows[0])
        prev = state.log_evidence
        assert prev <= bound + 1e-9
        for t in range(1, 30):
            state = forward_step(state, rows[t], model)
            assert state.log_evidence - prev <= bound + 1e-9
            prev = state.log_evidence

    def test_average_evidence_tracks_generator_density(self):
        # evidence exceeds the sampled path's joint by the path-identification
        # entropy, so the band needs a stream whose segmentation the data
        # pins down; at 4 sigma separation the gap sits near 4%
        model = helpers.separated_model(P=1, gap=4.0, cap=20)
        series = generate_synthetic(model, 400, seed=13)
        state = run_filter(model, series.observations)
        per_step = state.log_evidence / 400.0
        truth = true_path_logdensity(model, series) / 400.0
        assert per_step >= truth - 1e-9  # marginal dominates any single path
        assert abs(per_step - truth) <= 0.10 * abs(truth)

    def test_collapse_on_impossible_first_observation(self):
        # density underflows to zero for every hypothesis
        model = helpers.random_model(A=2, P=1, cap=3, seed=24)
        with np.errstate(over="ignore"), pytest.raises(FilterCollapseError) as err:
            forward_init(model, np.array([1e200]))
        assert err.value.time_index == 1

    def test_collapse_mid_stream(self):
        model = helpers.random_model(A=2, P=1, cap=3, seed=25)
        state = forward_init(model, np.array([0.1]))
        with np.errstate(over="ignore"), pytest.raises(FilterCollapseError) as err:
            forward_step(state, np.array([1e200]), model)
        assert err.value.time_index == 2


def mixed_smoothness_model(A, P, cap, seed):
    """`helpers.random_model` with a different smoothness in each state."""
    model = helpers.random_model(A=A, P=P, cap=cap, seed=seed)
    orders = (0.5, 1.5, 2.5)
    emissions = tuple(
        replace(e, temporal=replace(e.temporal, smoothness=orders[(seed + j) % 3]))
        for j, e in enumerate(model.emissions)
    )
    return replace(model, emissions=emissions)


def random_masks(rng, T, P):
    """Rows drawn from full, partial and empty masks, in random order."""
    kind = rng.choice(["full", "partial", "empty"], size=T, p=[0.5, 0.35, 0.15])
    mask = np.ones((T, P), dtype=bool)
    for t in range(T):
        if kind[t] == "partial":
            mask[t] = rng.random(P) < 0.5
        elif kind[t] == "empty":
            mask[t] = False
    return mask


class ExactDenseBackend(ReferenceBackend):
    """`ReferenceBackend` on the dense conditioning of `oracles`.

    The predictives come from code written apart from the library's
    `gp_predict.joint_conditional`, so the Kalman filter is checked against
    an independent oracle, to rounding.
    """

    def predict(self, cache, cont_logw):
        model = self.model
        A, D, P = model.num_states, model.duration_cap, model.num_features
        values, masks = cache
        W = values.shape[0]
        cont_mean = np.zeros((A, D, P))
        cont_cov = np.tile(np.eye(P), (A, D, 1, 1))
        for j, d in zip(*np.nonzero(np.isfinite(cont_logw))):
            cont_mean[j, d], cont_cov[j, d] = oracles.conditional_next_row(
                model.emissions[j], model.noise, values[W - d - 1 :], masks[W - d - 1 :]
            )
        return cont_mean, cont_cov, cache


class TestCleanPath:
    """Fully observed rows run on the d-indexed covariance table; rows with
    missing features on the joint path. Both must reproduce dense
    conditioning and enumeration."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        A=st.integers(1, 3),
        P=st.integers(1, 3),
        cap=st.integers(1, 6),
        T=st.integers(2, 14),
        seed=st.integers(0, 10_000),
    )
    def test_matches_dense_conditioning(self, A, P, cap, T, seed):
        model = mixed_smoothness_model(A, P, cap, seed)
        rows = generate_synthetic(model, T, seed=seed).observations
        mask = random_masks(np.random.default_rng(seed), T, P)
        kal = forward_init(model, rows[0], mask[0], backend=KalmanBackend(model))
        ref = forward_init(model, rows[0], mask[0], backend=ExactDenseBackend(model))
        for t in range(1, T):
            pk, pr = step_predictives(kal, model), step_predictives(ref, model)
            live = np.isfinite(pr.cont_logw)
            np.testing.assert_array_equal(np.isfinite(pk.cont_logw), live)
            np.testing.assert_allclose(pk.cont_mean[live], pr.cont_mean[live], rtol=0, atol=1e-8)
            np.testing.assert_allclose(pk.cont_cov[live], pr.cont_cov[live], rtol=0, atol=1e-8)
            kal = apply_row(kal, model, pk, rows[t], mask[t])
            ref = apply_row(ref, model, pr, rows[t], mask[t])
            finite = np.isfinite(ref.log_alpha)
            np.testing.assert_array_equal(np.isfinite(kal.log_alpha), finite)
            np.testing.assert_allclose(
                kal.log_alpha[finite], ref.log_alpha[finite], rtol=0, atol=1e-8
            )
            assert kal.log_evidence == pytest.approx(ref.log_evidence, abs=1e-8)

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_enumeration(self, seed):
        rng = np.random.default_rng(300 + seed)
        model = mixed_smoothness_model(A=3, P=2, cap=3, seed=seed)
        T = 5
        rows = generate_synthetic(model, T, seed=seed).observations
        mask = random_masks(rng, T, 2)
        state = run_filter(model, rows, mask=mask)
        want = oracles.enumerate_alpha(model, rows, mask=mask)
        want = want - scipy.special.logsumexp(want)
        finite = np.isfinite(want)
        np.testing.assert_array_equal(np.isfinite(state.log_alpha), finite)
        np.testing.assert_allclose(state.log_alpha[finite], want[finite], atol=1e-8)
        assert state.log_evidence == pytest.approx(
            oracles.enumerate_log_evidence(model, rows, mask=mask), abs=1e-8
        )

    @staticmethod
    def models():
        """A model whose three states each have their own smoothness, padded
        into one stack, and one whose states share a smoothness."""
        yield mixed_smoothness_model(A=3, P=3, cap=5, seed=1)
        yield helpers.random_model(A=3, P=3, cap=5, seed=1)

    def test_full_rows_keep_every_slot_clean_and_a_masked_row_resets(self):
        for model in self.models():
            rows = generate_synthetic(model, 20, seed=2).observations
            backend = KalmanBackend(model)
            space = backend.space
            # entry 0 holds the fresh-segment law, and the first row reads
            # nothing past it
            assert space.size == 1
            state = forward_init(model, rows[0], backend=backend)
            assert space.size == 1
            for t in range(1, 3):
                state = forward_step(state, rows[t], model)
            # the table grows one entry per row for all states at once, up
            # to the cap plus one
            assert space.size == 3
            for t in range(3, 15):
                state = forward_step(state, rows[t], model)
            assert space.size == 6
            assert space.rows("ycov", 0, 6).shape == (3, 6, 3, 3)
            assert state.cache.clean == 5
            assert state.cache.means.shape[:2] == (3, 5)
            assert state.cache.covs.shape[:2] == (3, 0)
            state = forward_step(state, rows[15], model, np.array([True, False, True]))
            assert state.cache.clean == 0
            state = forward_step(state, rows[16], model)
            assert state.cache.clean == 1
            assert state.cache.covs.shape[:2] == (3, 4)

    def test_every_row_costs_one_statespace_call_per_state_dimension(self, monkeypatch):
        # statespace sorts the slots into clean and joint itself, and pads
        # lower orders, so every model takes one call per stage and row
        calls = []
        for name in ("predict", "observation_conditionals", "update"):
            def counted(*args, _name=name, _fn=getattr(statespace, name)):
                calls.append(_name)
                return _fn(*args)

            monkeypatch.setattr(statespace, name, counted)
        partial = np.array([True, False, True])
        masks = [None] * 6 + [partial, None, None, partial, partial]
        for model in self.models():
            rows = generate_synthetic(model, 12, seed=2).observations
            calls.clear()
            state = forward_init(model, rows[0])
            assert calls == ["update"]
            for t, mask in enumerate(masks, 1):
                calls.clear()
                state = forward_step(state, rows[t], model, mask)
                assert calls == ["predict", "observation_conditionals", "update"], f"row {t}"

    def test_clean_stream_at_the_cap_predicts_table_views(self):
        # past the duration cap every slot is reached and clean, and the
        # continuing covariances are the table's own entries, not a copy
        for model in self.models():
            rows = generate_synthetic(model, 9, seed=3).observations
            backend = KalmanBackend(model)
            state = forward_init(model, rows[0], backend=backend)
            for t in range(1, 9):
                cov = step_predictives(state, model).cont_cov
                at_cap = t >= model.duration_cap
                assert np.shares_memory(cov, backend.space.ycov) == at_cap
                assert cov.flags.writeable != at_cap
                state = forward_step(state, rows[t], model)

    @pytest.mark.parametrize("shared_task, factors", [(False, 3), (True, 1)])
    def test_one_channel_basis_per_task_factor(self, monkeypatch, shared_task, factors):
        model = helpers.random_model(A=3, P=3, cap=5, seed=1)
        if shared_task:
            task = model.emissions[0].task
            emissions = tuple(replace(e, task=task) for e in model.emissions)
            model = replace(model, emissions=emissions, shared_task=True)
        calls = []
        basis = kernels.channel_basis

        def counted(*args):
            calls.append(args)
            return basis(*args)

        monkeypatch.setattr(kernels, "channel_basis", counted)
        KalmanBackend(model)
        assert len(calls) == factors


class TestRowDensity:
    """The backend that absorbs a row also scores it."""

    @pytest.mark.parametrize("cap, seed", [(1, 0), (3, 1), (6, 2)])
    def test_matches_scoring_the_predictives(self, cap, seed):
        # the oracle scores every predictive law directly, unpruned
        model = mixed_smoothness_model(A=3, P=3, cap=cap, seed=seed)
        rows = generate_synthetic(model, 16, seed=seed).observations
        mask = random_masks(np.random.default_rng(seed), 16, 3)
        for backend in (KalmanBackend(model), ReferenceBackend(model)):
            state = forward_init(model, rows[0], mask[0], backend=backend)
            for t in range(1, 16):
                pred = step_predictives(state, model)
                idx = np.flatnonzero(mask[t])
                want = oracles.advance_table(pred, rows[t, idx], idx)
                want = want - scipy.special.logsumexp(want)
                state = apply_row(state, model, pred, rows[t], mask[t])
                finite = np.isfinite(want)
                np.testing.assert_array_equal(np.isfinite(state.log_alpha), finite)
                np.testing.assert_allclose(
                    state.log_alpha[finite], want[finite], rtol=0, atol=1e-9
                )

    def test_fully_observed_stream_factors_nothing(self, monkeypatch):
        # clean hypotheses read their innovation variances off the table
        model = helpers.random_model(A=3, P=3, cap=5, seed=8)
        rows = generate_synthetic(model, 21, seed=8).observations
        backend = KalmanBackend(model)

        def refuse(a):
            raise AssertionError("factored a covariance on a fully observed row")

        monkeypatch.setattr(np.linalg, "cholesky", refuse)
        state = forward_init(model, rows[0], backend=backend)
        for t in range(1, 21):
            state = forward_step(state, rows[t], model)
        assert state.time_index == 21

    def test_masked_stream_factors_nothing(self, monkeypatch):
        # joint slots condition by the bordered sweep, with no LAPACK
        # factorization or solve
        model = mixed_smoothness_model(A=3, P=3, cap=5, seed=8)
        rows = generate_synthetic(model, 21, seed=8).observations
        mask = random_masks(np.random.default_rng(8), 21, 3)
        backend = KalmanBackend(model)

        def refuse(*args, **kwargs):
            raise AssertionError("factored or solved a covariance on a masked row")

        for name in ("cholesky", "solve", "inv"):
            monkeypatch.setattr(np.linalg, name, refuse)
        state = forward_init(model, rows[0], mask[0], backend=backend)
        for t in range(1, 21):
            state = forward_step(state, rows[t], model, mask[t])
        assert state.time_index == 21

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_near_singular_masked_stream_stays_finite(self):
        # tiny noise and a lengthscale far past the stream: each slot's
        # innovation covariances shrink toward the noise floor on the
        # features it observed
        model = mixed_smoothness_model(A=3, P=3, cap=8, seed=9)
        emissions = tuple(
            replace(e, temporal=replace(e.temporal, lengthscale=1e4)) for e in model.emissions
        )
        model = replace(model, emissions=emissions, noise=NoiseModel(np.full(3, 1e-8)))
        rng = np.random.default_rng(9)
        rows = model.emissions[0].mean + rng.normal(size=3) + 1e-4 * rng.normal(size=(40, 3))
        mask = random_masks(rng, 40, 3)
        mask[0] = True
        state = forward_init(model, rows[0], mask[0])
        for t in range(1, 40):
            state = forward_step(state, rows[t], model, mask[t])
            assert np.isfinite(np.max(state.log_alpha)), t
            assert np.isfinite(state.log_evidence), t


class TestNonFiniteObservation:
    def test_first_row_names_the_time_and_features(self):
        model = helpers.random_model(A=2, P=3, cap=3, seed=5)
        with pytest.raises(NonFiniteObservationError) as err:
            forward_init(model, np.array([0.1, np.nan, np.inf]))
        assert err.value.time_index == 1
        assert err.value.features == (1, 2)

    def test_mid_stream_row(self):
        model = helpers.random_model(A=2, P=3, cap=3, seed=6)
        state = forward_init(model, np.zeros(3))
        state = forward_step(state, np.zeros(3), model)
        with pytest.raises(NonFiniteObservationError) as err:
            forward_step(state, np.array([np.nan, 0.0, 0.0]), model)
        assert err.value.time_index == 3
        assert err.value.features == (0,)

    def test_masked_non_finite_values_are_ignored(self):
        model = helpers.random_model(A=2, P=3, cap=3, seed=7)
        mask = np.array([True, False, True])
        state = forward_init(model, np.zeros(3))
        holed = forward_step(state, np.array([0.2, np.nan, -0.4]), model, mask)
        filled = forward_step(state, np.array([0.2, 7.0, -0.4]), model, mask)
        np.testing.assert_array_equal(holed.log_alpha, filled.log_alpha)
        assert holed.log_evidence == filled.log_evidence
