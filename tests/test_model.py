"""Model containers, estimators, and the save/load round trip."""

import json
from dataclasses import replace

import numpy as np
import pytest

import helpers
import oracles
from switchgp.data import generate_synthetic
from switchgp.errors import DegenerateDurationError, FormatError, InsufficientDataError
from switchgp.experiments import initial_model
from switchgp.filtering import forward_init, forward_step, state_posterior
from switchgp.fit import FitConfig
from switchgp.kernels import MaternKernel, NoiseModel, TaskCovariance
from switchgp.model import (
    GammaDuration,
    PcaProjection,
    SegmentedSeries,
    StateEmission,
    SwitchingGPModel,
    TransitionMatrix,
    compute_state_means,
    duration_cap_from,
    fit,
    fit_duration_gamma,
    fit_transitions,
    load_model,
    model_from_dict,
    model_to_dict,
    save_model,
    segment_series,
)


class TestContainers:
    def test_transition_rows_must_be_stochastic(self):
        with pytest.raises(ValueError):
            TransitionMatrix(np.array([[0.0, 0.5], [1.0, 0.0]]))

    def test_transition_diagonal_must_be_zero(self):
        with pytest.raises(ValueError):
            TransitionMatrix(np.array([[0.1, 0.9], [1.0, 0.0]]))

    def test_gamma_duration_positivity(self):
        with pytest.raises(ValueError):
            GammaDuration(0.0, 1.0)
        with pytest.raises(ValueError):
            GammaDuration(2.0, -1.0)

    def test_series_shape_checks(self):
        with pytest.raises(ValueError):
            SegmentedSeries(observations=np.zeros((4, 2)), labels=np.ones(3, dtype=int))

    def test_model_dimension_checks(self):
        m = helpers.random_model(A=2, P=2)
        with pytest.raises(ValueError):
            SwitchingGPModel(
                durations=m.durations,
                transitions=m.transitions,
                emissions=m.emissions[:1],
                noise=m.noise,
                duration_cap=2,
            )

    def test_default_initial_is_uniform(self):
        m = helpers.random_model(A=3, P=1)
        m2 = SwitchingGPModel(
            durations=m.durations,
            transitions=m.transitions,
            emissions=m.emissions,
            noise=m.noise,
            duration_cap=2,
            shared_task=False,
        )
        np.testing.assert_allclose(m2.initial, np.full(3, 1.0 / 3.0))


NON_FINITE = [np.inf, -np.inf, np.nan]


def _with_initial(initial):
    m = helpers.random_model(A=2, P=2)
    return SwitchingGPModel(
        durations=m.durations,
        transitions=m.transitions,
        emissions=m.emissions,
        noise=m.noise,
        duration_cap=2,
        initial=initial,
        shared_task=False,
    )


class TestNonFiniteParameters:
    """Every model parameter rejects inf and nan where it enters, naming
    the field."""

    @pytest.mark.parametrize("bad", NON_FINITE)
    @pytest.mark.parametrize(
        "build, field",
        [
            pytest.param(lambda v: MaternKernel(v, 1.0), "variance", id="kernel-variance"),
            pytest.param(lambda v: MaternKernel(1.0, v), "lengthscale", id="lengthscale"),
            pytest.param(
                lambda v: NoiseModel(np.array([0.1, v])), "noise variances", id="noise"
            ),
            pytest.param(
                lambda v: TaskCovariance(np.array([[1.0, 0.0], [v, 1.0]])),
                "cholesky_factor",
                id="task-off-diagonal",
            ),
            pytest.param(
                lambda v: TaskCovariance(np.array([[v, 0.0], [0.0, 1.0]])),
                "cholesky_factor",
                id="task-diagonal",
            ),
            pytest.param(
                lambda v: StateEmission(
                    np.array([0.0, v]), MaternKernel(1.0, 1.0), TaskCovariance(np.eye(2))
                ),
                "mean",
                id="mean",
            ),
            pytest.param(
                lambda v: TransitionMatrix(
                    np.array([[0.0, v, v], [0.5, 0.0, 0.5], [0.5, 0.5, 0.0]])
                ),
                "transition probabilities",
                id="transition-row",
            ),
            pytest.param(
                lambda v: TransitionMatrix(np.array([[0.0, 1.0], [v, 0.0]])),
                "transition probabilities",
                id="transition-entry",
            ),
            pytest.param(lambda v: _with_initial(np.array([v, v])), "initial", id="initial"),
            pytest.param(
                lambda v: _with_initial(np.array([1.0, v])), "initial", id="initial-entry"
            ),
        ],
    )
    def test_rejected_at_construction(self, build, field, bad):
        with pytest.raises(ValueError, match=field):
            build(bad)

    @pytest.mark.parametrize("key", ["variance", "lengthscale"])
    def test_model_file_with_infinity_rejected(self, tmp_path, key):
        doc = model_to_dict(helpers.random_model(A=2, P=2, seed=3))
        doc["emissions"][1][key] = float("inf")
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        assert "Infinity" in path.read_text()
        with pytest.raises(ValueError, match=key):
            load_model(path)


class TestSharedTaskAndUntrainedStates:
    """A shared task factor is one factor by value, and ``untrained_states``
    names distinct states of the model while leaving one trained."""

    def test_shared_task_with_differing_factors_is_rejected(self):
        model = helpers.random_model(A=3, P=2, cap=6, seed=1)
        with pytest.raises(ValueError, match="shared_task"):
            replace(model, shared_task=True)

    def test_shared_task_compares_factor_values_not_objects(self):
        model = helpers.random_model(A=2, P=2, seed=1)
        emissions = tuple(replace(e, task=TaskCovariance(np.eye(2))) for e in model.emissions)
        assert replace(model, emissions=emissions, shared_task=True).shared_task

    @pytest.mark.parametrize(
        "untrained",
        [(7,), (3,), (-1,), (0, 0), (1.0,), (True,)],
        ids=["past-the-end", "A", "negative", "repeated", "float", "bool"],
    )
    def test_untrained_states_outside_the_model_are_rejected(self, untrained):
        with pytest.raises(ValueError, match="untrained_states"):
            replace(helpers.random_model(A=3, P=1), untrained_states=untrained)

    def test_every_state_untrained_is_rejected(self):
        with pytest.raises(ValueError, match="untrained_states"):
            replace(helpers.random_model(A=3, P=1), untrained_states=(2, 0, 1))

    def test_untrained_states_are_kept_as_ints(self):
        model = replace(helpers.random_model(A=3, P=1), untrained_states=[np.int64(2), 0])
        assert model.untrained_states == (2, 0)
        assert all(type(u) is int for u in model.untrained_states)


class TestSegmentSeries:
    def test_two_runs(self):
        assert segment_series([1, 1, 2]) == [(1, 0, 2), (2, 2, 1)]

    def test_singleton(self):
        assert segment_series([3]) == [(3, 0, 1)]

    def test_alternation(self):
        assert segment_series([1, 2, 1]) == [(1, 0, 1), (2, 1, 1), (1, 2, 1)]

    def test_durations_cover_the_series(self):
        rng = np.random.default_rng(0)
        labels = rng.integers(1, 4, size=57)
        segs = segment_series(labels)
        assert sum(d for _, _, d in segs) == 57
        pos = 0
        for state, start, dur in segs:
            assert start == pos
            assert np.all(labels[start : start + dur] == state)
            pos += dur


class TestFitDurationGamma:
    def test_small_sample_values(self):
        est = fit_duration_gamma([1.0, 2.0, 3.0, 4.0])
        assert est.shape == pytest.approx(4.26, abs=0.01)
        assert est.scale == pytest.approx(0.587, abs=0.005)

    def test_agrees_with_numerical_mle(self):
        rng = np.random.default_rng(5)
        samples = rng.gamma(shape=3.0, scale=1.5, size=400)
        est = fit_duration_gamma(samples)
        k_ref, b_ref = oracles.numerical_gamma_mle(samples)
        # closed-form approximation vs full MLE: sub-percent on real samples
        assert est.shape == pytest.approx(k_ref, rel=0.01)
        assert est.scale == pytest.approx(b_ref, rel=0.01)

    def test_parametric_recovery(self):
        rng = np.random.default_rng(42)
        samples = rng.gamma(shape=2.0, scale=3.0, size=10_000)
        est = fit_duration_gamma(samples)
        assert est.shape == pytest.approx(2.0, rel=0.05)
        assert est.scale == pytest.approx(3.0, rel=0.05)

    def test_degenerate_samples_rejected(self):
        with pytest.raises(DegenerateDurationError):
            fit_duration_gamma([5.0, 5.0, 5.0])

    def test_insufficient_samples_rejected(self):
        with pytest.raises(InsufficientDataError):
            fit_duration_gamma([4.0])

    def test_scale_covariance(self):
        rng = np.random.default_rng(8)
        samples = rng.gamma(shape=4.0, scale=2.0, size=200)
        base = fit_duration_gamma(samples)
        scaled = fit_duration_gamma(samples * 7.3)
        assert scaled.shape == pytest.approx(base.shape, abs=1e-9)
        assert scaled.scale == pytest.approx(base.scale * 7.3, rel=1e-9)


class TestFitTransitions:
    def test_hand_counted_sequence(self):
        segs = [[(1, 0, 1), (2, 1, 1), (1, 2, 1), (3, 3, 1)]]
        with pytest.warns(UserWarning, match="state 3"):
            tm = fit_transitions(segs, num_states=3)
        np.testing.assert_allclose(tm.probs[0], [0.0, 0.5, 0.5])
        np.testing.assert_allclose(tm.probs[1], [1.0, 0.0, 0.0])

    def test_no_transitions_backfills_uniform(self):
        with pytest.warns(UserWarning):
            tm = fit_transitions([[(1, 0, 5)]], num_states=3)
        np.testing.assert_allclose(tm.probs[0], [0.0, 0.5, 0.5])
        np.testing.assert_allclose(tm.probs[1], [0.5, 0.0, 0.5])

    def test_counts_pool_across_subjects(self):
        # subject a: 1->2, 2->1; subject b: 1->3, 3->1, 1->2
        a = [(1, 0, 2), (2, 2, 1), (1, 3, 1)]
        b = [(1, 0, 1), (3, 1, 2), (1, 3, 1), (2, 4, 2)]
        pooled = fit_transitions([a, b], num_states=3)
        counts = np.array([[0, 2, 1], [1, 0, 0], [1, 0, 0]], dtype=float)
        expected = counts / counts.sum(axis=1, keepdims=True)
        np.testing.assert_allclose(pooled.probs, expected)

    def test_rows_exactly_stochastic_and_diagonal_free(self):
        rng = np.random.default_rng(3)
        labels = rng.integers(1, 5, size=300)
        tm = fit_transitions([segment_series(labels)], num_states=4)
        np.testing.assert_allclose(tm.probs.sum(axis=1), np.ones(4), atol=1e-12)
        assert np.all(np.diag(tm.probs) == 0.0)

    def test_entrywise_recovery_from_long_chain(self):
        truth = np.array(
            [[0.0, 0.7, 0.3], [0.2, 0.0, 0.8], [0.5, 0.5, 0.0]]
        )
        rng = np.random.default_rng(10)
        state = 0
        labels = []
        for _ in range(10_000):
            labels.append(state + 1)
            state = rng.choice(3, p=truth[state])
        tm = fit_transitions([segment_series(labels)], num_states=3)
        assert np.max(np.abs(tm.probs - truth)) < 0.02


class TestStateMeansAndCap:
    def test_population_means_respect_masks(self):
        obs = np.array([[1.0, 10.0], [3.0, 20.0], [5.0, 30.0]])
        mask = np.array([[True, True], [True, False], [False, True]])
        series = SegmentedSeries(
            observations=obs, labels=np.array([1, 1, 2]), mask=mask
        )
        means = compute_state_means([series], num_states=2)
        np.testing.assert_allclose(means[0], [2.0, 10.0])
        np.testing.assert_allclose(means[1], [0.0, 30.0])

    def test_duration_cap_is_the_gamma_quantile(self):
        import scipy.stats

        cap = duration_cap_from([GammaDuration(2.0, 3.0)])
        expected = scipy.stats.gamma.ppf(0.999, a=2.0, scale=3.0)
        assert cap == int(np.ceil(expected))
        assert duration_cap_from([GammaDuration(0.1, 0.1)]) >= 1


class TestFit:
    def test_duration_and_transition_recovery(self):
        # shape estimates carry ~4% sampling noise even at 1000 segments per
        # state, so the 10% band needs this much data to clear reliably
        truth = helpers.random_model(A=2, P=1, cap=77, seed=0)
        truth = _with_durations(truth, [(8.0, 4.0), (8.0, 4.0)])
        data = [generate_synthetic(truth, 66_000, seed=2)]
        skeleton = _skeleton_like(truth)
        fitted = fit(skeleton, data, FitConfig(max_iterations=15))
        for est, ref in zip(fitted.durations, truth.durations):
            assert est.shape == pytest.approx(ref.shape, rel=0.10)
            assert est.scale == pytest.approx(ref.scale, rel=0.10)
        np.testing.assert_allclose(
            fitted.transitions.probs, truth.transitions.probs, atol=1e-12
        )
        assert fitted.untrained_states == ()
        assert fitted.fit_report is not None
        assert fitted.fit_report.final_objective <= fitted.fit_report.initial_objective

    def test_absent_state_flagged_untrained_and_excluded(self):
        skeleton = _skeleton_like(helpers.random_model(A=3, P=1, seed=2))
        rng = np.random.default_rng(0)
        labels = np.array([1] * 30 + [2] * 20 + [1] * 15 + [2] * 35)
        series = SegmentedSeries(
            observations=rng.normal(size=(100, 1)), labels=labels
        )
        with pytest.warns(UserWarning, match="no outgoing transitions"):
            fitted = fit(skeleton, [series], FitConfig(max_iterations=5))
        assert fitted.untrained_states == (2,)
        st = forward_init(fitted, series.observations[0])
        st = forward_step(st, series.observations[1], fitted)
        assert state_posterior(st)[2] == 0.0

    def test_single_state_training(self):
        # series of different lengths: equal ones would make every duration
        # sample equal, which the dwell-law estimator refuses
        truth = helpers.random_model(A=1, P=2, cap=8, seed=3)
        data = [generate_synthetic(truth, 40, seed=1), generate_synthetic(truth, 55, seed=2)]
        fitted = fit(initial_model(1, 2, 5.0, 1.5), data)
        np.testing.assert_array_equal(fitted.transitions.probs, [[0.0]])
        assert fitted.untrained_states == ()
        assert fitted.fit_report.converged
        rows = data[0].observations[:5]
        st = forward_init(fitted, rows[0])
        for row in rows[1:]:
            st = forward_step(st, row, fitted)
        assert st.log_evidence == pytest.approx(
            oracles.enumerate_log_evidence(fitted, rows), abs=1e-8
        )

    def test_refit_on_own_samples_is_stable(self):
        # drift is measured on the identified quantities: duration means,
        # transition rows, kernel and noise scales; shape and scale
        # separately are too noisy at this sample size to pin at 5%
        truth = helpers.random_model(A=2, P=1, cap=77, seed=3)
        truth = _with_durations(truth, [(8.0, 4.0), (7.0, 4.5)])
        config = FitConfig(max_iterations=40)
        skeleton = _skeleton_like(truth)
        first = fit(skeleton, [generate_synthetic(truth, 12_000, seed=4)], config)
        second = fit(skeleton, [generate_synthetic(first, 12_000, seed=5)], config)
        for a, b in zip(first.durations, second.durations):
            assert b.shape * b.scale == pytest.approx(a.shape * a.scale, rel=0.05)
        np.testing.assert_allclose(
            second.transitions.probs, first.transitions.probs, atol=0.05
        )
        for ea, eb in zip(first.emissions, second.emissions):
            assert eb.temporal.variance == pytest.approx(ea.temporal.variance, rel=0.05)
            assert eb.temporal.lengthscale == pytest.approx(ea.temporal.lengthscale, rel=0.05)
        np.testing.assert_allclose(
            second.noise.per_feature_variance,
            first.noise.per_feature_variance,
            rtol=0.05,
        )


class TestRoundTrip:
    def test_save_load_bit_exact(self, tmp_path):
        model = helpers.random_model(A=3, P=2, cap=4, seed=13)
        path = tmp_path / "model.json"
        save_model(model, path)
        back = load_model(path)
        assert back.num_states == model.num_states
        assert back.duration_cap == model.duration_cap
        for a, b in zip(model.durations, back.durations):
            assert (a.shape, a.scale) == (b.shape, b.scale)
        assert np.array_equal(model.transitions.probs, back.transitions.probs)
        assert np.array_equal(model.initial, back.initial)
        assert np.array_equal(
            model.noise.per_feature_variance, back.noise.per_feature_variance
        )
        for ea, eb in zip(model.emissions, back.emissions):
            assert np.array_equal(ea.mean, eb.mean)
            assert np.array_equal(ea.task.cholesky_factor, eb.task.cholesky_factor)
            assert ea.temporal.variance == eb.temporal.variance
            assert ea.temporal.lengthscale == eb.temporal.lengthscale
            assert ea.temporal.smoothness == eb.temporal.smoothness

    def test_shared_task_round_trip(self, tmp_path):
        base = helpers.random_model(A=2, P=2, seed=21)
        from dataclasses import replace

        shared = base.emissions[0].task
        model = replace(
            base,
            emissions=tuple(replace(e, task=shared) for e in base.emissions),
            shared_task=True,
        )
        path = tmp_path / "model.json"
        save_model(model, path)
        back = load_model(path)
        assert back.shared_task
        for e in back.emissions:
            assert np.array_equal(e.task.cholesky_factor, shared.cholesky_factor)
        # shared factor is stored once, not per state
        doc = json.loads(path.read_text())
        assert "task_cholesky" in doc
        assert all("task_cholesky" not in s for s in doc["emissions"])

    def test_dict_round_trip_preserves_pca_block(self, tmp_path):
        model = _with_pca(helpers.random_model(A=2, P=3, seed=1))
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        save_model(model, first)
        back = load_model(first)
        save_model(back, second)
        assert second.read_bytes() == first.read_bytes()
        assert isinstance(back.pca, PcaProjection)
        for name in ("component_matrix", "feature_means", "explained_variance"):
            assert np.array_equal(getattr(back.pca, name), getattr(model.pca, name))

    @pytest.mark.parametrize(
        "edit, field",
        [
            pytest.param(lambda pca: pca.update(component_matrix=[[1.0]]),
                         "pca.component_matrix", id="1x1-matrix"),
            pytest.param(lambda pca: pca.update(component_matrix=pca["component_matrix"][0]),
                         "pca.component_matrix", id="vector-matrix"),
            pytest.param(lambda pca: pca.update(
                component_matrix=pca["component_matrix"][:2],
                explained_variance=pca["explained_variance"][:2],
            ), "pca.component_matrix", id="two-components-for-three-features"),
            pytest.param(lambda pca: pca.update(explained_variance=pca["explained_variance"][:2]),
                         "pca.explained_variance", id="variance-shape"),
            pytest.param(lambda pca: pca.update(feature_means=pca["feature_means"][:4]),
                         "pca.feature_means", id="means-shape"),
            pytest.param(lambda pca: pca["feature_means"].__setitem__(1, float("nan")),
                         "pca.feature_means", id="nan-mean"),
            pytest.param(lambda pca: pca["component_matrix"][0].__setitem__(2, float("inf")),
                         "pca.component_matrix", id="inf-loading"),
            pytest.param(lambda pca: pca["explained_variance"].__setitem__(-1, 0.0),
                         "pca.explained_variance", id="zero-variance"),
            pytest.param(lambda pca: pca["explained_variance"].reverse(),
                         "pca.explained_variance", id="increasing-variance"),
        ],
    )
    def test_broken_pca_block_fails_to_load(self, tmp_path, edit, field):
        doc = model_to_dict(_with_pca(helpers.random_model(A=2, P=3, seed=1)))
        edit(doc["pca"])
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError) as exc:
            load_model(path)
        assert field in str(exc.value) and str(path) in str(exc.value)

    @pytest.mark.parametrize(
        "key",
        [
            "durations",
            "transitions",
            "emissions",
            "noise_variances",
            "shared_task",
            "version",
            "num_states",
            "num_features",
        ],
    )
    def test_file_missing_a_key_is_a_format_error(self, tmp_path, key):
        doc = model_to_dict(helpers.random_model(A=2, P=2, seed=3))
        del doc[key]
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(FormatError, match=key) as exc:
            load_model(path)
        assert exc.value.path == str(path)

    def test_emission_missing_a_key_is_a_format_error(self, tmp_path):
        doc = model_to_dict(helpers.random_model(A=2, P=2, seed=3))
        del doc["emissions"][1]["lengthscale"]
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(FormatError, match="lengthscale"):
            load_model(path)

    @pytest.mark.parametrize(
        "edit, field",
        [
            pytest.param(lambda doc: doc.update(untrained_states=7), "untrained_states",
                         id="untrained-number"),
            pytest.param(lambda doc: doc.update(durations=5), "durations", id="durations-number"),
            pytest.param(lambda doc: doc.update(durations=[5, 5]), "durations[0]",
                         id="duration-entry-number"),
            pytest.param(lambda doc: doc["durations"][1].update(shape="2"), "durations[1].shape",
                         id="duration-shape-string"),
            pytest.param(lambda doc: doc.update(emissions={"mean": [0.0]}), "emissions",
                         id="emissions-object"),
            pytest.param(lambda doc: doc["emissions"][0].update(variance=[1.0]),
                         "emissions[0].variance", id="variance-list"),
            pytest.param(lambda doc: doc["emissions"][1].update(mean=[0.0, None]),
                         "emissions[1].mean", id="mean-with-null"),
            pytest.param(lambda doc: doc.update(transitions=[[0.0, 1.0], [1.0]]), "transitions",
                         id="ragged-transitions"),
            pytest.param(lambda doc: doc.update(noise_variances="0.5"), "noise_variances",
                         id="noise-string"),
            pytest.param(lambda doc: doc.update(initial=[True, False]), "initial",
                         id="initial-booleans"),
            pytest.param(lambda doc: doc.update(duration_cap=4.0), "duration_cap",
                         id="cap-float"),
            pytest.param(lambda doc: doc.update(shared_task="no"), "shared_task",
                         id="shared-string"),
            pytest.param(lambda doc: doc.update(pca=[1.0]), "pca", id="pca-list"),
            pytest.param(lambda doc: doc.update(pca={"component_matrix": [[1.0]]}),
                         "pca.feature_means", id="pca-missing-means"),
            pytest.param(lambda doc: doc.update(version="1"), "version", id="version-string"),
        ],
    )
    def test_entry_of_the_wrong_json_type_is_a_format_error(self, tmp_path, edit, field):
        doc = model_to_dict(helpers.random_model(A=2, P=2, seed=3))
        edit(doc)
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(FormatError) as exc:
            load_model(path)
        assert repr(field) in str(exc.value) and str(path) in str(exc.value)
        assert exc.value.path == str(path)

    @pytest.mark.parametrize("doc", [[], [{"format": "switchgp-model"}], "model", 3])
    def test_document_that_is_not_an_object_is_a_format_error(self, tmp_path, doc):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(FormatError, match="not a switchgp model document") as exc:
            load_model(path)
        assert exc.value.path == str(path)

    @pytest.mark.parametrize(
        "field, value", [("version", 99), ("version", 0), ("num_states", 3), ("num_features", 1)]
    )
    def test_header_disagreeing_with_the_entries_is_a_format_error(self, tmp_path, field, value):
        doc = model_to_dict(helpers.random_model(A=2, P=2, seed=3))
        doc[field] = value
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(FormatError, match=f"'{field}' is {value}"):
            load_model(path)

    def test_format_marker_present(self):
        doc = model_to_dict(helpers.random_model())
        assert doc["format"] == "switchgp-model"
        assert doc["version"] == 1


def _with_durations(model, pairs):
    from dataclasses import replace

    return replace(
        model, durations=tuple(GammaDuration(k, b) for k, b in pairs)
    )


def _with_pca(model, raw_features=5):
    """``model`` with a projection of ``raw_features`` raw features onto its
    features: orthonormal loadings and distinct decreasing variances."""
    rng = np.random.default_rng(model.num_features)
    q, _ = np.linalg.qr(rng.normal(size=(raw_features, model.num_features)))
    variances = np.arange(model.num_features, 0, -1) + 0.5
    return replace(model, pca=PcaProjection(q.T, rng.normal(size=raw_features), variances))


def _skeleton_like(model):
    """Same shapes as ``model`` but generic initial parameters."""
    P = model.num_features
    emissions = tuple(
        StateEmission(
            mean=np.zeros(P),
            temporal=MaternKernel(1.0, 5.0, 1.5),
            task=TaskCovariance(np.eye(P)),
        )
        for _ in range(model.num_states)
    )
    return SwitchingGPModel(
        durations=tuple(GammaDuration(2.0, 2.0) for _ in range(model.num_states)),
        transitions=model.transitions,
        emissions=emissions,
        noise=NoiseModel(np.full(P, 0.1)),
        duration_cap=model.duration_cap,
    )
