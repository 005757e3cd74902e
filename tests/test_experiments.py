"""Experiment harness: trajectory prediction, recognition, the adaptive
monitor stream, energy sweep."""

import json
import tracemalloc
from dataclasses import fields, replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from golden import regenerate
from switchgp import experiments
from switchgp.data import fit_pca, apply_pca, generate_synthetic, load_har, save_har
from switchgp.errors import FormatError, NonFiniteObservationError, UndefinedMetricError
from switchgp.experiments import (
    SWEEP_COLUMNS,
    ExperimentConfig,
    experiment_recognition,
    experiment_sweep,
    experiment_trajectory,
    initial_model,
    monitor_steps,
    prepare_series,
    simulate,
    train,
    write_sweep_csv,
)
from switchgp.filtering import forward_init, forward_step, state_posterior
from switchgp.gp_predict import joint_conditional
from switchgp.kernels import MaternKernel, NoiseModel
from switchgp.model import SegmentedSeries, TransitionMatrix, model_to_dict, segment_series
from switchgp import monitor
from test_golden import mismatches


def degenerate_model_and_series(T=60, seed=0):
    """Near-deterministic generator: observations sit on the state means."""
    model = helpers.random_model(A=2, P=2, cap=4, seed=seed)
    emissions = tuple(
        replace(e, temporal=MaternKernel(1e-12, e.temporal.lengthscale, 1.5))
        for e in model.emissions
    )
    model = replace(model, emissions=emissions, noise=NoiseModel(np.full(2, 1e-12)))
    return model, generate_synthetic(model, T, seed=seed)


class TestExperimentConfig:
    def test_rejects_bad_fraction(self):
        with pytest.raises(ValueError):
            ExperimentConfig(observed_fraction=0.0)
        with pytest.raises(ValueError):
            ExperimentConfig(observed_fraction=1.0)

    @pytest.mark.parametrize("fraction", [0.7, 0.9])
    def test_rejects_a_stride_below_two(self, fraction):
        # 1/fraction rounds to 1: every row would be observed
        with pytest.raises(ValueError, match="2/3"):
            ExperimentConfig(observed_fraction=fraction)

    def test_stride(self):
        assert ExperimentConfig(observed_fraction=0.2).stride == 5
        assert ExperimentConfig(observed_fraction=0.6).stride == 2

    def test_fields(self):
        assert [f.name for f in fields(ExperimentConfig)] == [
            "observed_fraction",
            "lambda_grid",
            "num_samples",
            "seed",
            "group_sizes",
            "max_steps",
            "max_series",
        ]

    def test_rejects_empty_grid(self):
        with pytest.raises(ValueError):
            ExperimentConfig(lambda_grid=())

    @pytest.mark.parametrize("field", ["num_samples", "max_steps", "max_series"])
    @pytest.mark.parametrize("value", [0, -1])
    def test_rejects_counts_below_one(self, field, value):
        with pytest.raises(ValueError, match=field):
            ExperimentConfig(**{field: value})


class TestTrajectory:
    def test_zero_noise_self_prediction(self):
        model, series = degenerate_model_and_series()
        out = experiment_trajectory(ExperimentConfig(), model=model, data=[series])
        assert out["mse"] == pytest.approx(0.0, abs=1e-10)
        assert out["abs"] == pytest.approx(0.0, abs=1e-5)

    def test_beats_state_mean_baseline(self):
        model = helpers.random_model(A=2, P=2, cap=20, seed=3, lengthscale=4.0)
        series = generate_synthetic(model, 400, seed=4)
        cfg = ExperimentConfig(observed_fraction=0.2)
        out = experiment_trajectory(cfg, model=model, data=[series])

        stride = 5
        sq = []
        for state, start, dur in segment_series(series.labels):
            rel = np.arange(dur)
            held = rel[(start + rel) % stride != 0]
            if held.size == 0:
                continue
            diff = series.observations[start + held] - model.emissions[state - 1].mean
            sq.append(diff**2)
        baseline_mse = float(np.mean(np.vstack(sq)))
        assert out["mse"] < baseline_mse

    def test_row_accounting(self):
        model = helpers.random_model(A=2, P=2, cap=4, seed=5)
        series = generate_synthetic(model, 97, seed=6)
        cfg = ExperimentConfig(observed_fraction=0.2)
        out = experiment_trajectory(cfg, model=model, data=[series])
        expected_obs = sum(1 for t in range(97) if t % 5 == 0)
        assert out["num_observed_rows"] == expected_obs
        assert out["num_held_rows"] == 97 - expected_obs
        assert set(out["per_state"]) <= {1, 2}
        assert sum(v["num_rows"] for v in out["per_state"].values()) == 97 - expected_obs

    def test_no_held_out_row_is_an_undefined_metric(self):
        # one row per series: row 0 is always observed
        model = helpers.random_model(A=2, P=2, cap=4, seed=5)
        series = generate_synthetic(model, 30, seed=6)
        cfg = ExperimentConfig(max_steps=1)
        with pytest.raises(UndefinedMetricError, match="stride of 5"):
            experiment_trajectory(cfg, model=model, data=[series, series])
        with pytest.raises(UndefinedMetricError):
            experiment_trajectory(ExperimentConfig(), model=model, data=[])

    def test_requires_labels(self):
        model = helpers.random_model(A=2, P=2, cap=3, seed=7)
        series = SegmentedSeries(observations=np.zeros((10, 2)))
        with pytest.raises(ValueError):
            experiment_trajectory(ExperimentConfig(), model=model, data=[series])


def masked_trajectory_case():
    """A 97-row, two-state series (subject 7) and the stride-5 config."""
    model = helpers.random_model(A=2, P=2, cap=4, seed=5)
    series = replace(generate_synthetic(model, 97, seed=6), subject_id=7)
    return model, series, ExperimentConfig(observed_fraction=0.2)


def with_entries(series, rows, cols, value=None, observed=None):
    """A copy of the series with entries (rows, cols) set to ``value`` and/or
    their mask set to ``observed``."""
    obs, mask = series.observations.copy(), series.mask.copy()
    if value is not None:
        obs[rows, cols] = value
    if observed is not None:
        mask[rows, cols] = observed
    return replace(series, observations=obs, mask=mask)


class TestTrajectoryMask:
    """Row 2 (0-based 1) is held out and row 11 (0-based 10) is a stride row."""

    @pytest.mark.parametrize("row", [1, 10])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_a_non_finite_observed_entry_is_refused(self, row, value):
        model, series, cfg = masked_trajectory_case()
        bad = with_entries(series, row, 1, value)
        with pytest.raises(NonFiniteObservationError, match="series 7 row") as info:
            experiment_trajectory(cfg, model=model, data=[bad])
        assert info.value.time_index == row + 1
        assert info.value.features == (1,)

    def test_a_masked_held_entry_is_not_scored(self):
        model, series, cfg = masked_trajectory_case()
        masked = with_entries(series, 1, 1, observed=False)
        out = experiment_trajectory(cfg, model=model, data=[masked])
        assert out == experiment_trajectory(
            cfg, model=model, data=[with_entries(masked, 1, 1, np.nan)]
        )
        full = experiment_trajectory(cfg, model=model, data=[series])
        assert out["num_held_rows"] == full["num_held_rows"]
        assert out["mse"] != full["mse"]

    def test_a_fully_masked_stride_row_does_not_condition(self):
        model, series, cfg = masked_trajectory_case()
        masked = with_entries(series, 10, slice(None), observed=False)
        out = experiment_trajectory(cfg, model=model, data=[masked])
        for value in (np.nan, 1e3):
            assert out == experiment_trajectory(
                cfg, model=model, data=[with_entries(masked, 10, slice(None), value)]
            )
        full = experiment_trajectory(cfg, model=model, data=[series])
        assert out["num_observed_rows"] == full["num_observed_rows"] - 1
        assert out["mse"] != full["mse"]

    def test_a_partially_masked_stride_row_is_refused(self):
        model, series, cfg = masked_trajectory_case()
        partial = with_entries(series, 10, 0, np.nan, observed=False)
        with pytest.raises(ValueError, match="series 7 row 11 is a partially observed"):
            experiment_trajectory(cfg, model=model, data=[partial])

    def test_a_held_row_with_no_observed_entry_is_skipped(self):
        model, series, cfg = masked_trajectory_case()
        masked = with_entries(series, 1, slice(None), np.nan, observed=False)
        out = experiment_trajectory(cfg, model=model, data=[masked])
        full = experiment_trajectory(cfg, model=model, data=[series])
        assert out["num_held_rows"] == full["num_held_rows"] - 1
        assert sum(v["num_rows"] for v in out["per_state"].values()) == out["num_held_rows"]
        assert out["num_observed_rows"] == full["num_observed_rows"]


def dense_held_means(model, series, stride):
    """Held-out means of every segment from `gp_predict.joint_conditional`,
    conditioned on the fully observed stride rows."""
    P = series.num_features
    full, seen = series.mask.all(axis=1), series.mask.any(axis=1)
    out = []
    for state, start, dur in segment_series(series.labels):
        rows = np.arange(start, start + dur)
        obs = rows[(rows % stride == 0) & full[rows]]
        held = rows[(rows % stride != 0) & seen[rows]]
        if held.size:
            mean, _ = joint_conditional(
                model.emissions[state - 1],
                model.noise,
                np.repeat(obs.astype(float), P),
                np.tile(np.arange(P), obs.size),
                series.observations[obs].reshape(-1),
                np.repeat(held.astype(float), P),
                np.tile(np.arange(P), held.size),
            )
            out.append(mean.reshape(held.size, P))
    return np.vstack(out)


class TestTrajectoryAgreement:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        smoothness=st.sampled_from([0.5, 1.5, 2.5]),
        stride=st.integers(2, 5),
        rows=st.integers(1, 200),
        lead=st.integers(0, 4),
        P=st.integers(1, 4),
        lengthscale=st.floats(0.3, 30.0),
        keep=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**16),
    )
    def test_matches_the_dense_conditional(
        self, smoothness, stride, rows, lead, P, lengthscale, keep, seed
    ):
        # `lead` rows of state 2, then one segment of state 1; each stride
        # row is kept with probability `keep`, the rest are fully masked
        model = helpers.random_model(A=2, P=P, seed=seed, lengthscale=lengthscale,
                                     noise_floor=0.1)
        model = replace(model, emissions=tuple(
            replace(e, temporal=replace(e.temporal, smoothness=smoothness))
            for e in model.emissions
        ))
        rng = np.random.default_rng(seed)
        T = lead + rows
        dropped = (np.arange(T) % stride == 0) & (rng.uniform(size=T) >= keep)
        series = SegmentedSeries(
            observations=2.0 * rng.normal(size=(T, P)),
            labels=np.r_[np.full(lead, 2), np.ones(rows, dtype=int)],
            mask=np.repeat(~dropped[:, None], P, axis=1),
        )
        cfg = ExperimentConfig(observed_fraction=1.0 / stride)
        held = np.arange(T) % stride != 0
        if not held.any():
            with pytest.raises(UndefinedMetricError):
                experiment_trajectory(cfg, model=model, data=[series])
            return
        with mock.patch.object(
            experiments, "trajectory_metrics", wraps=experiments.trajectory_metrics
        ) as spy:
            experiment_trajectory(cfg, model=model, data=[series])
        predicted = spy.call_args_list[0].args[0]
        dense = dense_held_means(model, series, stride)
        assert predicted.shape == dense.shape
        assert np.max(np.abs(predicted - dense)) <= 1e-10 * np.max(np.abs(dense))

    def test_a_segment_with_no_observed_row_predicts_the_state_mean(self):
        model, series, cfg = masked_trajectory_case()
        series = replace(series, observations=series.observations[:4],
                         labels=np.array([1, 2, 2, 2]), mask=series.mask[:4])
        with mock.patch.object(
            experiments, "trajectory_metrics", wraps=experiments.trajectory_metrics
        ) as spy:
            experiment_trajectory(cfg, model=model, data=[series])
        np.testing.assert_array_equal(
            spy.call_args_list[0].args[0], np.tile(model.emissions[1].mean, (3, 1))
        )


class TestTrajectoryLength:
    @pytest.mark.parametrize("rows, bound_mb", [(400, 10), (4000, 150)])
    def test_memory_peak(self, rows, bound_mb):
        # one segment at a stride of 5; the dense joint of the held-out
        # entries alone would be (0.8 * rows * 10)^2 doubles
        model = helpers.random_model(A=1, P=10, seed=0, lengthscale=4.0, noise_floor=0.1)
        rng = np.random.default_rng(rows)
        series = SegmentedSeries(
            observations=rng.normal(size=(rows, 10)), labels=np.ones(rows, dtype=int)
        )
        tracemalloc.start()
        try:
            out = experiment_trajectory(ExperimentConfig(), model=model, data=[series])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out["num_held_rows"] == rows - rows // 5
        assert peak < bound_mb * 1e6


def permuted_two_state(model):
    """Swap state labels 1 and 2 everywhere in the model."""
    perm = [1, 0]
    probs = np.asarray(model.transitions.probs)[np.ix_(perm, perm)]
    return replace(
        model,
        durations=tuple(model.durations[i] for i in perm),
        emissions=tuple(model.emissions[i] for i in perm),
        transitions=TransitionMatrix(probs),
        initial=np.asarray(model.initial)[perm],
    )


class TestRecognition:
    def test_well_separated_accuracy(self):
        model = helpers.separated_model(P=1, gap=6.0, cap=20)
        series = generate_synthetic(model, 200, seed=8)
        out = experiment_recognition(ExperimentConfig(), model=model, data=[series])
        assert out["accuracy"] >= 0.90
        assert out["num_steps"] == 200

    def test_relabeling_invariance(self):
        model = helpers.random_model(A=2, P=2, cap=4, seed=9)
        series = generate_synthetic(model, 120, seed=10)
        base = experiment_recognition(ExperimentConfig(), model=model, data=[series])

        flipped_labels = np.where(series.labels == 1, 2, 1)
        flipped = replace(series, labels=flipped_labels)
        out = experiment_recognition(
            ExperimentConfig(), model=permuted_two_state(model), data=[flipped]
        )
        assert out["accuracy"] == base["accuracy"]

    def test_honours_series_mask(self):
        model = helpers.random_model(A=2, P=3, cap=4, seed=12)
        series = generate_synthetic(model, 40, seed=13)
        mask = np.random.default_rng(14).random(series.observations.shape) > 0.4
        mask[5] = False  # one row with nothing observed
        holed = replace(series, mask=mask)
        steps = experiment_recognition(ExperimentConfig(), model=model, data=[holed])[
            "trajectories"
        ][0]["steps"]

        rows = series.observations
        state = forward_init(model, rows[0], mask[0])
        manual = [state_posterior(state)]
        for t in range(1, rows.shape[0]):
            state = forward_step(state, rows[t], model, mask[t])
            manual.append(state_posterior(state))
        np.testing.assert_array_equal([s["posterior"] for s in steps], manual)
        assert sum(s["log_evidence_delta"] for s in steps) == pytest.approx(
            state.log_evidence, abs=1e-9
        )

        full = experiment_recognition(ExperimentConfig(), model=model, data=[series])
        unmasked = [s["posterior"] for s in full["trajectories"][0]["steps"]]
        assert not np.allclose(unmasked, manual)

    def test_confusion_and_switch_stats(self):
        model = helpers.separated_model(P=1, gap=5.0, cap=15)
        series = generate_synthetic(model, 150, seed=11)
        out = experiment_recognition(ExperimentConfig(), model=model, data=[series])
        confusion = np.array(out["confusion"])
        assert confusion.sum() == 150
        num_segments = len(segment_series(series.labels))
        assert out["num_switches"] == num_segments - 1
        assert out["num_detected_switches"] <= out["num_switches"]
        if out["num_detected_switches"]:
            assert out["mean_switch_lag"] >= 0.0
        steps = out["trajectories"][0]["steps"]
        assert len(steps) == 150
        assert steps[0]["time"] == 1
        total_evidence = sum(s["log_evidence_delta"] for s in steps)
        assert np.isfinite(total_evidence)


class TestPrepareSeries:
    def test_projects_and_whitens_with_model_pca(self):
        rng = np.random.default_rng(12)
        raw_train = rng.normal(size=(80, 6)) * np.linspace(3.0, 0.5, 6)
        proj = fit_pca(raw_train, 2)
        model = helpers.random_model(A=2, P=2, cap=3, seed=13)
        model = replace(model, pca=proj)
        raw = SegmentedSeries(
            observations=rng.normal(size=(20, 6)),
            labels=np.ones(20, dtype=int),
        )
        (prepped,) = prepare_series(model, [raw])
        want = apply_pca(proj, raw.observations)
        np.testing.assert_allclose(prepped.observations, want, atol=1e-12)
        assert prepped.observations.shape == (20, 2)
        assert np.all(prepped.mask)

    def test_row_with_a_hole_becomes_fully_masked(self):
        rng = np.random.default_rng(15)
        proj = fit_pca(rng.normal(size=(80, 6)), 3)
        model = helpers.random_model(A=2, P=3, cap=3, seed=16)
        model = replace(model, pca=proj)
        raw = rng.normal(size=(50, 6))
        mask = np.ones(raw.shape, dtype=bool)
        mask[4, 2] = False
        raw[4, 2] = np.nan
        (prepped,) = prepare_series(model, [SegmentedSeries(raw, mask=mask)])
        assert prepped.mask.shape == (50, 3)
        assert not prepped.mask[4].any()
        assert np.delete(prepped.mask, 4, axis=0).all()
        want = apply_pca(proj, np.delete(raw, 4, axis=0))
        np.testing.assert_allclose(np.delete(prepped.observations, 4, axis=0), want, atol=1e-12)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_a_non_finite_observed_raw_entry_names_the_raw_column(self, value):
        # the projection would spread it to every component; the error names
        # the raw row and column, and refuses it even in a late row
        rng = np.random.default_rng(19)
        proj = fit_pca(rng.normal(size=(80, 6)), 3)
        model = replace(helpers.random_model(A=2, P=3, cap=3, seed=20), pca=proj)
        raw = rng.normal(size=(50, 6))
        raw[41, [1, 4]] = value
        with pytest.raises(NonFiniteObservationError, match="series 9 row 42") as info:
            prepare_series(model, [SegmentedSeries(raw, subject_id=9)])
        assert info.value.time_index == 42
        assert info.value.features == (1, 4)

    def test_split_pca_refuses_a_non_finite_raw_entry_before_fitting(self):
        raw = np.random.default_rng(21).normal(size=(30, 6))
        raw[4, 3] = np.nan
        with pytest.raises(NonFiniteObservationError, match="series 2 row 5") as info:
            experiments.split_pca([SegmentedSeries(raw, subject_id=2)], 3)
        assert (info.value.time_index, info.value.features) == (5, (3,))

    def test_rows_of_another_width_are_a_format_error(self):
        rng = np.random.default_rng(17)
        proj = fit_pca(rng.normal(size=(80, 5)), 3)
        model = replace(helpers.random_model(A=2, P=3, cap=3, seed=18), pca=proj)
        raw = SegmentedSeries(rng.normal(size=(20, 12)), subject_id=4)
        with pytest.raises(FormatError, match=r"series 4 has 12 .* pca\.feature_means has 5"):
            prepare_series(model, [raw])

    def test_identity_without_pca(self):
        model = helpers.random_model(A=2, P=2, cap=3, seed=14)
        s = SegmentedSeries(observations=np.zeros((5, 2)))
        assert prepare_series(model, [s]) == [s]


SWEEP_GRID = (0.0, 0.5, 1.0)


@pytest.fixture(scope="module")
def sweep_rows():
    model = helpers.separated_model(P=2, gap=1.5, cap=15)
    series = generate_synthetic(model, 240, seed=15)
    cfg = ExperimentConfig(
        lambda_grid=SWEEP_GRID, num_samples=48, seed=3, group_sizes=(1, 2)
    )
    return experiment_sweep(cfg, model=model, data=[series])


class TestMonitorSteps:
    CONFIG = ExperimentConfig(num_samples=12, seed=4, group_sizes=(1, 2), max_steps=25)

    def series(self):
        model = helpers.random_model(A=2, P=3, cap=6, seed=30)
        series = generate_synthetic(model, 40, seed=30)
        mask = np.ones(series.observations.shape, dtype=bool)
        mask[[5, 6], 2] = False
        mask[9] = False
        return model, replace(series, mask=mask)

    def test_matches_run_adaptive_bit_for_bit(self):
        model, series = self.series()
        lines = list(monitor_steps(self.CONFIG, model, series, 0.3))
        n = self.CONFIG.max_steps
        catalog = monitor.default_catalog(3, sizes=(1, 2))
        result = monitor.run_adaptive(
            model,
            series.observations[:n],
            catalog,
            labels=series.labels[:n],
            energy_scale=0.3,
            num_samples=12,
            rng=4,
            mask=series.mask[:n],
        )
        want = [
            {
                "time": r.selection.time_index,
                "group": list(r.selection.group),
                "cost": r.selection.cost,
                "expected_entropy": r.selection.expected_entropy,
                "stderr": r.selection.stderr,
                "map_state": r.map_state,
                "posterior": r.posterior.tolist(),
                "realized_entropy": r.realized_entropy,
                "log_evidence_delta": r.log_evidence_delta,
            }
            for r in result.records
        ]
        assert lines[:-1] == want
        got, expected = lines[-1]["summary"], dict(result.summary)
        got.pop("runtime_s"), expected.pop("runtime_s")
        assert got == expected
        assert got["num_steps"] == n

    def test_first_record_follows_one_selection(self, monkeypatch):
        model, series = self.series()
        calls = []
        select = monitor.select_group

        def counting(*args, **kwargs):
            calls.append(1)
            return select(*args, **kwargs)

        monkeypatch.setattr(monitor, "select_group", counting)
        stream = monitor_steps(self.CONFIG, model, series, 0.3)
        first = next(stream)
        assert len(calls) == 1
        assert first["time"] == 2
        next(stream)
        assert len(calls) == 2


class TestSweep:
    def test_free_lambda_with_full_catalog_uses_everything(self):
        # with the full set as the only candidate this reduces to plain
        # filtering; mixed catalogs keep MC noise at pinned-posterior steps
        model = helpers.separated_model(P=2, gap=1.5, cap=15)
        series = generate_synthetic(model, 40, seed=15)
        cfg = ExperimentConfig(
            lambda_grid=(0.0,), num_samples=16, seed=3, group_sizes=(2,)
        )
        rows = experiment_sweep(cfg, model=model, data=[series])
        assert rows[0]["lambda"] == 0.0
        assert rows[0]["avg_sensor_usage"] == 1.0

    def free_sweep(self, *labeled):
        """Lambda 0 over one 40-row series per entry of ``labeled``, each
        with or without its labels; alone and labeled it scores 0.7."""
        model = helpers.separated_model(P=2, gap=1.5, cap=15)
        series = generate_synthetic(model, 40, seed=15)
        cfg = ExperimentConfig(lambda_grid=(0.0,), num_samples=16, seed=3, group_sizes=(2,))
        data = [series if keep else replace(series, labels=None) for keep in labeled]
        (row,) = experiment_sweep(cfg, model=model, data=data)
        return row

    def test_accuracy_counts_labeled_rows_only(self):
        assert self.free_sweep(True)["accuracy"] == 0.7
        assert self.free_sweep(True, False)["accuracy"] == 0.7
        assert self.free_sweep(False, True)["accuracy"] == 0.7

    def test_accuracy_is_nan_without_labels(self):
        row = self.free_sweep(False)
        assert np.isnan(row["accuracy"])
        assert row["avg_sensor_usage"] == 1.0
        assert np.isfinite(row["avg_entropy"])

    def test_empty_series_list_row(self):
        row = self.free_sweep()
        assert np.isnan(row["accuracy"]) and np.isnan(row["avg_entropy"])
        assert row["avg_sensor_usage"] == 0.0

    @pytest.mark.parametrize("labeled", [True, False])
    def test_one_series_row_is_the_run_summary(self, labeled):
        model = helpers.random_model(A=2, P=3, cap=5, seed=17)
        series = generate_synthetic(model, 30, seed=17)
        if not labeled:
            series = replace(series, labels=None)
        cfg = ExperimentConfig(lambda_grid=(0.0, 0.4), num_samples=12, seed=6, group_sizes=(1, 2))
        rows = experiment_sweep(cfg, model=model, data=[series])
        catalog = monitor.default_catalog(3, sizes=(1, 2))
        for li, (lam, row) in enumerate(zip(cfg.lambda_grid, rows)):
            child = np.random.default_rng(np.random.SeedSequence(6, spawn_key=(li, 0)))
            summary = monitor.run_adaptive(
                model,
                series.observations,
                catalog,
                labels=series.labels,
                energy_scale=lam,
                num_samples=12,
                rng=child,
            ).summary
            assert row["lambda"] == lam
            assert ("accuracy" in summary) == labeled
            np.testing.assert_equal(row["accuracy"], summary.get("accuracy", np.nan))
            for col in SWEEP_COLUMNS[2:-1]:
                assert row[col] == summary[col], col

    def test_usage_non_increasing_with_slack(self, sweep_rows):
        usage = [r["avg_sensor_usage"] for r in sweep_rows]
        for a, b in zip(usage, usage[1:]):
            assert b <= a + 0.05

    def test_accuracy_endpoint_ordering(self, sweep_rows):
        assert sweep_rows[0]["accuracy"] >= sweep_rows[-1]["accuracy"] - 0.02

    def test_deterministic_apart_from_runtime(self):
        model = helpers.separated_model(P=2, gap=1.5, cap=15)
        series = generate_synthetic(model, 40, seed=16)
        cfg = ExperimentConfig(
            lambda_grid=(0.0, 1.0), num_samples=16, seed=5, group_sizes=(1, 2)
        )
        a = experiment_sweep(cfg, model=model, data=[series])
        b = experiment_sweep(cfg, model=model, data=[series])
        for ra, rb in zip(a, b):
            for col in SWEEP_COLUMNS[:-1]:
                assert ra[col] == rb[col]

    def test_honours_series_mask(self):
        model = helpers.random_model(A=2, P=2, cap=4, seed=0)
        series = generate_synthetic(model, 20, seed=0)
        mask = np.ones((20, 2), dtype=bool)
        mask[6:9, 1] = False
        holed = series.observations.copy()
        holed[~mask] = np.nan
        filled = series.observations.copy()
        filled[~mask] = 50.0
        cfg = ExperimentConfig(lambda_grid=(0.0, 1.0), num_samples=16, seed=2, group_sizes=(1, 2))
        a = experiment_sweep(cfg, model=model, data=[replace(series, observations=holed, mask=mask)])
        b = experiment_sweep(cfg, model=model, data=[replace(series, observations=filled, mask=mask)])
        for ra, rb in zip(a, b):
            for col in SWEEP_COLUMNS[:-1]:
                assert ra[col] == rb[col]

    def test_csv_layout(self, sweep_rows, tmp_path):
        path = tmp_path / "sweep.csv"
        with open(path, "w", newline="") as fh:
            write_sweep_csv(sweep_rows, fh)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == ",".join(SWEEP_COLUMNS)
        assert len(lines) == 1 + len(SWEEP_GRID)
        first = lines[1].split(",")
        assert float(first[0]) == 0.0
        # repr round trip: parsing the cell reproduces the float bit for bit
        assert float(first[1]) == sweep_rows[0]["accuracy"]


class TestInitialModel:
    def test_start(self):
        model = initial_model(3, 4, 2.5, 0.5)
        assert [(g.shape, g.scale) for g in model.durations] == [(2.0, 2.0)] * 3
        np.testing.assert_array_equal(model.transitions.probs, (1 - np.eye(3)) / 2)
        for e in model.emissions:
            np.testing.assert_array_equal(e.mean, np.zeros(4))
            assert (e.temporal.variance, e.temporal.lengthscale) == (1.0, 2.5)
            assert e.temporal.smoothness == 0.5
            np.testing.assert_array_equal(e.task.cholesky_factor, np.eye(4))
        np.testing.assert_array_equal(model.noise.per_feature_variance, np.full(4, 0.1))
        assert model.shared_task and model.pca is None

    def test_one_state_never_transitions(self):
        model = initial_model(1, 2, 5.0, 1.5)
        assert model.num_states == 1
        np.testing.assert_array_equal(model.transitions.probs, [[0.0]])


def json_round_trip(doc):
    return json.loads(json.dumps(doc))


class TestTrainAndSimulate:
    """`train` and `simulate` called directly reproduce the golden CLI
    outputs of `tests/golden/regenerate.py`."""

    @pytest.mark.parametrize(
        "use_fft, model_file, summary_file",
        [(False, "model.json", "train.json"), (True, "model_fft.json", "train_fft.json")],
    )
    def test_train_matches_golden(self, use_fft, model_file, summary_file):
        raw = load_har(regenerate.HERE / "synth", "train")
        model, summary = train(raw, 0, 5.0, 1.5, duration_cap=12, max_iterations=15,
                               use_fft=use_fft)
        want_model = json.loads((regenerate.HERE / model_file).read_text())
        diffs = mismatches(want_model, json_round_trip(model_to_dict(model)), model_file)
        want = json.loads((regenerate.HERE / summary_file).read_text())
        del want["model"]
        diffs += mismatches(want, json_round_trip(summary), summary_file)
        assert not diffs, "\n".join(diffs[:20])

    def test_simulate_matches_golden_files(self, tmp_path):
        seed_model = helpers.random_model(A=3, P=4, cap=12, seed=2)
        splits = simulate(seed_model, 150, 2, 2, 4)
        assert [len(splits["train"]), len(splits["test"])] == [2, 2]
        for split, series in splits.items():
            save_har(tmp_path / "synth", split, series)
        for name in regenerate.DATA_FILES:
            assert (tmp_path / name).read_bytes() == (regenerate.HERE / name).read_bytes()

    def test_simulate_numbers_subjects_across_splits(self):
        model = helpers.random_model(A=2, P=2, cap=4, seed=0)
        splits = simulate(model, 10, 0, 2, 1)
        assert splits["train"] == []
        assert [s.subject_id for s in splits["test"]] == [1, 2]
