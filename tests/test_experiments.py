"""Experiment harness: trajectory prediction, recognition, the adaptive
monitor stream, energy sweep."""

from dataclasses import replace

import numpy as np
import pytest

import helpers
from switchgp.data import fit_pca, apply_pca, generate_synthetic
from switchgp.experiments import (
    SWEEP_COLUMNS,
    ExperimentConfig,
    experiment_recognition,
    experiment_sweep,
    experiment_trajectory,
    monitor_steps,
    prepare_series,
    write_sweep_csv,
)
from switchgp.filtering import forward_init, forward_step, state_posterior
from switchgp.kernels import MaternKernel, NoiseModel
from switchgp.model import SegmentedSeries, TransitionMatrix, segment_series
from switchgp import monitor


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

    def test_requires_labels(self):
        model = helpers.random_model(A=2, P=2, cap=3, seed=7)
        series = SegmentedSeries(observations=np.zeros((10, 2)))
        with pytest.raises(ValueError):
            experiment_trajectory(ExperimentConfig(), model=model, data=[series])


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
        model = replace(model, pca=proj.to_dict())
        raw = SegmentedSeries(
            observations=rng.normal(size=(20, 6)),
            labels=np.ones(20, dtype=int),
        )
        (prepped,) = prepare_series(model, [raw])
        want = apply_pca(proj, raw.observations, whiten=True)
        np.testing.assert_allclose(prepped.observations, want, atol=1e-12)
        assert prepped.observations.shape == (20, 2)
        assert np.all(prepped.mask)

    def test_row_with_a_hole_becomes_fully_masked(self):
        rng = np.random.default_rng(15)
        proj = fit_pca(rng.normal(size=(80, 6)), 3)
        model = helpers.random_model(A=2, P=3, cap=3, seed=16)
        model = replace(model, pca=proj.to_dict())
        raw = rng.normal(size=(50, 6))
        mask = np.ones(raw.shape, dtype=bool)
        mask[4, 2] = False
        raw[4, 2] = np.nan
        (prepped,) = prepare_series(model, [SegmentedSeries(raw, mask=mask)])
        assert prepped.mask.shape == (50, 3)
        assert not prepped.mask[4].any()
        assert np.delete(prepped.mask, 4, axis=0).all()
        want = apply_pca(proj, np.delete(raw, 4, axis=0), whiten=True)
        np.testing.assert_allclose(np.delete(prepped.observations, 4, axis=0), want, atol=1e-12)

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
        catalog = monitor.default_catalog(3, 1.0, sizes=(1, 2))
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
        write_sweep_csv(sweep_rows, path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == ",".join(SWEEP_COLUMNS)
        assert len(lines) == 1 + len(SWEEP_GRID)
        first = lines[1].split(",")
        assert float(first[0]) == 0.0
        # repr round trip: parsing the cell reproduces the float bit for bit
        assert float(first[1]) == sweep_rows[0]["accuracy"]
