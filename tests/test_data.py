"""Corpus ingestion, PCA preprocessing, and the synthetic generator."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
import oracles
from switchgp.data import (
    PcaProjection,
    apply_pca,
    fit_pca,
    generate_synthetic,
    load_har,
    save_har,
)
from switchgp.errors import FormatError, InsufficientRankError, NonPositiveDefiniteError
from switchgp.kernels import MaternKernel, NoiseModel, matern_eval
from switchgp.model import GammaDuration, segment_series


def write_split(root, split, X, y, subjects):
    d = root / split
    d.mkdir(parents=True, exist_ok=True)
    np.savetxt(d / f"X_{split}.txt", np.asarray(X, dtype=float), fmt="%.6f")
    np.savetxt(d / f"y_{split}.txt", np.asarray(y).reshape(-1, 1), fmt="%d")
    np.savetxt(d / f"subject_{split}.txt", np.asarray(subjects).reshape(-1, 1), fmt="%d")


class TestLoadHar:
    def test_three_row_fixture(self, tmp_path):
        X = np.arange(12.0).reshape(3, 4)
        write_split(tmp_path, "train", X, [1, 1, 2], [5, 5, 5])
        series = load_har(tmp_path, split="train")
        assert len(series) == 1
        s = series[0]
        assert s.subject_id == 5
        np.testing.assert_array_equal(s.labels, [1, 1, 2])
        np.testing.assert_allclose(s.observations, X, atol=1e-6)
        segs = segment_series(s.labels)
        assert segs == [(1, 0, 2), (2, 2, 1)]

    def test_subject_rows_concatenate_in_first_seen_order(self, tmp_path):
        X = np.arange(10.0).reshape(5, 2)
        write_split(tmp_path, "train", X, [1, 1, 2, 2, 1], [1, 1, 2, 2, 1])
        merged = load_har(tmp_path, split="train")
        assert [s.subject_id for s in merged] == [1, 2]
        np.testing.assert_array_equal(merged[0].observations, X[[0, 1, 4]])
        np.testing.assert_array_equal(merged[0].labels, [1, 1, 1])

    def test_save_har_round_trips_bit_exactly(self, tmp_path):
        model = helpers.random_model(A=2, P=3, cap=4, seed=0)
        series = [
            replace(generate_synthetic(model, n, seed=n), subject_id=sid)
            for n, sid in ((7, 3), (5, 8))
        ]
        save_har(tmp_path, "test", series)
        assert sorted(p.name for p in (tmp_path / "test").iterdir()) == [
            "X_test.txt", "subject_test.txt", "y_test.txt",
        ]
        loaded = load_har(tmp_path, split="test")
        assert [s.subject_id for s in loaded] == [3, 8]
        for a, b in zip(series, loaded):
            np.testing.assert_array_equal(a.observations, b.observations)
            np.testing.assert_array_equal(a.labels, b.labels)

    def test_both_splits_train_first(self, tmp_path):
        write_split(tmp_path, "train", np.zeros((2, 3)), [1, 1], [1, 1])
        write_split(tmp_path, "test", np.ones((2, 3)), [2, 2], [9, 9])
        series = load_har(tmp_path, split="both")
        assert [s.subject_id for s in series] == [1, 9]
        with pytest.raises(ValueError):
            load_har(tmp_path, split="validation")

    def test_row_count_mismatch(self, tmp_path):
        write_split(tmp_path, "train", np.zeros((3, 2)), [1, 1], [1, 1])
        with pytest.raises(FormatError, match="row counts disagree"):
            load_har(tmp_path, split="train")

    def test_label_out_of_range_reports_line(self, tmp_path):
        write_split(tmp_path, "train", np.zeros((3, 2)), [1, 7, 2], [1, 1, 1])
        with pytest.raises(FormatError, match="outside 1..6") as err:
            load_har(tmp_path, split="train")
        assert err.value.line == 2

    def test_non_integer_label_reports_line(self, tmp_path):
        d = tmp_path / "train"
        d.mkdir(parents=True)
        np.savetxt(d / "X_train.txt", np.zeros((2, 2)), fmt="%.3f")
        (d / "y_train.txt").write_text("1\n2.5\n")
        np.savetxt(d / "subject_train.txt", np.ones((2, 1)), fmt="%d")
        with pytest.raises(FormatError) as err:
            load_har(tmp_path, split="train")
        assert err.value.line == 2

    @pytest.mark.parametrize(
        "text, line",
        [
            ("x 1\n2 3\n4 5\n", 1),  # a non-number on the first line
            ("1 2\n3 4\nnan6 5\n", 3),
            ("1 2\n3 4 5\n6 7\n", 2),  # a ragged row
            ("# header\n1 2\n\n3 x\n", 4),  # comments and blank lines count
        ],
        ids=["value-on-line-1", "value-on-line-3", "ragged-row", "after-comment-and-blank"],
    )
    def test_malformed_feature_row_reports_its_file_line(self, tmp_path, text, line):
        write_split(tmp_path, "train", np.zeros((3, 2)), [1, 1, 1], [1, 1, 1])
        (tmp_path / "train" / "X_train.txt").write_text(text)
        with pytest.raises(FormatError, match="malformed matrix") as err:
            load_har(tmp_path, split="train")
        assert err.value.line == line

    def test_multi_column_label_file_rejected(self, tmp_path):
        d = tmp_path / "train"
        d.mkdir(parents=True)
        np.savetxt(d / "X_train.txt", np.zeros((2, 2)), fmt="%.3f")
        (d / "y_train.txt").write_text("1 1\n2 2\n")
        np.savetxt(d / "subject_train.txt", np.ones((2, 1)), fmt="%d")
        with pytest.raises(FormatError, match="one column"):
            load_har(tmp_path, split="train")

    def test_empty_split_names_the_file(self, tmp_path):
        d = tmp_path / "test"
        d.mkdir()
        for name in ("X", "y", "subject"):
            (d / f"{name}_test.txt").write_text("\n")
        with pytest.raises(FormatError, match="no rows") as err:
            load_har(tmp_path, split="test")
        assert err.value.path == str(d / "X_test.txt")

    def test_empty_label_file_names_the_file(self, tmp_path):
        write_split(tmp_path, "train", np.zeros((2, 2)), [1, 1], [1, 1])
        (tmp_path / "train" / "y_train.txt").write_text("")
        with pytest.raises(FormatError, match="no rows") as err:
            load_har(tmp_path, split="train")
        assert err.value.path == str(tmp_path / "train" / "y_train.txt")

    def test_missing_file_reports_path(self, tmp_path):
        (tmp_path / "train").mkdir()
        with pytest.raises(FormatError) as err:
            load_har(tmp_path, split="train")
        assert "X_train" in err.value.path


class TestPca:
    def test_rows_orthonormal(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(60, 15))
        proj = fit_pca(X, 10)
        gram = proj.component_matrix @ proj.component_matrix.T
        np.testing.assert_allclose(gram, np.eye(10), atol=1e-8)

    def test_explained_variance_descending(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(50, 12)) * np.linspace(3.0, 0.5, 12)
        proj = fit_pca(X, 10)
        assert np.all(np.diff(proj.explained_variance) <= 1e-12)

    def test_full_rank_projection_preserves_distances(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(40, 10))
        proj = fit_pca(X, 10)
        scores = apply_pca(proj, X) * np.sqrt(proj.explained_variance)
        centered = X - X.mean(axis=0)
        for i in range(0, 40, 7):
            for j in range(0, 40, 5):
                d_orig = np.linalg.norm(centered[i] - centered[j])
                d_proj = np.linalg.norm(scores[i] - scores[j])
                assert d_proj == pytest.approx(d_orig, abs=1e-6)

    def test_insufficient_rank_rejected(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(50, 3)) @ rng.normal(size=(3, 12))
        with pytest.raises(InsufficientRankError):
            fit_pca(X, 10)

    @pytest.mark.parametrize("k", [0, -1])
    def test_rejects_fewer_than_one_component(self, k):
        X = np.random.default_rng(3).normal(size=(20, 4))
        with pytest.raises(ValueError, match="num_components"):
            fit_pca(X, k)

    def test_reconstruction_improves_with_components(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(80, 20)) * np.linspace(4.0, 0.2, 20)
        err = {}
        for k in (9, 10):
            proj = fit_pca(X, k)
            scores = apply_pca(proj, X) * np.sqrt(proj.explained_variance)
            recon = scores @ proj.component_matrix + proj.feature_means
            err[k] = float(np.linalg.norm(X - recon))
        assert err[10] <= err[9] + 1e-12

    def test_refit_is_byte_identical(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(30, 11))
        a = fit_pca(X, 10)
        b = fit_pca(X.copy(), 10)
        assert np.array_equal(a.component_matrix, b.component_matrix)
        assert np.array_equal(a.feature_means, b.feature_means)
        assert np.array_equal(a.explained_variance, b.explained_variance)
        for r in range(10):
            pivot = int(np.argmax(np.abs(a.component_matrix[r])))
            assert a.component_matrix[r, pivot] > 0

    def test_whiten_gives_unit_variance_scores(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(200, 12)) * np.linspace(5.0, 0.5, 12)
        proj = fit_pca(X, 10)
        scores = apply_pca(proj, X)
        np.testing.assert_allclose(scores.var(axis=0, ddof=1), 1.0, atol=1e-8)

    def test_dict_round_trip(self):
        rng = np.random.default_rng(7)
        proj = fit_pca(rng.normal(size=(25, 10)), 10)
        back = PcaProjection(**proj.to_dict())
        assert np.array_equal(back.component_matrix, proj.component_matrix)
        assert np.array_equal(back.feature_means, proj.feature_means)
        assert np.array_equal(back.explained_variance, proj.explained_variance)

    def test_increasing_variance_rejected(self):
        with pytest.raises(ValueError):
            PcaProjection(np.eye(2), np.zeros(2), np.array([1.0, 2.0]))


class TestGenerateSynthetic:
    def test_deterministic_per_seed(self):
        model = helpers.random_model(A=2, P=2, cap=4, seed=0)
        a = generate_synthetic(model, 50, seed=3)
        b = generate_synthetic(model, 50, seed=3)
        c = generate_synthetic(model, 50, seed=4)
        assert np.array_equal(a.observations, b.observations)
        assert np.array_equal(a.labels, b.labels)
        assert not np.array_equal(a.observations, c.observations)

    def test_duration_means_converge(self):
        # ~1000 segments; the discretized mean sits ~+0.5 above k*beta, so
        # k*beta = 32 keeps offset plus MC noise inside the 5% band
        model = helpers.random_model(A=2, P=1, cap=77, seed=1)
        model = replace(
            model, durations=(GammaDuration(8.0, 4.0), GammaDuration(8.0, 4.0))
        )
        series = generate_synthetic(model, 33000, seed=2)
        segs = oracles.run_lengths(series.labels)[:-1]  # final segment is cut
        for state in (1, 2):
            durs = [d for lab, _, d in segs if lab == state]
            assert len(durs) > 300
            assert np.mean(durs) == pytest.approx(32.0, rel=0.05)

    def test_transition_frequencies_converge(self):
        model = helpers.random_model(A=3, P=1, cap=6, seed=5)
        series = generate_synthetic(model, 8000, seed=6)
        segs = oracles.run_lengths(series.labels)
        counts = np.zeros((3, 3))
        for (a, _, _), (b, _, _) in zip(segs[:-1], segs[1:]):
            counts[a - 1, b - 1] += 1
        assert counts.sum() >= 1000
        freqs = counts / counts.sum(axis=1, keepdims=True)
        np.testing.assert_allclose(freqs, model.transitions.probs, atol=0.03)

    def test_degenerate_generator_recovers_labels_by_nearest_mean(self):
        model = helpers.random_model(A=3, P=2, cap=4, seed=7)
        emissions = tuple(
            replace(
                e,
                temporal=MaternKernel(1e-12, e.temporal.lengthscale, 1.5),
            )
            for e in model.emissions
        )
        model = replace(
            model, emissions=emissions, noise=NoiseModel(np.full(2, 1e-12))
        )
        series = generate_synthetic(model, 200, seed=8)
        means = np.stack([e.mean for e in model.emissions])
        dists = np.linalg.norm(
            series.observations[:, None, :] - means[None, :, :], axis=2
        )
        recovered = np.argmin(dists, axis=1) + 1
        np.testing.assert_array_equal(recovered, series.labels)

    def test_rejects_empty_stream(self):
        model = helpers.random_model(A=1, P=1, cap=2, seed=9)
        with pytest.raises(ValueError):
            generate_synthetic(model, 0)

    def test_labels_align_and_cover_model_states(self):
        model = helpers.random_model(A=2, P=2, cap=3, seed=10)
        series = generate_synthetic(model, 300, seed=11)
        assert series.labels.shape == (300,)
        assert set(np.unique(series.labels)) <= {1, 2}
        assert series.observations.shape == (300, 2)

    @given(
        cap=st.integers(min_value=1, max_value=13),
        lengthscale=st.floats(min_value=0.2, max_value=50.0),
        smoothness=st.sampled_from([0.5, 1.5, 2.5]),
    )
    @settings(max_examples=40, deadline=None)
    def test_jitter_factors_smooth_long_windows(self, cap, lengthscale, smoothness):
        # Gamma(20, 1) puts most segments at the cap: the longest, and with
        # a smooth kernel and a long lengthscale the worst-conditioned, Gram
        # matrices the generator factors
        model = helpers.random_model(A=1, P=1, cap=cap, seed=13)
        e = replace(model.emissions[0], temporal=MaternKernel(1.0, lengthscale, smoothness))
        model = replace(model, durations=(GammaDuration(20.0, 1.0),), emissions=(e,))
        series = generate_synthetic(model, 2 * cap, seed=14)
        assert np.all(np.isfinite(series.observations))

    def test_jitter_factors_a_gram_that_fails_bare(self):
        # nu = 5/2 at lengthscale 1000: the bare Gram of a 40-row window is
        # numerically singular, and Gamma(20, 3) durations (mean 60) reach
        # such windows within 200 rows
        kernel = MaternKernel(1.0, 1000.0, 2.5)
        lags = np.arange(40.0)
        gram = matern_eval(kernel, lags)[np.abs(np.subtract.outer(lags, lags)).astype(int)]
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(gram)
        model = helpers.random_model(A=1, P=1, cap=80, seed=13)
        e = replace(model.emissions[0], temporal=kernel)
        model = replace(model, durations=(GammaDuration(20.0, 3.0),), emissions=(e,))
        series = generate_synthetic(model, 200, seed=0)
        assert np.all(np.isfinite(series.observations))

    def test_failed_factorization_names_the_state(self, monkeypatch):
        model = helpers.random_model(A=3, P=2, cap=4, seed=15)
        first = int(generate_synthetic(model, 6, seed=16).labels[0]) - 1

        def failing(a):
            raise np.linalg.LinAlgError("not positive definite")

        monkeypatch.setattr(np.linalg, "cholesky", failing)
        with pytest.raises(NonPositiveDefiniteError) as err:
            generate_synthetic(model, 6, seed=16)
        assert err.value.state == first
