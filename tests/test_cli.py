"""End-to-end command-line tests: simulate, train, predict, filter,
monitor, sweep, pca, argument checks, and the failure-path error records."""

import contextlib
import dataclasses
import hashlib
import io
import json
import shutil
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

import helpers
from switchgp import monitor
from switchgp.cli import main
from switchgp.data import DEFAULT_NUM_COMPONENTS, PcaProjection, load_har
from switchgp.experiments import SWEEP_COLUMNS, prepare_series
from switchgp.likelihood import negative_loglik
from switchgp.model import FitReport, load_model, save_model


def run_cli(argv):
    """Invoke main() in process, capturing stdout/stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, out.getvalue(), err.getvalue()


def json_lines(text):
    return [json.loads(line) for line in text.strip().split("\n") if line]


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    model = helpers.separated_model(P=2, gap=3.0, cap=12)
    model_path = root / "true_model.json"
    save_model(model, model_path)
    data_dir = root / "data"
    rc, _, err = run_cli(
        [
            "simulate",
            "--model", str(model_path),
            "--out", str(data_dir),
            "--steps", "160",
            "--num-train", "2",
            "--num-test", "1",
            "--seed", "0",
        ]
    )
    assert rc == 0, err
    return SimpleNamespace(root=root, model=model, model_path=model_path, data_dir=data_dir)


@pytest.fixture(scope="module")
def trained(workspace):
    out = workspace.root / "fit_model.json"
    rc, stdout, err = run_cli(
        [
            "train",
            "--data-dir", str(workspace.data_dir),
            "--out", str(out),
            "--pca", "0",
            "--dmax", "15",
            "--max-iterations", "40",
        ]
    )
    assert rc == 0, err
    return SimpleNamespace(path=out, summary=json_lines(stdout)[-1])


class TestSimulate:
    def test_dataset_layout(self, workspace):
        for split, n_series in (("train", 2), ("test", 1)):
            X = np.loadtxt(workspace.data_dir / split / f"X_{split}.txt", ndmin=2)
            y = np.loadtxt(workspace.data_dir / split / f"y_{split}.txt", dtype=int)
            subj = np.loadtxt(workspace.data_dir / split / f"subject_{split}.txt", dtype=int)
            assert X.shape == (160 * n_series, 2)
            assert y.shape == subj.shape == (160 * n_series,)
            assert set(y) <= {1, 2}
            assert len(set(subj)) == n_series

    def test_subject_ids_do_not_overlap_across_splits(self, workspace):
        tr = np.loadtxt(workspace.data_dir / "train" / "subject_train.txt", dtype=int)
        te = np.loadtxt(workspace.data_dir / "test" / "subject_test.txt", dtype=int)
        assert set(tr) & set(te) == set()

    def test_seeded_rerun_is_byte_identical(self, workspace, tmp_path):
        rc, _, _ = run_cli(
            [
                "simulate",
                "--model", str(workspace.model_path),
                "--out", str(tmp_path / "again"),
                "--steps", "160",
                "--num-train", "2",
                "--num-test", "1",
                "--seed", "0",
            ]
        )
        assert rc == 0
        for rel in ("train/X_train.txt", "train/y_train.txt", "test/X_test.txt"):
            a = (workspace.data_dir / rel).read_bytes()
            b = (tmp_path / "again" / rel).read_bytes()
            assert a == b


class TestTrain:
    def test_summary_document(self, trained):
        s = trained.summary
        assert s["num_states"] == 2
        assert s["num_features"] == 2
        assert s["duration_cap"] == 15
        assert s["untrained_states"] == []
        assert s["pca"] is False
        assert np.isfinite(s["train_nll"])
        assert list(s["fit"]) == [f.name for f in dataclasses.fields(FitReport)]
        assert s["fit"]["iterations"] >= 1
        assert s["fit"]["final_objective"] <= s["fit"]["initial_objective"]

    def test_use_fft_reports_the_fft_nll_of_the_same_fit(self, workspace, trained, tmp_path):
        out = tmp_path / "fft_model.json"
        rc, stdout, err = run_cli(
            [
                "train",
                "--data-dir", str(workspace.data_dir),
                "--out", str(out),
                "--pca", "0",
                "--dmax", "15",
                "--max-iterations", "40",
                "--use-fft",
            ]
        )
        assert rc == 0, err
        # the flag changes only how the reported NLL is evaluated
        assert sha256(out) == sha256(trained.path)
        fft = json_lines(stdout)[-1]["train_nll"]
        dense = trained.summary["train_nll"]
        assert fft != dense
        # the FFT-vs-dense tolerance of tests/test_likelihood.py
        assert abs(fft - dense) / abs(dense) < 0.02

    def test_model_file_round_trips_bit_exactly(self, trained, tmp_path):
        model = load_model(trained.path)
        copy = tmp_path / "copy.json"
        save_model(model, copy)
        assert copy.read_bytes() == trained.path.read_bytes()

    def test_recovered_means_near_generator(self, workspace, trained):
        model = load_model(trained.path)
        truth = sorted(e.mean[0] for e in workspace.model.emissions)
        est = sorted(e.mean[0] for e in model.emissions)
        # gap between the generator means is 3 noise sigmas; matching to
        # 0.5 only requires the states to land on the right clusters
        assert est == pytest.approx(truth, abs=0.5)

    def test_training_ignores_test_split(self, workspace, tmp_path):
        data = tmp_path / "data"
        shutil.copytree(workspace.data_dir, data)
        argv = [
            "train",
            "--data-dir", str(data),
            "--out", str(tmp_path / "m1.json"),
            "--pca", "0",
            "--dmax", "12",
            "--max-iterations", "25",
        ]
        rc, _, _ = run_cli(argv)
        assert rc == 0

        # rewrite the held-out split with scrambled values and labels
        xp = data / "test" / "X_test.txt"
        X = np.loadtxt(xp, ndmin=2)
        np.savetxt(xp, X[::-1] * -2.5 + 7.0, fmt="%.17g")
        yp = data / "test" / "y_test.txt"
        y = np.loadtxt(yp, dtype=int)
        np.savetxt(yp, (3 - y)[:, None], fmt="%d")

        argv[4] = str(tmp_path / "m2.json")
        rc, _, _ = run_cli(argv)
        assert rc == 0
        assert sha256(tmp_path / "m1.json") == sha256(tmp_path / "m2.json")


class TestTrainDefaultProjection:
    """`train` with its default `--pca` on data wider than the projection."""

    @pytest.fixture(scope="class")
    def wide(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("wide")
        save_model(helpers.random_model(A=3, P=12, cap=12, seed=1), root / "seed.json")
        data_dir = root / "data"
        rc, _, err = run_cli(
            [
                "simulate",
                "--model", str(root / "seed.json"),
                "--out", str(data_dir),
                "--steps", "120",
                "--num-train", "2",
                "--num-test", "1",
            ]
        )
        assert rc == 0, err
        out = root / "model.json"
        rc, stdout, err = run_cli(["train", "--data-dir", str(data_dir), "--out", str(out)])
        return SimpleNamespace(data_dir=data_dir, path=out, rc=rc, err=err, stdout=stdout)

    def test_exits_zero_with_a_projected_model(self, wide):
        assert wide.rc == 0, wide.err
        model = load_model(wide.path)
        proj = model.pca
        assert proj.num_components == DEFAULT_NUM_COMPONENTS
        assert proj.component_matrix.shape == (DEFAULT_NUM_COMPONENTS, 12)
        assert model.num_features == DEFAULT_NUM_COMPONENTS

    @pytest.mark.parametrize(
        "edit, error, field",
        [
            pytest.param(lambda pca: pca.update(component_matrix=[[1.0]]), "ValueError",
                         "pca.component_matrix", id="1x1-matrix"),
            pytest.param(lambda pca: pca.update(
                component_matrix=[row[:5] for row in pca["component_matrix"]],
                feature_means=pca["feature_means"][:5],
            ), "FormatError", "pca.feature_means", id="five-raw-features"),
            pytest.param(lambda pca: pca.update(
                component_matrix=pca["component_matrix"][:4],
                explained_variance=pca["explained_variance"][:4],
            ), "ValueError", "pca.component_matrix", id="four-components"),
            pytest.param(lambda pca: pca["feature_means"].__setitem__(1, float("nan")),
                         "ValueError", "pca.feature_means", id="nan-mean"),
            pytest.param(lambda pca: pca["explained_variance"].__setitem__(-1, 0.0),
                         "ValueError", "pca.explained_variance", id="zero-variance"),
        ],
    )
    def test_broken_pca_block_is_an_error_record(self, wide, tmp_path, edit, error, field):
        assert wide.rc == 0, wide.err
        doc = json.loads(wide.path.read_text())
        edit(doc["pca"])
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        rc, out, err = run_cli(
            ["filter", "--model", str(path), "--data-dir", str(wide.data_dir)]
        )
        assert rc == 1
        assert out == ""
        (record,) = json_lines(err)
        assert record["error"] == error
        assert field in record["message"]

    def test_train_nll_is_that_of_the_evaluation_units(self, wide):
        assert wide.rc == 0, wide.err
        summary = json_lines(wide.stdout)[-1]
        assert summary["pca"] is True
        model = load_model(wide.path)
        units = prepare_series(model, load_har(wide.data_dir, "train"))
        assert negative_loglik(model, units) == summary["train_nll"]


class TestPredict:
    def test_trajectory_document(self, workspace, tmp_path):
        out = tmp_path / "pred.json"
        rc, _, err = run_cli(
            [
                "predict",
                "--model", str(workspace.model_path),
                "--data-dir", str(workspace.data_dir),
                "--ratio", "0.25",
                "--max-steps", "120",
                "--out", str(out),
            ]
        )
        assert rc == 0, err
        doc = json.loads(out.read_text())
        assert doc["num_observed_rows"] + doc["num_held_rows"] == 120
        assert set(doc["per_state"]) <= {"1", "2"}
        assert 0.0 <= doc["mse"] < 0.75
        assert doc["abs"] >= 0.0

    def test_ratio_above_two_thirds_is_an_error_record(self, workspace):
        rc, _, err = run_cli(
            [
                "predict",
                "--model", str(workspace.model_path),
                "--data-dir", str(workspace.data_dir),
                "--ratio", "0.9",
            ]
        )
        assert rc == 1
        record = json.loads(err)
        assert record["error"] == "ValueError"
        assert "2/3" in record["message"]


class TestFilter:
    def test_stream_tracks_the_generator(self, workspace, tmp_path):
        out = tmp_path / "filter.jsonl"
        rc, _, err = run_cli(
            [
                "filter",
                "--model", str(workspace.model_path),
                "--data-dir", str(workspace.data_dir),
                "--max-steps", "80",
                "--out", str(out),
            ]
        )
        assert rc == 0, err
        records = json_lines(out.read_text())
        assert [r["time"] for r in records] == list(range(1, 81))
        for r in records:
            assert sum(r["posterior"]) == pytest.approx(1.0, abs=1e-9)
            assert np.isfinite(r["log_evidence_delta"])
        labels = np.loadtxt(workspace.data_dir / "test" / "y_test.txt", dtype=int)[:80]
        hits = sum(r["map_state"] == lab for r, lab in zip(records, labels))
        assert hits / 80 >= 0.9

    def test_unknown_subject_is_an_error_record(self, workspace):
        rc, _, err = run_cli(
            [
                "filter",
                "--model", str(workspace.model_path),
                "--data-dir", str(workspace.data_dir),
                "--subject", "99",
            ]
        )
        assert rc == 1
        record = json.loads(err)
        assert record["error"] == "ValueError"
        assert "99" in record["message"]


class TestMonitor:
    def monitor_argv(self, workspace, out):
        return [
            "monitor",
            "--model", str(workspace.model_path),
            "--data-dir", str(workspace.data_dir),
            "--max-steps", "40",
            "--groups", "1,2",
            "--lambda", "0.1",
            "--mc-samples", "12",
            "--seed", "0",
            "--out", str(out),
        ]

    def test_stream_and_summary(self, workspace, tmp_path):
        out = tmp_path / "monitor.jsonl"
        rc, _, err = run_cli(self.monitor_argv(workspace, out))
        assert rc == 0, err
        lines = json_lines(out.read_text())
        records, summary = lines[:-1], lines[-1]["summary"]
        # first row is always fully observed, selections start at row 2
        assert len(records) == 39
        assert [r["time"] for r in records] == list(range(2, 41))
        for r in records:
            assert len(r["group"]) in (1, 2)
            assert r["cost"] >= 0.0
            assert r["stderr"] >= 0.0
            assert sum(r["posterior"]) == pytest.approx(1.0, abs=1e-9)
        assert summary["num_steps"] == 40
        assert 0.0 < summary["avg_sensor_usage"] <= 1.0
        assert 0.0 <= summary["accuracy"] <= 1.0

    def test_writes_each_line_as_its_step_finishes(self, workspace, tmp_path, monkeypatch):
        out = tmp_path / "monitor.jsonl"
        seen = []
        select = monitor.select_group

        def spy(state, *args, **kwargs):
            # before row t is selected, the records of rows 2..t-1 are on disk
            seen.append((state.time_index, len(out.read_text().splitlines())))
            return select(state, *args, **kwargs)

        monkeypatch.setattr(monitor, "select_group", spy)
        argv = self.monitor_argv(workspace, out)
        argv[argv.index("--max-steps") + 1] = "5"
        rc, _, err = run_cli(argv)
        assert rc == 0, err
        assert seen == [(1, 0), (2, 1), (3, 2), (4, 3)]

    def test_seeded_rerun_matches_apart_from_runtime(self, workspace, tmp_path):
        rc, _, _ = run_cli(self.monitor_argv(workspace, tmp_path / "a.jsonl"))
        assert rc == 0
        rc, _, _ = run_cli(self.monitor_argv(workspace, tmp_path / "b.jsonl"))
        assert rc == 0
        a = json_lines((tmp_path / "a.jsonl").read_text())
        b = json_lines((tmp_path / "b.jsonl").read_text())
        assert a[:-1] == b[:-1]
        sa, sb = a[-1]["summary"], b[-1]["summary"]
        sa.pop("runtime_s"), sb.pop("runtime_s")
        assert sa == sb


class TestSweep:
    def sweep_argv(self, workspace, out):
        return [
            "sweep",
            "--model", str(workspace.model_path),
            "--data-dir", str(workspace.data_dir),
            "--lambda", "0.0,0.5",
            "--groups", "1,2",
            "--mc-samples", "10",
            "--seed", "0",
            "--max-steps", "50",
            "--out", str(out),
        ]

    def test_csv_table(self, workspace, tmp_path):
        out = tmp_path / "sweep.csv"
        rc, _, err = run_cli(self.sweep_argv(workspace, out))
        assert rc == 0, err
        lines = out.read_text().strip().split("\n")
        assert lines[0] == ",".join(SWEEP_COLUMNS)
        assert len(lines) == 3
        grid = [float(line.split(",")[0]) for line in lines[1:]]
        assert grid == [0.0, 0.5]

    def test_bytes_deterministic_apart_from_runtime_column(self, workspace, tmp_path):
        rc, _, _ = run_cli(self.sweep_argv(workspace, tmp_path / "a.csv"))
        assert rc == 0
        rc, _, _ = run_cli(self.sweep_argv(workspace, tmp_path / "b.csv"))
        assert rc == 0
        a = (tmp_path / "a.csv").read_text().strip().split("\n")
        b = (tmp_path / "b.csv").read_text().strip().split("\n")
        assert SWEEP_COLUMNS[-1] == "runtime_s"
        strip = lambda line: line.rsplit(",", 1)[0]
        assert [strip(x) for x in a] == [strip(x) for x in b]


    def test_stdout_carries_the_file_bytes(self, workspace, tmp_path):
        rc, _, err = run_cli(self.sweep_argv(workspace, tmp_path / "a.csv"))
        assert rc == 0, err
        rc, stdout, err = run_cli(self.sweep_argv(workspace, "-"))
        assert rc == 0, err
        strip = lambda line: line.rsplit(",", 1)[0]
        a = (tmp_path / "a.csv").read_bytes().decode().split("\r\n")
        b = stdout.split("\r\n")
        assert len(a) == 4 and a[-1] == ""
        assert [strip(x) for x in a] == [strip(x) for x in b]


class TestPca:
    def test_projection_document(self, workspace, tmp_path):
        out = tmp_path / "pca.json"
        rc, stdout, err = run_cli(
            [
                "pca",
                "--data-dir", str(workspace.data_dir),
                "--components", "1",
                "--out", str(out),
            ]
        )
        assert rc == 0, err
        proj = PcaProjection(**json.loads(out.read_text()))
        assert proj.component_matrix.shape == (1, 2)
        assert np.linalg.norm(proj.component_matrix[0]) == pytest.approx(1.0, abs=1e-8)
        report = json_lines(stdout)[-1]
        assert len(report["explained_variance"]) == 1


class TestErrorRecords:
    def test_missing_data_directory(self, workspace):
        rc, _, err = run_cli(
            [
                "filter",
                "--model", str(workspace.model_path),
                "--data-dir", str(workspace.root / "nope"),
            ]
        )
        assert rc == 1
        record = json.loads(err)
        assert record["error"] == "FormatError"
        assert "X_test" in record["path"]

    def test_invalid_label_reports_line(self, workspace, tmp_path):
        data = tmp_path / "data"
        shutil.copytree(workspace.data_dir, data)
        yp = data / "test" / "y_test.txt"
        y = np.loadtxt(yp, dtype=int)
        y[4] = 9
        np.savetxt(yp, y[:, None], fmt="%d")
        rc, _, err = run_cli(
            [
                "filter",
                "--model", str(workspace.model_path),
                "--data-dir", str(data),
            ]
        )
        assert rc == 1
        record = json.loads(err)
        assert record["error"] == "FormatError"
        assert record["line"] == 5

    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_non_finite_lengthscale_is_an_error_record(self, workspace, tmp_path, value):
        out = tmp_path / "model.json"
        rc, _, err = run_cli(
            [
                "train",
                "--data-dir", str(workspace.data_dir),
                "--out", str(out),
                "--pca", "0",
                "--lengthscale", value,
            ]
        )
        assert rc == 1
        record = json.loads(err)
        assert record["error"] == "ValueError"
        assert "lengthscale" in record["message"]
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "pca", "filter", "monitor", "sweep"])
    def test_empty_split_is_an_error_record(self, workspace, tmp_path, command):
        data = tmp_path / "data"
        for split in ("train", "test"):
            (data / split).mkdir(parents=True)
            for name in ("X", "y", "subject"):
                (data / split / f"{name}_{split}.txt").write_text("")
        argv = [command, "--data-dir", str(data)]
        if command == "train":
            argv += ["--out", str(tmp_path / "model.json")]
        elif command != "pca":
            argv += ["--model", str(workspace.model_path)]
        rc, out, err = run_cli(argv)
        assert rc == 1
        assert out == ""
        (record,) = json_lines(err)
        split = "train" if command in ("train", "pca") else "test"
        assert record["error"] == "FormatError"
        assert record["path"] == str(data / split / f"X_{split}.txt")
        assert not (tmp_path / "model.json").exists()

    @pytest.mark.parametrize(
        "edit, error, field",
        [
            pytest.param(lambda doc: doc.update(untrained_states=[7]), "ValueError",
                         "untrained_states", id="untrained-out-of-range"),
            pytest.param(lambda doc: doc.update(untrained_states=[-1]), "ValueError",
                         "untrained_states", id="untrained-negative"),
            pytest.param(lambda doc: doc.update(untrained_states=[0, 1]), "ValueError",
                         "untrained_states", id="every-state-untrained"),
            pytest.param(lambda doc: doc.pop("durations"), "FormatError", "durations",
                         id="no-durations"),
            pytest.param(lambda doc: doc.update(untrained_states=7), "FormatError",
                         "untrained_states", id="untrained-number"),
            pytest.param(lambda doc: doc.update(durations=5), "FormatError", "durations",
                         id="durations-number"),
            pytest.param(lambda doc: doc["emissions"][0].update(lengthscale="4"), "FormatError",
                         "emissions[0].lengthscale", id="lengthscale-string"),
            pytest.param(lambda doc: doc.update(version=99), "FormatError", "version",
                         id="version-99"),
            pytest.param(lambda doc: doc.update(num_features=doc["num_features"] + 1),
                         "FormatError", "num_features", id="num-features-off"),
        ],
    )
    def test_malformed_model_file_is_an_error_record(self, workspace, tmp_path, edit, error,
                                                     field):
        doc = json.loads(workspace.model_path.read_text())
        edit(doc)
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        rc, out, err = run_cli(
            ["filter", "--model", str(path), "--data-dir", str(workspace.data_dir)]
        )
        assert rc == 1
        assert out == ""
        (record,) = json_lines(err)
        assert record["error"] == error
        assert field in record["message"]
        if error == "FormatError":
            assert record["path"] == str(path)

    @pytest.mark.parametrize(
        "text, message",
        [
            pytest.param(lambda doc: json.dumps([doc]), "not a switchgp model document",
                         id="json-list"),
            pytest.param(lambda doc: json.dumps(doc)[:-40], "not JSON", id="truncated"),
        ],
    )
    def test_model_file_that_is_no_model_document_is_an_error_record(
        self, workspace, tmp_path, text, message
    ):
        path = tmp_path / "model.json"
        path.write_text(text(json.loads(workspace.model_path.read_text())))
        rc, out, err = run_cli(
            ["filter", "--model", str(path), "--data-dir", str(workspace.data_dir)]
        )
        assert rc == 1
        assert out == ""
        (record,) = json_lines(err)
        assert record["error"] == "FormatError"
        assert record["path"] == str(path)
        assert message in record["message"]

    def test_missing_required_argument_exits_nonzero(self):
        with pytest.raises(SystemExit) as exc:
            main(["train"])
        assert exc.value.code == 2

    def test_module_entry_point(self, workspace):
        proc = subprocess.run(
            [sys.executable, "-m", "switchgp.cli", "filter",
             "--model", str(workspace.model_path),
             "--data-dir", str(workspace.data_dir),
             "--max-steps", "3"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert [r["time"] for r in json_lines(proc.stdout)] == [1, 2, 3]

    @pytest.mark.parametrize(
        "command, flag, value",
        [
            ("monitor", "--max-steps", "0"),
            ("monitor", "--max-steps", "-1"),
            ("monitor", "--mc-samples", "0"),
            ("sweep", "--max-steps", "0"),
            ("sweep", "--max-steps", "-1"),
            ("sweep", "--mc-samples", "0"),
            ("sweep", "--max-series", "0"),
            ("filter", "--max-steps", "-1"),
            ("predict", "--max-series", "0"),
            ("monitor", "--groups", "0"),
            ("monitor", "--groups", "1,-2"),
            ("monitor", "--groups", ","),
            ("sweep", "--groups", "0"),
            ("sweep", "--groups", "2,0"),
            ("sweep", "--groups", ","),
        ],
    )
    def test_counts_below_one_are_usage_errors(self, workspace, command, flag, value, capsys):
        argv = [
            command,
            "--model", str(workspace.model_path),
            "--data-dir", str(workspace.data_dir),
            flag, value,
        ]
        if command in ("monitor", "sweep"):
            argv += ["--groups", "1", "--lambda", "0.5"]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "positive integer" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["train", "--out", "m.json", "--max-iterations", "0"], "positive integer"),
            (["train", "--out", "m.json", "--pca", "-1"], "zero or a positive integer"),
            (["pca", "--components", "0"], "positive integer"),
            (["train", "--out", "m.json", "--dmax", "0"], "positive integer"),
            (["train", "--out", "m.json", "--dmax", "-4"], "positive integer"),
            (["simulate", "--model", "m.json", "--out", "d", "--num-train", "-1"],
             "zero or a positive integer"),
            (["simulate", "--model", "m.json", "--out", "d", "--num-test", "-1"],
             "zero or a positive integer"),
            (["simulate", "--model", "m.json", "--out", "d", "--steps", "0"],
             "positive integer"),
            (["simulate", "--model", "m.json", "--out", "d", "--seed", "-1"],
             "zero or a positive integer"),
            (["monitor", "--model", "m.json", "--seed", "-1"], "zero or a positive integer"),
            (["sweep", "--model", "m.json", "--seed", "-1"], "zero or a positive integer"),
            (["monitor", "--model", "m.json", "--groups=-1,2"], "positive integer"),
            (["sweep", "--model", "m.json", "--groups=-1,2"], "positive integer"),
        ],
    )
    def test_train_and_pca_counts_are_usage_errors(self, workspace, argv, message, capsys):
        if argv[0] != "simulate":
            argv = argv + ["--data-dir", str(workspace.data_dir)]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, value",
        [("monitor", "nan"), ("monitor", "inf"), ("sweep", "0,nan"), ("sweep", "inf,0.5"),
         ("sweep", ",")],
    )
    def test_non_finite_lambda_is_a_usage_error(self, workspace, command, value, capsys):
        argv = [
            command,
            "--model", str(workspace.model_path),
            "--data-dir", str(workspace.data_dir),
            "--groups", "1",
            "--lambda", value,
        ]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "finite" in capsys.readouterr().err
