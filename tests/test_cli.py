"""End-to-end command-line tests: simulate, train, predict, filter,
monitor, sweep, pca, argument checks, and the failure-path error records."""

import contextlib
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
from switchgp.data import PcaProjection
from switchgp.experiments import SWEEP_COLUMNS
from switchgp.model import load_model, save_model


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
        assert s["fit"]["iterations"] >= 1
        assert s["fit"]["final_objective"] <= s["fit"]["initial_objective"]

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
        proj = PcaProjection.from_dict(json.loads(out.read_text()))
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
