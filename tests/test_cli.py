import csv
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from tma import cli, fileio
from tma.cli import build_model_config, convergence_time, main
from tma.config import ConfigError, ExperimentConfig
from tma.coordination import MetricsRecord, ProtocolError
from tma.nn import init_weights, save_weights


def run_cli(args):
    return main(list(args))


@pytest.fixture
def small_cfg(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "\n".join(
            [
                "nodes = 300",
                "mean_degree = 6.0",
                "homophily = 0.8",
                "negatives = 20",
                "trainers = 2",
                "hidden = 8",
                "budget = 3.0",
                "interval = 1.0",
                "batch_size = 16",
                "fanouts = 3,3",
                "step_times = 0.05",
                "seed = 3",
            ]
        )
    )
    return cfg


class TestConfig:
    def test_file_plus_overrides(self, small_cfg):
        cfg = ExperimentConfig.from_sources(small_cfg, {"trainers": 3})
        assert cfg.nodes == 300
        assert cfg.trainers == 3
        assert cfg.fanouts == (3, 3)

    def test_validation_reports_all_problems_at_once(self):
        with pytest.raises(ConfigError) as err:
            ExperimentConfig.from_sources(
                None,
                {"trainers": 0, "homophily": 2.0, "mode": "other", "interval": 99999.0},
            )
        text = str(err.value)
        assert "trainers" in text
        assert "homophily" in text
        assert "mode" in text
        assert "interval" in text

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            ExperimentConfig.from_sources(None, {"nope": 1})


class TestPipeline:
    def test_full_pipeline(self, tmp_path, small_cfg):
        prefix = str(tmp_path / "data")
        assert run_cli(["generate", "--config", str(small_cfg), "--out", prefix]) == 0
        assert run_cli(["split", "--config", str(small_cfg), "--graph", prefix + ".graph",
                        "--out", prefix]) == 0
        assert run_cli(["partition", "--config", str(small_cfg), "--scheme", "mincut",
                        "--graph", prefix + ".train.graph",
                        "--out", prefix + ".part"]) == 0
        metrics = str(tmp_path / "metrics.csv")
        weights = str(tmp_path / "best.tmaw")
        assert run_cli([
            "train", "--config", str(small_cfg),
            "--graph", prefix + ".train.graph",
            "--features", prefix + ".feat",
            "--splits", prefix + ".splits",
            "--metrics", metrics,
            "--save-weights", weights,
        ]) == 0
        # metrics CSV carries config echo plus at least one val row
        lines = Path(metrics).read_text().splitlines()
        assert any(line.startswith("# nodes=300") for line in lines)
        rows = list(csv.DictReader(line for line in lines if not line.startswith("#")))
        val_rows = [r for r in rows if r["split"] == "val"]
        assert len(val_rows) >= 1
        assert all(0 <= float(r["mrr"]) <= 1 for r in val_rows)
        assert run_cli([
            "eval", "--config", str(small_cfg),
            "--weights", weights,
            "--graph", prefix + ".train.graph",
            "--features", prefix + ".feat",
            "--splits", prefix + ".splits",
            "--split", "test",
        ]) == 0

    def test_partition_file_reused_by_train(self, tmp_path, small_cfg):
        prefix = str(tmp_path / "data")
        run_cli(["generate", "--config", str(small_cfg), "--out", prefix])
        run_cli(["split", "--config", str(small_cfg), "--graph", prefix + ".graph",
                 "--out", prefix])
        run_cli(["partition", "--config", str(small_cfg),
                 "--graph", prefix + ".train.graph", "--out", prefix + ".part"])
        assert run_cli([
            "train", "--config", str(small_cfg),
            "--graph", prefix + ".train.graph",
            "--features", prefix + ".feat",
            "--splits", prefix + ".splits",
            "--partition", prefix + ".part",
        ]) == 0

    def test_idempotent_artifacts(self, tmp_path, small_cfg):
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        for prefix in (a, b):
            run_cli(["generate", "--config", str(small_cfg), "--out", prefix])
            run_cli(["split", "--config", str(small_cfg), "--graph", prefix + ".graph",
                     "--out", prefix])
        for suffix in (".graph", ".feat", ".labels", ".train.graph", ".splits"):
            assert Path(a + suffix).read_bytes() == Path(b + suffix).read_bytes()


class TestTheoryCheckCommand:
    def test_closed_form_grid(self, tmp_path):
        report = str(tmp_path / "theory.csv")
        assert run_cli([
            "theory-check", "--grid-beta", "0.5:1.0:0.25", "--grid-h", "0.6:0.8:0.2",
            "--seeds", "0", "--report", report,
        ]) == 0
        rows = list(csv.DictReader(Path(report).read_text().splitlines()))
        assert len(rows) == 6
        assert {"h", "beta", "lambda"} <= set(rows[0])

    def test_monte_carlo_columns(self, tmp_path):
        report = str(tmp_path / "theory.csv")
        assert run_cli([
            "theory-check", "--grid-beta", "0.75:0.75:1", "--grid-h", "0.8:0.8:1",
            "--seeds", "2", "--eta", "300", "--report", report,
        ]) == 0
        rows = list(csv.DictReader(Path(report).read_text().splitlines()))
        assert len(rows) == 1
        assert float(rows[0]["cut_measured"]) > 0
        assert float(rows[0]["grad_rel_err"]) < 0.2

    @pytest.mark.parametrize("grid", ["0.5:1.0:0", "0.5:1.0:-0.1", "1.0:0.5:0.1"])
    def test_bad_grid_single_line(self, tmp_path, capsys, grid):
        report = tmp_path / "theory.csv"
        assert run_cli(["theory-check", "--grid-beta", grid, "--report", str(report)]) == 1
        err = capsys.readouterr().err.strip()
        assert err.startswith(f"error: bad grid '{grid}'")
        assert "\n" not in err
        assert not report.exists()


@pytest.fixture
def dataset(tmp_path, small_cfg):
    """Path prefix of small_cfg's generated and split graph."""
    prefix = str(tmp_path / "data")
    assert run_cli(["generate", "--config", str(small_cfg), "--out", prefix]) == 0
    assert run_cli(["split", "--config", str(small_cfg), "--graph", prefix + ".graph",
                    "--out", prefix]) == 0
    return prefix


def _inputs(prefix):
    return ["--graph", prefix + ".train.graph", "--features", prefix + ".feat",
            "--splits", prefix + ".splits"]


class TestFailureSweep:
    def test_sweep_rows(self, tmp_path, small_cfg, dataset):
        prefix = dataset
        out = str(tmp_path / "sweep.csv")
        assert run_cli([
            "failure-sweep", "--config", str(small_cfg),
            "--graph", prefix + ".train.graph",
            "--features", prefix + ".feat",
            "--splits", prefix + ".splits",
            "--fail-count", "1",
            "--out", out,
        ]) == 0
        lines = [l for l in Path(out).read_text().splitlines() if not l.startswith("#")]
        rows = list(csv.DictReader(lines))
        # baseline + one row per dropped trainer + the averaged row
        assert [r["fail_ids"] for r in rows] == ["none", "0", "1", "avg_failed"]
        failed = [float(r["test_mrr"]) for r in rows[1:3]]
        assert float(rows[3]["test_mrr"]) == pytest.approx(np.mean(failed))

    @pytest.mark.parametrize("count", [0, 2, 3])  # small_cfg has 2 trainers
    def test_fail_count_out_of_range_single_line(self, tmp_path, small_cfg, dataset, capsys, count):
        out = tmp_path / "sweep.csv"
        rc = run_cli(["failure-sweep", "--config", str(small_cfg), *_inputs(dataset),
                      "--fail-count", str(count), "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err.strip()
        assert err.startswith("error: fail_count must be in [1, trainers - 1 = 1]")
        assert "\n" not in err
        assert not out.exists()


class TestErrorPaths:
    def test_unknown_flag_exits_2(self):
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "tma.cli", "generate", "--bogus", "1", "--out", "x"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 2
        assert "usage" in proc.stderr.lower()

    def test_missing_input_single_line_error(self, tmp_path, capsys):
        rc = run_cli(["split", "--graph", str(tmp_path / "missing.graph"),
                      "--out", str(tmp_path / "x")])
        assert rc == 1
        err = capsys.readouterr().err.strip()
        assert err.startswith("error:")
        assert "\n" not in err

    @pytest.mark.parametrize("edit", ["missing-tensor", "reshaped-tensor"])
    def test_checkpoint_with_wrong_tensors_single_line(self, tmp_path, small_cfg, capsys, edit):
        prefix = str(tmp_path / "data")
        assert run_cli(["generate", "--config", str(small_cfg), "--out", prefix]) == 0
        assert run_cli(["split", "--config", str(small_cfg), "--graph", prefix + ".graph",
                        "--out", prefix]) == 0
        dim = fileio.load_features(prefix + ".feat").shape[1]
        w = init_weights(build_model_config(ExperimentConfig.from_sources(small_cfg, {}), dim))
        if edit == "missing-tensor":
            w.names.remove("enc0.ln.gain")
        else:
            w.tensors["enc0.ln.gain"] = w.tensors["enc0.ln.gain"].reshape(2, -1)
        save_weights(w, tmp_path / "bad.tmaw")  # right fingerprint, wrong tensors
        rc = run_cli(["eval", "--config", str(small_cfg), "--weights", str(tmp_path / "bad.tmaw"),
                      "--graph", prefix + ".train.graph", "--features", prefix + ".feat",
                      "--splits", prefix + ".splits"])
        assert rc == 1
        err = capsys.readouterr().err.strip()
        assert err.startswith("error: weight checkpoint")
        assert "\n" not in err

    @pytest.mark.parametrize("timeout", ["0", "-1"])
    def test_nonpositive_readiness_timeout_single_line(self, small_cfg, dataset, capsys, timeout):
        rc = run_cli(["train", "--config", str(small_cfg), *_inputs(dataset),
                      "--readiness-timeout", timeout])
        assert rc == 1
        err = capsys.readouterr().err.strip()
        assert err == "error: readiness_timeout must be positive"

    def test_protocol_error_single_line(self, monkeypatch, small_cfg, dataset, capsys):
        def no_trainer(*args, **kwargs):
            raise ProtocolError("no trainer became ready before the readiness timeout")

        monkeypatch.setattr(cli, "run_training", no_trainer)
        assert run_cli(["train", "--config", str(small_cfg), *_inputs(dataset)]) == 1
        err = capsys.readouterr().err.strip()
        assert err == "error: no trainer became ready before the readiness timeout"

    def test_config_violations_single_line(self, capsys, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("trainers = 0\nhomophily = 5\n")
        rc = run_cli(["generate", "--config", str(bad), "--out", str(tmp_path / "x")])
        assert rc == 1
        err = capsys.readouterr().err.strip()
        assert err.count("\n") == 0
        assert "trainers" in err and "homophily" in err


class TestInputsFromDifferentGraphs:
    @pytest.fixture
    def artifacts(self, tmp_path, small_cfg):
        """Generated and split graphs of 300 ("big") and 120 ("small") nodes,
        plus a checkpoint for the config's model."""
        for name, nodes in (("big", "300"), ("small", "120")):
            prefix = str(tmp_path / name)
            assert run_cli(["generate", "--config", str(small_cfg), "--nodes", nodes,
                            "--out", prefix]) == 0
            assert run_cli(["split", "--config", str(small_cfg), "--graph", prefix + ".graph",
                            "--out", prefix]) == 0
        dim = fileio.load_features(tmp_path / "small.feat").shape[1]
        model = build_model_config(ExperimentConfig.from_sources(small_cfg, {}), dim)
        save_weights(init_weights(model), tmp_path / "w.tmaw")
        return tmp_path

    @pytest.mark.parametrize("command", ["train", "eval"])
    @pytest.mark.parametrize(
        "graph, features, splits, message",
        [
            pytest.param("small", "big", "small", "features have 300 rows but the graph has 120 nodes",
                         id="extra-feature-rows"),
            pytest.param("big", "small", "big", "features have 120 rows but the graph has 300 nodes",
                         id="missing-feature-rows"),
            pytest.param("small", "small", "big", "outside the graph's 120 nodes",
                         id="split-ids-outside"),
        ],
    )
    def test_one_line_error(self, artifacts, small_cfg, capsys, command, graph, features,
                            splits, message):
        args = [
            command, "--config", str(small_cfg),
            "--graph", str(artifacts / f"{graph}.train.graph"),
            "--features", str(artifacts / f"{features}.feat"),
            "--splits", str(artifacts / f"{splits}.splits"),
        ]
        if command == "eval":
            args += ["--weights", str(artifacts / "w.tmaw")]
        assert run_cli(args) == 1
        err = capsys.readouterr().err.strip()
        assert err.startswith("error:")
        assert "\n" not in err
        assert message in err


def test_convergence_time_definition():
    rows = [
        MetricsRecord(wall_s=10.0, round=1, split="val", mrr=0.50, steps={}, loss={}),
        MetricsRecord(wall_s=20.0, round=2, split="val", mrr=0.90, steps={}, loss={}),
        MetricsRecord(wall_s=30.0, round=3, split="val", mrr=0.99, steps={}, loss={}),
        MetricsRecord(wall_s=40.0, round=4, split="val", mrr=1.00, steps={}, loss={}),
        MetricsRecord(wall_s=41.0, round=4, split="test", mrr=0.97, steps={}, loss={}),
    ]
    # 1%-relative band of the maximum 1.0 starts at 0.99, first reached at 30s
    assert convergence_time(rows) == 30.0
