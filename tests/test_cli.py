from __future__ import annotations

import dataclasses
import json
from types import SimpleNamespace

import pytest

from zdeval import cli
from zdeval.classifiers import ForestConfig, MlpConfig
from zdeval.cli import main
from zdeval.config import load_config

_COLUMNS = [
    {"name": "f0", "kind": "numeric"},
    {"name": "attack_class", "kind": "attack_class"},
    {"name": "label", "kind": "binary_label"},
]


@pytest.fixture()
def spec_file(tmp_path):
    spec = {
        "n_benign": 150,
        "d": 3,
        "seed": 4,
        "attacks": [
            {"name": "alpha", "count": 60, "mean": 1.0, "cov_scale": 0.4},
            {"name": "beta", "count": 50, "mean": 1.1, "cov_scale": 0.4},
            {"name": "gamma", "count": 40, "mean": 1.0, "cov_scale": 0.4, "shift": -2.0},
        ],
    }
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    return path


@pytest.fixture()
def experiment_setup(tmp_path, spec_file):
    data = tmp_path / "data.csv"
    cfg = tmp_path / "cfg.json"
    assert main(["synth", "--spec", str(spec_file), "--out", str(data), "--config-out", str(cfg)]) == 0
    doc = json.loads(cfg.read_text())
    doc.update(
        {
            "workers": 1,
            "save_models": False,
            "k": 2,
            "forest": {"n_trees": 3},
            "mlp": {"epochs": 3, "learning_rate": 0.1, "batch_size": 32, "hidden_units": [6, 6]},
        }
    )
    cfg.write_text(json.dumps(doc))
    return tmp_path, cfg


class TestSynth:
    def test_writes_csv_and_config(self, tmp_path, spec_file):
        out = tmp_path / "d.csv"
        cfg = tmp_path / "c.json"
        assert main(["synth", "--spec", str(spec_file), "--out", str(out), "--config-out", str(cfg)]) == 0
        assert out.exists()
        header = out.read_text().splitlines()[0]
        assert "attack_class" in header and "f0" in header
        doc = json.loads(cfg.read_text())
        assert doc["benign_name"] == "Benign"

    def test_missing_spec_is_config_error(self, tmp_path, spec_file, caplog):
        assert main(["synth", "--spec", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o.csv")]) == 1
        assert main(["synth", "--spec", str(spec_file), "--out", str(tmp_path / "o.csv"), "--seed", "-1"]) == 1
        assert "bad synthetic spec: seed must be >= 0, got -1" in caplog.text
        assert not (tmp_path / "o.csv").exists()

    def test_seed_override(self, tmp_path, spec_file):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["synth", "--spec", str(spec_file), "--out", str(a), "--seed", "99"]) == 0
        assert main(["synth", "--spec", str(spec_file), "--out", str(b), "--seed", "99"]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestRun:
    def test_full_run_writes_artifacts(self, experiment_setup):
        tmp_path, cfg = experiment_setup
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        names = {p.name for p in out.iterdir()}
        assert {"run.json", "metrics_forest.csv", "metrics_mlp.csv", "wd_means.tsv"} <= names

    def test_model_and_class_flags(self, experiment_setup):
        tmp_path, cfg = experiment_setup
        out = tmp_path / "out2"
        code = main(
            ["run", "--config", str(cfg), "--out", str(out), "--models", "forest",
             "--classes", "alpha,gamma"]
        )
        assert code == 0
        assert not (out / "metrics_mlp.csv").exists()
        lines = (out / "metrics_forest.csv").read_text().strip().splitlines()
        assert len(lines) == 3  # header + alpha + gamma

    def test_subsample_flag(self, experiment_setup):
        tmp_path, cfg = experiment_setup
        out = tmp_path / "out3"
        assert main(["run", "--config", str(cfg), "--out", str(out), "--subsample", "150"]) == 0
        doc = json.loads((out / "run.json").read_text())
        assert doc["dataset"]["rows_used"] == 150

    def test_config_error_exit_code(self, tmp_path, caplog):
        missing = tmp_path / "missing.json"
        assert main(["run", "--config", str(missing)]) == 1
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["run", "--config", str(bad)]) == 1
        # a negative seed exits 1 before the dataset is read: the file does not exist, so reading it would exit 2
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"dataset": "missing.csv", "benign_name": "Benign", "columns": _COLUMNS, "seed": 0}))
        for command in ("run", "wd"):
            assert main([command, "--config", str(cfg), "--seed", "-1", "--out", str(tmp_path / "o")]) == 1
        assert caplog.text.count("seed must be >= 0, got -1") == 2
        assert not (tmp_path / "o").exists()

    def test_data_error_exit_code(self, experiment_setup):
        tmp_path, cfg = experiment_setup
        doc = json.loads(cfg.read_text())
        doc["dataset"] = "does-not-exist.csv"
        cfg2 = tmp_path / "cfg2.json"
        cfg2.write_text(json.dumps(doc))
        assert main(["run", "--config", str(cfg2)]) == 2

    def test_runtime_failure_exit_code(self, tmp_path):
        # holding out the only class empties the training set: runtime failure
        data = tmp_path / "degenerate.csv"
        rows = ["f0,attack_class,label"] + [f"{i}.0,solo,1" for i in range(6)]
        data.write_text("\n".join(rows) + "\n")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {
                    "dataset": str(data),
                    "benign_name": "Benign",
                    "columns": [
                        {"name": "f0", "kind": "numeric"},
                        {"name": "attack_class", "kind": "attack_class"},
                        {"name": "label", "kind": "binary_label"},
                    ],
                    "models": ["forest"],
                    "k": 2,
                    "seed": 0,
                    "workers": 1,
                }
            )
        )
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3
        # under train-only scope the empty training set fails its scenario's fit
        cfg.write_text(json.dumps(dict(json.loads(cfg.read_text()), fit_scope="train-only")))
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o2")]) == 3


class TestWd:
    def test_wd_only_artifacts(self, experiment_setup):
        tmp_path, cfg = experiment_setup
        out = tmp_path / "wdout"
        assert main(["wd", "--config", str(cfg), "--out", str(out)]) == 0
        names = {p.name for p in out.iterdir()}
        assert "wd_means.tsv" in names
        assert "metrics_forest.csv" not in names
        body = (out / "wd_means.tsv").read_text().strip().splitlines()
        assert body[0] == "class\tmean_wd"
        assert len(body) == 4


class TestEmptyClasses:
    @pytest.mark.parametrize("command", ["run", "wd"])
    def test_an_empty_class_list_is_a_config_error(self, experiment_setup, caplog, command):
        tmp_path, cfg = experiment_setup
        doc = json.loads(cfg.read_text())
        cfg.write_text(json.dumps(dict(doc, classes=[])))
        out = tmp_path / "o"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
        assert "'classes' is empty; omit the key or set it to null for every attack class" in caplog.text
        assert not out.exists()


class TestInspect:
    def test_prints_summary_json(self, experiment_setup, capsys):
        _, cfg = experiment_setup
        assert main(["inspect", "--config", str(cfg)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["row_count"] == 300
        assert doc["attack_names"] == ["alpha", "beta", "gamma"]
        assert doc["attack_rows"] == 150


class TestBenignOnly:
    @pytest.mark.parametrize(
        "argv", [["run", "--classes", "nope"], ["wd", "--classes", "nope"], ["inspect"]], ids=["run", "wd", "inspect"]
    )
    def test_a_file_with_no_attack_class_is_a_data_error(self, tmp_path, caplog, argv):
        # raised before the --classes check, so the unknown class is not what is reported
        data = tmp_path / "benign.csv"
        data.write_text("\n".join(["f0,attack_class,label"] + [f"{i}.0,Benign,0" for i in range(6)]) + "\n")
        cfg = tmp_path / "cfg.json"
        columns = [
            {"name": "f0", "kind": "numeric"},
            {"name": "attack_class", "kind": "attack_class"},
            {"name": "label", "kind": "binary_label"},
        ]
        cfg.write_text(json.dumps({"dataset": str(data), "benign_name": "Benign", "columns": columns, "k": 2, "seed": 0}))
        out = [] if argv[0] == "inspect" else ["--out", str(tmp_path / "o")]
        assert main([argv[0], "--config", str(cfg), *argv[1:], *out]) == 2
        assert "table contains no attack classes; no zero-day scenario is definable" in caplog.text
        assert not (tmp_path / "o").exists()


class TestOverrideFlags:
    """Each run/wd flag reaches the config field of its name, and only that field."""

    @pytest.fixture()
    def captured(self, monkeypatch):
        # the runners and the writer are patched out, so nothing is read or written
        calls = []

        def runner(name):
            def run(cfg):
                calls.append((name, cfg))
                return SimpleNamespace(warnings=[])
            return run

        monkeypatch.setattr(cli, "run_experiment", runner("run"))
        monkeypatch.setattr(cli, "run_wd_analysis", runner("wd"))
        monkeypatch.setattr(cli, "emit_reports", lambda report, output_dir: [])
        return calls

    @pytest.fixture()
    def config_path(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(
            {"dataset": "data.csv", "benign_name": "Benign", "columns": _COLUMNS, "seed": 0, "workers": 1}
        ))
        return path

    @pytest.mark.parametrize("command", ["run", "wd"])
    @pytest.mark.parametrize(
        "flags, name, value",
        [
            (["--out", "elsewhere"], "output_dir", "elsewhere"),
            (["--seed", "99"], "seed", 99),
            (["--models", "mlp"], "models", ("mlp",)),
            (["--classes", "alpha,gamma"], "classes", ("alpha", "gamma")),
            (["--subsample", "150"], "subsample", 150),
            (["--workers", "3"], "workers", 3),
            (["--keep-going"], "keep_going", True),
        ],
        ids=["out", "seed", "models", "classes", "subsample", "workers", "keep-going"],
    )
    def test_flag_sets_its_field(self, captured, config_path, command, flags, name, value):
        loaded = load_config(config_path)
        assert getattr(loaded, name) != value
        assert main([command, "--config", str(config_path), *flags]) == 0
        assert captured == [(command, dataclasses.replace(loaded, **{name: value}))]

    @pytest.mark.parametrize("command", ["run", "wd"])
    def test_no_flag_keeps_the_config(self, captured, config_path, command):
        assert main([command, "--config", str(config_path)]) == 0
        assert captured == [(command, load_config(config_path))]


class TestHyperparameterTypes:
    @pytest.mark.parametrize(
        "key, params",
        [
            ("forest", {"n_trees": 2.5}),
            ("forest", {"m_try": 1.5}),
            ("forest", {"n_trees": True}),
            ("forest", {"bootstrap": "no"}),
            ("mlp", {"epochs": 1.5}),
            ("mlp", {"hidden_units": [4.5, 4]}),
            ("mlp", {"hidden_units": [4, 4, 4]}),
        ],
        ids=["n_trees-float", "m_try-float", "n_trees-bool", "bootstrap-str", "epochs-float", "hidden-float",
             "hidden-three"],
    )
    def test_a_mistyped_hyperparameter_exits_1_before_the_dataset_is_read(self, tmp_path, caplog, key, params):
        # the dataset does not exist, so reading it would exit 2
        cfg = tmp_path / "cfg.json"
        doc = {"dataset": "missing.csv", "benign_name": "Benign", "columns": _COLUMNS, "seed": 0, key: params}
        cfg.write_text(json.dumps(doc))
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        assert f"bad model hyperparameters: {next(iter(params))} must be" in caplog.text
        assert not (tmp_path / "o").exists()
        with pytest.raises(ValueError):
            {"forest": ForestConfig, "mlp": MlpConfig}[key](**params)
