from __future__ import annotations

import concurrent.futures
import ctypes
import dataclasses
import json
import multiprocessing
import os
import re
import shutil
import stat
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from conftest import fit_rows, scenario_wd, tables_equal
from oracle_impls import merge_wd

from zdeval import harness
from zdeval.classifiers import forest_from_json
from zdeval.config import (
    _TOP_LEVEL_KEYS,
    KNOWN_MODELS,
    ExperimentConfig,
    apply_overrides,
    config_from_dict,
    load_config,
)
from zdeval.errors import ConfigError, DataError
from zdeval.flowdata import Column, ColumnKind, FeatureSchema, FlowTable, load_csv, write_csv
from zdeval.harness import (
    _SEED_TRAIN,
    _prepare,
    _unique_slugs,
    derive_seed,
    dr_vs_zdr_tsv_text,
    emit_reports,
    metrics_csv_text,
    run_experiment,
    run_wd_analysis,
    subsample_rows,
    wd_means_tsv_text,
)
from zdeval.preprocess import FittedTransform
from zdeval.synth import AttackBlob, SyntheticSpec, synthesize_dataset
from zdeval.zslsplit import Scenario, make_fold_plan, make_zero_day_scenarios, scenario_rows


def base_config_dict(csv_path, schema_json, **overrides):
    cfg = {
        "dataset": str(csv_path),
        "benign_name": "Benign",
        "columns": schema_json,
        "models": ["forest"],
        "k": 3,
        "seed": 7,
        "workers": 1,
        "save_models": False,
        "forest": {"n_trees": 5},
        "mlp": {"epochs": 5, "learning_rate": 0.1, "batch_size": 64, "hidden_units": [8, 8]},
    }
    cfg.update(overrides)
    return cfg


@pytest.fixture(scope="module")
def cat_csv(synth_csv, tmp_path_factory):
    """The synthetic table with a categorical column, "proto", appended."""
    path, table = synth_csv
    proto = np.where(np.arange(table.row_count) % 3, "tcp", "udp").astype(object)
    schema = FeatureSchema((*table.schema.columns, Column("proto", ColumnKind.CATEGORICAL)))
    path = tmp_path_factory.mktemp("cat") / "data.csv"
    write_csv(
        FlowTable(
            schema, table.benign_name, {**table.data, "proto": proto},
            class_codes=table.class_codes, class_names=table.class_names,
        ),
        path,
    )
    return path, schema


@pytest.fixture(scope="module")
def synth_csv(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("data")
    spec = SyntheticSpec(
        n_benign=240,
        attacks=(
            AttackBlob("alpha", 90, mean=1.0, cov_scale=0.4),
            AttackBlob("beta", 80, mean=1.1, cov_scale=0.4),
            AttackBlob("gamma", 70, mean=1.0, cov_scale=0.4, shift=-2.5),
        ),
        d=3,
        seed=5,
    )
    table = synthesize_dataset(spec)
    path = tmp / "synth.csv"
    write_csv(table, path)
    return path, table


class TestSyntheticDataset:
    def test_row_counts(self):
        spec = SyntheticSpec(
            n_benign=1000,
            attacks=(AttackBlob("a", 200), AttackBlob("b", 200), AttackBlob("c", 200)),
            d=4,
            seed=0,
        )
        table = synthesize_dataset(spec)
        assert table.row_count == 1600
        assert table.attack_names == ("a", "b", "c")

    def test_deterministic_per_seed(self):
        spec = SyntheticSpec(n_benign=50, attacks=(AttackBlob("a", 20),), d=2, seed=3)
        t1, t2 = synthesize_dataset(spec), synthesize_dataset(spec)
        assert tables_equal(t1, t2)

    def test_zero_offset_class_stays_close_to_its_unshifted_noise(self):
        # the shift moves rows after sampling: same seed, same noise
        base = SyntheticSpec(n_benign=10, attacks=(AttackBlob("a", 50, mean=0.0),), d=2, seed=9)
        moved = SyntheticSpec(
            n_benign=10, attacks=(AttackBlob("a", 50, mean=0.0, shift=1.5),), d=2, seed=9
        )
        t_base, t_moved = synthesize_dataset(base), synthesize_dataset(moved)
        delta = t_moved.data["f0"][10:] - t_base.data["f0"][10:]
        assert np.allclose(delta, 1.5, atol=1e-12)

    def test_unshifted_class_near_benign_wd(self):
        # class with the same blob as benign: scaled per-feature distance is small
        spec = SyntheticSpec(
            n_benign=2000, attacks=(AttackBlob("a", 2000, mean=0.0, cov_scale=1.0),), d=3, seed=1
        )
        table = synthesize_dataset(spec)
        rows_a = np.flatnonzero(table.attack_classes == "a")
        rows_b = np.flatnonzero(table.attack_classes == "Benign")
        distances = scenario_wd(table, rows_a, rows_b, fit_rows(table))
        assert np.mean(list(distances.values())) < 0.1

    def test_identifier_column_optional(self):
        spec = SyntheticSpec(
            n_benign=5, attacks=(AttackBlob("a", 5),), d=2, seed=0, include_identifier=False
        )
        assert "flow_id" not in synthesize_dataset(spec).schema.names

    def test_duplicate_class_names_rejected(self):
        with pytest.raises(ValueError, match="unique"):
            SyntheticSpec(n_benign=1, attacks=(AttackBlob("a", 1), AttackBlob("a", 1)))

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match=r"^seed must be >= 0, got -1$"):
            SyntheticSpec(n_benign=1, attacks=(AttackBlob("a", 1),), seed=-1)


class TestConfig:
    def test_required_keys(self, synth_csv):
        path, table = synth_csv
        with pytest.raises(ConfigError, match="dataset"):
            config_from_dict({"benign_name": "Benign", "columns": [], "seed": 0})
        required = {"dataset": str(path), "benign_name": "Benign", "columns": table.schema.to_json()}
        with pytest.raises(ConfigError, match="seed"):
            config_from_dict(required)
        # every key left out takes its ExperimentConfig default
        assert config_from_dict({**required, "seed": 0}) == ExperimentConfig(str(path), "Benign", table.schema)

    @pytest.mark.parametrize(
        "key, value",
        [("typo_key", 1), ("wd_on_scaled", False), ("wd_subsample_cap", 100000), ("unseen_category_policy", "error"),
         ("threshold", 0.25)],
    )
    def test_unknown_key_rejected(self, synth_csv, key, value):
        # the others are deleted keys: distances always read scaled features, over all of their rows,
        # a category unseen at fit time always takes the reserve code, and a score >= 0.5 is an attack
        path, table = synth_csv
        with pytest.raises(ConfigError, match=f"unknown config key '{key}'"):
            config_from_dict(base_config_dict(path, table.schema.to_json(), **{key: value}))

    def test_unknown_model_rejected(self, synth_csv):
        path, table = synth_csv
        with pytest.raises(ConfigError, match="svm"):
            config_from_dict(base_config_dict(path, table.schema.to_json(), models=["svm"]))

    def test_empty_class_list_rejected(self, synth_csv):
        # an empty list selects no class, so a run would write empty tables and succeed
        path, table = synth_csv
        with pytest.raises(ConfigError, match=r"^'classes' is empty; omit the key or set it to null"):
            config_from_dict(base_config_dict(path, table.schema.to_json(), classes=[]))
        assert config_from_dict(base_config_dict(path, table.schema.to_json(), classes=None)).classes is None

    def test_negative_seed_rejected(self, synth_csv):
        # numpy's SeedSequence rejects it too, but only once the dataset has been read
        path, table = synth_csv
        with pytest.raises(ConfigError, match=r"^seed must be >= 0, got -1$"):
            config_from_dict(base_config_dict(path, table.schema.to_json(), seed=-1))
        cfg = config_from_dict(base_config_dict(path, table.schema.to_json()))
        with pytest.raises(ConfigError, match=r"^seed must be >= 0, got -1$"):
            apply_overrides(cfg, seed=-1)

    def test_bad_hyperparameter_rejected(self, synth_csv):
        path, table = synth_csv
        with pytest.raises(ConfigError, match="n_trees"):
            config_from_dict(base_config_dict(path, table.schema.to_json(), forest={"n_trees": 0}))

    def test_relative_dataset_resolved_against_config_dir(self, tmp_path, synth_csv):
        src, table = synth_csv
        data = tmp_path / "data.csv"
        data.write_bytes(src.read_bytes())
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(base_config_dict("data.csv", table.schema.to_json())))
        cfg = load_config(cfg_path)
        assert cfg.dataset == str(tmp_path / "data.csv")

    def test_overrides_win(self, synth_csv):
        path, table = synth_csv
        cfg = config_from_dict(base_config_dict(path, table.schema.to_json()))
        out = apply_overrides(cfg, seed=99, models=("mlp",), out="elsewhere")
        assert out.seed == 99 and out.models == ("mlp",) and out.output_dir == "elsewhere"
        assert cfg.seed == 7  # original untouched

    def test_echo_resolves_defaults(self, synth_csv):
        path, table = synth_csv
        cfg = config_from_dict(base_config_dict(path, table.schema.to_json()))
        echo = cfg.to_json()
        assert echo["fit_scope"] == "full-dataset"
        assert echo["forest"]["n_trees"] == 5

    def test_echo_names_every_config_key(self, synth_csv):
        path, table = synth_csv
        assert config_from_dict(base_config_dict(path, table.schema.to_json())).to_json().keys() == _TOP_LEVEL_KEYS.keys()

    def test_echo_loads_back_to_an_equal_config(self, synth_csv):
        path, table = synth_csv
        every_key = base_config_dict(
            path, table.schema.to_json(), models=["mlp", "forest"], k=4, fit_scope="train-only", subsample=200,
            classes=["alpha", "gamma"], output_dir="elsewhere", workers=3,
            keep_going=True, save_models=True, on_bad_row="drop",
            forest={"n_trees": 4, "m_try": 2, "max_depth": 6, "min_samples_leaf": 3},
            mlp={"learning_rate": 0.5, "batch_size": 16, "epochs": 2, "hidden_units": [3, 5]},
        )
        assert every_key.keys() == _TOP_LEVEL_KEYS.keys()
        cfg = config_from_dict(every_key)
        echo = cfg.to_json()
        assert echo == every_key
        assert config_from_dict(json.loads(json.dumps(echo))) == cfg

    def test_default_workers_count_the_cpus_this_process_may_run_on(self, synth_csv, monkeypatch):
        # an affinity mask (taskset, a cgroup cpuset) can allow fewer CPUs than the machine has
        path, table = synth_csv
        cfg = config_from_dict(base_config_dict(path, table.schema.to_json(), workers=None))
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3, 5}, raising=False)
        assert cfg.resolved_workers() == 3 and cfg.to_json()["workers"] == 3
        assert dataclasses.replace(cfg, workers=5).resolved_workers() == 5
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)  # as on macOS and Windows
        assert cfg.resolved_workers() == 64

    def test_overrides_take_field_names(self, synth_csv):
        path, table = synth_csv
        cfg = config_from_dict(base_config_dict(path, table.schema.to_json()))
        assert apply_overrides(cfg, output_dir="a", subsample=None) == dataclasses.replace(cfg, output_dir="a")
        assert apply_overrides(cfg, out=None) is cfg


class TestSeedsAndSubsample:
    def test_derive_seed_stable_and_distinct(self):
        assert derive_seed(5, 1, 2) == derive_seed(5, 1, 2)
        assert derive_seed(5, 1, 2) != derive_seed(5, 1, 3)
        assert derive_seed(5, 1, 2) != derive_seed(6, 1, 2)

    def test_subsample_rows(self, synth_csv):
        _, table = synth_csv
        sub = subsample_rows(table, 100, seed=1)
        assert sub.row_count == 100
        again = subsample_rows(table, 100, seed=1)
        assert tables_equal(sub, again)
        assert subsample_rows(table, 10**9, seed=1) is table

    def test_dropped_rows_survive_subsampling_in_report(self, tmp_path):
        data = tmp_path / "dirty.csv"
        rows = ["f0,attack_class,label"]
        rows += [f"{i}.0,Benign,0" for i in range(20)]
        rows += [f"{i}.5,atk,1" for i in range(20)]
        rows += ["bogus,atk,1"]
        data.write_text("\n".join(rows) + "\n")
        schema = [
            {"name": "f0", "kind": "numeric"},
            {"name": "attack_class", "kind": "attack_class"},
            {"name": "label", "kind": "binary_label"},
        ]
        cfg = config_from_dict(
            base_config_dict(data, schema, k=2, on_bad_row="drop", subsample=30)
        )
        report = run_experiment(cfg)
        assert report.dataset["dropped_rows"] == 1
        assert report.dataset["rows_used"] == 30
        assert report.dataset["rows_loaded"] == 40


@pytest.fixture(scope="module")
def run(synth_csv, tmp_path_factory):
    path, table = synth_csv
    cfg = config_from_dict(
        base_config_dict(
            path, table.schema.to_json(), models=["forest", "mlp"], save_models=True,
            output_dir=str(tmp_path_factory.mktemp("run")),
        )
    )
    return cfg, run_experiment(cfg)


@pytest.fixture(scope="module")
def emitted(synth_csv, tmp_path_factory):
    path, table = synth_csv
    out = tmp_path_factory.mktemp("out")
    cfg = config_from_dict(
        base_config_dict(
            path, table.schema.to_json(), models=["forest", "mlp"], save_models=True,
            output_dir=str(out),
        )
    )
    report = run_experiment(cfg)
    files = emit_reports(report, cfg.output_dir)
    return cfg, report, out, files


class TestRunExperiment:
    def test_scenario_completeness(self, run):
        cfg, report = run
        for model in ("forest", "mlp"):
            assert set(report.zero_day[model]) == {"alpha", "beta", "gamma"}
            assert len(report.baseline[model]["folds"]) == cfg.k
            for entry in report.zero_day[model].values():
                assert len(entry["folds"]) == cfg.k

    def test_wd_section_per_class(self, run):
        _, report = run
        assert set(report.wd) == {"alpha", "beta", "gamma"}
        for entry in report.wd.values():
            assert len(entry["folds"]) == 3
            assert 0.0 <= entry["mean_wd"] <= 1.0

    def test_shifted_class_has_largest_wd_and_lowest_zdr(self, run):
        _, report = run
        wd = {c: e["mean_wd"] for c, e in report.wd.items()}
        assert max(wd, key=wd.get) == "gamma"
        zdrs = {c: report.zero_day["forest"][c]["mean"]["zdr"] for c in report.zero_day["forest"]}
        assert min(zdrs, key=zdrs.get) == "gamma"

    def test_models_serialized_per_scenario(self, run):
        cfg, _ = run
        # 2 models x (1 baseline + 3 classes) x 3 folds
        assert len(list(Path(cfg.output_dir, "models").iterdir())) == 2 * 4 * 3

    def test_correlation_present(self, run):
        _, report = run
        assert set(report.correlation) == {"forest", "mlp"}

    def test_rerun_identical_modulo_timestamp(self, run):
        cfg, report = run
        again = run_experiment(cfg)
        d1, d2 = report.to_json(), again.to_json()
        d1.pop("generated_at"), d2.pop("generated_at")
        assert json.dumps(d1, sort_keys=True) == json.dumps(d2, sort_keys=True)

    def test_model_subset_respected(self, synth_csv):
        path, table = synth_csv
        cfg = config_from_dict(base_config_dict(path, table.schema.to_json(), models=["forest"]))
        report = run_experiment(cfg)
        assert "mlp" not in report.zero_day and "mlp" not in report.baseline
        assert report.models == ("forest",)

    def test_class_subset_respected(self, synth_csv):
        path, table = synth_csv
        cfg = config_from_dict(
            base_config_dict(path, table.schema.to_json(), classes=["alpha", "gamma"])
        )
        report = run_experiment(cfg)
        assert set(report.zero_day["forest"]) == {"alpha", "gamma"}
        assert set(report.wd) == {"alpha", "gamma"}

    def test_unknown_class_rejected(self, synth_csv):
        path, table = synth_csv
        cfg = config_from_dict(base_config_dict(path, table.schema.to_json(), classes=["nope"]))
        with pytest.raises(ConfigError, match="nope"):
            run_experiment(cfg)

    @pytest.mark.parametrize("fit_scope", ["full-dataset", "train-only"])
    def test_parallel_matches_serial(self, synth_csv, fit_scope):
        path, table = synth_csv
        base = base_config_dict(
            path, table.schema.to_json(), k=2, forest={"n_trees": 3}, fit_scope=fit_scope
        )
        serial = run_experiment(config_from_dict(dict(base, workers=1)))
        parallel = run_experiment(config_from_dict(dict(base, workers=2)))
        s, p = serial.to_json(), parallel.to_json()
        s.pop("generated_at"), p.pop("generated_at")
        s["config"].pop("workers"), p["config"].pop("workers")
        assert json.dumps(s, sort_keys=True) == json.dumps(p, sort_keys=True)

    def test_no_leak_under_train_only_scope(self, synth_csv):
        path, table = synth_csv
        cfg = config_from_dict(
            base_config_dict(path, table.schema.to_json(), fit_scope="train-only", k=2)
        )
        report = run_experiment(cfg)
        # recompute a scenario's scaler stats from its train rows alone
        loaded = load_csv(cfg.dataset, cfg.schema, "Benign")
        plan = make_fold_plan(loaded, cfg.k, cfg.seed)
        scenario = make_zero_day_scenarios(plan, loaded)[0]
        key = f"{scenario.held_out}/f{scenario.fold_id}"
        recorded = report.transforms[key]["scaler"]
        train, _ = scenario_rows(scenario, plan, loaded)
        for feat, rng_ in recorded.items():
            col = loaded.data[feat][train]
            assert rng_["min"] == float(col.min())
            assert rng_["max"] == float(col.max())

    @pytest.mark.parametrize("fit_scope", ["full-dataset", "train-only"])
    def test_either_scope_is_one_fit_call_over_the_class_fold_groups(self, synth_csv, monkeypatch, fit_scope):
        path, table = synth_csv
        cfg = config_from_dict(base_config_dict(path, table.schema.to_json(), fit_scope=fit_scope, k=2))
        calls, fit = [], harness.preprocess_pipeline

        def counted(base, groups, fits):
            calls.append(np.shape(fits))
            return fit(base, groups, fits)

        monkeypatch.setattr(harness, "preprocess_pipeline", counted)
        prep = _prepare(cfg, with_baseline=True)
        n_fits = 1 if fit_scope == "full-dataset" else len(prep.scenarios)
        assert calls == [(n_fits, len(table.class_names) * cfg.k)]
        assert len(prep.fitted) == len(prep.scenarios) and len({id(f) for f in prep.fitted}) == n_fits
        assert len(prep.report.transforms) == n_fits
        assert prep.report.preprocess.keys() == {"fit_scope", "clamped_total"}
        if fit_scope == "full-dataset":  # every row is a fit row: nothing clamps, no category is unseen
            assert list(prep.report.transforms) == ["full"]
            assert prep.report.preprocess == {"fit_scope": "full-dataset", "clamped_total": 0}


def _renamed_csv(table, out: Path, name: str) -> Path:
    """The table's CSV with class beta renamed to `name`."""
    col = table.schema.attack_class_column
    classes = table.attack_classes.copy()
    classes[classes == "beta"] = name
    path = out / "data.csv"
    write_csv(FlowTable(table.schema, table.benign_name, {**table.data, col: classes}), path)
    return path


@pytest.fixture(scope="module")
def renamed_runs(synth_csv, tmp_path_factory):
    """Runs holding out class beta, once under its own name and once renamed to `baseline`."""
    _, table = synth_csv
    runs = []
    for name in ("beta", "baseline"):
        out = tmp_path_factory.mktemp(name)
        cfg = config_from_dict(
            base_config_dict(
                _renamed_csv(table, out, name), table.schema.to_json(), classes=[name], save_models=True,
                output_dir=str(out / "run"),
            )
        )
        report = run_experiment(cfg)
        emit_reports(report, cfg.output_dir)
        runs.append((cfg, report))
    return runs


class TestClassNamedBaseline:
    def test_known_attack_folds_train_on_every_class(self, renamed_runs):
        (_, beta), (_, named) = renamed_runs
        assert named.baseline["forest"]["folds"] == beta.baseline["forest"]["folds"]
        per_class = named.baseline["forest"]["per_class_dr"]
        assert per_class["baseline"] == beta.baseline["forest"]["per_class_dr"]["beta"]

    def test_class_models_do_not_overwrite_baseline_models(self, renamed_runs):
        (beta_cfg, _), (cfg, _) = renamed_runs
        models = Path(cfg.output_dir) / "models"
        assert len(list(models.iterdir())) == 2 * cfg.k
        for f in range(cfg.k):
            name = f"forest_baseline_f{f}.json"
            assert (models / name).read_bytes() == (Path(beta_cfg.output_dir) / "models" / name).read_bytes()

    def test_wd_features_and_models_share_the_class_slug(self, renamed_runs):
        # classes alpha/baseline/gamma with only "baseline" selected: its slug
        # comes from the whole table in every file name
        _, (cfg, _) = renamed_runs
        out = Path(cfg.output_dir)
        assert [p.name for p in out.glob("wd_features_*.csv")] == ["wd_features_baseline-1.csv"]
        assert sorted(p.name for p in (out / "models").glob("forest_baseline-*")) == [
            f"forest_baseline-1_f{f}.json" for f in range(cfg.k)
        ]


class TestTrainOnlyTransformKeys:
    def test_class_named_baseline_keeps_its_own_keys(self, synth_csv, tmp_path):
        _, table = synth_csv
        preps = {}
        for name in ("beta", "baseline"):
            out = tmp_path / name
            out.mkdir()
            cfg = config_from_dict(
                base_config_dict(_renamed_csv(table, out, name), table.schema.to_json(), fit_scope="train-only")
            )
            preps[name] = _prepare(cfg, with_baseline=True)
        beta, named = preps["beta"].report.transforms, preps["baseline"].report.transforms
        assert len(preps["baseline"].scenarios) == 12
        assert len(named) == 12
        for f in range(3):
            for key in (f"baseline/f{f}", f"alpha/f{f}", f"gamma/f{f}"):
                assert named[key] == beta[key]
        renamed = sorted(set(named) - set(beta))
        assert len(renamed) == 3
        assert [named[k] for k in renamed] == [beta[f"beta/f{f}"] for f in range(3)]

    def test_slugs_stay_unique_when_a_suffix_is_taken(self):
        slugs = _unique_slugs(("x-2", "x", "X"))
        assert len(set(slugs.values())) == 3
        assert _unique_slugs(("baseline-1", "baseline"), slug=str) == {
            "baseline-1": "baseline-1", "baseline": "baseline-1-1",
        }
        assert _unique_slugs(("a b", "c"), slug=str) == {"a b": "a b", "c": "c"}


def _held_arrays(obj, seen: set[int] | None = None) -> list[np.ndarray]:
    """Every distinct array reachable from obj through attributes, dicts and lists."""
    seen = set() if seen is None else seen
    if id(obj) in seen:
        return []
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        return [obj]
    if isinstance(obj, dict):
        items = list(obj.values())
    elif isinstance(obj, (list, tuple)):
        items = list(obj)
    elif hasattr(obj, "__dict__"):
        items = list(vars(obj).values())
    else:
        return []
    return [m for item in items for m in _held_arrays(item, seen)]


class TestScenarioMemory:
    @pytest.mark.parametrize("fit_scope", ["full-dataset", "train-only"])
    def test_plan_and_scenarios_hold_one_fold_id_per_row(self, synth_csv, fit_scope):
        path, table = synth_csv
        cfg = config_from_dict(base_config_dict(path, table.schema.to_json(), fit_scope=fit_scope))
        prep = _prepare(cfg, with_baseline=True)
        assert len(prep.scenarios) == 12
        held = sum(a.nbytes for a in _held_arrays((prep.plan, prep.scenarios)))
        # stored row arrays per scenario held about 4 bytes per row per scenario, 48 here
        assert held <= prep.base.row_count * np.min_scalar_type(cfg.k - 1).itemsize


    def test_train_only_fits_peak_near_the_full_dataset_scope(self, tmp_path):
        # 40k x 45 with 4 classes, k=5: 20 train-only fits; one gathered train block is 80% of the table
        spec = SyntheticSpec(
            n_benign=31_000, attacks=tuple(AttackBlob(c, 3_000, mean=1.0) for c in "abc"), d=45, seed=9,
            include_identifier=False,
        )
        table = synthesize_dataset(spec)
        path = tmp_path / "wide.csv"
        write_csv(table, path)
        peaks = {}
        for fit_scope in ("full-dataset", "train-only"):
            cfg = config_from_dict(base_config_dict(path, table.schema.to_json(), k=5, fit_scope=fit_scope))
            tracemalloc.start()
            try:
                _prepare(cfg, with_baseline=True)
                peaks[fit_scope] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        # the fits read one column at a time: a few columns of n float64 at most above the load's peak
        assert peaks["train-only"] <= peaks["full-dataset"] + 4 * table.row_count * 8, peaks

    @pytest.mark.parametrize("model, trainer", [("forest", "train_forest"), ("mlp", "mlp_train")])
    def test_a_model_job_reads_its_test_matrix_after_training(self, synth_csv, monkeypatch, model, trainer):
        # so the test matrix is not held through training
        path, table = synth_csv
        cfg = config_from_dict(base_config_dict(path, table.schema.to_json(), models=[model], classes=["alpha"]))
        prep = _prepare(cfg, with_baseline=True)
        calls = []
        apply, train = FittedTransform.apply, getattr(harness, trainer)

        def recorded_apply(transform, base, rows):
            calls.append(("read", len(rows)))
            return apply(transform, base, rows)

        def recorded_train(x, *args):
            calls.append(("train", len(x)))
            return train(x, *args)

        monkeypatch.setattr(harness, "_prepare", lambda cfg, *, with_baseline: prep)
        monkeypatch.setattr(FittedTransform, "apply", recorded_apply)
        monkeypatch.setattr(harness, trainer, recorded_train)
        run_experiment(cfg)
        sizes = sorted((tr.size, te.size) for tr, te in map(prep.rows, range(len(prep.scenarios))))
        assert len(sizes) == 6  # alpha and the baseline, k=3
        jobs = [calls[i:i + 3] for i in range(0, len(calls), 3)]
        assert sorted((job[0][1], job[2][1]) for job in jobs) == sizes
        assert all(job == [("read", job[0][1]), ("train", job[0][1]), ("read", job[2][1])] for job in jobs), calls


def _buffers(arrays: list[np.ndarray]) -> list[np.ndarray]:
    """The distinct memory blocks behind arrays: a view counts as the array it views."""
    owners = {}
    for a in arrays:
        while isinstance(a.base, np.ndarray):
            a = a.base
        owners[id(a)] = a
    return list(owners.values())


class TestOneFeatureMatrix:
    """Under either fit scope the run holds one n x d matrix, the loaded feature block, and nothing writes to it."""

    @staticmethod
    def assert_one_unwritten_matrix(prep, loaded: np.ndarray) -> None:
        big = [b for b in _buffers(_held_arrays(prep)) if b.nbytes >= loaded.nbytes]
        assert [id(b) for b in big] == [id(b) for b in _buffers([prep.base.features])]
        assert prep.base.features.tobytes() == loaded.tobytes()

    @pytest.mark.parametrize("fit_scope", ["full-dataset", "train-only"], ids=["full", "train"])
    @pytest.mark.parametrize("work", [run_experiment, run_wd_analysis], ids=["run", "wd"])
    def test_one_unwritten_matrix(self, cat_csv, monkeypatch, fit_scope, work):
        path, schema = cat_csv
        cfg = config_from_dict(base_config_dict(path, schema.to_json(), fit_scope=fit_scope, workers=1))
        loaded = load_csv(path, schema, "Benign").features
        with_baseline = work is run_experiment
        self.assert_one_unwritten_matrix(_prepare(cfg, with_baseline=with_baseline), loaded)

        # in-process jobs would show any write to the base matrix in the run's own state
        prepared = []

        def keep(cfg, *, with_baseline):
            prepared.append(_prepare(cfg, with_baseline=with_baseline))
            return prepared[-1]

        monkeypatch.setattr(harness, "_prepare", keep)
        work(cfg)
        self.assert_one_unwritten_matrix(prepared[0], loaded)


class TestDistanceFailureAttribution:
    @pytest.fixture()
    def poisoned(self, synth_csv, monkeypatch):
        """Config of a train-only run whose (beta, fold 1) transform scales one test row's value to NaN.

        `_prepare` is replaced by one that poisons that scenario's transform,
        which pool workers inherit by fork. Its `scale`, the step that codes
        and scales every value a job reads, finds the row by its raw value
        of feature 1, which no other row holds.
        """
        path, table = synth_csv
        prepare = harness._prepare

        def poisoned_prepare(cfg, *, with_baseline):
            prep = prepare(cfg, with_baseline=with_baseline)
            poisoned = prep.scenarios.index(Scenario("beta", 1))
            fit, bad_row = prep.fitted[poisoned], prep.rows(poisoned)[1][0]
            bad_value = prep.base.features[bad_row, 1]
            assert np.count_nonzero(prep.base.features[:, 1] == bad_value) == 1
            scale = fit.scale

            def poisoned_scale(base, j, values, *, out):
                bad = values == bad_value  # before `out`, which may be `values`, is written
                col = scale(base, j, values, out=out)
                if j == 1:
                    col[bad] = np.nan
                return col

            fit.scale = poisoned_scale  # train-only scope: no other scenario shares this transform
            return prep

        monkeypatch.setattr(harness, "_prepare", poisoned_prepare)

        def make(keep_going: bool, workers: int):
            return config_from_dict(
                base_config_dict(
                    path, table.schema.to_json(), fit_scope="train-only", keep_going=keep_going, workers=workers
                )
            )

        return make

    @pytest.mark.parametrize("workers", [1, 2])
    def test_keep_going_skips_only_the_failing_fold(self, poisoned, workers):
        report = run_wd_analysis(poisoned(True, workers))
        failures = [w for w in report.warnings if "distance analysis failed" in w]
        assert len(failures) == 1
        assert "class=beta, fold=1" in failures[0] and "finite" in failures[0]
        assert [f["fold"] for f in report.wd["beta"]["folds"]] == [0, 2]
        assert [len(report.wd[c]["folds"]) for c in ("alpha", "gamma")] == [3, 3]
        assert set(report.wd) == {"alpha", "beta", "gamma"}

    @pytest.mark.parametrize("workers", [1, 2])
    def test_without_keep_going_the_run_stops_with_attribution(self, poisoned, workers):
        with pytest.raises(RuntimeError, match=r"distance analysis failed \(class=beta, fold=1\)"):
            run_wd_analysis(poisoned(False, workers))

    def test_run_raises_the_distance_failure_before_a_model_failure(self, poisoned, monkeypatch):
        # model jobs share the pool with the distance jobs; the first model job fails too
        cfg = poisoned(False, 2)
        first_model_seed = derive_seed(cfg.seed, _SEED_TRAIN, KNOWN_MODELS.index("forest"), 0, 0)
        train = harness.train_forest

        def failing_first(x, y, forest_cfg, seed):
            if seed == first_model_seed:
                raise ValueError("model job failed on purpose")
            return train(x, y, forest_cfg, seed)

        monkeypatch.setattr(harness, "train_forest", failing_first)
        with pytest.raises(RuntimeError, match=r"distance analysis failed \(class=beta, fold=1\)"):
            run_experiment(cfg)
        monkeypatch.setattr(harness, "_prepare", _prepare)
        with pytest.raises(RuntimeError, match=r"scenario failed \(model=forest, class=baseline, fold=0\)"):
            run_experiment(cfg)

    def test_without_keep_going_no_model_trains_after_a_distance_failure(self, poisoned, monkeypatch):
        trained = []
        train = harness.train_forest

        def counted(x, y, forest_cfg, seed):
            trained.append(seed)
            return train(x, y, forest_cfg, seed)

        monkeypatch.setattr(harness, "train_forest", counted)
        with pytest.raises(RuntimeError, match=r"distance analysis failed \(class=beta, fold=1\)"):
            run_experiment(poisoned(False, 1))
        assert trained == []


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(), reason="the pool needs fork")
class TestDeadWorker:
    """A worker that dies fails the run at the parent, naming the jobs left without a result."""

    @staticmethod
    def _exit_in_worker(monkeypatch, name: str, dies) -> None:
        # in the parent (an in-process run) the wrapped call runs normally
        parent, func = os.getpid(), getattr(harness, name)

        def wrapped(*args, **kwargs):
            if os.getpid() != parent and dies(*args, **kwargs):
                os._exit(1)
            return func(*args, **kwargs)

        monkeypatch.setattr(harness, name, wrapped)

    def test_a_dead_distance_job_is_named(self, synth_csv, monkeypatch):
        path, table = synth_csv
        cfg = config_from_dict(base_config_dict(path, table.schema.to_json(), workers=2))
        self._exit_in_worker(monkeypatch, "per_feature_wd", lambda base, j, *a: j == 1)
        with pytest.raises(RuntimeError, match=r"returned no result: .*distance job \(feature=f1\)"):
            run_wd_analysis(cfg)

    def test_a_dead_model_job_is_named(self, synth_csv, monkeypatch):
        path, table = synth_csv
        cfg = config_from_dict(base_config_dict(path, table.schema.to_json(), workers=2))
        prep = _prepare(cfg, with_baseline=True)
        doomed_seed = derive_seed(
            cfg.seed, _SEED_TRAIN, KNOWN_MODELS.index("forest"), prep.base.class_names.index("gamma"), 2
        )
        self._exit_in_worker(monkeypatch, "train_forest", lambda x, y, forest_cfg, seed: seed == doomed_seed)
        with pytest.raises(RuntimeError, match=r"returned no result: .*model job \(model=forest, class=gamma, fold=2\)"):
            run_experiment(cfg)

    def test_only_the_jobs_in_flight_are_named(self, synth_csv, monkeypatch):
        # 15 jobs on 2 workers: 3 distance jobs, one per feature, then 12 forest jobs
        path, table = synth_csv
        cfg = config_from_dict(base_config_dict(path, table.schema.to_json(), workers=2))
        self._exit_in_worker(monkeypatch, "per_feature_wd", lambda base, j, *a: j == 0)
        with pytest.raises(RuntimeError) as raised:
            run_experiment(cfg)
        message = str(raised.value)
        named = re.findall(r"(?:distance|model) job \([^)]*\)", message)
        assert "distance job (feature=f0)" in named
        assert len(named) <= 2, message
        assert re.search(r"\b\d+ not started", message), message


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(), reason="the pool needs fork")
@pytest.mark.parametrize("kinds", [("wd", "mlp", "wd", "mlp"), ("wd", "forest", "wd", "forest")])
def test_a_pool_worker_runs_one_blas_thread(synth_csv, monkeypatch, kinds):
    # with an MLP job, every worker runs one BLAS thread; with none, they keep the parent's count
    get_threads = harness.openblas_function("get_num_threads", ctypes.c_int)
    set_threads = harness.openblas_function("set_num_threads", None, ctypes.c_int)
    if get_threads is None:
        pytest.skip("no OpenBLAS library found")
    path, table = synth_csv
    cfg = config_from_dict(base_config_dict(path, table.schema.to_json(), workers=2))
    # each job reports its worker's BLAS thread count as its result
    monkeypatch.setattr(harness, "_execute_job", lambda job: harness.JobResult(job.kind, job.index, get_threads()))
    before = get_threads()
    set_threads(2)  # so that a worker that kept the parent's count would show it, on any host
    try:
        parent = get_threads()
        results = harness._run_jobs(cfg, None, [harness.Job(kind, i) for i, kind in enumerate(kinds)])
        assert [r.report for r in results] == [1 if "mlp" in kinds else parent] * len(kinds)
        assert get_threads() == parent
    finally:
        set_threads(before)


class _InlinePool:
    """A stand-in for the process pool: it records its size and runs each job at submit, starting no process."""

    def __init__(self, sizes: list, max_workers: int, **kwargs):
        sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        future = concurrent.futures.Future()
        future.set_result(fn(*args))
        return future


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(), reason="the pool needs fork")
@pytest.mark.parametrize("workers, jobs, size", [(5000, 4, 4), (2, 4, 2)])
def test_the_pool_is_no_larger_than_the_job_count(synth_csv, monkeypatch, workers, jobs, size):
    # the pool forks every worker at its first submit, so 5000 workers for 4 jobs would fork 5000 processes
    path, table = synth_csv
    cfg = config_from_dict(base_config_dict(path, table.schema.to_json(), workers=workers))
    sizes = []
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", lambda **kw: _InlinePool(sizes, **kw))
    monkeypatch.setattr(harness, "_execute_job", lambda job: harness.JobResult(job.kind, job.index, None))
    results = harness._run_jobs(cfg, None, [harness.Job(harness.DISTANCE, i) for i in range(jobs)])
    assert sizes == [size]
    assert [r.index for r in results] == list(range(jobs))
    assert cfg.to_json()["workers"] == workers  # run.json echoes the resolved count


def _emitted_bytes(report, out: Path) -> dict[str, bytes]:
    """Every emitted file's bytes; run.json without its timestamp, paths and worker count."""
    emit_reports(report, out)
    files = {str(p.relative_to(out)): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}
    doc = json.loads(files["run.json"])
    del doc["generated_at"], doc["config"]["dataset"], doc["config"]["output_dir"], doc["dataset"]["path"]
    del doc["config"]["workers"]
    files["run.json"] = json.dumps(doc, sort_keys=True).encode()
    return files


class TestWorkerCountIdentity:
    @pytest.mark.parametrize(
        "command, fit_scope",
        [("wd", "full-dataset"), ("wd", "train-only"), ("run", "full-dataset")],
    )
    def test_one_and_two_workers_emit_the_same_bytes(self, synth_csv, tmp_path, command, fit_scope):
        path, table = synth_csv
        work = run_wd_analysis if command == "wd" else run_experiment
        emitted = []
        for workers in (1, 2):
            out = tmp_path / f"w{workers}"
            cfg = config_from_dict(
                base_config_dict(
                    path, table.schema.to_json(), fit_scope=fit_scope, workers=workers, save_models=True,
                    forest={"n_trees": 3}, output_dir=str(out),
                )
            )
            emitted.append(_emitted_bytes(work(cfg), out))
        assert sorted(emitted[0]) == sorted(emitted[1])
        assert any(name.startswith("wd_features_") for name in emitted[0])
        if command == "run":
            assert any(name.startswith("models/") for name in emitted[0])
        for name, content in emitted[0].items():
            assert content == emitted[1][name], name


class TestNineClassMatrix:
    def test_nine_class_run_counts(self, tmp_path):
        # nine held-out classes, two models: 2 x (k baseline + 9k zero-day)
        # training runs and nine metrics rows per model
        names = ["exploit", "fuzz", "generic", "recon", "dos", "analysis", "door", "shell", "worm"]
        spec = SyntheticSpec(
            n_benign=200,
            attacks=tuple(AttackBlob(n, 30, mean=1.0 + 0.05 * i) for i, n in enumerate(names)),
            d=2,
            seed=13,
        )
        table = synthesize_dataset(spec)
        path = tmp_path / "nine.csv"
        write_csv(table, path)
        cfg = config_from_dict(
            base_config_dict(
                path, table.schema.to_json(), k=2, models=["forest", "mlp"], save_models=True,
                forest={"n_trees": 2},
                mlp={"epochs": 1, "learning_rate": 0.1, "batch_size": 64, "hidden_units": [4, 4]},
                output_dir=str(tmp_path / "out"),
            )
        )
        report = run_experiment(cfg)
        assert len(list((tmp_path / "out" / "models").iterdir())) == 2 * (1 + 9) * 2
        for model in ("forest", "mlp"):
            lines = metrics_csv_text(report, model).strip().splitlines()
            assert len(lines) == 1 + 9
            assert [line.split(",")[0] for line in lines[1:]] == names


class TestShiftMonotonicity:
    def test_growing_offset_never_lowers_wd_rank(self, tmp_path):
        # same seed at every level, so only the moved class changes
        ranks = []
        for level, offset in enumerate((0.5, 1.5, 3.0)):
            spec = SyntheticSpec(
                n_benign=800,
                attacks=(
                    AttackBlob("a", 120, mean=1.0, cov_scale=0.4),
                    AttackBlob("b", 120, mean=1.1, cov_scale=0.4),
                    AttackBlob("moved", 120, mean=1.0, cov_scale=0.4, shift=offset),
                ),
                d=4,
                seed=77,
            )
            table = synthesize_dataset(spec)
            path = tmp_path / f"shift{level}.csv"
            write_csv(table, path)
            cfg = config_from_dict(base_config_dict(path, table.schema.to_json()))
            report = run_wd_analysis(cfg)
            ordered = sorted(report.wd, key=lambda c: report.wd[c]["mean_wd"])
            ranks.append(ordered.index("moved"))
        assert ranks == sorted(ranks), ranks
        assert ranks[-1] == 2  # largest shift ends up with the largest distance


class TestWdOnly:
    def test_wd_analysis_skips_training(self, synth_csv):
        path, table = synth_csv
        cfg = config_from_dict(base_config_dict(path, table.schema.to_json()))
        report = run_wd_analysis(cfg)
        assert report.baseline == {} and report.zero_day == {}
        assert set(report.wd) == {"alpha", "beta", "gamma"}

    def test_matches_full_run_wd(self, synth_csv):
        path, table = synth_csv
        cfg = config_from_dict(base_config_dict(path, table.schema.to_json()))
        wd_only = run_wd_analysis(cfg)
        full = run_experiment(cfg)
        assert json.dumps(wd_only.wd, sort_keys=True) == json.dumps(full.wd, sort_keys=True)

    @pytest.mark.parametrize("fit_scope", ["full-dataset", "train-only"], ids=["full", "train"])
    def test_each_fold_is_its_scenario_computed_alone(self, cat_csv, fit_scope):
        # the feature jobs' distances, assembled per scenario, equal a job per scenario's bit for bit,
        # next to the scenario's row counts, the mean over its features and the categorical flags
        path, schema = cat_csv
        cfg = config_from_dict(base_config_dict(path, schema.to_json(), fit_scope=fit_scope))
        report, prep = run_wd_analysis(cfg), _prepare(cfg, with_baseline=False)
        names = prep.base.feature_names
        for i in prep.zero_day:
            s = prep.scenarios[i]
            [fold] = [f for f in report.wd[s.held_out]["folds"] if f["fold"] == s.fold_id]
            train, test = prep.rows(i)
            expected = merge_wd(prep.base, train, test, prep.fitted[i])
            assert [fold["per_feature"][name] for name in names] == [expected[name] for name in names]
            assert fold["mean_wd"] == float(np.mean([expected[name] for name in names]))
            assert (fold["rows_train"], fold["rows_test"]) == (train.size, test.size)
            assert fold["encoded_features"] == ["proto"]
            assert fold["held_out_class"] == s.held_out
            assert list(fold["per_feature"]) == sorted(names)

    def test_means_over_nine_folds_and_eleven_features(self, tmp_path):
        # from 8 terms on, numpy's pairwise sum rounds unlike a sum in another order or along an axis: each
        # mean is np.mean of a list, over the features in table order (f10 sorts before f2) or the folds in order
        names = ["exploit", "fuzz", "generic", "recon", "dos", "analysis", "door", "shell", "worm"]
        spec = SyntheticSpec(
            n_benign=400,
            attacks=tuple(AttackBlob(n, 45, mean=1.0 + 0.07 * i, cov_scale=0.3 + 0.05 * i) for i, n in enumerate(names)),
            d=11,
            seed=13,
        )
        table = synthesize_dataset(spec)
        path = tmp_path / "wide.csv"
        write_csv(table, path)
        report = run_wd_analysis(config_from_dict(base_config_dict(path, table.schema.to_json(), k=9)))
        features = [f"f{j}" for j in range(11)]
        assert list(report.wd) == names
        for name in names:
            entry, folds = report.wd[name], report.wd[name]["folds"]
            assert [f["fold"] for f in folds] == list(range(9))
            fold_means = []
            for f in folds:
                fold_means.append(f["mean_wd"])
                assert f["mean_wd"] == float(np.mean([f["per_feature"][feat] for feat in features]))
            assert entry["mean_wd"] == float(np.mean(fold_means))
            assert list(entry["per_feature_mean"]) == features
            for feat in features:
                assert entry["per_feature_mean"][feat] == float(np.mean([f["per_feature"][feat] for f in folds]))


class TestEmitReports:
    def test_expected_files(self, emitted):
        _, _, out, _ = emitted
        names = {p.name for p in out.iterdir()}
        assert {
            "run.json",
            "transforms.json",
            "metrics_forest.csv",
            "metrics_mlp.csv",
            "dr_vs_zdr_forest.tsv",
            "dr_vs_zdr_mlp.tsv",
            "wd_means.tsv",
            "models",
        } <= names

    def test_metrics_csv_shape(self, emitted):
        _, report, out, _ = emitted
        lines = (out / "metrics_forest.csv").read_text().strip().splitlines()
        assert lines[0].strip() == "Zero-day Attack,Z-DR,Accuracy,F1 Score,FAR,DR,AUC"
        assert len(lines) == 1 + 3  # header + one row per attack class

    def test_formatting_rules(self, emitted):
        _, report, _, _ = emitted
        text = metrics_csv_text(report, "forest")
        row = text.splitlines()[1].split(",")
        assert len(row[1].split(".")[1]) == 2  # Z-DR 2 d.p.
        assert len(row[2].split(".")[1]) == 2  # Accuracy 2 d.p.
        assert len(row[3].split(".")[1]) == 4  # F1 4 d.p.
        assert len(row[6].split(".")[1]) == 4  # AUC 4 d.p.
        wd_text = wd_means_tsv_text(report)
        assert len(wd_text.splitlines()[1].split("\t")[1].split(".")[1]) == 4

    def test_run_json_valid_and_has_warnings_array(self, emitted):
        _, _, out, _ = emitted
        doc = json.loads((out / "run.json").read_text())
        assert isinstance(doc["warnings"], list)
        assert doc["format"] == "zdeval-run-report"

    def test_models_dir_contents(self, emitted):
        _, _, out, _ = emitted
        models = list((out / "models").iterdir())
        assert len(models) == 24
        doc = json.loads(models[0].read_text())
        assert doc["format"] == "zdeval-model"
        forests = [m for m in models if m.name.startswith("forest_")]
        assert len(forests) == 12
        for path in forests:
            model = forest_from_json(json.loads(path.read_text()))
            assert model.n_trees == 5

    def test_a_run_into_an_earlier_runs_directory_names_its_files(self, emitted, tmp_path):
        cfg, report, out, _ = emitted
        assert not any("did not write" in w for w in report.warnings)  # a fresh directory
        shutil.copytree(out, tmp_path / "out")
        forest = dataclasses.replace(cfg, models=("forest",), output_dir=str(tmp_path / "out"))
        again = run_experiment(forest)
        emit_reports(again, forest.output_dir)
        [warning] = [w for w in again.warnings if "did not write" in w]
        # the mlp's 12 model files (baseline and 3 classes, k=3) and its two tables
        assert "holds 14 file(s)" in warning
        assert "models/mlp_baseline_f0.json" in warning and "metrics_mlp.csv" in warning
        assert "forest_" not in warning and "metrics_forest.csv" not in warning
        assert warning in json.loads((tmp_path / "out" / "run.json").read_text())["warnings"]
        assert (tmp_path / "out" / "metrics_mlp.csv").is_file()  # nothing is deleted

    def test_dr_vs_zdr_table(self, emitted):
        _, report, _, _ = emitted
        lines = dr_vs_zdr_tsv_text(report, "forest").strip().splitlines()
        assert lines[0] == "class\tknown_dr\tzero_day_dr"
        assert len(lines) == 4

    def test_undefined_metrics_render_as_na(self):
        from zdeval.harness import RunReport

        report = RunReport(
            config={}, generated_at="", rng={}, dataset={}, fold_plan={}, preprocess={},
            baseline={"forest": {"per_class_dr": {"X": {"mean": None, "std": None, "n_folds": 0}}}},
            zero_day={
                "forest": {
                    "X": {
                        "folds": [],
                        "mean": {
                            "zdr": None, "accuracy": 90.0, "f1": None,
                            "far": 0.0, "dr": None, "auc": None,
                        },
                        "std": {},
                        "undefined_counts": {},
                    }
                }
            },
            wd={"X": {"mean_wd": 0.25, "per_feature_mean": {"f0": 0.25}}},
            correlation={}, warnings=[], transforms={},
            classes=("X",), models=("forest",),
        )
        row = metrics_csv_text(report, "forest").splitlines()[1]
        assert row == "X,NA,90.00,NA,0.00,NA,NA"
        assert dr_vs_zdr_tsv_text(report, "forest").splitlines()[1] == "X\tNA\tNA"

    def test_wd_feature_csvs(self, emitted):
        _, report, out, _ = emitted
        for name in ("alpha", "beta", "gamma"):
            body = (out / f"wd_features_{name}.csv").read_text().strip().splitlines()
            assert body[0] == "feature,distance"
            assert len(body) == 1 + 3  # one line per retained feature
            feat, value = body[1].split(",")
            assert feat in report.wd[name]["per_feature_mean"]
            assert float(value) >= 0.0

    @pytest.mark.parametrize("case", ["read-only", "under-a-file"])
    def test_unwritable_directory_fails_before_partial_write(self, emitted, tmp_path, case):
        _, report, _, _ = emitted
        if case == "under-a-file":
            # a path under a regular file cannot be made, not even by root
            (tmp_path / "file.txt").write_text("")
            with pytest.raises(DataError, match="not writable"):
                emit_reports(report, tmp_path / "file.txt" / "out")
            assert [p.name for p in tmp_path.iterdir()] == ["file.txt"]
            return
        target = tmp_path / "ro"
        target.mkdir()
        os.chmod(target, stat.S_IRUSR | stat.S_IXUSR)
        try:
            if os.access(target, os.W_OK):  # running as root: permissions don't bind
                pytest.skip("cannot create an unwritable directory in this environment")
            with pytest.raises(DataError, match="not writable"):
                emit_reports(report, target)
            assert list(target.iterdir()) == []
        finally:
            os.chmod(target, stat.S_IRWXU)

    def test_unwritable_directory_fails_before_any_job(self, synth_csv, tmp_path, monkeypatch):
        path, table = synth_csv
        (tmp_path / "file.txt").write_text("")
        trained = []
        monkeypatch.setattr(harness, "train_forest", lambda *args: trained.append(args))
        cfg = config_from_dict(
            base_config_dict(
                path, table.schema.to_json(), save_models=True, output_dir=str(tmp_path / "file.txt" / "out")
            )
        )
        with pytest.raises(DataError, match="^output directory is not writable: "):
            run_experiment(cfg)
        assert trained == []


class TestKeepGoing:
    @pytest.fixture()
    def doomed_config(self, tmp_path):
        # no benign rows and a single attack class: holding it out leaves an
        # empty training set, so every zero-day scenario fails
        bad = tmp_path / "bad.csv"
        rows = ["f0,attack_class,label"] + [f"{i}.0,solo,1" for i in range(6)]
        bad.write_text("\n".join(rows) + "\n")
        schema = [
            {"name": "f0", "kind": "numeric"},
            {"name": "attack_class", "kind": "attack_class"},
            {"name": "label", "kind": "binary_label"},
        ]
        return base_config_dict(bad, schema, k=2)

    def test_abort_is_default_and_attributed(self, doomed_config):
        cfg = config_from_dict(doomed_config)
        # the distance analysis over the empty training side fails first
        with pytest.raises(RuntimeError, match=r"class=solo.*fold=0"):
            run_experiment(cfg)

    def test_train_only_empty_fit_names_the_scenario(self, doomed_config):
        cfg = config_from_dict(dict(doomed_config, fit_scope="train-only"))
        with pytest.raises(ValueError, match=r"^scenario 'solo' fold 0: train-only fit has no train rows$"):
            run_experiment(cfg)

    def test_keep_going_collects_errors(self, doomed_config):
        cfg = config_from_dict(dict(doomed_config, keep_going=True))
        report = run_experiment(cfg)
        failures = [w for w in report.warnings if "failed" in w]
        # in job order: the distance jobs, then the model jobs; one per fold each
        assert failures == [
            *(f"distance analysis failed (class=solo, fold={f}): "
              "ValueError: per_feature_wd requires nonempty train and test sets" for f in range(2)),
            *(f"scenario failed (model=forest, class=solo, fold={f}): "
              "ValueError: training data must be a nonempty 2-D matrix" for f in range(2)),
        ]
        assert report.baseline["forest"]["folds"]  # baseline itself succeeded
        assert report.zero_day["forest"] == {}
        assert report.wd == {}

    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_distance_failure_names_its_exception_type(self, synth_csv, monkeypatch, workers):
        # an exception with an empty message still reads as what it was, as a model job's does
        path, table = synth_csv

        def out_of_memory(*args, **kwargs):
            raise MemoryError()

        monkeypatch.setattr(harness, "per_feature_wd", out_of_memory)
        cfg = config_from_dict(base_config_dict(path, table.schema.to_json(), keep_going=True, workers=workers))
        report = run_wd_analysis(cfg)
        failures = [w for w in report.warnings if "distance analysis failed" in w]
        assert failures and all(w.endswith("): MemoryError: ") for w in failures)
        assert failures[0] == "distance analysis failed (class=alpha, fold=0): MemoryError: "


class TestDivergedModel:
    """Model jobs that fail while every distance job succeeds go through the same failure policy."""

    @pytest.fixture()
    def diverging(self, synth_csv):
        path, table = synth_csv

        def make(keep_going: bool, workers: int):
            return config_from_dict(
                base_config_dict(
                    path, table.schema.to_json(), models=["mlp"], keep_going=keep_going, workers=workers,
                    mlp={"learning_rate": 1e300, "batch_size": 1, "epochs": 1},
                )
            )

        return make

    @pytest.mark.parametrize("workers", [1, 2])
    def test_without_keep_going_the_first_model_job_stops_the_run(self, diverging, workers):
        message = (
            "scenario failed (model=mlp, class=baseline, fold=0): "
            "ValueError: non-finite training loss at epoch 0, batch 1"
        )
        # a numpy warning, raised as an error here and in the forked workers, would change the message
        with warnings.catch_warnings(), pytest.raises(RuntimeError, match=f"^{re.escape(message)}$"):
            warnings.simplefilter("error")
            run_experiment(diverging(False, workers))

    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_failed_run_keeps_the_finished_model_files(self, diverging, tmp_path, workers):
        # every forest job is submitted, so started, before the first mlp job fails the run
        failed = dataclasses.replace(
            diverging(False, workers), models=("forest", "mlp"), save_models=True, output_dir=str(tmp_path / "failed")
        )
        clean = dataclasses.replace(failed, models=("forest",), output_dir=str(tmp_path / "clean"))
        run_experiment(clean)
        with pytest.raises(RuntimeError, match=r"^scenario failed \(model=mlp, class=baseline, fold=0\)"):
            run_experiment(failed)
        expected = {p.name: p.read_bytes() for p in (tmp_path / "clean" / "models").iterdir()}
        assert len(expected) == 4 * 3
        assert {p.name: p.read_bytes() for p in (tmp_path / "failed" / "models").iterdir()} == expected
        assert not (tmp_path / "failed" / "run.json").exists()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_keep_going_warns_for_every_model_job_in_job_order(self, diverging, workers):
        with np.errstate(all="ignore"):
            report = run_experiment(diverging(True, workers))
        failures = [w for w in report.warnings if "failed" in w]
        assert failures == [
            f"scenario failed (model=mlp, class={name}, fold={fold}): "
            "ValueError: non-finite training loss at epoch 0, batch 1"
            for name in ("baseline", "alpha", "beta", "gamma")
            for fold in range(3)
        ]
        assert [len(report.wd[c]["folds"]) for c in ("alpha", "beta", "gamma")] == [3, 3, 3]
        assert report.baseline == {} and report.zero_day == {"mlp": {}}
        assert report.correlation == {"mlp": None}
