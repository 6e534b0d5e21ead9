"""Pinned fingerprints of one small fixed run, so a refactor that claims
"same behaviour" is checked against recorded bytes, not against itself.

Two runs of the same code agreeing (test_criterion_8) cannot catch a change
that is the same in both runs; these hashes can. The feature values are
rounded to one decimal so the forest meets heavy value ties. The hashes hold
for one numpy build on one platform (recorded with numpy 2.4, x86-64, on
OpenBLAS core SkylakeX): the MLP's matrix products may round differently
elsewhere, so a failing score check names the host's OpenBLAS core.

To re-pin after an intended output change, copy the computed table from
the assertion message of a failing run.
"""

from __future__ import annotations

import ctypes
import dataclasses
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest
from conftest import table_columns

from zdeval.classifiers import forest_score, mlp_score, mlp_train, train_forest
from zdeval.cli import main
from zdeval.config import KNOWN_MODELS, config_from_dict
from zdeval.flowdata import Column, ColumnKind, FeatureSchema, load_csv, table_from_columns, write_csv
from zdeval.harness import _SEED_TRAIN, _prepare, derive_seed, emit_reports, openblas_function, run_experiment
from zdeval.synth import AttackBlob, SyntheticSpec, synthesize_dataset
from zdeval.zslsplit import Scenario

# the default (full-dataset) scope: every emitted file, and run.json without
# its timestamp and paths
GOLDEN_FILES = {
    "dr_vs_zdr_forest.tsv": "70b8b4ad6efe7674d7f1ad0708af3467912591658a992cec2ba633a2f58a9247",
    "dr_vs_zdr_mlp.tsv": "71a224b936278887c01a1de459ca94d6c4e0f69db2c97a9737afd1a481a65e42",
    "metrics_forest.csv": "dbbe496737d8a9cb43a95d5b11f88d8e83052e2f56d0a942e911ec8a8e3bc8ad",
    "metrics_mlp.csv": "6676611a06e4f203f12bba9a524fcde179657e28076b4be709db373dc706823c",
    "run.json": "fcb91c8b1fe8c8958ce3da22eace6cad9e8a83e07e7a68ad71485b3b24b415e5",
    "transforms.json": "1793b721b188053e9e7dde20960f054b8971cacbae4c9054d10df24188589c08",
    "wd_features_alpha.csv": "5cbdd33e933c1776f410ef89922162f3eb4f126b4a970c77f9166989f240fa4e",
    "wd_features_beta.csv": "6ebf4dc53283398a39abe462e66b20b687b84873d68c4be4390f8033f09fa8d6",
    "wd_features_gamma.csv": "c431639a1155c0514da9b634eb6b30f4e3937a13f7151f4cab83432f1c3fd899",
    "wd_means.tsv": "823f7ed23d13bef69a8719fe8127258fe02de04f74fce3dc64d1944c0ca40c58",
}

# (model, held-out class or None for the baseline, fold) -> sha256 of the
# float64 test-score array
GOLDEN_SCORES = {
    ("forest", None, 0): "90665c2703a7cb6780adf4f6eb09ff20490a5bf808668717c452a19d8627d465",
    ("forest", "beta", 1): "02065a771a0e4c8d7d43cbf6e8f0a28a756d321b36d9f1016156bd70c36d135f",
    ("forest", "gamma", 2): "64ba851f565eba7cd699fb3068eaf2c2c62f11a7a3fa83ec652151d287d9be69",
    ("mlp", None, 1): "5a82deb95b950fbc73b0dbb655998958b5d170749c4b7d203bd22cc809718730",
    ("mlp", "alpha", 0): "e6796c8cbacff55d1a039cbe2f8018e0cf339adee65b44bdead279eb4324a8d5",
}


# train-only fits: every emitted file, and run.json without its timestamp
# and paths
GOLDEN_TRAIN_ONLY = {
    "dr_vs_zdr_forest.tsv": "f50541502fb0d69dfe8ccf3dd44cfbd853a1eec19a9cb7742f6f48fe9e160742",
    "metrics_forest.csv": "5605ed962a54507f32a2debcb85cc2b45de415d00892e9ed41e7391b2ea738ba",
    "transforms.json": "5e76538dd0aea07c5726e44031784ad5e3e7d11c52b1f8906b7f75ee1dc3ccc4",
    "wd_features_alpha.csv": "f631fa50cdf1b93c57fa68a1bf2ad36e8fb83ac2e20f014c639fa3d554a7c50d",
    "wd_features_beta.csv": "6ac42bfbb380ac9f61355336cc4db01e1e109249d09fdb3993af75bdbb55a5e4",
    "wd_features_gamma.csv": "1811d5a893976ad516a27b9d07c5389fd006d6265c26858465069887ddd5e1ad",
    "wd_means.tsv": "c1bd00b49fbc41b0b55ac1654a338b432a7c73f578aaf4b5910b0276f84aaca5",
    "run.json": "1d1b47c9a1b323c85cb413c1cb8d79d526f71d3e51d9ab54486d01ab84f1d288",
}


# train-only fits on a table with a categorical column whose value "icmp"
# occurs in class gamma only: every emitted file (saved models included),
# and run.json without its timestamp and paths
GOLDEN_TRAIN_ONLY_CATEGORICAL = {
    "dr_vs_zdr_forest.tsv": "9c99886d7433a6d5fb43399ae37e877bbbcd1b48c3b1b2afa124a8bebda1850b",
    "metrics_forest.csv": "1a5ded7bf47bb6b9dfe4d5fa1d8686f115209c25ef36268b18ed2ffd7d5a5cc1",
    "models/forest_alpha_f0.json": "8229850ecc47a4166492d8054dcad4084155ee1b998fd9b9dc97330cdc17de2d",
    "models/forest_alpha_f1.json": "b88e879409359c05d4a03cdbd1dc313be114e24e53c074ab3ca1c78d558a0fb6",
    "models/forest_alpha_f2.json": "86f79a10461d35d9978f234c932b82302acffc5ea2c6bb2c1d3d1b821c78c9bc",
    "models/forest_baseline_f0.json": "e3447937d9120c1b46e291e379a6e5feca30ebb5a642ea0437524a59b3f44017",
    "models/forest_baseline_f1.json": "20dac8b6994111f1e34b69e4d9b950e798cdebd5be510c35afac502403d9e46c",
    "models/forest_baseline_f2.json": "0bceb75efbf9433c7c09e3c7dc7b89948840826cbb9234a345b96d2d0411d63d",
    "models/forest_beta_f0.json": "3ea63bc1b8b2b861884ec621e0eb3c009887f5cfb5a51121baefc08f8d1be1dc",
    "models/forest_beta_f1.json": "ed12b50a848d1f14e3bbf2bc40d24149386efa50389829a7c30e44ab51d0b11d",
    "models/forest_beta_f2.json": "e68193ef009f3ee6af04e185fed6f720a6455181523a37141399b2de28d583ac",
    "models/forest_gamma_f0.json": "2e049c3423f1b24a2363f996ece0d4107bdf6fd7e5b2eaa2b4f9ccf6d0bd4427",
    "models/forest_gamma_f1.json": "515f08ae27659e11e1046cd4318ab9ccc1b23b7de1994da66ea2241a0bf4d65f",
    "models/forest_gamma_f2.json": "0cbc2a309b8cd080c1ad8c81a3be9e97ddbeab530a54695cee747e29d8326fd9",
    "run.json": "022235d7361d6d061512410baad4dd3b31d05cd291014c6fdb504bc491116eac",
    "transforms.json": "6ef364facc745f2539d1a0a4aa8b6ca821a5d572880d2e8d7192bec3c730a866",
    "wd_features_alpha.csv": "191b041fafaf27dd4e7b75da18c6652bf902ff69357cf18205465dace23da22c",
    "wd_features_beta.csv": "1e97cb9771db09110c894bb12a022ed5b028713c09bb4c74dc4be756ecad3845",
    "wd_features_gamma.csv": "8a387ca87cc6087b241e83c43e0be64b448ea51527182cfa3e842f0a80ab7369",
    "wd_means.tsv": "77694a519917f5b8ad9422a793e99b33022bc226ec91bd8446325cd32393bf47",
}

# sha256 of `zdeval inspect`'s stdout on the categorical table, its
# identifier column `flow_id` holding repeated values
GOLDEN_INSPECT = "52b2d552ad4901f448ef4e37338210a5a88954b78e2d1b4783f89243bd7d24c1"


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _table(got: dict) -> str:
    return "\n" + "\n".join(f"    {key!r}: {value!r}," for key, value in got.items())


def _blas_core() -> str:
    """The core name of the OpenBLAS numpy calls (e.g. "SkylakeX"), or "unknown" if it is not found.

    The MLP's matrix products round by this kernel, so a score mismatch on
    another host names it.
    """
    corename = openblas_function("get_corename", ctypes.c_char_p)
    return "unknown" if corename is None else corename().decode()


@pytest.fixture(scope="module")
def golden_cfg(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("golden")
    spec = SyntheticSpec(
        n_benign=300,
        attacks=(
            AttackBlob("alpha", 90, mean=1.0, cov_scale=0.5),
            AttackBlob("beta", 80, mean=1.2, cov_scale=0.5),
            AttackBlob("gamma", 70, mean=1.0, cov_scale=0.4, shift=-2.0),
        ),
        d=4,
        seed=21,
    )
    table = synthesize_dataset(spec)
    data = table_columns(table)
    for j in range(spec.d):
        data[f"f{j}"] = np.round(data[f"f{j}"], 1)
    table = table_from_columns(table.schema, table.benign_name, data)
    path = tmp / "golden.csv"
    write_csv(table, path)
    return config_from_dict(
        {
            "dataset": str(path),
            "benign_name": "Benign",
            "columns": table.schema.to_json(),
            "models": ["forest", "mlp"],
            "k": 3,
            "seed": 11,
            "workers": 1,
            "save_models": False,
            "output_dir": str(tmp / "out"),
            "forest": {"n_trees": 6, "min_samples_leaf": 2},
            "mlp": {"epochs": 3, "learning_rate": 0.1, "batch_size": 32, "hidden_units": [8, 8]},
        }
    )


@pytest.fixture(scope="module")
def categorical_cfg(golden_cfg, tmp_path_factory):
    """The golden table with a categorical `proto` column between f1 and f2.

    Values are drawn per class so that the first appearance differs from
    sorted order, "dns" is absent from alpha and "icmp" occurs in gamma only:
    a gamma scenario meets "icmp" in its test rows alone (reserve code).
    """
    tmp = tmp_path_factory.mktemp("golden-categorical")
    table = load_csv(golden_cfg.dataset, golden_cfg.schema, golden_cfg.benign_name, keep_identifiers=True)
    rng = np.random.default_rng(5)
    choices = {"Benign": ("udp", "tcp", "dns"), "alpha": ("tcp", "udp"), "beta": ("dns", "udp", "tcp"),
               "gamma": ("icmp", "tcp")}
    proto = np.array([str(rng.choice(choices[c])) for c in table.attack_classes], dtype=object)
    columns = list(table.schema.columns)
    columns.insert(columns.index(Column("f1", ColumnKind.NUMERIC)) + 1, Column("proto", ColumnKind.CATEGORICAL))
    table = table_from_columns(FeatureSchema(tuple(columns)), table.benign_name, {**table_columns(table), "proto": proto})
    path = tmp / "golden-categorical.csv"
    write_csv(table, path)
    return dataclasses.replace(
        golden_cfg, dataset=str(path), schema=table.schema, fit_scope="train-only", models=("forest",),
        save_models=True,
    )


def _job_scores(cfg, prep, model: str, held_out: str | None, fold_id: int) -> np.ndarray:
    """Test scores of one scenario job, trained exactly as the harness trains it."""
    i = prep.scenarios.index(Scenario(held_out, fold_id))
    train, test = prep.rows(i)
    fit = prep.fitted[i]
    class_key = 0 if held_out is None else prep.base.class_names.index(held_out)
    seed = derive_seed(cfg.seed, _SEED_TRAIN, KNOWN_MODELS.index(model), class_key, fold_id)
    x_train, y_train = fit.apply(prep.base, train), (prep.base.class_codes[train] != 0).astype(np.int64)
    x_test = fit.apply(prep.base, test)
    if model == "forest":
        return forest_score(train_forest(x_train, y_train, cfg.forest, seed), x_test)
    return mlp_score(mlp_train(x_train, y_train, cfg.mlp, seed), x_test)


def test_golden_tables(golden_cfg, tmp_path):
    got = _run_fingerprints(dataclasses.replace(golden_cfg, output_dir=str(tmp_path)))
    assert got == GOLDEN_FILES, _table(got)


def test_golden_scores(golden_cfg):
    prep = _prepare(golden_cfg, with_baseline=True)
    got = {key: _sha(_job_scores(golden_cfg, prep, *key).tobytes()) for key in GOLDEN_SCORES}
    assert got == GOLDEN_SCORES, f"OpenBLAS core {_blas_core()}:" + _table(got)


def _run_fingerprints(cfg) -> dict[str, str]:
    """sha256 of every file a run emits.

    run.json is hashed without its timestamp and paths, and with the worker
    count of the pinned runs (1), which changes no other byte.
    """
    out = Path(cfg.output_dir)
    emit_reports(run_experiment(cfg), out)
    got = {str(p.relative_to(out)): _sha(p.read_bytes()) for p in sorted(out.rglob("*")) if p.is_file()}
    doc = json.loads((out / "run.json").read_text(encoding="utf-8"))
    del doc["generated_at"], doc["config"]["dataset"], doc["config"]["output_dir"], doc["dataset"]["path"]
    doc["config"]["workers"] = 1
    got["run.json"] = _sha(json.dumps(doc, sort_keys=True).encode())
    return got


def test_blas_core_names_a_core_or_unknown():
    # a failing score check calls this for its message, so it must answer, not raise, on any host
    core = _blas_core()
    assert isinstance(core, str) and core
    assert _blas_core() == core


def test_golden_train_only(golden_cfg, tmp_path):
    cfg = dataclasses.replace(golden_cfg, fit_scope="train-only", models=("forest",), output_dir=str(tmp_path))
    got = _run_fingerprints(cfg)
    assert got == GOLDEN_TRAIN_ONLY, _table(got)


@pytest.mark.parametrize("workers", [1, 2])
def test_golden_train_only_categorical(categorical_cfg, workers, tmp_path):
    got = _run_fingerprints(dataclasses.replace(categorical_cfg, workers=workers, output_dir=str(tmp_path)))
    assert got == GOLDEN_TRAIN_ONLY_CATEGORICAL, _table(got)


def test_golden_inspect(categorical_cfg, tmp_path, capsys):
    # the identifier column repeats its values, so its cardinality is below the row count
    table = load_csv(categorical_cfg.dataset, categorical_cfg.schema, categorical_cfg.benign_name)
    flow_id = np.array([f"10.0.{i % 7}.{i % 37}" for i in range(table.row_count)], dtype=object)
    table = table_from_columns(table.schema, table.benign_name, {**table_columns(table), "flow_id": flow_id})
    write_csv(table, tmp_path / "data.csv")
    config = {"dataset": str(tmp_path / "data.csv"), "benign_name": "Benign", "columns": table.schema.to_json()}
    (tmp_path / "config.json").write_text(json.dumps({**config, "seed": 0}))
    assert main(["inspect", "--config", str(tmp_path / "config.json")]) == 0
    out = capsys.readouterr().out
    assert json.loads(out)["cardinality"] == {"flow_id": 7 * 37, "proto": 4}
    assert _sha(out.encode()) == GOLDEN_INSPECT, out
