"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete. Criterion 7 needs a user-supplied full-scale CSV
(see its docstring) and is skipped otherwise.
"""

from __future__ import annotations

import csv
import json
import os
import time
from contextlib import contextmanager

import numpy as np
import pytest
from conftest import coded_table, grow_on_every_row, wasserstein_1d

from zdeval.classifiers import (
    ForestConfig,
    MlpConfig,
    RandomForestModel,
    forest_score,
    mlp_loss_and_grads,
    mlp_init,
    mlp_score,
    mlp_train,
    predict,
    train_forest,
    tree_score,
)
from zdeval.config import config_from_dict
from zdeval.flowdata import write_csv
from zdeval.harness import emit_reports, run_experiment
from zdeval.metrics import auc, basic_metrics, confusion, per_class_positives, zdr
from zdeval.preprocess import preprocess_pipeline
from zdeval.synth import AttackBlob, SyntheticSpec, synthesize_dataset
from zdeval.zslsplit import Scenario, make_fold_plan, make_zero_day_scenarios, scenario_rows


@contextmanager
def criterion(number: int, description: str, budget_s: float | None = None):
    t0 = time.monotonic()
    try:
        yield
    except BaseException as exc:
        tag = "SKIP" if isinstance(exc, pytest.skip.Exception) else "FAIL"
        print(f"[{tag}] criterion {number}: {description}")
        raise
    elapsed = time.monotonic() - t0
    print(f"[PASS] criterion {number}: {description} ({elapsed:.1f}s)")
    if budget_s is not None:
        assert elapsed < budget_s, f"criterion {number} exceeded its {budget_s}s budget: {elapsed:.1f}s"


# ---------------------------------------------------------------- oracles

def brute_basic(y_true, y_pred):
    tp = fp = tn = fn = 0
    for t, p in zip(y_true, y_pred):
        if t == 1 and p == 1:
            tp += 1
        elif t == 0 and p == 1:
            fp += 1
        elif t == 0 and p == 0:
            tn += 1
        else:
            fn += 1
    total = tp + fp + tn + fn
    return {
        "accuracy": (tp + tn) / total * 100.0,
        "dr": tp / (tp + fn) * 100.0 if tp + fn else None,
        "far": fp / (fp + tn) * 100.0 if fp + tn else None,
        "precision": tp / (tp + fp) if tp + fp else None,
    }


def allpairs_auc(y_true, scores):
    """Mann-Whitney statistic over every positive/negative pair."""
    scores = np.asarray(scores, dtype=np.float64)
    pos = scores[np.asarray(y_true) == 1]
    neg = scores[np.asarray(y_true) == 0]
    if pos.size == 0 or neg.size == 0:
        return None
    wins = (pos[:, None] > neg[None, :]).sum() + 0.5 * (pos[:, None] == neg[None, :]).sum()
    return float(wins / (pos.size * neg.size))


def sorted_diff_wd(u, v):
    u = np.sort(np.asarray(u, dtype=np.float64))
    v = np.sort(np.asarray(v, dtype=np.float64))
    return float(np.mean(np.abs(u - v)))


def quantile_grid_wd(u, v):
    """Integral of |Q_u - Q_v| over probability: the inverse-CDF formulation."""
    u = np.sort(np.asarray(u, dtype=np.float64))
    v = np.sort(np.asarray(v, dtype=np.float64))
    nu, nv = u.size, v.size
    ps = np.union1d(np.arange(1, nu + 1) / nu, np.arange(1, nv + 1) / nv)
    prev = np.concatenate([[0.0], ps[:-1]])
    mid = 0.5 * (prev + ps)
    qu = u[np.minimum((np.ceil(mid * nu) - 1).astype(np.int64), nu - 1)]
    qv = v[np.minimum((np.ceil(mid * nv) - 1).astype(np.int64), nv - 1)]
    return float(np.sum(np.abs(qu - qv) * (ps - prev)))


# --------------------------------------------------------------- criteria

def test_criterion_1_metrics_oracle_suite():
    with criterion(1, "metrics match brute-force recomputation on 1,000 random triples", 10.0):
        rng = np.random.default_rng(101)
        class_pool = np.array(["Benign", "A", "B", "C"], dtype=object)
        for _ in range(1000):
            n = int(rng.integers(1, 201))
            codes = rng.integers(0, 4, n)
            classes = class_pool[codes]
            y_true = (classes != "Benign").astype(np.int64)
            y_pred = rng.integers(0, 2, n)
            scores = np.round(rng.random(n), 2)

            want = brute_basic(y_true, y_pred)
            got = basic_metrics(confusion(y_true, y_pred))
            for name, expected in want.items():
                actual = got.metric(name)
                if expected is None:
                    assert actual is None, name
                else:
                    assert abs(actual - expected) <= 1e-12, name
            if want["precision"] not in (None,) and want["dr"] is not None:
                recall = want["dr"] / 100.0
                if want["precision"] + recall > 0:
                    f1 = 2 * want["precision"] * recall / (want["precision"] + recall)
                    assert abs(got.f1 - f1) <= 1e-12
                else:
                    assert got.f1 is None

            held = str(rng.choice(class_pool[1:]))
            expected_zdr = None
            held_rows = classes == held
            if held_rows.any():
                expected_zdr = float(y_pred[held_rows].sum() / held_rows.sum() * 100.0)
            actual_zdr = zdr(per_class_positives(y_true, y_pred, codes, tuple(class_pool)), held)
            if expected_zdr is None:
                assert actual_zdr is None
            else:
                assert abs(actual_zdr - expected_zdr) <= 1e-12

            expected_auc = allpairs_auc(y_true, scores)
            actual_auc = auc(y_true, scores)
            if expected_auc is None:
                assert actual_auc is None
            else:
                assert abs(actual_auc - expected_auc) <= 1e-12


def test_criterion_2_wasserstein_oracle_suite():
    with criterion(2, "wasserstein_1d matches independent oracles and metric axioms", 30.0):
        rng = np.random.default_rng(202)
        for _ in range(500):
            n = int(rng.integers(1, 1001))
            scale = rng.uniform(0.1, 10.0)
            u = rng.normal(0.0, scale, n)
            v = rng.normal(rng.uniform(-2, 2), scale, n)
            assert abs(wasserstein_1d(u, v) - sorted_diff_wd(u, v)) <= 1e-9

        try:
            from scipy.stats import wasserstein_distance as scipy_wd
        except ImportError:
            scipy_wd = None
        for _ in range(200):
            u = rng.normal(size=int(rng.integers(1, 1001)))
            v = rng.normal(rng.uniform(-1, 1), 1.0, int(rng.integers(1, 1001)))
            got = wasserstein_1d(u, v)
            assert abs(got - quantile_grid_wd(u, v)) <= 1e-9
            if scipy_wd is not None:
                assert abs(got - float(scipy_wd(u, v))) <= 1e-9

        for _ in range(200):
            u = rng.normal(size=int(rng.integers(1, 201)))
            v = rng.normal(size=int(rng.integers(1, 201)))
            w = rng.normal(size=int(rng.integers(1, 201)))
            assert wasserstein_1d(u, v) == wasserstein_1d(v, u)  # symmetry, exact
            assert wasserstein_1d(u, w) <= wasserstein_1d(u, v) + wasserstein_1d(v, w) + 1e-9
            c = float(rng.uniform(-50, 50))
            base = wasserstein_1d(u, v)
            assert abs(wasserstein_1d(u + c, v + c) - base) <= 1e-12 + 1e-12 * abs(base)
            alpha = float(rng.uniform(0.01, 20.0))
            scaled = wasserstein_1d(alpha * u, alpha * v)
            assert abs(scaled - alpha * base) <= 1e-12 + 1e-12 * abs(alpha * base)


def test_criterion_3_split_invariants():
    with criterion(3, "split invariants hold over 100 random synthetic class layouts", 10.0):
        rng = np.random.default_rng(303)
        for _ in range(100):
            counts = {"Benign": int(rng.integers(0, 40))}
            for i in range(int(rng.integers(1, 5))):
                counts[f"atk{i}"] = int(rng.integers(1, 30))
            attack_names = tuple(n for n in counts if n != "Benign")
            order = ["Benign", *attack_names]
            codes = np.concatenate(
                [np.full(counts[name], order.index(name), dtype=np.int64) for name in order]
            )
            perm = rng.permutation(codes.size)
            table = coded_table(codes[perm], tuple(order))
            total = table.row_count
            k = int(rng.integers(2, min(6, total) + 1))

            plan = make_fold_plan(table, k=k, seed=int(rng.integers(0, 2**63)))
            tests = [scenario_rows(Scenario(None, f), plan, table)[1] for f in range(k)]
            assert np.array_equal(np.sort(np.concatenate(tests)), np.arange(total))
            for code in range(len(order)):
                per_fold = [int((table.class_codes[test] == code).sum()) for test in tests]
                assert max(per_fold) - min(per_fold) <= 1
            for s in make_zero_day_scenarios(plan, table):
                held_code = table.class_names.index(s.held_out)
                train, test = scenario_rows(s, plan, table)
                assert not np.any(table.class_codes[train] == held_code)
                assert np.intersect1d(train, test).size == 0


def test_criterion_4_mlp_gradient_check():
    with criterion(4, "analytic MLP gradients match central differences at 100+ points", 30.0):
        rng = np.random.default_rng(404)
        checked = 0
        trial = 0
        while checked < 100:
            trial += 1
            d = int(rng.integers(1, 6))
            hidden = (int(rng.integers(1, 5)), int(rng.integers(1, 5)))
            model = None
            # random parameter point with all pre-activations clear of the
            # ReLU kink, so central differences are valid
            for _ in range(200):
                candidate = mlp_init(d, seed=trial, hidden_units=hidden)
                for arr in candidate.parameters().values():
                    arr += rng.normal(0, 0.5, arr.shape)
                X = rng.normal(size=(6, d))
                from zdeval.classifiers.mlp import _forward

                z1, _, z2, _, _ = _forward(candidate, X)
                if min(np.abs(z1).min(), np.abs(z2).min()) > 1e-3:
                    model = candidate
                    break
            assert model is not None
            y = rng.integers(0, 2, 6).astype(np.float64)
            _, grads = mlp_loss_and_grads(model, X, y)
            for name, param in model.parameters().items():
                flat = param.reshape(-1)
                for idx in range(flat.size):
                    old = flat[idx]
                    flat[idx] = old + 1e-5
                    lp, _ = mlp_loss_and_grads(model, X, y)
                    flat[idx] = old - 1e-5
                    lm, _ = mlp_loss_and_grads(model, X, y)
                    flat[idx] = old
                    numeric = (lp - lm) / 2e-5
                    analytic = grads[name].reshape(-1)[idx]
                    denom = max(abs(numeric), abs(analytic), 1e-6)
                    assert abs(numeric - analytic) / denom <= 1e-4, (name, idx)
            checked += 1
        assert checked >= 100


def test_criterion_5_classifier_sanity(tmp_path):
    with criterion(5, "RF and MLP reach 99% accuracy/DR on separable blobs; forest==tree"):
        spec = SyntheticSpec(
            n_benign=800,
            attacks=(AttackBlob("intrusion", 800, mean=2.5, cov_scale=0.5),),
            d=10,
            seed=505,
            include_identifier=False,
        )
        table = synthesize_dataset(spec)
        assert table.row_count == 1600
        [fit] = preprocess_pipeline(table, np.zeros(table.row_count, dtype=np.intp), [[True]])
        train, test = scenario_rows(Scenario(None, 0), make_fold_plan(table, 5, seed=1), table)
        labels = (table.class_codes != 0).astype(np.int64)
        x_tr, y_tr = fit.apply(table, train), labels[train]
        x_te, y_te = fit.apply(table, test), labels[test]

        for name, scores in (
            ("forest", forest_score(train_forest(x_tr, y_tr, ForestConfig(), seed=2), x_te)),
            (
                "mlp",
                mlp_score(
                    mlp_train(x_tr, y_tr, MlpConfig(learning_rate=0.15, epochs=60, batch_size=48), seed=3),
                    x_te,
                ),
            ),
        ):
            report = basic_metrics(confusion(y_te, predict(scores)))
            assert report.accuracy >= 99.0, (name, report.accuracy)
            assert report.dr >= 99.0, (name, report.dr)

        lone_tree = grow_on_every_row(x_tr, y_tr, ForestConfig(n_trees=1, m_try=10), np.random.default_rng(4))
        forest = RandomForestModel((lone_tree,), 10, 10, 4)
        assert lone_tree.count[0] == len(x_tr)  # unit weights: every train row once
        assert np.array_equal(forest_score(forest, x_te), tree_score(lone_tree, x_te))


QUALITATIVE_SPEC = SyntheticSpec(
    n_benign=3000,
    attacks=(
        AttackBlob("scatter", 80, mean=1.8, cov_scale=0.2),
        AttackBlob("probe", 140, mean=1.5, cov_scale=0.2),
        AttackBlob("flood", 200, mean=1.3, cov_scale=0.2),
        AttackBlob("morph", 420, mean=1.5, cov_scale=0.2, shift=-4.0),
    ),
    d=6,
    seed=20250801,
)

SHIFTED_CLASS = "morph"


def qualitative_config(tmp_path, out_name):
    table = synthesize_dataset(QUALITATIVE_SPEC)
    csv_path = tmp_path / "qualitative.csv"
    if not csv_path.exists():
        write_csv(table, csv_path)
    return config_from_dict(
        {
            "dataset": str(csv_path),
            "benign_name": "Benign",
            "columns": table.schema.to_json(),
            "models": ["forest", "mlp"],
            "k": 5,
            "seed": 7,
            "save_models": False,
            "output_dir": str(tmp_path / out_name),
            "forest": {"n_trees": 50},
            "mlp": {"learning_rate": 0.15, "epochs": 60, "batch_size": 48},
        }
    )


@pytest.fixture(scope="module")
def qualitative_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("qualitative")
    cfg = qualitative_config(tmp, "out1")
    t0 = time.monotonic()
    report = run_experiment(cfg)
    elapsed = time.monotonic() - t0
    emit_reports(report, cfg.output_dir)
    return tmp, cfg, report, elapsed


def test_criterion_6_qualitative_reproduction(qualitative_run):
    with criterion(6, "shifted class: largest mean WD, lowest Z-DR, Spearman <= -0.5"):
        _, cfg, report, elapsed = qualitative_run
        assert elapsed < 120.0, f"run took {elapsed:.0f}s, budget is 120s"

        wd = {c: report.wd[c]["mean_wd"] for c in report.classes}
        others = [c for c in report.classes if c != SHIFTED_CLASS]
        assert all(wd[SHIFTED_CLASS] > wd[c] for c in others), wd

        for model in ("forest", "mlp"):
            zdrs = {c: report.zero_day[model][c]["mean"]["zdr"] for c in report.classes}
            assert all(zdrs[SHIFTED_CLASS] < zdrs[c] for c in others), (model, zdrs)
            assert report.correlation[model] is not None, model
            assert report.correlation[model] <= -0.5, (model, report.correlation[model])


def test_criterion_8_determinism(qualitative_run):
    with criterion(8, "two identical runs produce byte-identical metrics files"):
        tmp, cfg1, _, _ = qualitative_run
        cfg2 = qualitative_config(tmp, "out2")
        report2 = run_experiment(cfg2)
        emit_reports(report2, cfg2.output_dir)

        out1 = tmp / "out1"
        out2 = tmp / "out2"
        metric_files = [
            "metrics_forest.csv",
            "metrics_mlp.csv",
            "dr_vs_zdr_forest.tsv",
            "dr_vs_zdr_mlp.tsv",
            "wd_means.tsv",
            "transforms.json",
        ]
        for name in metric_files:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name
        run1 = json.loads((out1 / "run.json").read_text())
        run2 = json.loads((out2 / "run.json").read_text())
        for doc in (run1, run2):
            doc.pop("generated_at")
            doc["config"].pop("output_dir")
            doc["config"].pop("workers")  # resolved value may differ by host
        assert json.dumps(run1, sort_keys=True) == json.dumps(run2, sort_keys=True)


@pytest.mark.skipif(
    "ZDEVAL_NF_UNSW_V2_CSV" not in os.environ,
    reason="full-scale mode needs ZDEVAL_NF_UNSW_V2_CSV pointing at the NetFlow v2 CSV export",
)
def test_criterion_7_full_scale_rank_agreement(tmp_path):
    """Optional, not gating: point ZDEVAL_NF_UNSW_V2_CSV at the full NetFlow v2
    CSV (columns incl. IPV4_SRC_ADDR/..., Attack, Label) and this runs the
    forest on a seeded 200k-row subsample, checking only that Fuzzers and
    Exploits come out as the two hardest zero-day classes.
    """
    with criterion(7, "full-scale subsample ranks Fuzzers and Exploits hardest (forest)"):
        path = os.environ["ZDEVAL_NF_UNSW_V2_CSV"]
        # NetFlow v2: the endpoint addresses and ports identify flows, every other feature is numeric
        kinds = {"Label": "binary_label", "Attack": "attack_class"}
        kinds.update(dict.fromkeys(("IPV4_SRC_ADDR", "L4_SRC_PORT", "IPV4_DST_ADDR", "L4_DST_PORT"), "identifier"))
        with open(path, encoding="utf-8", newline="") as fh:
            header = [h.strip() for h in next(csv.reader(fh))]
        columns = [{"name": h, "kind": kinds.get(h, "numeric")} for h in header]
        cfg = config_from_dict(
            {
                "dataset": path,
                "benign_name": "Benign",
                "columns": columns,
                "models": ["forest"],
                "k": 5,
                "seed": 1,
                "subsample": 200_000,
                "save_models": False,
                "output_dir": str(tmp_path / "full-scale"),
            }
        )
        report = run_experiment(cfg)
        zdrs = {
            c: report.zero_day["forest"][c]["mean"]["zdr"]
            for c in report.classes
            if report.zero_day["forest"][c]["mean"]["zdr"] is not None
        }
        two_lowest = sorted(zdrs, key=zdrs.get)[:2]
        assert set(two_lowest) == {"Fuzzers", "Exploits"}, zdrs
