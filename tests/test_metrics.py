from __future__ import annotations

import json

import numpy as np
import pytest
from oracle_impls import brute_basic_metrics, brute_zdr, loop_average_ranks, pairwise_auc, roc_curve_points

from zdeval.metrics import (
    ConfusionCounts,
    MetricsReport,
    aggregate_folds,
    auc,
    average_ranks,
    basic_metrics,
    confusion,
    per_class_positives,
    scenario_report,
    zdr,
)


class TestConfusion:
    def test_enumerated_example(self):
        c = confusion([1, 1, 0, 0], [1, 0, 0, 1])
        assert (c.tp, c.fn, c.tn, c.fp) == (1, 1, 1, 1)

    def test_perfect_prediction(self):
        c = confusion([1, 0, 1], [1, 0, 1])
        assert c.fp == 0 and c.fn == 0

    def test_all_benign_truth_all_attack_pred(self):
        c = confusion([0, 0], [1, 1])
        assert c.tp == 0 and c.tn == 0 and c.fp == 2

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            confusion([1], [1, 0])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            confusion([], [])


class TestBasicMetrics:
    def test_worked_example(self):
        r = basic_metrics(ConfusionCounts(tp=90, fp=1, tn=99, fn=10))
        assert r.dr == pytest.approx(90.0)
        assert r.far == pytest.approx(1.0)
        assert r.accuracy == pytest.approx(94.5)

    def test_perfect_classifier(self):
        r = basic_metrics(ConfusionCounts(tp=5, fp=0, tn=5, fn=0))
        assert r.accuracy == 100.0
        assert r.f1 == 1.0

    def test_undefined_precision_and_f1(self):
        r = basic_metrics(ConfusionCounts(tp=0, fp=0, tn=5, fn=5))
        assert r.precision is None
        assert r.f1 is None
        assert r.dr == 0.0

    def test_zero_recall_zero_precision_f1_undefined(self):
        r = basic_metrics(ConfusionCounts(tp=0, fp=3, tn=5, fn=5))
        assert r.precision == 0.0
        assert r.f1 is None  # 0/0 harmonic mean


class TestAuc:
    def test_derived_example(self):
        # pairs: (.35>.1)+(.35<.4)+(.8>.1)+(.8>.4) = 3 of 4
        value = auc([0, 0, 1, 1], [0.1, 0.4, 0.35, 0.8])
        assert value == pytest.approx(0.75, abs=1e-15)
        assert value == pairwise_auc([0, 0, 1, 1], [0.1, 0.4, 0.35, 0.8])

    def test_perfect_separation(self):
        assert auc([0, 0, 1, 1], [0.1, 0.2, 0.8, 0.9]) == 1.0

    def test_all_ties(self):
        assert auc([0, 1, 0, 1], [0.5, 0.5, 0.5, 0.5]) == 0.5

    def test_single_class_undefined(self):
        assert auc([1, 1], [0.2, 0.8]) is None

    def test_threshold_points_lie_on_curve(self):
        rng = np.random.default_rng(0)
        y = rng.integers(0, 2, 50)
        scores = rng.random(50)
        points = roc_curve_points(y, scores)
        xs = np.array([p[0] for p in points])
        ys = np.array([p[1] for p in points])
        curve_auc = float(np.sum(0.5 * (ys[1:] + ys[:-1]) * np.diff(xs)))
        assert curve_auc == pytest.approx(auc(y, scores), abs=1e-12)
        # every thresholded (FAR, DR) pair sits on (not above) the curve
        fprs = np.array([p[0] for p in points])
        tprs = np.array([p[1] for p in points])
        for t in np.linspace(0, 1, 10):
            pred = (scores >= t).astype(int)
            r = basic_metrics(confusion(y, pred))
            x, yy = r.far / 100.0, r.dr / 100.0
            assert yy <= np.interp(x, fprs, tprs) + 1e-12


def coded(classes):
    """Class cells as a table holds them: codes into the names, benign first, then first appearance."""
    names = tuple(dict.fromkeys(["Benign", *classes]))
    return np.array([names.index(c) for c in classes], dtype=np.intp), names


class TestZdr:
    def per_class(self, y_pred, classes):
        y_true = np.array([1 if c != "Benign" else 0 for c in classes])
        return per_class_positives(y_true, np.asarray(y_pred), *coded(classes))

    def test_arithmetic(self):
        classes = ["Z"] * 100 + ["Benign"]
        preds = [1] * 90 + [0] * 10 + [0]
        assert zdr(self.per_class(preds, classes), "Z") == pytest.approx(90.0)

    def test_all_detected(self):
        classes = ["Z"] * 5
        assert zdr(self.per_class([1] * 5, classes), "Z") == 100.0

    def test_missing_class_undefined(self):
        classes = ["Other"] * 3
        assert zdr(self.per_class([1, 0, 1], classes), "Z") is None

    def test_uses_only_held_out_rows(self):
        classes = ["Z", "Z", "Other", "Benign"]
        preds = [1, 0, 0, 1]
        assert zdr(self.per_class(preds, classes), "Z") == pytest.approx(50.0)

    def test_decomposition_sums_to_overall(self):
        rng = np.random.default_rng(1)
        classes = np.array(
            [rng.choice(["Benign", "A", "B", "C"]) for _ in range(200)], dtype=object
        )
        y_true = (classes != "Benign").astype(int)
        y_pred = rng.integers(0, 2, 200)
        pc = per_class_positives(y_true, y_pred, *coded(list(classes)))
        c = confusion(y_true, y_pred)
        assert sum(tp for tp, _ in pc.values()) == c.tp
        assert sum(fn for _, fn in pc.values()) == c.fn

    def test_zdr_equals_dr_when_single_attack_class(self):
        classes = np.array(["Benign"] * 10 + ["Z"] * 10, dtype=object)
        y_true = (classes != "Benign").astype(int)
        rng = np.random.default_rng(2)
        y_pred = rng.integers(0, 2, 20)
        r = basic_metrics(confusion(y_true, y_pred))
        assert zdr(per_class_positives(y_true, y_pred, *coded(list(classes))), "Z") == r.dr

    def test_counts_match_brute_zdr_on_random_codes(self):
        # code 3 names a class no row holds: it gets no entry, as benign gets none
        names = ("Benign", "A", "B", "absent", "C")
        rng = np.random.default_rng(12)
        for _ in range(200):
            n = int(rng.integers(0, 40))
            codes = rng.choice(np.array([0, 1, 2, 4]), size=n)
            y_pred = rng.integers(0, 2, n)
            pc = per_class_positives((codes != 0).astype(np.int64), y_pred, codes, names)
            classes = [names[c] for c in codes]
            assert set(pc) == set(classes) - {"Benign"}
            for name in names[1:]:
                assert zdr(pc, name) == brute_zdr(y_pred, classes, name)


class TestAggregate:
    def report(self, **kw):
        return MetricsReport(**kw)

    def test_mean_over_folds(self):
        reports = [self.report(zdr=v, held_out_class="Z") for v in (80.0, 90.0, 100.0, 90.0, 90.0)]
        agg = aggregate_folds(reports)
        assert agg.mean.zdr == pytest.approx(90.0)

    def test_single_report_std_zero(self):
        agg = aggregate_folds([self.report(accuracy=97.0, dr=50.0)])
        assert agg.mean.accuracy == 97.0
        assert agg.std["accuracy"] == 0.0

    def test_undefined_folds_skipped_and_counted(self):
        reports = [self.report(auc=v) for v in (0.9, None, 0.7, 0.8, None)]
        agg = aggregate_folds(reports)
        assert agg.mean.auc == pytest.approx(0.8)
        assert agg.undefined_counts["auc"] == 2

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            aggregate_folds([])

    def test_mixed_held_out_rejected(self):
        with pytest.raises(ValueError):
            aggregate_folds([self.report(held_out_class="A"), self.report(held_out_class="B")])


class TestOracleEquivalence:
    def test_thousand_random_triples(self):
        rng = np.random.default_rng(42)
        for _ in range(1000):
            n = int(rng.integers(1, 201))
            y_true = rng.integers(0, 2, n)
            y_pred = rng.integers(0, 2, n)
            scores = np.round(rng.random(n), 2)  # coarse grid provokes ties
            expected = brute_basic_metrics(y_true, y_pred)
            got = basic_metrics(confusion(y_true, y_pred))
            for name, want in expected.items():
                have = got.metric(name)
                if want is None:
                    assert have is None, name
                else:
                    assert have == pytest.approx(want, abs=1e-12), name
            want_auc = pairwise_auc(y_true, scores)
            have_auc = auc(y_true, scores)
            if want_auc is None:
                assert have_auc is None
            else:
                assert have_auc == pytest.approx(want_auc, abs=1e-12)


class TestAverageRanks:
    @pytest.mark.parametrize(
        "values",
        [
            [0.5],
            [2.0, 2.0, 2.0, 2.0],
            [3.0, 1.0, 2.0, 1.0, 3.0, 3.0],
            [0.0, -0.0, 1.0, 0.0],
            [1.0, float("nan"), 0.0, float("nan"), 1.0],
            [],
        ],
    )
    def test_matches_loop_bit_for_bit(self, values):
        assert average_ranks(values).tobytes() == loop_average_ranks(values).tobytes()

    def test_random_ties_match_loop_bit_for_bit(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            values = np.round(rng.random(int(rng.integers(1, 300))), 1)
            assert average_ranks(values).tobytes() == loop_average_ranks(values).tobytes()


class TestSerialization:
    def test_nulls_for_undefined(self):
        report = scenario_report(
            np.array([0, 0, 1]),
            np.array([0, 0, 0]),
            np.array([0.1, 0.1, 0.1]),
            np.array([0, 0, 1]),
            ("Benign", "Z"),
            held_out_class="Z",
            fold_id=0,
        )
        doc = json.loads(json.dumps(report.to_json()))
        assert doc["precision"] is None
        assert doc["zdr"] == 0.0
        assert doc["held_out_class"] == "Z"
        assert doc["confusion"] == {"tp": 0, "fp": 0, "tn": 2, "fn": 1}

    def test_scenario_report_matches_oracles(self):
        rng = np.random.default_rng(7)
        classes = np.array([rng.choice(["Benign", "A", "B"]) for _ in range(100)], dtype=object)
        y_true = (classes != "Benign").astype(int)
        scores = rng.random(100)
        y_pred = (scores >= 0.5).astype(int)
        report = scenario_report(y_true, y_pred, scores, *coded(list(classes)), held_out_class="A", fold_id=3)
        assert report.zdr == pytest.approx(brute_zdr(y_pred, classes, "A"))
        assert report.auc == pytest.approx(pairwise_auc(y_true, scores), abs=1e-12)
        assert report.fold_id == 3
