"""Evaluation metrics for a scenario's test set.

Attack is the positive class. Accuracy, detection rate (attack recall),
false alarm rate, and the zero-day detection rate are reported in percent;
precision, F1 and AUC as fractions in [0, 1]. A metric whose denominator is
zero is `None` ("undefined"), never silently 0 or 100; `run.json` holds it
as null and fold aggregation skips it with a count. Each report is the
JSON object `run.json` holds: a fold's from `scenario_report`, a class's
fold entry from `aggregate_folds`.

The zero-day detection rate of a held-out class is the detection rate
restricted to the test rows of that class: tp_z / (tp_z + fn_z) * 100. When
the test set's only attack class is the held-out one it coincides with DR.
Test rows name their classes by code, as the table holds them (0 is benign).
"""

from __future__ import annotations

import numpy as np

METRIC_NAMES = ("accuracy", "dr", "far", "precision", "f1", "auc", "zdr")


def confusion(y_true: np.ndarray, y_pred: np.ndarray) -> dict[str, int]:
    """Exact confusion counts {"tp", "fp", "tn", "fn"}; attack (label 1) is positive."""
    y_true = np.asarray(y_true, dtype=np.int64)
    y_pred = np.asarray(y_pred, dtype=np.int64)
    if y_true.shape != y_pred.shape:
        raise ValueError(f"length mismatch: {y_true.shape} vs {y_pred.shape}")
    if y_true.size < 1:
        raise ValueError("cannot compute confusion counts on empty inputs")
    tp = int(np.count_nonzero((y_true == 1) & (y_pred == 1)))
    fp = int(np.count_nonzero((y_true == 0) & (y_pred == 1)))
    tn = int(np.count_nonzero((y_true == 0) & (y_pred == 0)))
    fn = int(np.count_nonzero((y_true == 1) & (y_pred == 0)))
    return {"tp": tp, "fp": fp, "tn": tn, "fn": fn}


def basic_metrics(c: dict[str, int]) -> dict:
    """A fold's report from its counts: accuracy, DR, FAR (percent), precision, F1 (fractions).

    The report holds every metric, `fold`, `held_out_class` and the counts
    as `confusion`; AUC, Z-DR, the fold and the class are None until
    `scenario_report` sets them.
    """
    tp, fp, tn, fn = c["tp"], c["fp"], c["tn"], c["fn"]
    total = tp + fp + tn + fn
    accuracy = (tp + tn) / total * 100.0 if total > 0 else None
    dr = tp / (tp + fn) * 100.0 if (tp + fn) > 0 else None
    far = fp / (fp + tn) * 100.0 if (fp + tn) > 0 else None
    precision = tp / (tp + fp) if (tp + fp) > 0 else None
    f1 = None
    if precision is not None and dr is not None:
        recall = dr / 100.0
        if precision + recall > 0:
            f1 = 2.0 * precision * recall / (precision + recall)
    return {
        "accuracy": accuracy, "dr": dr, "far": far, "precision": precision, "f1": f1, "auc": None, "zdr": None,
        "fold": None, "held_out_class": None, "confusion": c,
    }


def average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks with ties replaced by the mean rank of the tied group."""
    values = np.asarray(values, dtype=np.float64)
    # a tied group spans sorted positions first..last (0-based); NaNs rank
    # last, each in a group of its own
    _, group, counts = np.unique(values, return_inverse=True, return_counts=True, equal_nan=False)
    last = np.cumsum(counts) - 1
    first = last - counts + 1
    return (0.5 * (first + last) + 1.0)[group]


def auc(y_true: np.ndarray, scores: np.ndarray) -> float | None:
    """ROC AUC as the Mann-Whitney statistic P(score+ > score-) + P(tie)/2.

    Computed by rank summation with average ranks for ties. Returns None
    (undefined) when the truth contains a single class.
    """
    y_true = np.asarray(y_true, dtype=np.int64)
    scores = np.asarray(scores, dtype=np.float64)
    if y_true.shape != scores.shape:
        raise ValueError(f"length mismatch: {y_true.shape} vs {scores.shape}")
    n_pos = int(np.count_nonzero(y_true == 1))
    n_neg = y_true.size - n_pos
    if n_pos == 0 or n_neg == 0:
        return None
    ranks = average_ranks(scores)
    rank_sum = float(ranks[y_true == 1].sum())
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def per_class_positives(
    y_true: np.ndarray,
    y_pred: np.ndarray,
    class_codes: np.ndarray,
    class_names: tuple[str, ...],
) -> dict[str, tuple[int, int]]:
    """Per attack class with test rows, (tp, fn) over them: `bincount`s of the rows' codes into `class_names`."""
    y_pred = np.asarray(y_pred, dtype=np.int64)
    codes = np.asarray(class_codes)
    if not (np.shape(y_true) == y_pred.shape == codes.shape):
        raise ValueError("y_true, y_pred and class_codes must share one length")
    rows = np.bincount(codes, minlength=len(class_names))
    tp = np.bincount(codes[y_pred == 1], minlength=len(rows))
    fn = np.bincount(codes[y_pred == 0], minlength=len(rows))
    return {class_names[c]: (int(tp[c]), int(fn[c])) for c in np.flatnonzero(rows[1:]) + 1}


def zdr(per_class: dict[str, tuple[int, int]], held_out: str) -> float | None:
    """Detection rate (percent) over the held-out class's test rows.

    None when the class has no test rows in this fold; aggregation then
    skips the fold and reports it.
    """
    if held_out not in per_class:
        return None
    tp, fn = per_class[held_out]
    if tp + fn == 0:
        return None
    return tp / (tp + fn) * 100.0


def scenario_report(
    y_true: np.ndarray,
    y_pred: np.ndarray,
    scores: np.ndarray,
    class_codes: np.ndarray,
    class_names: tuple[str, ...],
    *,
    held_out_class: str | None = None,
    fold_id: int | None = None,
) -> dict:
    """A fold's full report, as `run.json` holds it: confusion metrics, AUC, and Z-DR when applicable."""
    report = basic_metrics(confusion(y_true, y_pred))
    report.update(auc=auc(y_true, scores), fold=fold_id, held_out_class=held_out_class)
    if held_out_class is not None:
        report["zdr"] = zdr(per_class_positives(y_true, y_pred, class_codes, class_names), held_out_class)
    return report


def aggregate_folds(reports: list[dict]) -> dict:
    """The fold reports and, per metric over the folds where it is defined, its arithmetic mean and population std.

    Returns `run.json`'s entry {"folds", "mean", "std", "undefined_counts"}:
    `mean` is a report with no fold, and a metric undefined in every fold
    has a None mean and std. `undefined_counts` counts the folds skipped.
    """
    if not reports:
        raise ValueError("cannot aggregate an empty report list")
    held = {r["held_out_class"] for r in reports}
    if len(held) > 1:
        raise ValueError(f"cannot aggregate reports for different held-out classes: {sorted(map(str, held))}")

    mean: dict = {"fold": None, "held_out_class": reports[0]["held_out_class"]}
    std: dict[str, float | None] = {}
    undefined: dict[str, int] = {}
    for name in METRIC_NAMES:
        defined = np.array([r[name] for r in reports if r[name] is not None], dtype=np.float64)
        undefined[name] = len(reports) - defined.size
        mean[name] = float(defined.mean()) if defined.size else None
        std[name] = float(defined.std()) if defined.size else None
    return {"folds": reports, "mean": mean, "std": std, "undefined_counts": undefined}
