"""Evaluation metrics for a scenario's test set.

Attack is the positive class. Accuracy, detection rate (attack recall),
false alarm rate, and the zero-day detection rate are reported in percent;
precision, F1 and AUC as fractions in [0, 1]. A metric whose denominator is
zero is `None` ("undefined"), never silently 0 or 100; JSON serialization
turns these into nulls and fold aggregation skips them with a count.

The zero-day detection rate of a held-out class is the detection rate
restricted to the test rows of that class: tp_z / (tp_z + fn_z) * 100. When
the test set's only attack class is the held-out one it coincides with DR.
Test rows name their classes by code, as the table holds them (0 is benign).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

METRIC_NAMES = ("accuracy", "dr", "far", "precision", "f1", "auc", "zdr")


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int
    fp: int
    tn: int
    fn: int

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn

    def to_json(self) -> dict:
        return {"tp": self.tp, "fp": self.fp, "tn": self.tn, "fn": self.fn}


@dataclass
class MetricsReport:
    accuracy: float | None = None
    dr: float | None = None
    far: float | None = None
    precision: float | None = None
    f1: float | None = None
    auc: float | None = None
    zdr: float | None = None
    fold_id: int | None = None
    held_out_class: str | None = None
    confusion: ConfusionCounts | None = None

    def metric(self, name: str) -> float | None:
        return getattr(self, name)

    def to_json(self) -> dict:
        out = {name: self.metric(name) for name in METRIC_NAMES}
        out["fold"] = self.fold_id
        out["held_out_class"] = self.held_out_class
        if self.confusion is not None:
            out["confusion"] = self.confusion.to_json()
        return out


def confusion(y_true: np.ndarray, y_pred: np.ndarray) -> ConfusionCounts:
    """Exact confusion counts; attack (label 1) is positive."""
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
    return ConfusionCounts(tp, fp, tn, fn)


def basic_metrics(c: ConfusionCounts) -> MetricsReport:
    """Accuracy, DR, FAR (percent) and precision, F1 (fractions) from counts."""
    accuracy = (c.tp + c.tn) / c.total * 100.0
    dr = c.tp / (c.tp + c.fn) * 100.0 if (c.tp + c.fn) > 0 else None
    far = c.fp / (c.fp + c.tn) * 100.0 if (c.fp + c.tn) > 0 else None
    precision = c.tp / (c.tp + c.fp) if (c.tp + c.fp) > 0 else None
    f1 = None
    if precision is not None and dr is not None:
        recall = dr / 100.0
        if precision + recall > 0:
            f1 = 2.0 * precision * recall / (precision + recall)
    return MetricsReport(accuracy=accuracy, dr=dr, far=far, precision=precision, f1=f1, confusion=c)


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
) -> MetricsReport:
    """Full per-fold report: confusion metrics, AUC, and Z-DR when applicable."""
    report = basic_metrics(confusion(y_true, y_pred))
    report.auc = auc(y_true, scores)
    report.fold_id = fold_id
    report.held_out_class = held_out_class
    if held_out_class is not None:
        report.zdr = zdr(per_class_positives(y_true, y_pred, class_codes, class_names), held_out_class)
    return report


@dataclass
class FoldAggregate:
    """Mean/std over folds, skipping (and counting) undefined metrics."""

    mean: MetricsReport
    std: dict[str, float | None]
    undefined_counts: dict[str, int]


def aggregate_folds(reports: list[MetricsReport]) -> FoldAggregate:
    """Arithmetic mean and population std per metric over defined folds."""
    if not reports:
        raise ValueError("cannot aggregate an empty report list")
    held = {r.held_out_class for r in reports}
    if len(held) > 1:
        raise ValueError(f"cannot aggregate reports for different held-out classes: {sorted(map(str, held))}")

    mean = MetricsReport(held_out_class=reports[0].held_out_class)
    std: dict[str, float | None] = {}
    undefined: dict[str, int] = {}
    for name in METRIC_NAMES:
        values = [r.metric(name) for r in reports]
        defined = np.array([v for v in values if v is not None], dtype=np.float64)
        undefined[name] = len(values) - defined.size
        if defined.size:
            std[name] = float(defined.std())
            setattr(mean, name, float(defined.mean()))
        else:
            std[name] = None
    return FoldAggregate(mean, std, undefined)
