"""Per-feature distribution drift between a scenario's train and test sets.

The first Wasserstein distance between two empirical samples is the L1
distance between their quantile functions; for equal sample sizes it reduces
to the mean absolute difference of the sorted samples. Computed per feature
and averaged, it quantifies how unlike the training distribution a test set
is once a class is held out; ranked against the per-class zero-day detection
rates it explains which classes a model fails to generalize to.

Every feature is read coded and min-max scaled by the scenario's fitted
transform, so every distance lies in [0, 1] and the cross-feature mean
weighs the features alike: no feature counts for more because of its unit
or range.

Each feature's distance takes one in-place sort per side and one merge,
inside one workspace per scenario, so a pool worker does not fault in fresh
pages for every feature: one allocation, sized to the scenario's n train
and test rows, holding the values (the train half, then the test half),
the merged values, two float buffers of n - 1 and the float ranks 1..n-1.
A feature's train and test columns are gathered from the table's
feature-major block into the two halves, each by one take from the
contiguous column, transformed there by the scenario's fitted transform,
sorted, and merged by a stable argsort of the
two sorted runs (one linear merge, whose result is the only n-element array
a feature allocates). |F_u - F_v| is then integrated over the merged values
with cumulative counts of each side, in float64 (exact below 2**53). This
is exact, and bit-identical to sorting the concatenation and counting each
breakpoint with `searchsorted`: where the merged value increases, the
cumulative count is the `searchsorted` count; where values tie, the step
width is 0 and so is the term, whatever the counts. Both build the same
array of terms, which `np.sum` adds in the same order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .flowdata import FlowTable
from .metrics import average_ranks
from .preprocess import FittedTransform, check_rows


@dataclass
class WdReport:
    """Per-feature and mean train/test distances for one scenario."""

    held_out_class: str | None
    fold_id: int | None
    per_feature: dict[str, float]
    mean_wd: float
    encoded_features: tuple[str, ...] = ()
    rows_train: int = 0
    rows_test: int = 0

    def to_json(self) -> dict:
        return {
            "held_out_class": self.held_out_class,
            "fold": self.fold_id,
            "mean_wd": self.mean_wd,
            "per_feature": dict(sorted(self.per_feature.items())),
            "encoded_features": list(self.encoded_features),
            "rows_train": self.rows_train,
            "rows_test": self.rows_test,
        }


class _Workspace:
    """One scenario's row sets and its distance buffers, views of one block of n = n_u + n_v rows."""

    def __init__(self, train_rows: np.ndarray, test_rows: np.ndarray):
        self.train_rows, self.test_rows = train_rows, test_rows
        self.n_u, self.n_v = train_rows.size, test_rows.size
        n = self.n_u + self.n_v
        block = np.empty(5 * n - 3)
        self.values, self.merged = block[:n], block[n:2 * n]
        self.u, self.v = self.values[:self.n_u], self.values[self.n_u:]
        self.counts, self.terms, self.ranks = block[2 * n:].reshape(3, n - 1)
        self.ranks[:] = np.arange(1.0, n)


def _feature_wd(ws: _Workspace, base: FlowTable, transform: FittedTransform, j: int) -> float:
    """Feature j's distance between the workspace's two nonempty row sets, computed inside it."""
    u, v = ws.u, ws.v
    transform.column(base, ws.train_rows, j, out=u)
    transform.column(base, ws.test_rows, j, out=v)
    u.sort()
    v.sort()
    # NaN and +inf sort last, -inf first: the ends decide finiteness
    if not (np.isfinite(u[0]) and np.isfinite(u[-1]) and np.isfinite(v[0]) and np.isfinite(v[-1])):
        raise ValueError(f"per_feature_wd (feature {base.feature_names[j]!r}) requires finite sample values")
    # numpy's stable sort (timsort) finds the two sorted runs and merges them
    # in one linear pass; the order within ties does not change the sum
    order = np.argsort(ws.values, kind="stable")
    merged = np.take(ws.values, order, out=ws.merged, mode="clip")  # "raise" would copy `out`
    # how many v, then how many u, lie at or before each breakpoint but the last
    v_count = np.cumsum(np.greater_equal(order[:-1], ws.n_u, out=ws.counts), out=ws.counts)
    u_count = np.subtract(ws.ranks, v_count, out=ws.terms)
    u_count /= ws.n_u
    v_count /= ws.n_v
    terms = np.abs(np.subtract(u_count, v_count, out=ws.terms), out=ws.terms)
    terms *= np.subtract(merged[1:], merged[:-1], out=ws.counts)
    return float(np.sum(terms))


def per_feature_wd(
    base: FlowTable,
    train_rows: np.ndarray,
    test_rows: np.ndarray,
    *,
    transform: FittedTransform,
    held_out_class: str | None = None,
    fold_id: int | None = None,
) -> WdReport:
    """Wasserstein distance per feature between a table's train and test rows.

    Both row sets are checked against the table once; then each feature is
    read through `transform.column`, encoded and scaled into [0, 1], into
    one workspace reused for every feature, so every distance lies in
    [0, 1]. Every distance is exact, over all of both sides' rows.

    Features that are encoded categories are carried through in
    `encoded_features` since distances over arbitrary integer codes depend
    on the code assignment.
    """
    train_rows = np.asarray(train_rows, dtype=np.int64)
    test_rows = np.asarray(test_rows, dtype=np.int64)
    n_train, n_test = train_rows.size, test_rows.size
    if n_train == 0 or n_test == 0:
        raise ValueError("per_feature_wd requires nonempty train and test sets")
    check_rows(base, train_rows)
    check_rows(base, test_rows)

    # each column is copied into the workspace, so sorting it leaves the table alone
    ws = _Workspace(train_rows, test_rows)
    distances = {name: _feature_wd(ws, base, transform, j) for j, name in enumerate(base.feature_names)}
    mean_wd = float(np.mean(list(distances.values())))
    return WdReport(
        held_out_class=held_out_class,
        fold_id=fold_id,
        per_feature=distances,
        mean_wd=mean_wd,
        encoded_features=base.schema.categorical_names,
        rows_train=n_train,
        rows_test=n_test,
    )


def rank_correlation(xs, ys) -> float:
    """Spearman rank correlation with average ranks for ties."""
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    if xs.shape != ys.shape:
        raise ValueError(f"length mismatch: {xs.shape} vs {ys.shape}")
    if xs.size < 3:
        raise ValueError(f"rank correlation needs >= 3 pairs, got {xs.size}")
    rx = average_ranks(xs)
    ry = average_ranks(ys)
    rx = rx - rx.mean()
    ry = ry - ry.mean()
    denom = np.sqrt((rx * rx).sum() * (ry * ry).sum())
    if denom == 0.0:
        raise ValueError("rank correlation is undefined when one side is entirely tied")
    return float((rx * ry).sum() / denom)
