"""Per-feature distribution drift between a scenario's train and test sets.

The first Wasserstein distance between two empirical samples is the L1
distance between their quantile functions; for equal sample sizes it reduces
to the mean absolute difference of the sorted samples. Computed per feature
and averaged, it quantifies how unlike the training distribution a test set
is once a class is held out; ranked against the per-class zero-day detection
rates it explains which classes a model fails to generalize to.

On min-max-scaled features every distance lies in [0, 1], which makes the
cross-feature mean meaningful.

Each feature's distance takes one in-place sort per side and one merge. The
column of the train rows and the column of the test rows are gathered from
the table's feature block and transformed by the scenario's fitted
transform, one column at a time (no matrix is built), sorted, and merged
by a stable sort of the two sorted runs, which is a single linear merge.
|F_u - F_v| is then integrated over the merged values with cumulative
counts of each side. This is exact, and bit-identical to sorting the
concatenation and counting each breakpoint with `searchsorted`: where the
merged value increases, the cumulative count is the `searchsorted` count;
where values tie, the step width is 0 and so is the term, whatever the
counts. Both build the same array of terms, which `np.sum` adds in the same
order. Memory per scenario is a few arrays of one column's rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .flowdata import FlowTable
from .metrics import average_ranks
from .preprocess import FittedTransform


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
    subsample_cap: int | None = None

    def to_json(self) -> dict:
        return {
            "held_out_class": self.held_out_class,
            "fold": self.fold_id,
            "mean_wd": self.mean_wd,
            "per_feature": dict(sorted(self.per_feature.items())),
            "encoded_features": list(self.encoded_features),
            "rows_train": self.rows_train,
            "rows_test": self.rows_test,
            "subsample_cap": self.subsample_cap,
        }


def _wd_in_place(u: np.ndarray, v: np.ndarray, what: str) -> float:
    """Distance between two nonempty float64 samples; sorts both in place."""
    u.sort()
    v.sort()
    # NaN and +inf sort last, -inf first: the ends decide finiteness
    if not (np.isfinite(u[0]) and np.isfinite(u[-1]) and np.isfinite(v[0]) and np.isfinite(v[-1])):
        raise ValueError(f"{what} requires finite sample values")
    n_u, n = u.size, u.size + v.size
    both = np.concatenate([u, v])
    # numpy's stable sort (timsort) finds the two sorted runs and merges them
    # in one linear pass; the order within ties does not change the sum
    order = np.argsort(both, kind="stable")
    # how many v, then how many u, lie at or before each breakpoint but the last
    v_count = np.cumsum(order[:-1] >= n_u)
    u_count = np.arange(1, n) - v_count
    return float(np.sum(np.abs(u_count / n_u - v_count / v.size) * np.diff(both[order])))


def per_feature_wd(
    base: FlowTable,
    train_rows: np.ndarray,
    test_rows: np.ndarray,
    *,
    transform: FittedTransform,
    scaled: bool,
    held_out_class: str | None = None,
    fold_id: int | None = None,
    subsample_cap: int | None = 100_000,
    seed: int = 0,
) -> WdReport:
    """Wasserstein distance per feature between a table's train and test rows.

    Each feature is read through `transform.column`, encoded and scaled
    into [0, 1] when `scaled`, so about one column of each side is held at
    a time.

    Sides larger than `subsample_cap` rows are reduced to a seeded uniform
    subsample (without replacement); the cap is recorded in the report.
    Features that are encoded categories are carried through in
    `encoded_features` since distances over arbitrary integer codes depend
    on the code assignment.
    """
    train_rows = np.asarray(train_rows, dtype=np.int64)
    test_rows = np.asarray(test_rows, dtype=np.int64)
    n_train, n_test = train_rows.size, test_rows.size
    if n_train == 0 or n_test == 0:
        raise ValueError("per_feature_wd requires nonempty train and test sets")

    capped = None
    if subsample_cap is not None and (n_train > subsample_cap or n_test > subsample_cap):
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        if n_train > subsample_cap:
            train_rows = train_rows[np.sort(rng.choice(n_train, size=subsample_cap, replace=False))]
        if n_test > subsample_cap:
            test_rows = test_rows[np.sort(rng.choice(n_test, size=subsample_cap, replace=False))]
        capped = subsample_cap

    # each column is a fresh copy, so sorting it leaves the table alone
    distances = {
        name: _wd_in_place(
            transform.column(base, train_rows, j, scaled=scaled),
            transform.column(base, test_rows, j, scaled=scaled),
            f"per_feature_wd (feature {name!r})",
        )
        for j, name in enumerate(base.feature_names)
    }
    mean_wd = float(np.mean(list(distances.values()))) if distances else 0.0
    return WdReport(
        held_out_class=held_out_class,
        fold_id=fold_id,
        per_feature=distances,
        mean_wd=mean_wd,
        encoded_features=base.schema.categorical_names,
        rows_train=n_train,
        rows_test=n_test,
        subsample_cap=capped,
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
