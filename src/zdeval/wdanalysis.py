"""Per-feature distribution drift between a scenario's train and test sets.

The first Wasserstein distance between two empirical samples is the L1
distance between their quantile functions; for equal sample sizes it reduces
to the mean absolute difference of the sorted samples. Computed per feature
and averaged, it quantifies how unlike the training distribution a test set
is once a class is held out; ranked against the per-class zero-day detection
rates it explains which classes a model fails to generalize to.

On min-max-scaled features every distance lies in [0, 1], which makes the
cross-feature mean meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .metrics import average_ranks
from .preprocess import FeatureMatrix


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


def wasserstein_1d(u, v) -> float:
    """First Wasserstein distance between two empirical samples.

    Integrates |F_u(t) - F_v(t)| over the union of sample breakpoints, which
    is exact for empirical distributions. Symmetric by construction and zero
    iff the multisets coincide.
    """
    u = np.asarray(u, dtype=np.float64).ravel()
    v = np.asarray(v, dtype=np.float64).ravel()
    if u.size == 0 or v.size == 0:
        raise ValueError("wasserstein_1d requires two nonempty samples")
    if not (np.isfinite(u).all() and np.isfinite(v).all()):
        raise ValueError("wasserstein_1d requires finite sample values")

    u_sorted = np.sort(u)
    v_sorted = np.sort(v)
    breakpoints = np.sort(np.concatenate([u_sorted, v_sorted]))
    deltas = np.diff(breakpoints)
    if deltas.size == 0:
        return 0.0
    u_cdf = np.searchsorted(u_sorted, breakpoints[:-1], side="right") / u.size
    v_cdf = np.searchsorted(v_sorted, breakpoints[:-1], side="right") / v.size
    return float(np.sum(np.abs(u_cdf - v_cdf) * deltas))


def per_feature_wd(
    train: FeatureMatrix,
    test: FeatureMatrix,
    *,
    held_out_class: str | None = None,
    fold_id: int | None = None,
    subsample_cap: int | None = 100_000,
    seed: int = 0,
) -> WdReport:
    """Wasserstein distance per feature between train and test rows.

    Sides larger than `subsample_cap` rows are reduced to a seeded uniform
    subsample (without replacement); the cap is recorded in the report.
    Features that are encoded categories are carried through in
    `encoded_features` since distances over arbitrary integer codes depend
    on the code assignment.
    """
    if train.feature_names != test.feature_names:
        raise ValueError(
            f"feature mismatch between train ({train.feature_names}) and test ({test.feature_names})"
        )
    if train.n_rows == 0 or test.n_rows == 0:
        raise ValueError("per_feature_wd requires nonempty train and test sets")

    x_train, x_test = train.values, test.values
    capped = None
    if subsample_cap is not None and (train.n_rows > subsample_cap or test.n_rows > subsample_cap):
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        if train.n_rows > subsample_cap:
            x_train = x_train[np.sort(rng.choice(train.n_rows, size=subsample_cap, replace=False))]
        if test.n_rows > subsample_cap:
            x_test = x_test[np.sort(rng.choice(test.n_rows, size=subsample_cap, replace=False))]
        capped = subsample_cap

    distances = {
        name: wasserstein_1d(x_train[:, j], x_test[:, j])
        for j, name in enumerate(train.feature_names)
    }
    mean_wd = float(np.mean(list(distances.values()))) if distances else 0.0
    return WdReport(
        held_out_class=held_out_class,
        fold_id=fold_id,
        per_feature=distances,
        mean_wd=mean_wd,
        encoded_features=train.encoded_features,
        rows_train=train.n_rows,
        rows_test=test.n_rows,
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
