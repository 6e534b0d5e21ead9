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

A distance job is one feature over every zero-day scenario. Min-max
scaling and the [0, 1] clamp are monotone, so one argsort of the feature's
raw column orders every scenario's sample, whatever its transform; a
categorical column, whose codes need not rise with its category indices,
is argsorted by its coded value, once per distinct code map. The job
gathers the column's values and the rows' class codes and test folds in
that order, and codes and scales the values once per distinct transform
(once in all under the full-dataset scope). Scenario (c, f) trains on the
rows of every other class outside fold f and tests on fold f, so one
compress by (code != c) | (fold == f) gives its merged sample, sorted, and
fold == f marks its test side. |F_u - F_v| is then integrated over the
merged values with cumulative counts of each side, in float64 (exact below
2**53). The job returns one distance per scenario, or the scenario's
error, and that list is the only form a distance takes before the run
report: the harness builds the report's `wd` section straight from the
jobs' lists.

This is exact, and bit-identical to sorting each side and merging the
two, or to sorting the concatenation and counting each breakpoint with
`searchsorted`: where the merged value rises, the cumulative count does
not depend on the order within ties; where values tie, the step width is 0
and so is the term, whatever the counts. Every order builds the same array
of terms, but for the sign of a zero term where -0.0 and 0.0 tie, and
`np.sum`, which starts from 0.0, adds them to the same total.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .flowdata import FlowTable
from .metrics import average_ranks
from .preprocess import FittedTransform
from .zslsplit import Scenario


def _merged_wd(merged: np.ndarray, is_test: np.ndarray, n_v: int, ranks: np.ndarray) -> float:
    """The distance between the two sides of a sorted sample, `is_test` marking the n_v values of one side."""
    n_u = merged.size - n_v
    # how many v, then how many u, lie at or before each breakpoint but the last
    v_count = np.cumsum(is_test[:-1], dtype=np.float64)
    u_count = np.subtract(ranks[:merged.size - 1], v_count)
    u_count /= n_u
    v_count /= n_v
    terms = np.abs(np.subtract(u_count, v_count, out=u_count), out=u_count)
    terms *= np.subtract(merged[1:], merged[:-1], out=v_count)
    return float(np.sum(terms))


def per_feature_wd(
    base: FlowTable,
    j: int,
    fold: np.ndarray,
    scenarios: Sequence[Scenario],
    transforms: Sequence[FittedTransform],
) -> list[float | ValueError]:
    """Feature j's Wasserstein distance between the train and test rows of each scenario, in scenario order.

    `fold` holds each row's test fold, and `transforms[i]` is scenario i's
    fitted transform, through which the feature is coded and scaled into
    [0, 1], so every distance lies in [0, 1]. Every distance is exact, over
    all of both sides' rows. A scenario whose train or test side is empty,
    or whose sample holds a value that is not finite, gets a ValueError in
    place of its distance.
    """
    name = base.feature_names[j]
    raw = base.features[:, j]
    # per distinct sort (one, or one per code map of a categorical column), the scenarios of each transform
    sorts: dict[bytes | None, dict[int, list[int]]] = {}
    for i, transform in enumerate(transforms):
        key = transform.codes[name].tobytes() if name in base.categories else None
        sorts.setdefault(key, {}).setdefault(id(transform), []).append(i)

    out: list = [None] * len(scenarios)
    # the column, the rows' class codes (in the fewest bytes) and folds in sorted order, and the values
    # coded and scaled
    codes = np.empty(raw.size, dtype=np.min_scalar_type(len(base.class_names) - 1))
    values, folds = np.empty(raw.size), np.empty_like(fold)
    scaled, ranks = np.empty(raw.size), np.arange(1.0, raw.size)
    for key, groups in sorts.items():
        groups = list(groups.values())
        if key is None:
            order = np.argsort(raw)
        else:  # scaling is monotone in the coded value, so one order serves every transform of a code map
            order = np.argsort(transforms[groups[0][0]].codes[name][raw.astype(np.intp)])
        for column, gathered in ((raw, values), (base.class_codes, codes), (fold, folds)):
            np.take(column, order, out=gathered, mode="clip")  # "raise" would copy `out`
        del order
        for group in groups:
            transforms[group[0]].scale(base, j, values, out=scaled)
            finite = bool(np.isfinite(scaled).all())
            for i in group:
                test = folds == scenarios[i].fold_id
                keep = test | (codes != base.class_names.index(scenarios[i].held_out))
                merged, is_test = scaled[keep], test[keep]
                n_v = int(np.count_nonzero(is_test))
                if n_v in (0, merged.size):
                    out[i] = ValueError("per_feature_wd requires nonempty train and test sets")
                elif not (finite or np.isfinite(merged).all()):
                    out[i] = ValueError(f"per_feature_wd (feature {name!r}) requires finite sample values")
                else:
                    out[i] = _merged_wd(merged, is_test, n_v, ranks)
    return out


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
