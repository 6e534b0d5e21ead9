"""Preprocessing pipeline: identifier drop, label encoding, min-max scaling.

Order of operations matches the usual NetFlow tabular recipe: remove flow
identifiers, turn categorical strings into integer codes, then rescale every
feature into [0, 1].

The string work is done when the table is built: its feature block (see
`flowdata`) has no identifier columns and holds, in each categorical
column, every row's index into the column's sorted distinct values, so the
table itself is the unscaled base matrix. `preprocess_pipeline` fits
encodings and scalings from the block alone, one per fit, each on a union
of row groups, all in one pass that reads one column at a time and gathers
no fit's rows; the block is feature-major, so each column it reads is
contiguous. A run's groups are its (class, fold) groups: the full-dataset
scope is one fit over every group, the train-only scope one fit per
scenario over its train groups. Each resulting `FittedTransform` codes and
scales, by one routine (`scale`), values a reader has copied from the
table's block: model jobs read one column of the rows they ask for
(`column`, into a caller's buffer) or all of them (`apply`, column by
column into a new matrix whose columns are contiguous), and a distance job
a whole column in sorted order. Nothing writes to the table, and no reader
sees a coded but unscaled column. The encoding
codes by first appearance among the fit rows in row order, exactly as
encoding the strings of those rows would.
Fitted transforms are immutable and serializable so a run can be replayed
and audited.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DataError
from .flowdata import FlowTable

# `column` codes this many rows of a categorical column at a time, so its temporaries stay small
_GATHER_ROWS = 2048


@dataclass
class PrepCounters:
    """Tally of lossy events during transform application, for the run report."""

    clamped: dict[str, int] = field(default_factory=dict)
    unseen: list[tuple[str, str, int]] = field(default_factory=list)  # (feature, value, code)

    @property
    def clamped_total(self) -> int:
        return sum(self.clamped.values())

    def to_json(self) -> dict:
        return {
            "clamped_values": {k: v for k, v in sorted(self.clamped.items())},
            "clamped_total": self.clamped_total,
            "unseen_categories": [
                {"feature": f, "value": v, "code": c} for f, v, c in self.unseen
            ],
        }


def _coded(base: FlowTable, name: str, col: np.ndarray, codes: dict[str, np.ndarray]) -> np.ndarray:
    """A column of the table's block with its category indices replaced by codes (a new array), else the column."""
    if name not in base.categories:
        return col
    if name not in codes:
        raise DataError(f"encoder was not fitted for categorical feature {name!r}")
    return codes[name][col.astype(np.intp)]


def _min_max(col: np.ndarray, lo: float, hi: float, out: np.ndarray | None = None) -> np.ndarray:
    """Min-max scaled column, before clamping, into `out` (which may be `col`) or a new array.

    A constant feature maps to 0. A range wider than the largest float
    (hi - lo overflows) is scaled with both sides halved, which keeps every
    term finite. A value far outside a narrow range may still overflow to
    inf, silently: the clamp maps it to 1 (or -inf to 0).
    """
    if not hi > lo:
        out = np.empty_like(col) if out is None else out
        out.fill(0.0)
        return out
    with np.errstate(over="ignore"):
        if not np.isfinite(hi - lo):
            out = np.divide(col, 2, out=out)
            out -= lo / 2
            out /= hi / 2 - lo / 2
            return out
        out = np.subtract(col, lo, out=out)
        out /= hi - lo
    return out


@dataclass(eq=False)
class FittedTransform:
    """A label encoding and a min-max scaling fitted on some rows of a table.

    `mappings` maps, per categorical feature, each category seen at fit time
    to its code, and `codes` holds the code of every category index: the
    reserve code, len(mapping), for a category unseen at fit time. `ranges`
    holds each feature's (min, max) over the fit rows. `counters` tallies
    what applying the transform to every row of the table clamps or meets
    unseen.
    """

    mappings: dict[str, dict[str, int]]
    ranges: dict[str, tuple[float, float]]
    codes: dict[str, np.ndarray]
    counters: PrepCounters

    def column(self, base: FlowTable, rows: np.ndarray, j: int, *, out: np.ndarray) -> np.ndarray:
        """Feature j of the table's `rows` (an index array), encoded and scaled into [0, 1] in `out`.

        The caller has checked the rows against the table (`check_rows`):
        the take clips, so a row outside it would read another row. The
        column, which is contiguous in the block, is gathered into `out`
        (float64, one element per row) by one take, then coded and scaled
        there by `scale`. `out` is returned.
        """
        np.take(base.features[:, j], rows, out=out, mode="clip")  # "raise" would copy `out`
        return self.scale(base, j, out, out=out)

    def scale(self, base: FlowTable, j: int, values: np.ndarray, *, out: np.ndarray) -> np.ndarray:
        """Values of feature j as the table's block holds them, encoded and scaled into [0, 1] in `out`.

        `out` (float64, one element per value) may be `values` itself. A
        categorical column's category indices are coded `_GATHER_ROWS` at a
        time, and the column is then scaled and clamped in place. `out` is
        returned.
        """
        name = base.feature_names[j]
        if name in base.categories:
            for start in range(0, len(values), _GATHER_ROWS):
                out[start:start + _GATHER_ROWS] = _coded(base, name, values[start:start + _GATHER_ROWS], self.codes)
            values = out
        _min_max(values, *self.ranges[name], out=out)
        return np.clip(out, 0.0, 1.0, out=out)

    def apply(self, base: FlowTable, rows: np.ndarray) -> np.ndarray:
        """The features of the table's `rows` (an index array), encoded and scaled into [0, 1].

        The rows are checked against the table once, then each feature is
        read by `column` into its row of a new d x n block, and the block's
        n x d transpose is returned, so each column is contiguous.
        """
        names = base.feature_names
        if set(self.ranges) != set(names):
            raise ValueError(f"scaler/table feature mismatch: {sorted(set(names) ^ set(self.ranges))}")
        check_rows(base, rows)
        block = np.empty((len(names), len(rows)))
        for j in range(len(names)):
            self.column(base, rows, j, out=block[j])
        return block.T


def check_rows(base: FlowTable, rows: np.ndarray) -> None:
    """Raise an IndexError unless each of `rows` (an index array) is a row of the table."""
    if len(rows) and not (rows.min() >= 0 and rows.max() < base.row_count):
        raise IndexError(f"rows must lie in [0, {base.row_count}) of the table")


def _group_min_max(col: np.ndarray, groups: np.ndarray | None, n_groups: int) -> tuple[np.ndarray, np.ndarray]:
    """Per row group, the column's min and max (+inf and -inf for an empty group); no `groups`, the column's."""
    if groups is None:
        return np.array([col.min()]), np.array([col.max()])
    lo, hi = np.full(n_groups, np.inf), np.full(n_groups, -np.inf)
    np.minimum.at(lo, groups, col)
    np.maximum.at(hi, groups, col)
    return lo, hi


def _group_first_rows(idx: np.ndarray, groups: np.ndarray | None, n_groups: int, n_categories: int) -> np.ndarray:
    """Per row group and category index, the first row at which the category appears (the row count if none).

    With no `groups`, the column is one group.
    """
    first = np.full(n_groups * n_categories, len(idx), dtype=np.intp)
    np.minimum.at(first, idx if groups is None else groups * n_categories + idx, np.arange(len(idx)))
    return first.reshape(n_groups, n_categories)


def _clamped(scaled: np.ndarray) -> np.ndarray:
    """Where a scaled column falls outside [0, 1], which the clamp changes."""
    return (scaled < 0.0) | (scaled > 1.0)


def preprocess_pipeline(base: FlowTable, groups: np.ndarray, fits: np.ndarray) -> list[FittedTransform]:
    """Fit encodings and scalings on a table's features, one per row of `fits`, in one pass over its columns.

    `groups` gives each row's group, and `fits` is a boolean matrix over the
    groups: transform i is fitted on the rows whose group, `groups[row]`,
    has `fits[i, group]` set, so other rows may hit the clamp or the
    encoder's reserve code. The full-dataset scope is one fit over every
    group (note: this leaks test statistics into the transform, but is the
    conventional order for these datasets and is the default); the
    train-only scope is one fit per scenario over its train groups.

    Each column is read once and reduced per group: to its min and max, or,
    for a categorical column, to the first row at which each category
    appears. A fit's range and encoding are reduced from its groups'
    entries. When every fit covers every group, as the full-dataset fit
    does, each column is reduced whole instead. The encoder codes each
    category by its first row among the fit rows; a category of no fit row
    maps to the reserve code and is recorded in the counters, in sorted
    order. The scaler records each feature's exact min and max over the fit
    rows, a zero end as 0.0 whether the rows hold -0.0 or 0.0 there, so no
    layout or reduction order can change a range. The counters tally, per
    feature, the rows whose scaled value falls outside [0, 1] and is
    clamped. Only a value outside [lo, hi] can be, since rounding is
    monotone, so only those are scaled to count. A fit whose groups hold no
    row raises a ValueError whose `fit` is its index.
    """
    groups, fits = np.asarray(groups, dtype=np.intp), np.asarray(fits, dtype=bool)
    if base.row_count < 1:
        raise ValueError("cannot fit a scaler on an empty table")

    n = base.row_count
    n_fits, n_groups = fits.shape
    sizes = fits @ np.bincount(groups, minlength=n_groups)
    if fits.all():  # every fit covers every group, so each column is reduced whole, as one group
        groups, fits, n_groups = None, fits[:, :1], 1
    names = base.feature_names
    first_rows = {
        name: _group_first_rows(base.features[:, names.index(name)].astype(np.intp), groups, n_groups, len(categories))
        for name, categories in base.categories.items()
    }
    fitted = []
    for i in range(n_fits):
        if not sizes[i]:
            error = ValueError("train-only fit has no train rows")
            error.fit = i
            raise error
        counters, mappings, codes = PrepCounters(), {}, {}
        for name, categories in base.categories.items():
            first = first_rows[name][fits[i]].min(axis=0)
            reserve = int(np.count_nonzero(first < n))
            order = np.argsort(first, kind="stable")[:reserve]
            mappings[name] = {str(categories[c]): code for code, c in enumerate(order)}
            codes[name] = np.full(len(categories), reserve, dtype=np.float64)
            codes[name][order] = np.arange(reserve)
            counters.unseen += [(name, str(categories[c]), reserve) for c in np.flatnonzero(first == n)]
        fitted.append(FittedTransform(mappings, {}, codes, counters))

    for j, name in enumerate(names):
        col = base.features[:, j]
        if name in base.categories:
            reserves = [len(fit.mappings[name]) for fit in fitted]
            lo, hi = np.zeros(n_fits), np.array(reserves, dtype=np.float64) - 1
            histogram = None
            for i, fit in enumerate(fitted):
                if reserves[i] < len(base.categories[name]):  # an unseen category's reserve code may clamp
                    if histogram is None:
                        histogram = np.bincount(col.astype(np.intp), minlength=len(base.categories[name]))
                    n_out = int(histogram[_clamped(_min_max(fit.codes[name], float(lo[i]), float(hi[i])))].sum())
                    if n_out:
                        fit.counters.clamped[name] = n_out
        else:
            group_lo, group_hi = _group_min_max(col, groups, n_groups)
            # a zero end is recorded as 0.0, whichever of -0.0 and 0.0 the reductions picked
            lo = np.where(fits, group_lo, np.inf).min(axis=1) + 0.0
            hi = np.where(fits, group_hi, -np.inf).max(axis=1) + 0.0
            narrow = np.flatnonzero((lo > group_lo.min()) | (hi < group_hi.max()))
            if narrow.size:
                values = np.sort(col)
                below, above = np.searchsorted(values, lo, "left"), np.searchsorted(values, hi, "right")
                for i in narrow:
                    outside = np.concatenate((values[: below[i]], values[above[i] :]))
                    n_out = int(np.count_nonzero(_clamped(_min_max(outside, float(lo[i]), float(hi[i])))))
                    if n_out:
                        fitted[i].counters.clamped[name] = n_out
        for i, fit in enumerate(fitted):
            fit.ranges[name] = float(lo[i]), float(hi[i])
    return fitted


def transforms_to_json(result: FittedTransform, fit_scope: str) -> dict:
    """Serializable record of the fitted transforms, for audit and replay."""
    return {
        "fit_scope": fit_scope,
        "feature_names": list(result.ranges),
        "encoded_features": list(result.mappings),
        "encoder": {f: dict(m) for f, m in sorted(result.mappings.items())},
        "scaler": {f: {"min": lo, "max": hi} for f, (lo, hi) in sorted(result.ranges.items())},
        "counters": result.counters.to_json(),
    }
