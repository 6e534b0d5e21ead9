"""Preprocessing pipeline: identifier drop, label encoding, min-max scaling.

Order of operations matches the usual NetFlow tabular recipe: remove flow
identifiers, turn categorical strings into integer codes, then rescale every
feature into [0, 1].

The string work is done when the table is built: its feature block (see
`flowdata`) has no identifier columns and holds, in each categorical
column, every row's index into the column's sorted distinct values, so the
table itself is the unscaled base matrix. `preprocess_pipeline` fits an
encoding and a scaling on some of its rows, from row indices alone, and the
resulting `FittedTransform` codes and scales the rows a reader asks for,
one column (`column`, into a caller's buffer or a new one) or all of them
(`apply`), in a copy of those rows: nothing writes to the table. The
encoding codes by first appearance among the fit rows, exactly as encoding
the strings of those rows would.
Fitted transforms are immutable and serializable so a run can be replayed
and audited.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DataError
from .flowdata import FlowTable

# `column` gathers this many rows at a time, so its temporaries stay small
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
    term finite.
    """
    if not hi > lo:
        out = np.empty_like(col) if out is None else out
        out.fill(0.0)
        return out
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

    def _scale(self, name: str, col: np.ndarray) -> np.ndarray:
        """The column, scaled into [0, 1] in place."""
        _min_max(col, *self.ranges[name], out=col)
        return np.clip(col, 0.0, 1.0, out=col)

    def column(
        self, base: FlowTable, rows: np.ndarray, j: int, *, scaled: bool, out: np.ndarray | None = None
    ) -> np.ndarray:
        """Feature j of the table's `rows` (an index array), encoded and optionally scaled into [0, 1].

        The column is gathered and coded into `out` (float64, one element
        per row) or a new array, `_GATHER_ROWS` rows at a time, then scaled
        in place; `out` is returned.
        """
        name = base.feature_names[j]
        out = np.empty(len(rows)) if out is None else out
        for start in range(0, len(rows), _GATHER_ROWS):
            stop = start + _GATHER_ROWS
            out[start:stop] = _coded(base, name, base.features[rows[start:stop], j], self.codes)
        return self._scale(name, out) if scaled else out

    def apply(self, base: FlowTable, rows: np.ndarray, *, scaled: bool) -> np.ndarray:
        """The features of the table's `rows` (an index array), encoded and optionally scaled into [0, 1].

        The rows are gathered once, and each column of that copy is coded
        and scaled in place.
        """
        names = base.feature_names
        if set(self.ranges) != set(names):
            raise ValueError(f"scaler/table feature mismatch: {sorted(set(names) ^ set(self.ranges))}")
        values = base.features[rows]
        for j, name in enumerate(names):
            col = values[:, j]
            if name in base.categories:
                col[:] = _coded(base, name, col, self.codes)
            if scaled:
                self._scale(name, col)
        return values


def preprocess_pipeline(
    base: FlowTable,
    fit_scope: str = "full-dataset",
    train_indices: np.ndarray | None = None,
    *,
    unseen: str = "reserve-code",
) -> FittedTransform:
    """Fit the encoding and the scaling of one scope on a table's features.

    fit_scope "full-dataset" fits both over every row (note: this leaks test
    statistics into the transforms, but is the conventional order for these
    datasets and is the default); "train-only" fits both on `train_indices`
    only, so other rows may hit the clamp or the encoder's reserve code.

    The encoder codes each category by its first appearance among the fit
    rows. Categories of other rows either raise (unseen="error") or map to
    the reserve code (unseen="reserve-code"), recorded in the counters in
    sorted order. The scaler records each feature's exact min and max over
    the fit rows; the counters tally, per feature, the rows whose scaled
    value falls outside [0, 1] and is clamped.
    """
    if fit_scope not in ("full-dataset", "train-only"):
        raise ValueError(f"fit_scope must be 'full-dataset' or 'train-only', got {fit_scope!r}")
    if unseen not in ("error", "reserve-code"):
        raise ValueError(f"unseen policy must be 'error' or 'reserve-code', got {unseen!r}")
    rows = None
    if fit_scope == "train-only":
        if train_indices is None or len(train_indices) == 0:
            raise ValueError("train-only fit scope requires a nonempty train_indices")
        rows = np.asarray(train_indices)
    if base.row_count < 1:
        raise ValueError("cannot fit a scaler on an empty table")

    names = base.feature_names
    counters = PrepCounters()
    fit = base.features if rows is None else base.features[rows]
    mappings, codes = {}, {}
    for name, categories in base.categories.items():
        seen, first = np.unique(fit[:, names.index(name)].astype(np.intp), return_index=True)
        order = seen[np.argsort(first, kind="stable")]
        mappings[name] = {str(categories[i]): code for code, i in enumerate(order)}
        reserve = len(order)
        codes[name] = np.full(len(categories), reserve, dtype=np.float64)
        codes[name][order] = np.arange(reserve)
        for i in np.flatnonzero(codes[name] == reserve):
            if unseen == "error":
                raise DataError(f"unseen category {str(categories[i])!r} in feature {name!r}")
            counters.unseen.append((name, str(categories[i]), reserve))

    ranges = {}
    for j, name in enumerate(names):
        fit_col = _coded(base, name, fit[:, j], codes)
        ranges[name] = lo, hi = float(fit_col.min()), float(fit_col.max())
        if rows is None:
            continue  # fitted on every row, so no value falls outside [lo, hi]
        # no `out`: a numeric column here is a view of the table's block
        scaled = _min_max(_coded(base, name, base.features[:, j], codes), lo, hi)
        n_out = int(np.count_nonzero((scaled < 0.0) | (scaled > 1.0)))
        if n_out:
            counters.clamped[name] = n_out
    return FittedTransform(mappings, ranges, codes, counters)


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
