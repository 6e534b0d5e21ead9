"""Preprocessing pipeline: identifier drop, label encoding, min-max scaling.

Order of operations matches the usual NetFlow tabular recipe: remove flow
identifiers, turn categorical strings into integer codes, then rescale every
feature into [0, 1]. Fitted transforms are immutable and serializable so a
run can be replayed and audited.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .errors import DataError
from .flowdata import Column, ColumnKind, FeatureSchema, FlowTable


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


@dataclass(frozen=True)
class FittedEncoder:
    """Per-feature mapping of category strings to contiguous integer codes."""

    mappings: dict[str, dict[str, int]]

    def reserve_code(self, feature: str) -> int:
        """Code assigned to values unseen at fit time, under the reserve policy."""
        return len(self.mappings[feature])

    def to_json(self) -> dict:
        return {f: dict(m) for f, m in sorted(self.mappings.items())}

    @classmethod
    def from_json(cls, obj: Mapping[str, Mapping[str, int]]) -> "FittedEncoder":
        return cls({f: {str(k): int(v) for k, v in m.items()} for f, m in obj.items()})


@dataclass(frozen=True)
class FittedScaler:
    """Per-feature (min, max) observed at fit time."""

    ranges: dict[str, tuple[float, float]]

    def to_json(self) -> dict:
        return {f: {"min": lo, "max": hi} for f, (lo, hi) in sorted(self.ranges.items())}

    @classmethod
    def from_json(cls, obj: Mapping[str, Mapping[str, float]]) -> "FittedScaler":
        return cls({f: (float(r["min"]), float(r["max"])) for f, r in obj.items()})


@dataclass(eq=False)
class FeatureMatrix:
    """Dense feature matrix plus aligned label and attack-class vectors.

    `encoded_features` names the columns that started life as categorical
    strings; distance analyses flag them because integer codes carry no
    ordering.
    """

    values: np.ndarray
    feature_names: tuple[str, ...]
    labels: np.ndarray
    attack_classes: np.ndarray
    encoded_features: tuple[str, ...] = ()

    @property
    def n_rows(self) -> int:
        return self.values.shape[0]

    @property
    def n_features(self) -> int:
        return self.values.shape[1]

    def column(self, name: str) -> np.ndarray:
        return self.values[:, self.feature_names.index(name)]

    def take(self, indices: np.ndarray) -> "FeatureMatrix":
        idx = np.asarray(indices, dtype=np.int64)
        return FeatureMatrix(
            self.values[idx],
            self.feature_names,
            self.labels[idx],
            self.attack_classes[idx],
            self.encoded_features,
        )


def drop_identifiers(table: FlowTable) -> FlowTable:
    """Remove identifier-kind columns (ids, IPs, ports, timestamps)."""
    idents = set(table.schema.identifier_names)
    if not idents:
        return table
    new_schema = FeatureSchema(tuple(c for c in table.schema.columns if c.name not in idents))
    data = {k: v for k, v in table.data.items() if k not in idents}
    return FlowTable(new_schema, table.benign_name, data, dropped_rows=table.dropped_rows)


def fit_encoder(table: FlowTable) -> FittedEncoder:
    """Assign each categorical value an integer code, by first appearance."""
    mappings: dict[str, dict[str, int]] = {}
    for name in table.schema.categorical_names:
        col = table.data[name]
        uniq, first_idx = np.unique(col.astype(str), return_index=True)
        order = np.argsort(first_idx, kind="stable")
        mappings[name] = {str(uniq[i]): code for code, i in enumerate(order)}
    return FittedEncoder(mappings)


def apply_encoder(
    table: FlowTable,
    enc: FittedEncoder,
    *,
    unseen: str = "error",
    counters: PrepCounters | None = None,
) -> FlowTable:
    """Replace categorical cells by their integer codes (as float64 columns).

    Unseen values either raise (unseen="error") or map to the feature's
    reserve code (unseen="reserve-code"), which is recorded in `counters`.
    """
    if unseen not in ("error", "reserve-code"):
        raise ValueError(f"unseen policy must be 'error' or 'reserve-code', got {unseen!r}")
    cat_names = table.schema.categorical_names
    if not cat_names:
        return table

    new_columns = tuple(
        Column(c.name, ColumnKind.NUMERIC) if c.name in cat_names else c for c in table.schema.columns
    )
    data = dict(table.data)
    for name in cat_names:
        mapping = enc.mappings.get(name)
        if mapping is None:
            raise DataError(f"encoder was not fitted for categorical feature {name!r}")
        col = table.data[name].astype(str)
        uniq, inverse = np.unique(col, return_inverse=True)
        codes = np.empty(len(uniq), dtype=np.float64)
        for i, value in enumerate(uniq):
            value = str(value)
            if value in mapping:
                codes[i] = mapping[value]
            elif unseen == "error":
                raise DataError(f"unseen category {value!r} in feature {name!r}")
            else:
                code = enc.reserve_code(name)
                codes[i] = code
                if counters is not None:
                    counters.unseen.append((name, value, code))
        data[name] = codes[inverse] if len(col) else np.empty(0, dtype=np.float64)
    return FlowTable(FeatureSchema(new_columns), table.benign_name, data, dropped_rows=table.dropped_rows)


def to_matrix(table: FlowTable, *, encoded_features: tuple[str, ...] = ()) -> FeatureMatrix:
    """Assemble the numeric feature columns into a dense matrix.

    Identifier columns are excluded; categorical columns must already be
    encoded (apply_encoder), otherwise this raises.
    """
    remaining = table.schema.categorical_names
    if remaining:
        raise DataError(f"categorical feature {remaining[0]!r} must be encoded before matrix assembly")
    names = table.schema.numeric_names
    if names:
        values = np.column_stack([table.data[n] for n in names]).astype(np.float64)
    else:
        values = np.empty((table.row_count, 0), dtype=np.float64)
    return FeatureMatrix(values, names, table.labels.copy(), table.attack_classes.copy(), encoded_features)


def fit_scaler(matrix: FeatureMatrix) -> FittedScaler:
    """Record each feature's exact min and max."""
    if matrix.n_rows < 1:
        raise ValueError("cannot fit a scaler on an empty matrix")
    ranges = {}
    for j, name in enumerate(matrix.feature_names):
        col = matrix.values[:, j]
        ranges[name] = (float(col.min()), float(col.max()))
    return FittedScaler(ranges)


def apply_scaler(
    matrix: FeatureMatrix,
    scaler: FittedScaler,
    *,
    counters: PrepCounters | None = None,
) -> FeatureMatrix:
    """Min-max scale every feature into [0, 1].

    Constant features (min == max) map to 0. Values outside the fitted range
    are clamped into [0, 1] and counted per feature in `counters`.
    """
    if set(scaler.ranges) != set(matrix.feature_names):
        missing = set(matrix.feature_names) ^ set(scaler.ranges)
        raise ValueError(f"scaler/matrix feature mismatch: {sorted(missing)}")
    out = np.empty_like(matrix.values)
    for j, name in enumerate(matrix.feature_names):
        lo, hi = scaler.ranges[name]
        col = matrix.values[:, j]
        if hi > lo:
            scaled = (col - lo) / (hi - lo)
        else:
            scaled = np.zeros_like(col)
        n_out = int(np.count_nonzero((scaled < 0.0) | (scaled > 1.0)))
        if n_out:
            scaled = np.clip(scaled, 0.0, 1.0)
            if counters is not None:
                counters.clamped[name] = counters.clamped.get(name, 0) + n_out
        out[:, j] = scaled
    return FeatureMatrix(out, matrix.feature_names, matrix.labels, matrix.attack_classes, matrix.encoded_features)


@dataclass(eq=False)
class PipelineResult:
    """Everything the preprocessing pipeline produced, transforms included."""

    matrix: FeatureMatrix
    encoder: FittedEncoder
    scaler: FittedScaler
    counters: PrepCounters
    unscaled: FeatureMatrix | None = None


def preprocess_pipeline(
    table: FlowTable,
    fit_scope: str = "full-dataset",
    train_indices: np.ndarray | None = None,
    *,
    unseen: str = "reserve-code",
    keep_unscaled: bool = False,
) -> PipelineResult:
    """Run drop-identifiers -> encode -> scale and return matrix + transforms.

    fit_scope "full-dataset" fits encoder and scaler over every row (note:
    this leaks test statistics into the transforms, but is the conventional
    order for these datasets and is the default); "train-only" fits both on
    `train_indices` only, so test rows may hit the clamp or the encoder's
    reserve code. The returned transforms can be reapplied to any row subset.
    """
    if fit_scope not in ("full-dataset", "train-only"):
        raise ValueError(f"fit_scope must be 'full-dataset' or 'train-only', got {fit_scope!r}")
    if fit_scope == "train-only":
        if train_indices is None or len(train_indices) == 0:
            raise ValueError("train-only fit scope requires a nonempty train_indices")

    counters = PrepCounters()
    stripped = drop_identifiers(table)
    fit_view = stripped if fit_scope == "full-dataset" else stripped.take(np.asarray(train_indices))

    encoder = fit_encoder(fit_view)
    encoded_names = stripped.schema.categorical_names
    encoded = apply_encoder(stripped, encoder, unseen=unseen, counters=counters)

    matrix = to_matrix(encoded, encoded_features=encoded_names)
    fit_matrix = matrix if fit_scope == "full-dataset" else matrix.take(np.asarray(train_indices))
    scaler = fit_scaler(fit_matrix)
    scaled = apply_scaler(matrix, scaler, counters=counters)
    return PipelineResult(scaled, encoder, scaler, counters, unscaled=matrix if keep_unscaled else None)


def transforms_to_json(result: PipelineResult, fit_scope: str) -> dict:
    """Serializable record of the fitted transforms, for audit and replay."""
    return {
        "fit_scope": fit_scope,
        "feature_names": list(result.matrix.feature_names),
        "encoded_features": list(result.matrix.encoded_features),
        "encoder": result.encoder.to_json(),
        "scaler": result.scaler.to_json(),
        "counters": result.counters.to_json(),
    }
