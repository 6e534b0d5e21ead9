"""Flow-record tables: column schemas, CSV loading, class catalogs, summaries.

A table is stored column-wise: numeric columns as float64 arrays, the binary
label as an int64 array, and string-valued columns (categorical, identifier,
attack class) as object arrays of interned strings. Tables are immutable by
convention: no function in this package mutates a table after construction.
"""

from __future__ import annotations

import csv
import re
import sys
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Iterable, Mapping

import numpy as np

from .errors import DataError, SchemaError

_PARSE_CHUNK = 65536


class ColumnKind(str, Enum):
    NUMERIC = "numeric"
    CATEGORICAL = "categorical"
    IDENTIFIER = "identifier"
    BINARY_LABEL = "binary_label"
    ATTACK_CLASS = "attack_class"


_STRING_KINDS = (ColumnKind.CATEGORICAL, ColumnKind.IDENTIFIER, ColumnKind.ATTACK_CLASS)


@dataclass(frozen=True)
class Column:
    name: str
    kind: ColumnKind


@dataclass(frozen=True)
class FeatureSchema:
    """Ordered declaration of every column in a flow-record file."""

    columns: tuple[Column, ...]

    def __post_init__(self) -> None:
        names = [c.name for c in self.columns]
        if len(set(names)) != len(names):
            dup = next(n for n in names if names.count(n) > 1)
            raise SchemaError(f"duplicate column name {dup!r} in schema")
        labels = [c for c in self.columns if c.kind is ColumnKind.BINARY_LABEL]
        classes = [c for c in self.columns if c.kind is ColumnKind.ATTACK_CLASS]
        if len(labels) != 1:
            raise SchemaError(f"schema must declare exactly one binary_label column, found {len(labels)}")
        if len(classes) != 1:
            raise SchemaError(f"schema must declare exactly one attack_class column, found {len(classes)}")
        if not any(c.kind in (ColumnKind.NUMERIC, ColumnKind.CATEGORICAL) for c in self.columns):
            raise SchemaError("schema must declare at least one numeric or categorical column")

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.columns)

    @property
    def label_column(self) -> str:
        return next(c.name for c in self.columns if c.kind is ColumnKind.BINARY_LABEL)

    @property
    def attack_class_column(self) -> str:
        return next(c.name for c in self.columns if c.kind is ColumnKind.ATTACK_CLASS)

    @property
    def identifier_names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.columns if c.kind is ColumnKind.IDENTIFIER)

    @property
    def numeric_names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.columns if c.kind is ColumnKind.NUMERIC)

    @property
    def categorical_names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.columns if c.kind is ColumnKind.CATEGORICAL)

    @property
    def feature_names(self) -> tuple[str, ...]:
        """Numeric and categorical column names, in schema order."""
        return tuple(
            c.name for c in self.columns if c.kind in (ColumnKind.NUMERIC, ColumnKind.CATEGORICAL)
        )

    def kind_of(self, name: str) -> ColumnKind:
        for c in self.columns:
            if c.name == name:
                return c.kind
        raise SchemaError(f"no column named {name!r} in schema")

    def to_json(self) -> list[dict[str, str]]:
        return [{"name": c.name, "kind": c.kind.value} for c in self.columns]

    @classmethod
    def from_json(cls, obj: Iterable[Mapping[str, str]]) -> "FeatureSchema":
        cols = []
        for entry in obj:
            try:
                cols.append(Column(str(entry["name"]), ColumnKind(entry["kind"])))
            except (KeyError, ValueError) as exc:
                raise SchemaError(f"bad schema entry {entry!r}: {exc}") from exc
        return cls(tuple(cols))


@dataclass(eq=False)
class FlowTable:
    """A loaded flow-record dataset.

    `data` maps each schema column name to a full-length column: float64 for
    numeric, int64 (0/1) for the binary label, object arrays of strings
    otherwise. `dropped_rows` counts rows discarded by the loader under the
    drop policy; it is metadata and excluded from equality.
    """

    schema: FeatureSchema
    benign_name: str
    data: dict[str, np.ndarray]
    dropped_rows: int = 0

    @property
    def row_count(self) -> int:
        return len(self.data[self.schema.attack_class_column])

    def column(self, name: str) -> np.ndarray:
        return self.data[name]

    @property
    def labels(self) -> np.ndarray:
        return self.data[self.schema.label_column]

    @property
    def attack_classes(self) -> np.ndarray:
        return self.data[self.schema.attack_class_column]

    def take(self, indices: np.ndarray) -> "FlowTable":
        """A new table containing the given rows, in the given order."""
        idx = np.asarray(indices, dtype=np.int64)
        return FlowTable(self.schema, self.benign_name, {k: v[idx] for k, v in self.data.items()})

    def validate(self) -> None:
        """Check structural invariants; raises DataError on violation."""
        n = self.row_count
        for name in self.schema.names:
            if name not in self.data:
                raise DataError(f"table is missing column {name!r}")
            if len(self.data[name]) != n:
                raise DataError(f"column {name!r} has {len(self.data[name])} cells, expected {n}")
        for name in self.schema.numeric_names:
            col = self.data[name]
            if col.size and not np.isfinite(col).all():
                bad = int(np.flatnonzero(~np.isfinite(col))[0])
                raise DataError(f"non-finite value in column {name!r} at row {bad}")
        labels = self.labels
        derived = (self.attack_classes != self.benign_name).astype(np.int64)
        if not np.array_equal(labels, derived):
            bad = int(np.flatnonzero(labels != derived)[0])
            raise DataError(
                f"binary label disagrees with attack class at row {bad}: "
                f"label={labels[bad]}, class={self.attack_classes[bad]!r}"
            )


@dataclass(frozen=True, eq=False)
class ClassCatalog:
    """Class inventory of a table: benign name, attack names, per-class counts.

    `class_codes` assigns every row an integer code (0 for benign, i+1 for
    the i-th attack name) so downstream splitting can stratify without
    re-touching the table.
    """

    benign_name: str
    attack_names: tuple[str, ...]
    counts: dict[str, int]
    class_codes: np.ndarray

    @property
    def row_count(self) -> int:
        return len(self.class_codes)

    @property
    def class_order(self) -> tuple[str, ...]:
        """Benign first, then attack names in first-appearance order."""
        return (self.benign_name,) + self.attack_names

    def code_of(self, class_name: str) -> int:
        return self.class_order.index(class_name)


def _parse_numeric_column(raw: list[str], name: str) -> tuple[np.ndarray, dict[int, str]]:
    """Parse raw strings into float64; returns (values, bad row index -> reason).

    Bad cells get NaN placeholders so the caller can drop or abort; NaN/inf
    literals in the file are reported as bad too (tables must be finite).
    """
    bad: dict[int, str] = {}
    out = np.empty(len(raw), dtype=np.float64)
    for start in range(0, len(raw), _PARSE_CHUNK):
        chunk = raw[start : start + _PARSE_CHUNK]
        try:
            out[start : start + len(chunk)] = np.asarray(chunk, dtype=np.float64)
        except ValueError:
            for i, cell in enumerate(chunk):
                try:
                    out[start + i] = np.float64(cell)  # same dialect as the vectorized path
                except ValueError:
                    out[start + i] = np.nan
                    bad[start + i] = f"unparseable numeric cell {cell!r} in column {name!r}"
    nonfinite = np.flatnonzero(~np.isfinite(out))
    for i in nonfinite:
        bad.setdefault(int(i), f"non-finite value in column {name!r}")
    return out, bad


def load_csv(
    path: str | Path,
    schema: FeatureSchema,
    benign_name: str,
    *,
    on_bad_row: str = "abort",
) -> FlowTable:
    """Load an RFC-4180 CSV into a FlowTable.

    The header must contain exactly the schema's column names (any order).
    Numeric cells use a dot decimal separator; the binary label must be the
    literal 0 or 1 and must agree with the attack-class cell versus
    `benign_name`. Rows violating any of this are handled per `on_bad_row`:
    "abort" (default) raises DataError naming the first bad file line,
    "drop" removes the rows and counts them in `dropped_rows`.
    """
    if on_bad_row not in ("abort", "drop"):
        raise ValueError(f"on_bad_row must be 'abort' or 'drop', got {on_bad_row!r}")
    path = Path(path)
    if not path.exists():
        raise DataError(f"dataset file does not exist: {path}")

    raw_columns: dict[str, list[str]] = {}
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"empty CSV file (no header row): {path}") from None
        header = [h.strip() for h in header]
        if len(set(header)) != len(header):
            dup = next(h for h in header if header.count(h) > 1)
            raise SchemaError(f"CSV header repeats column {dup!r} ({path})")
        missing = set(schema.names) - set(header)
        extra = set(header) - set(schema.names)
        if missing:
            raise SchemaError(f"CSV is missing schema column {sorted(missing)[0]!r} ({path})")
        if extra:
            raise SchemaError(f"CSV has column {sorted(extra)[0]!r} not present in schema ({path})")

        raw_columns = {name: [] for name in header}
        builders = [raw_columns[name] for name in header]
        width = len(header)
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue  # blank trailing line
            if len(row) != width:
                raise DataError(f"row at line {line_no} has {len(row)} cells, expected {width} ({path})")
            for builder, cell in zip(builders, row):
                builder.append(cell)

    n_rows = len(raw_columns[schema.names[0]])
    bad_rows: dict[int, str] = {}
    data: dict[str, np.ndarray] = {}

    for name in schema.numeric_names:
        values, bad = _parse_numeric_column(raw_columns[name], name)
        data[name] = values
        for i, reason in bad.items():
            bad_rows.setdefault(i, reason)

    label_name = schema.label_column
    labels = np.zeros(n_rows, dtype=np.int64)
    for i, cell in enumerate(raw_columns[label_name]):
        stripped = cell.strip()
        if stripped == "0":
            labels[i] = 0
        elif stripped == "1":
            labels[i] = 1
        else:
            bad_rows.setdefault(i, f"binary label must be 0 or 1, got {cell!r}")
    data[label_name] = labels

    for name in schema.names:
        if schema.kind_of(name) in _STRING_KINDS:
            data[name] = np.array([sys.intern(c) for c in raw_columns[name]], dtype=object)

    class_col = data[schema.attack_class_column]
    expect = (class_col != benign_name).astype(np.int64)
    for i in np.flatnonzero(expect != labels):
        bad_rows.setdefault(
            int(i),
            f"binary label {labels[i]} disagrees with attack class {class_col[i]!r} "
            f"(benign name is {benign_name!r})",
        )

    dropped = 0
    if bad_rows:
        if on_bad_row == "abort":
            first = min(bad_rows)
            raise DataError(f"line {first + 2}: {bad_rows[first]} ({path})")
        keep = np.ones(n_rows, dtype=bool)
        keep[list(bad_rows)] = False
        data = {k: v[keep] for k, v in data.items()}
        dropped = len(bad_rows)

    table = FlowTable(schema, benign_name, data, dropped_rows=dropped)
    table.validate()
    return table


def write_csv(table: FlowTable, path: str | Path) -> None:
    """Write a table back to CSV; reloading with the same schema round-trips.

    Floats are written with repr, the shortest digit string that parses back
    to the identical float64.
    """
    schema = table.schema
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(schema.names)
        columns = []
        for name in schema.names:
            kind = schema.kind_of(name)
            col = table.data[name]
            if kind is ColumnKind.NUMERIC:
                columns.append([repr(float(v)) for v in col])
            elif kind is ColumnKind.BINARY_LABEL:
                columns.append([str(int(v)) for v in col])
            else:
                columns.append(list(col))
        for row in zip(*columns) if columns else []:
            writer.writerow(row)


def build_catalog(table: FlowTable) -> ClassCatalog:
    """Inventory the table's classes; attack names in first-appearance order."""
    col = table.attack_classes
    uniq, first_idx, inverse, counts = np.unique(
        col.astype(str), return_index=True, return_inverse=True, return_counts=True
    )
    order = np.argsort(first_idx, kind="stable")
    names_in_order = [str(uniq[i]) for i in order]
    attack_names = tuple(n for n in names_in_order if n != table.benign_name)
    if not attack_names:
        raise DataError("table contains no attack classes; no zero-day scenario is definable")

    class_order = [table.benign_name] + list(attack_names)
    remap = np.array([class_order.index(str(u)) for u in uniq], dtype=np.int64)
    codes = remap[inverse]

    count_map = {str(u): int(c) for u, c in zip(uniq, counts)}
    count_map.setdefault(table.benign_name, 0)
    return ClassCatalog(table.benign_name, attack_names, count_map, codes)


@dataclass(frozen=True)
class NumericStats:
    """Per-feature stats; None for a column with no rows."""

    min: float | None
    max: float | None
    mean: float | None


@dataclass(frozen=True)
class TableSummary:
    row_count: int
    class_counts: dict[str, int]
    numeric: dict[str, NumericStats]
    cardinality: dict[str, int]
    n_feature_columns: int

    def to_json(self) -> dict:
        return {
            "row_count": self.row_count,
            "class_counts": dict(self.class_counts),
            "numeric": {k: {"min": v.min, "max": v.max, "mean": v.mean} for k, v in self.numeric.items()},
            "cardinality": dict(self.cardinality),
            "n_feature_columns": self.n_feature_columns,
        }


def summarize(table: FlowTable) -> TableSummary:
    """Deterministic dataset summary: class counts, numeric stats, cardinalities.

    Means are computed in float64 with numpy's pairwise summation.
    """
    classes, counts = np.unique(table.attack_classes.astype(str), return_counts=True)
    class_counts = {str(c): int(n) for c, n in zip(classes, counts)}

    numeric = {}
    for name in table.schema.numeric_names:
        col = table.data[name]
        if col.size:
            numeric[name] = NumericStats(float(col.min()), float(col.max()), float(col.mean()))
        else:
            numeric[name] = NumericStats(None, None, None)

    cardinality = {}
    for name in table.schema.names:
        if table.schema.kind_of(name) in (ColumnKind.CATEGORICAL, ColumnKind.IDENTIFIER):
            cardinality[name] = int(np.unique(table.data[name].astype(str)).size) if table.row_count else 0

    return TableSummary(
        row_count=table.row_count,
        class_counts=class_counts,
        numeric=numeric,
        cardinality=cardinality,
        n_feature_columns=len(table.schema.feature_names),
    )


_IDENTIFIER_NAME_RE = re.compile(r"(^|_)(id|ip|ipv4|ipv6|port|addr|time|timestamp|stime|ltime)($|_)", re.IGNORECASE)


def infer_schema(
    path: str | Path,
    label_column: str,
    attack_class_column: str,
    *,
    sample_rows: int = 10000,
) -> FeatureSchema:
    """Guess a schema from a CSV header and a row sample, for human review.

    Columns whose sampled cells all parse as floats become numeric, columns
    with identifier-looking names (id/ip/port/time...) become identifiers,
    everything else categorical. Never applied automatically: review the
    result, correct it, and declare it in the experiment config.
    """
    path = Path(path)
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = [h.strip() for h in next(reader)]
        except StopIteration:
            raise DataError(f"empty CSV file (no header row): {path}") from None
        sample: list[list[str]] = []
        for row in reader:
            if row:
                sample.append(row)
            if len(sample) >= sample_rows:
                break

    if label_column not in header:
        raise SchemaError(f"label column {label_column!r} not in header")
    if attack_class_column not in header:
        raise SchemaError(f"attack class column {attack_class_column!r} not in header")

    columns = []
    for pos, name in enumerate(header):
        if name == label_column:
            columns.append(Column(name, ColumnKind.BINARY_LABEL))
            continue
        if name == attack_class_column:
            columns.append(Column(name, ColumnKind.ATTACK_CLASS))
            continue
        if _IDENTIFIER_NAME_RE.search(name):
            columns.append(Column(name, ColumnKind.IDENTIFIER))
            continue
        cells = [row[pos] for row in sample if pos < len(row)]
        kind = ColumnKind.NUMERIC
        for cell in cells:
            try:
                float(cell)
            except ValueError:
                kind = ColumnKind.CATEGORICAL
                break
        columns.append(Column(name, kind))
    return FeatureSchema(tuple(columns))
