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
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import DataError, SchemaError

# rows per parse step of load_csv: on a 40k x 45 file, 2048 peaked lowest of 1024,
# 2048, 4096 and 8192, and loaded as fast as 1024
_CHUNK_ROWS = 2048
_BINARY_LABELS = {"0": 0, "1": 1}


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


def _parse_numeric_column(raw: Sequence[str], name: str) -> tuple[np.ndarray, dict[int, str]]:
    """Parse raw strings into float64; returns (values, bad row index -> reason).

    Bad cells get NaN placeholders so the caller can drop or abort; NaN/inf
    literals in the file are reported as bad too (tables must be finite).
    """
    bad: dict[int, str] = {}
    try:
        out = np.asarray(raw, dtype=np.float64)
    except ValueError:
        out = np.empty(len(raw), dtype=np.float64)
        for i, cell in enumerate(raw):
            try:
                out[i] = np.float64(cell)  # same dialect as the vectorized path
            except ValueError:
                out[i] = np.nan
                bad[i] = f"unparseable numeric cell {cell!r} in column {name!r}"
    for i in np.flatnonzero(~np.isfinite(out)):
        bad.setdefault(int(i), f"non-finite value in column {name!r}")
    return out, bad


def _row_chunks(reader, width: int, path: Path) -> Iterator[tuple[list[list[str]], list[int]]]:
    """Nonblank rows in chunks of `_CHUNK_ROWS`, each with the file lines its rows end on.

    A row of the wrong width raises DataError once the rows before it are yielded.
    """
    rows: list[list[str]] = []
    lines: list[int] = []
    for row in reader:
        if not row:
            continue  # blank line
        if len(row) != width:
            if rows:
                yield rows, lines
            raise DataError(f"row at line {reader.line_num} has {len(row)} cells, expected {width} ({path})")
        rows.append(row)
        lines.append(reader.line_num)
        if len(rows) == _CHUNK_ROWS:
            yield rows, lines
            rows, lines = [], []
    if rows:
        yield rows, lines


def _typed_chunk(
    rows: list[list[str]], position: dict[str, int], schema: FeatureSchema, benign_name: str
) -> tuple[dict[str, np.ndarray], dict[int, str]]:
    """Typed columns of full-width rows, and bad row index -> the row's first reason.

    A row's first reason is its first bad numeric cell in schema order, else
    a label other than 0 or 1, else a label that disagrees with the class.
    """
    cells = list(zip(*rows))
    columns: dict[str, np.ndarray] = {}
    bad: dict[int, str] = {}
    for name in schema.numeric_names:
        columns[name], column_bad = _parse_numeric_column(cells[position[name]], name)
        for i, reason in column_bad.items():
            bad.setdefault(i, reason)

    raw_labels = cells[position[schema.label_column]]
    labels = np.array([_BINARY_LABELS.get(c.strip(), -1) for c in raw_labels], dtype=np.int64)
    for i in np.flatnonzero(labels < 0):
        bad.setdefault(int(i), f"binary label must be 0 or 1, got {raw_labels[i]!r}")
        labels[i] = 0
    columns[schema.label_column] = labels

    for name in schema.names:
        if schema.kind_of(name) in _STRING_KINDS:
            columns[name] = np.fromiter(map(sys.intern, cells[position[name]]), dtype=object, count=len(rows))

    class_col = columns[schema.attack_class_column]
    expect = (class_col != benign_name).astype(np.int64)
    for i in np.flatnonzero(expect != labels):
        bad.setdefault(
            int(i),
            f"binary label {labels[i]} disagrees with attack class {class_col[i]!r} "
            f"(benign name is {benign_name!r})",
        )
    return columns, bad


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
    "abort" (default) raises DataError naming the first bad row in file
    order, "drop" removes the rows and counts them in `dropped_rows`. A row
    with the wrong number of cells raises DataError under either policy.
    Blank lines are skipped. An error names the file line on which its row
    ends, so a row with a quoted cell that spans lines is named by its last
    line.

    Rows are parsed in chunks of `_CHUNK_ROWS` straight into typed column
    parts, so memory peaks at about the final table plus one chunk of cells.
    """
    if on_bad_row not in ("abort", "drop"):
        raise ValueError(f"on_bad_row must be 'abort' or 'drop', got {on_bad_row!r}")
    path = Path(path)
    if not path.exists():
        raise DataError(f"dataset file does not exist: {path}")

    # the table's column order: numeric columns, the label, then string columns
    parts: dict[str, list[np.ndarray]] = {name: [np.empty(0, dtype=np.float64)] for name in schema.numeric_names}
    parts[schema.label_column] = [np.empty(0, dtype=np.int64)]
    for name in schema.names:
        if schema.kind_of(name) in _STRING_KINDS:
            parts[name] = [np.empty(0, dtype=object)]
    dropped = 0
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

        position = {name: i for i, name in enumerate(header)}
        for rows, lines in _row_chunks(reader, len(header), path):
            columns, bad = _typed_chunk(rows, position, schema, benign_name)
            if bad and on_bad_row == "abort":
                first = min(bad)
                raise DataError(f"line {lines[first]}: {bad[first]} ({path})")
            if bad:
                keep = np.ones(len(rows), dtype=bool)
                keep[list(bad)] = False
                columns = {name: col[keep] for name, col in columns.items()}
                dropped += len(bad)
            for name, col in columns.items():
                parts[name].append(col)
            del rows, lines  # free this chunk's cells before the next one is read

    # pop each column's parts as it is joined, so only one column is held twice
    data = {name: np.concatenate(parts.pop(name)) for name in list(parts)}
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
    # benign is code 0 even when absent; every other name gets the next code on first sight
    codes_of = {table.benign_name: 0}
    codes = np.fromiter(
        (codes_of.setdefault(name, len(codes_of)) for name in col), dtype=np.int64, count=len(col)
    )
    class_order = tuple(str(name) for name in codes_of)
    if len(class_order) == 1:
        raise DataError("table contains no attack classes; no zero-day scenario is definable")
    counts = np.bincount(codes, minlength=len(class_order))
    count_map = {name: int(c) for name, c in zip(class_order, counts)}
    return ClassCatalog(table.benign_name, class_order[1:], count_map, codes)


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

    Class counts are in sorted-name order. Means are computed in float64
    with numpy's pairwise summation. The string columns are counted over
    their interned strings, with no fixed-width copy of a column.
    """
    counts = Counter(table.attack_classes)
    class_counts = {name: counts[name] for name in sorted(counts)}

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
            cardinality[name] = len(set(table.data[name]))

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
