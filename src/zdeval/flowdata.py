"""Flow-record tables: column schemas, CSV loading, summaries.

A table holds its features once, as one feature-major n x d float64 block
whose columns are the schema's feature columns in schema order: a numeric
column holds its values, a categorical column each row's index into the
column's sorted distinct values (`FlowTable.categories`). Each column's n
values are contiguous (`features.strides[0]` is the item size), since every
reader reads one feature at a time. The attack class is held once, as each
row's code into `FlowTable.class_names`; the binary label is the code != 0.
The kept identifier columns are object arrays of interned strings. This
coded form is a table's only form: `FlowTable` takes it as it is, and
`table_from_columns` builds it from columns of strings and numbers.
`load_csv` parses straight into the block, each chunk of the file with
numpy's C reader, and a chunk that is not clean again, alone, with the
`csv` module; it indexes the categorical strings into the block once the
file is read, and keeps the identifier columns only when asked. Tables are
immutable by convention: no function in this package mutates a table after
construction.
"""

from __future__ import annotations

import csv
import itertools
import sys
import warnings
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import DataError, SchemaError

# rows per parse step of load_csv: on a 40k x 45 file, 2048 peaked lowest of 1024,
# 2048, 4096 and 8192, and loaded as fast as 1024
_CHUNK_ROWS = 2048
# bytes per read when counting line ends: on a 10 MB file, 64 KiB blocks counted in
# 1.3 ms where 1 MiB blocks took 2.1 ms
_COUNT_BYTES = 1 << 16
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
    """Ordered declaration of every column in a flow-record file.

    The name tuples are computed once per schema: the transforms read them
    per column of every job.
    """

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

    @cached_property
    def names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.columns)

    @cached_property
    def label_column(self) -> str:
        return next(c.name for c in self.columns if c.kind is ColumnKind.BINARY_LABEL)

    @cached_property
    def attack_class_column(self) -> str:
        return next(c.name for c in self.columns if c.kind is ColumnKind.ATTACK_CLASS)

    @cached_property
    def identifier_names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.columns if c.kind is ColumnKind.IDENTIFIER)

    @cached_property
    def numeric_names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.columns if c.kind is ColumnKind.NUMERIC)

    @cached_property
    def categorical_names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.columns if c.kind is ColumnKind.CATEGORICAL)

    @cached_property
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


def _category_indices(col: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A column's sorted distinct values (a `<U` array) and each row's index into them.

    The cells are compared as `str(v)`, through a set and a dict: the result
    of `np.unique(col.astype(str), return_inverse=True)` without its
    fixed-width copy of the column.
    """
    cells = list(map(str, col))
    categories = sorted(set(cells))
    index_of = {v: i for i, v in enumerate(categories)}
    index = np.fromiter(map(index_of.__getitem__, cells), dtype=np.intp, count=len(cells))
    return np.array(categories, dtype=str), index


def _class_codes(cells: list, codes_of: dict) -> np.ndarray:
    """Each cell's code in `codes_of`, which first gives the cells' new classes, found
    through a set, the next codes in order of first appearance."""
    for name in sorted(set(cells).difference(codes_of), key=cells.index):
        codes_of[name] = len(codes_of)
    return np.fromiter(map(codes_of.__getitem__, cells), dtype=np.intp, count=len(cells))


@dataclass(eq=False)
class FlowTable:
    """A loaded flow-record dataset, and the unscaled base matrix every fit and job reads.

    `features` is the feature-major n x d float64 block of the feature
    columns (see the module docstring), and `categories` maps each
    categorical feature to the sorted distinct values its block column
    indexes. `class_codes` holds each row's attack class as its code into
    `class_names`: benign first, then the attack classes in order of first
    appearance. The table is the one class inventory: `attack_names` and
    `class_counts` are read from these codes and names. `identifiers` maps
    the kept identifier columns to object arrays of strings; it may leave
    them out, as `load_csv` does unless asked to keep them. `dropped_rows`
    counts rows discarded by the loader under the drop policy; a table
    taken from another keeps its count.

    Construction checks only the shapes (a block of n rows and one column
    per feature, categories for each categorical feature, n class codes
    and n cells per identifier), and copies a block whose columns are not
    contiguous into one whose are.
    """

    schema: FeatureSchema
    benign_name: str
    features: np.ndarray
    categories: dict[str, np.ndarray] = field(repr=False)
    class_codes: np.ndarray = field(repr=False)
    class_names: tuple[str, ...]
    identifiers: dict[str, np.ndarray] = field(default_factory=dict, repr=False)
    dropped_rows: int = 0

    def __post_init__(self) -> None:
        d = len(self.schema.feature_names)
        if self.features.ndim != 2 or self.features.shape[1] != d:
            raise DataError(f"feature block has shape {self.features.shape}, expected (rows, {d})")
        if self.features.strides[0] != self.features.itemsize:
            self.features = np.asfortranarray(self.features)
        n = len(self.features)
        for name in self.schema.categorical_names:
            if name not in self.categories:
                raise DataError(f"categorical feature {name!r} has no categories")
        for name, col in {"class_codes": self.class_codes, **self.identifiers}.items():
            if len(col) != n:
                raise DataError(f"{name!r} has {len(col)} cells, expected {n}, one per row of the feature block")

    @property
    def row_count(self) -> int:
        return len(self.class_codes)

    @property
    def feature_names(self) -> tuple[str, ...]:
        return self.schema.feature_names

    @property
    def attack_names(self) -> tuple[str, ...]:
        """The attack classes in code order; raises DataError when there are none."""
        if len(self.class_names) == 1:
            raise DataError("table contains no attack classes; no zero-day scenario is definable")
        return self.class_names[1:]

    @property
    def class_counts(self) -> tuple[int, ...]:
        """Rows per class in code order, benign included even at 0 rows."""
        return tuple(np.bincount(self.class_codes, minlength=len(self.class_names)).tolist())

    @property
    def attack_classes(self) -> np.ndarray:
        """Each row's attack class, decoded from its code: an object array of strings."""
        return np.array(self.class_names, dtype=object)[self.class_codes]

    def take(self, indices: np.ndarray) -> "FlowTable":
        """A new table containing the given rows, in the given order.

        The feature-major block is filled one column at a time, so no other
        copy of the rows is held. Each categorical column indexes only the
        categories its rows use, and the classes are coded in the rows' own
        order of first appearance.
        """
        idx = np.asarray(indices, dtype=np.int64)
        names = self.feature_names
        features, categories = np.empty((len(idx), len(names)), order="F"), {}
        for j, name in enumerate(names):
            col = self.features[:, j][idx]
            if name in self.categories:
                used, col = np.unique(col.astype(np.intp), return_inverse=True)
                categories[name] = self.categories[name][used]
            features[:, j] = col
        codes_of = {0: 0}  # an old code -> its new code
        codes = _class_codes(self.class_codes[idx].tolist(), codes_of)
        return FlowTable(self.schema, self.benign_name, features, categories, codes,
                         tuple(self.class_names[c] for c in codes_of),
                         {k: v[idx] for k, v in self.identifiers.items()}, self.dropped_rows)


def table_from_columns(schema: FeatureSchema, benign_name: str, columns: Mapping[str, Sequence]) -> FlowTable:
    """A table built from columns of strings and numbers, each `columns[name]` a column's cells.

    Every feature column and the attack-class column must be given. An
    identifier column may be left out, and so may the binary label, which,
    if given, must be class code != 0 on every row. A categorical column is
    indexed into its sorted distinct values (`_category_indices`), and the
    classes are coded benign first, then in order of first appearance. A
    missing column, a column of the wrong length, a label that disagrees
    with the class and a numeric cell that is not finite raise DataError.
    """
    names, class_column, label_column = schema.feature_names, schema.attack_class_column, schema.label_column
    for name in (*names, class_column):
        if name not in columns:
            raise DataError(f"table is missing column {name!r}")
    codes_of = {benign_name: 0}
    codes = _class_codes(np.asarray(columns[class_column]).tolist(), codes_of)
    n, class_names = len(codes), tuple(codes_of)
    for name in schema.names:
        if name in columns and len(columns[name]) != n:
            raise DataError(f"column {name!r} has {len(columns[name])} cells, expected {n}")
    if label_column in columns:
        labels = np.asarray(columns[label_column])
        for bad in np.flatnonzero(labels != (codes != 0))[:1]:
            raise DataError(
                f"binary label disagrees with attack class at row {bad}: "
                f"label={labels[bad]}, class={class_names[codes[bad]]!r}"
            )
    features, categories = np.empty((n, len(names)), order="F"), {}
    for j, name in enumerate(names):
        if name in schema.categorical_names:
            categories[name], features[:, j] = _category_indices(columns[name])
        else:
            features[:, j] = columns[name]
            for bad in np.flatnonzero(~np.isfinite(features[:, j]))[:1]:
                raise DataError(f"non-finite value in column {name!r} at row {bad}")
    identifiers = {name: np.asarray(columns[name], dtype=object) for name in schema.identifier_names if name in columns}
    return FlowTable(schema, benign_name, features, categories, codes, class_names, identifiers)


def _parse_numeric_column(raw: Sequence[str], name: str) -> tuple[np.ndarray, dict[int, str]]:
    """Parse raw strings into float64; returns (values, unparseable row index -> reason).

    An unparseable cell gets a NaN placeholder, which `_typed_chunk` finds
    with the cells that are not finite and names by its reason here.
    """
    bad: dict[int, str] = {}
    try:
        return np.asarray(raw, dtype=np.float64), bad
    except ValueError:
        out = np.empty(len(raw), dtype=np.float64)
    for i, cell in enumerate(raw):
        try:
            out[i] = np.float64(cell)  # same dialect as the vectorized path
        except ValueError:
            out[i] = np.nan
            bad[i] = f"unparseable numeric cell {cell!r} in column {name!r}"
    return out, bad


def _row_chunk(reader, width: int, path: Path, offset: int) -> tuple[list[list[str]], list[int], DataError | None]:
    """The reader's next `_CHUNK_ROWS` nonblank rows, the file lines they end on, and a width error.

    `offset` is the number of file lines read before the reader's first
    line. At a row of the wrong width the chunk ends, and the error naming
    it is returned, not raised, so that the rows before it are checked
    first; otherwise the error is None.
    """
    rows: list[list[str]] = []
    lines: list[int] = []
    for row in reader:
        if not row:
            continue  # blank line
        if len(row) != width:
            error = f"row at line {offset + reader.line_num} has {len(row)} cells, expected {width} ({path})"
            return rows, lines, DataError(error)
        rows.append(row)
        lines.append(offset + reader.line_num)
        if len(rows) == _CHUNK_ROWS:
            break
    return rows, lines, None


def _line_end_bound(path: Path) -> int:
    """An upper bound on the rows of a CSV file: its line ends, plus one.

    A line end is "\n", "\r\n" or a lone "\r", as the reader splits lines.
    The raw bytes are read in blocks of `_COUNT_BYTES`, and a block's "\r"
    are counted only when it holds one.
    """
    ends, last = 1, b""
    with open(path, "rb") as fh:
        while block := fh.read(_COUNT_BYTES):
            ends += int(np.count_nonzero(np.frombuffer(block, dtype=np.uint8) == ord("\n")))
            if b"\r" in block:
                ends += block.count(b"\r") - block.count(b"\r\n")
            if last == b"\r" and block[:1] == b"\n":
                ends -= 1  # a "\r\n" split between two blocks
            last = block[-1:]
    return ends


def _typed_chunk(
    fields: Mapping[str, Sequence],
    unparseable: Mapping[str, dict[int, str]],
    schema: FeatureSchema,
    benign_name: str,
    strings: tuple[str, ...],
    out: np.ndarray,
) -> tuple[dict[str, np.ndarray], dict[int, str]]:
    """Check a chunk's rows: numeric cells into `out`, the string columns interned.

    `fields` maps each column name to the chunk's cells, as either parser
    split them: `np.loadtxt`'s typed fields, or the `csv` rows' cells with
    each numeric column read through `_parse_numeric_column`, whose
    unparseable cells are named in `unparseable`. `out` is the rows' slice
    of the feature block; its categorical columns are left as they are.
    Returns the string columns named in `strings`, and bad row index -> the
    row's first reason: its first bad numeric cell in schema order, else a
    label other than 0 or 1, else a label that disagrees with the class.
    """
    bad: dict[int, str] = {}
    for j, name in enumerate(schema.feature_names):
        if schema.kind_of(name) is ColumnKind.NUMERIC:
            out[:, j] = fields[name]
            finite = np.isfinite(out[:, j])
            if not finite.all():
                reasons = unparseable.get(name, {})
                for i in np.flatnonzero(~finite).tolist():
                    bad.setdefault(i, reasons.get(i, f"non-finite value in column {name!r}"))

    raw_labels = fields[schema.label_column]
    labels = np.fromiter((_BINARY_LABELS.get(c.strip(), -1) for c in raw_labels), dtype=np.int64, count=len(out))
    for i in np.flatnonzero(labels < 0).tolist():
        bad.setdefault(i, f"binary label must be 0 or 1, got {raw_labels[i]!r}")

    columns = {name: np.fromiter(map(sys.intern, fields[name]), dtype=object, count=len(out)) for name in strings}
    class_col = columns[schema.attack_class_column]
    for i in np.flatnonzero(labels != (class_col != benign_name)).tolist():
        bad.setdefault(
            i,
            f"binary label {labels[i]} disagrees with attack class {class_col[i]!r} "
            f"(benign name is {benign_name!r})",
        )
    return columns, bad


def _recorded(lines: Iterator[str], handed: list[str]) -> Iterator[str]:
    """The lines of `lines`, each appended to `handed` as it is handed out."""
    for line in lines:
        handed.append(line)
        yield line


def load_csv(
    path: str | Path,
    schema: FeatureSchema,
    benign_name: str,
    *,
    on_bad_row: str = "abort",
    keep_identifiers: bool = False,
) -> FlowTable:
    """Load an RFC-4180 CSV into a FlowTable.

    The header must contain exactly the schema's column names (any order).
    Numeric cells use a dot decimal separator; the binary label must be the
    literal 0 or 1 and must agree with the attack-class cell versus
    `benign_name`. Rows violating any of this are handled per `on_bad_row`:
    "abort" (default) raises DataError naming the first bad row in file
    order, "drop" removes the rows and counts them in `dropped_rows`. A row
    with the wrong number of cells raises DataError under either policy.
    Blank lines and a UTF-8 byte-order mark are skipped. An error names the
    file line on which its row ends, so a row with a quoted cell that spans
    lines is named by its last line. The identifier columns are checked
    like any other, but their cells are kept only with `keep_identifiers`:
    no analysis reads them, and only `summarize` and `write_csv` need them.

    The feature block is allocated once, for as many rows as the file has
    line ends, and rows are parsed in chunks of `_CHUNK_ROWS`. Each chunk is
    first parsed by numpy's C reader (`np.loadtxt`) from a generator that
    pulls the file's lines as the reader asks for them, so a quoted cell
    that spans lines is read whole. Both parsers hand a chunk's cells to one
    checker, `_typed_chunk`, which writes its numeric cells into the block's
    next rows and reports each bad row. While the checker finds no bad row
    in a `loadtxt` chunk, its string columns go into typed parts. A chunk
    that `loadtxt` rejects (a cell or a row's width) or in which the checker
    finds a bad row (a numeric cell that is not finite, a label that is bad
    or disagrees with the class) is parsed again by the `csv` module, from
    its recorded lines and then the file's next lines, up to `_CHUNK_ROWS`
    rows; the next chunk goes back to `loadtxt`. The csv path is the
    reference: it alone can name file lines, so it alone reports or drops
    bad rows, and on every chunk that `loadtxt` accepts it yields the same
    cells. A chunk's class cells are coded once its rows are accepted,
    so a class met only in dropped rows gets no code. The block is
    feature-major, so a chunk writes one contiguous run of each column; the
    pages of each column past the last row are never written, so they take
    no memory. Once the file is read, each categorical column's parts are
    joined and indexed into its block column, one column at a time.
    """
    if on_bad_row not in ("abort", "drop"):
        raise ValueError(f"on_bad_row must be 'abort' or 'drop', got {on_bad_row!r}")
    path = Path(path)
    if not path.exists():
        raise DataError(f"dataset file does not exist: {path}")

    strings = tuple(
        name
        for name in schema.names
        if schema.kind_of(name) in _STRING_KINDS
        and (keep_identifiers or schema.kind_of(name) is not ColumnKind.IDENTIFIER)
    )
    # the string columns but the class, whose cells are coded chunk by chunk; the numeric columns are the block's
    class_column = schema.attack_class_column
    parts = {name: [np.empty(0, dtype=object)] for name in strings if name != class_column}
    codes, codes_of = [np.empty(0, dtype=np.intp)], {benign_name: 0}
    block = np.empty((_line_end_bound(path), len(schema.feature_names)), order="F")
    n = dropped = 0

    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
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

        # every column is a field, so loadtxt checks each row's width; an identifier
        # not kept is a zero-width string, which holds none of its cell
        fields = {ColumnKind.NUMERIC: "f8", ColumnKind.IDENTIFIER: "O" if keep_identifiers else "U0"}
        dtype = np.dtype([(name, fields.get(schema.kind_of(name), "O")) for name in header])
        offset = reader.line_num  # file lines before the chunk's first line
        with warnings.catch_warnings():
            # blank lines and an empty chunk are not errors here, as they are not in the csv path
            warnings.filterwarnings("ignore", r"(loadtxt: input|input line \d+) contained no data", UserWarning)
            while True:
                handed: list[str] = []
                try:
                    chunk = np.loadtxt(
                        _recorded(fh, handed), delimiter=",", quotechar='"', comments=None, dtype=dtype,
                        max_rows=_CHUNK_ROWS, ndmin=1,
                    )
                except ValueError:  # a cell or a row's width that loadtxt turns down
                    bad = True
                else:
                    size = len(chunk)
                    columns, bad = _typed_chunk(chunk, {}, schema, benign_name, strings, block[n : n + size])
                if not bad:
                    offset += len(handed)
                else:
                    # the csv path, for this chunk alone: its recorded lines, then the file's next ones
                    reader = csv.reader(itertools.chain(handed, fh))
                    rows, lines, error = _row_chunk(reader, len(header), path, offset)
                    # a chunk that ends at its first row, on a row of the wrong width, has no cells
                    cells, unparseable = dict(zip(header, zip(*rows) if rows else [()] * len(header))), {}
                    for name in schema.numeric_names:
                        cells[name], unparseable[name] = _parse_numeric_column(cells[name], name)
                    size = len(rows)
                    out = block[n : n + size]
                    columns, bad = _typed_chunk(cells, unparseable, schema, benign_name, strings, out)
                    if bad and on_bad_row == "abort":
                        first = min(bad)
                        raise DataError(f"line {lines[first]}: {bad[first]} ({path})")
                    if error is not None:
                        raise error
                    if bad:
                        keep = np.ones(size, dtype=bool)
                        keep[list(bad)] = False
                        block[n : n + size - len(bad)] = out[keep]
                        columns = {name: col[keep] for name, col in columns.items()}
                        dropped += len(bad)
                    offset += reader.line_num
                    del rows, lines, cells  # free this chunk's cells before the next one is read
                codes.append(_class_codes(columns.pop(class_column).tolist(), codes_of))
                for name, col in columns.items():
                    parts[name].append(col)
                n += len(codes[-1])
                if size < _CHUNK_ROWS:
                    break  # the file is read

    # pop each column's parts as it is joined, so only one column is held twice
    features, categories = block[:n], {}
    for j, name in enumerate(schema.feature_names):
        if name in parts:
            categories[name], features[:, j] = _category_indices(np.concatenate(parts.pop(name)))
    identifiers = {name: np.concatenate(parts.pop(name)) for name in list(parts)}
    return FlowTable(schema, benign_name, features, categories, np.concatenate(codes), tuple(codes_of),
                     identifiers, dropped)


def _require_identifiers(table: FlowTable, what: str) -> None:
    for name in table.schema.identifier_names:
        if name not in table.identifiers:
            raise DataError(
                f"{what} needs identifier column {name!r}, and the table has none: "
                "load it with keep_identifiers=True"
            )


def write_csv(table: FlowTable, path: str | Path) -> None:
    """Write a table back to CSV; reloading with the same schema round-trips.

    Floats are written with repr, the shortest digit string that parses back
    to the identical float64.
    """
    _require_identifiers(table, "write_csv")
    schema = table.schema
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(schema.names)
        columns = []
        for name in schema.names:
            kind = schema.kind_of(name)
            if name in schema.feature_names:
                col = table.features[:, schema.feature_names.index(name)]
                cats = table.categories.get(name)
                columns.append(list(map(repr, col.tolist())) if cats is None else cats[col.astype(np.intp)].tolist())
            elif kind is ColumnKind.BINARY_LABEL:
                columns.append(["0" if c == 0 else "1" for c in table.class_codes.tolist()])
            elif kind is ColumnKind.ATTACK_CLASS:
                columns.append(table.attack_classes.tolist())
            else:
                columns.append(list(table.identifiers[name]))
        for row in zip(*columns) if columns else []:
            writer.writerow(row)


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
    with numpy's pairwise summation, and a zero min or max is 0.0, as in a
    fitted range, whether the column holds -0.0 or 0.0 there. A categorical
    column's cardinality is the number of its categories, and an identifier
    column's is counted over its interned strings, with no fixed-width copy.
    A class with no rows has no count.
    """
    _require_identifiers(table, "summarize")
    class_counts = {name: c for name, c in sorted(zip(table.class_names, table.class_counts)) if c}

    numeric = {}
    for name in table.schema.numeric_names:
        col = table.features[:, table.feature_names.index(name)]
        if col.size:
            numeric[name] = NumericStats(float(col.min()) + 0.0, float(col.max()) + 0.0, float(col.mean()))
        else:
            numeric[name] = NumericStats(None, None, None)

    cardinality = {}
    for name in table.schema.names:
        kind = table.schema.kind_of(name)
        if kind is ColumnKind.CATEGORICAL:
            cardinality[name] = len(table.categories[name])
        elif kind is ColumnKind.IDENTIFIER:
            cardinality[name] = len(set(table.identifiers[name]))

    return TableSummary(
        row_count=table.row_count,
        class_counts=class_counts,
        numeric=numeric,
        cardinality=cardinality,
        n_feature_columns=len(table.schema.feature_names),
    )
