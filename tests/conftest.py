from __future__ import annotations

import numpy as np
import pytest

from zdeval.classifiers.forest import _grow_tree
from zdeval.flowdata import Column, ColumnKind, FeatureSchema, FlowTable, table_from_columns
from zdeval.preprocess import preprocess_pipeline
from zdeval.wdanalysis import per_feature_wd
from zdeval.zslsplit import Scenario


def make_table(rows: list[dict], benign_name: str = "Benign", schema: FeatureSchema | None = None) -> FlowTable:
    """Build a FlowTable from row dicts; column kinds inferred from cell types.

    Keys 'attack_class' and 'label' are fixed; string cells become
    categorical, numeric cells numeric, and keys ending in '_id' identifiers.
    """
    if schema is None:
        columns = []
        for key, value in rows[0].items():
            if key == "attack_class":
                kind = ColumnKind.ATTACK_CLASS
            elif key == "label":
                kind = ColumnKind.BINARY_LABEL
            elif key.endswith("_id"):
                kind = ColumnKind.IDENTIFIER
            elif isinstance(value, str):
                kind = ColumnKind.CATEGORICAL
            else:
                kind = ColumnKind.NUMERIC
            columns.append(Column(key, kind))
        schema = FeatureSchema(tuple(columns))

    data: dict[str, np.ndarray] = {}
    for col in schema.columns:
        cells = [r[col.name] for r in rows]
        if col.kind is ColumnKind.NUMERIC:
            data[col.name] = np.array(cells, dtype=np.float64)
        elif col.kind is ColumnKind.BINARY_LABEL:
            data[col.name] = np.array(cells, dtype=np.int64)
        else:
            data[col.name] = np.array([str(c) for c in cells], dtype=object)
    return table_from_columns(schema, benign_name, data)


def tables_equal(a: FlowTable, b: FlowTable) -> bool:
    """Cell-for-cell equality, schema and benign name included.

    The feature blocks, categorical indices included, must be equal, and so
    must the categories, the class codes and names, and every kept
    identifier column.
    """
    if a.schema != b.schema or a.benign_name != b.benign_name or a.row_count != b.row_count:
        return False
    if a.class_names != b.class_names or not np.array_equal(a.class_codes, b.class_codes):
        return False
    if a.identifiers.keys() != b.identifiers.keys() or a.categories.keys() != b.categories.keys():
        return False
    return (
        np.array_equal(a.features, b.features)
        and all(a.categories[n].tolist() == b.categories[n].tolist() for n in a.categories)
        and all(np.array_equal(a.identifiers[n], b.identifiers[n]) for n in a.identifiers)
    )


def column(table: FlowTable, name: str) -> np.ndarray:
    """A numeric feature's block column (a view), or a kept identifier column."""
    if name in table.identifiers:
        return table.identifiers[name]
    return table.features[:, table.feature_names.index(name)]


def table_columns(table: FlowTable) -> dict[str, np.ndarray]:
    """The table's columns as `table_from_columns` takes them: numbers, category and class strings, identifiers."""
    columns = {table.schema.attack_class_column: table.attack_classes, **table.identifiers}
    for j, name in enumerate(table.feature_names):
        col = table.features[:, j]
        columns[name] = table.categories[name][col.astype(np.intp)] if name in table.categories else col
    return columns


def feature_table(values, names: tuple[str, ...] = ("x",)) -> FlowTable:
    """A table of benign rows whose feature block is `values` (n x d float64), numeric columns `names`."""
    values = np.asarray(values, dtype=np.float64).reshape(-1, len(names))
    n = values.shape[0]
    schema = FeatureSchema(
        (*(Column(name, ColumnKind.NUMERIC) for name in names),
         Column("attack_class", ColumnKind.ATTACK_CLASS), Column("label", ColumnKind.BINARY_LABEL))
    )
    return FlowTable(schema, "Benign", values, {}, np.zeros(n, dtype=np.intp), ("Benign",))


def with_classes(table: FlowTable, codes, class_names: tuple[str, ...]) -> FlowTable:
    """`table`'s features and identifiers, its rows' classes the given codes into `class_names` (benign first)."""
    codes = np.asarray(codes, dtype=np.intp)
    return FlowTable(table.schema, class_names[0], table.features, table.categories, codes, tuple(class_names),
                     table.identifiers)


def coded_table(codes, class_names: tuple[str, ...]) -> FlowTable:
    """A table whose rows have the given class codes into `class_names` (benign first), with one zero feature."""
    return with_classes(feature_table(np.zeros(len(codes))), codes, class_names)


def fit_rows(table: FlowTable, rows=None):
    """`preprocess_pipeline`'s one transform, fitted on the row set `rows` (every row if None).

    The rows are one group of two, and the one fit takes that group alone,
    so they are fitted on as a set, in row order.
    """
    groups = np.ones(table.row_count, dtype=np.intp)
    groups[slice(None) if rows is None else rows] = 0
    [fit] = preprocess_pipeline(table, groups, [[True, False]])
    return fit


def grow_on_every_row(X, y, cfg, rng=None):
    """One tree grown by `_grow_tree` on every row of X once: unit weights over the argsorted transpose."""
    XT = np.ascontiguousarray(np.asarray(X, dtype=np.float64).T)
    weight = np.ones(XT.shape[1], dtype=np.int64)
    rng = np.random.default_rng(0) if rng is None else rng
    return _grow_tree(XT, np.asarray(y, dtype=np.int64), np.argsort(XT, axis=1), weight, cfg, rng)


class RawColumns:
    """A stand-in for a fitted transform that reads the table's block as it is, bit for bit.

    It lets the distance kernel be checked on raw values: a categorical
    column reads as its category indices, each its own code.
    """

    def __init__(self, table: FlowTable):
        self.codes = {name: np.arange(len(cats), dtype=np.float64) for name, cats in table.categories.items()}

    @staticmethod
    def scale(base: FlowTable, j: int, values, *, out: np.ndarray) -> np.ndarray:
        out[:] = values
        return out

    def column(self, base: FlowTable, rows, j: int, *, out: np.ndarray) -> np.ndarray:
        return self.scale(base, j, base.features[rows, j], out=out)


def wasserstein_1d(u, v) -> float:
    """The package's distance between two samples: `per_feature_wd` on a one-feature matrix.

    The rows of `u` are the train rows and the rows of `v` the test rows.
    """
    u = np.asarray(u, dtype=np.float64).ravel()
    v = np.asarray(v, dtype=np.float64).ravel()
    table = feature_table(np.concatenate([u, v]))
    return scenario_wd(table, np.arange(u.size), np.arange(u.size, table.row_count))["x"]


def scenario_wd(table: FlowTable, train_rows, test_rows, transform=None) -> dict[str, float]:
    """`per_feature_wd` of every feature in one scenario that trains on `train_rows` and tests on `test_rows`.

    The two row sets are disjoint. The scenario is the held-out class's
    fold 1 in a table that shares `table`'s feature block: the train rows
    are benign rows of fold 0, the test rows fold 1, and every other row
    belongs to the held-out class in fold 0. The values are read through
    `transform`, or as they are when it is None. The first failure raises.
    """
    codes, fold = np.ones(table.row_count, dtype=np.intp), np.zeros(table.row_count, dtype=np.uint8)
    codes[train_rows] = codes[test_rows] = 0
    fold[test_rows] = 1
    view = with_classes(table, codes, (table.benign_name, "held out"))
    transform = RawColumns(table) if transform is None else transform
    out = {}
    for j, name in enumerate(table.feature_names):
        [out[name]] = per_feature_wd(view, j, fold, [Scenario("held out", 1)], [transform])
        if isinstance(out[name], Exception):
            raise out[name]
    return out


@pytest.fixture
def small_table() -> FlowTable:
    return make_table(
        [
            {"flow_id": "a", "dur": 1.0, "proto": "tcp", "attack_class": "Benign", "label": 0},
            {"flow_id": "b", "dur": 2.0, "proto": "udp", "attack_class": "Dos", "label": 1},
            {"flow_id": "c", "dur": 3.0, "proto": "tcp", "attack_class": "Worms", "label": 1},
            {"flow_id": "d", "dur": 4.0, "proto": "icmp", "attack_class": "Dos", "label": 1},
            {"flow_id": "e", "dur": 5.0, "proto": "tcp", "attack_class": "Benign", "label": 0},
        ]
    )
