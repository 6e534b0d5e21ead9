from __future__ import annotations

import json
import tracemalloc

import numpy as np
import pytest
from conftest import feature_table, make_table
from hypothesis import given, settings
from hypothesis import strategies as st
from oracle_impls import string_pipeline

from zdeval import preprocess
from zdeval.errors import DataError
from zdeval.flowdata import Column, ColumnKind, FeatureSchema, FlowTable
from zdeval.preprocess import FittedTransform, PrepCounters, preprocess_pipeline, transforms_to_json


def cat_table(values: list[str]):
    return make_table(
        [{"proto": v, "attack_class": "A" if i % 2 else "Benign", "label": 1 if i % 2 else 0}
         for i, v in enumerate(values)]
    )


def every_row(table: FlowTable) -> np.ndarray:
    return np.arange(table.row_count)


def fit(table, train_indices=None, **kwargs) -> tuple[FlowTable, FittedTransform]:
    scope = "full-dataset" if train_indices is None else "train-only"
    return table, preprocess_pipeline(table, scope, train_indices, **kwargs)


class TestEncoder:
    def test_first_appearance_codes(self):
        _, t = fit(cat_table(["tcp", "udp", "tcp"]))
        assert t.mappings["proto"] == {"tcp": 0, "udp": 1}

    def test_single_value(self):
        _, t = fit(cat_table(["only"]))
        assert t.mappings["proto"] == {"only": 0}

    def test_independent_code_spaces(self):
        table = make_table(
            [
                {"a": "x", "b": "q", "attack_class": "Benign", "label": 0},
                {"a": "y", "b": "q", "attack_class": "A", "label": 1},
            ]
        )
        _, t = fit(table)
        assert t.mappings["a"] == {"x": 0, "y": 1}
        assert t.mappings["b"] == {"q": 0}

    def test_apply_direct_map(self):
        # the table's block holds indices into the sorted values; the transform maps them to codes
        base, t = fit(cat_table(["udp", "tcp"]))
        assert base.categories["proto"].tolist() == ["tcp", "udp"]
        assert base.features[:, 0].tolist() == [1.0, 0.0]
        assert t.apply(base, every_row(base), scaled=False).ravel().tolist() == [0.0, 1.0]
        assert t.column(base, every_row(base), 0, scaled=False).tolist() == [0.0, 1.0]

    def test_unseen_error_names_feature_and_value(self):
        with pytest.raises(DataError, match=r"icmp.*proto"):
            fit(cat_table(["tcp", "udp", "icmp"]), np.array([0, 1]), unseen="error")

    def test_unseen_reserve_code_flagged(self):
        base, t = fit(cat_table(["tcp", "udp", "icmp"]), np.array([0, 1]), unseen="reserve-code")
        assert t.apply(base, np.array([2]), scaled=False).ravel().tolist() == [2.0]
        assert t.counters.unseen == [("proto", "icmp", 2)]

    def test_empty_table_stays_empty(self):
        table = cat_table(["tcp", "udp"])
        assert table.take(np.array([], dtype=np.int64)).features.shape == (0, 1)
        base, t = fit(table)
        assert t.apply(base, np.array([], dtype=np.int64), scaled=True).shape == (0, 1)

    def test_identifiers_are_not_features(self, small_table):
        assert small_table.feature_names == ("dur", "proto")
        assert small_table.features.shape == (5, 2)

    def test_base_matrix_is_the_tables_block(self, small_table):
        _, t = fit(small_table)
        assert np.shares_memory(small_table.features, small_table.data["dur"])
        assert small_table.features.flags.c_contiguous
        rows = every_row(small_table)
        assert t.column(small_table, rows, 0, scaled=False).tobytes() == small_table.features[:, 0].tobytes()

    def test_encoding_allocates_no_matrix(self):
        table = make_table(
            [
                {"proto": ("tcp", "udp")[i % 2], **{f"x{k}": float(i * k) for k in range(20)},
                 "attack_class": "A" if i % 3 == 0 else "Benign", "label": int(i % 3 == 0)}
                for i in range(5000)
            ]
        )
        tracemalloc.start()
        try:
            preprocess_pipeline(table)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a full-dataset fit reads the table's block in place; a copy of it is n x d float64
        assert peak < table.features.nbytes

    def test_labels_preserved_exactly(self, small_table):
        # the categorical strings, the label and the class cells are dropped at construction;
        # the class is held as codes, and the label is the code != 0
        assert not {"proto", "label", "attack_class"} & set(small_table.data)
        assert (small_table.class_codes != 0).astype(int).tolist() == [0, 1, 1, 1, 0]
        assert small_table.attack_classes.tolist() == ["Benign", "Dos", "Worms", "Dos", "Benign"]


class TestScaler:
    def matrix(self, column):
        return feature_table(column)

    def test_fit_min_max(self):
        t = preprocess_pipeline(self.matrix([2.0, 4.0, 6.0]))
        assert t.ranges["x"] == (2.0, 6.0)

    def test_constant_column(self):
        m = self.matrix([5.0, 5.0])
        t = preprocess_pipeline(m)
        assert t.ranges["x"] == (5.0, 5.0)
        assert t.apply(m, every_row(m), scaled=True).tolist() == [[0.0], [0.0]]

    def test_single_row(self):
        t = preprocess_pipeline(self.matrix([7.0]))
        assert t.ranges["x"] == (7.0, 7.0)

    def test_apply_arithmetic(self):
        m = self.matrix([2.0, 4.0, 6.0])
        assert preprocess_pipeline(m).apply(m, every_row(m), scaled=True).ravel().tolist() == [0.0, 0.5, 1.0]

    def test_range_wider_than_the_largest_float(self):
        # hi - lo overflows to inf, and (x - lo) / inf read 0 for 0 and nan for hi
        m = self.matrix([-1e308, 0.0, 1e308])
        assert preprocess_pipeline(m).apply(m, every_row(m), scaled=True).ravel().tolist() == [0.0, 0.5, 1.0]
        with np.errstate(over="ignore"):  # the out-of-range row overflows to inf, then clamps to 1
            t = preprocess_pipeline(m, "train-only", np.array([0, 1]))
            assert t.apply(m, every_row(m), scaled=True).ravel().tolist() == [0.0, 1.0, 1.0]
        assert t.counters.clamped == {"x": 1}

    def test_out_of_range_clamped_and_counted(self):
        m = self.matrix([2.0, 6.0, 8.0, 0.0, 4.0])
        t = preprocess_pipeline(m, "train-only", np.array([0, 1]))
        assert t.ranges["x"] == (2.0, 6.0)
        assert t.apply(m, every_row(m), scaled=True).ravel().tolist() == [0.0, 1.0, 1.0, 0.0, 0.5]
        assert t.counters.clamped == {"x": 2}

    def test_column_mismatch_rejected(self):
        t = FittedTransform({}, {"y": (0.0, 1.0)}, {}, PrepCounters())
        with pytest.raises(ValueError, match="mismatch"):
            t.apply(self.matrix([1.0]), np.array([0]), scaled=True)

    def test_empty_matrix_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            preprocess_pipeline(self.matrix([]))

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=50))
    def test_range_property(self, column):
        m = self.matrix(column)
        out = preprocess_pipeline(m).apply(m, every_row(m), scaled=True)
        assert np.all(out >= 0.0)
        assert np.all(out <= 1.0)

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=50))
    def test_idempotence_property(self, column):
        m = self.matrix(column)
        once = self.matrix(preprocess_pipeline(m).apply(m, every_row(m), scaled=True).ravel())
        twice = preprocess_pipeline(once).apply(once, every_row(once), scaled=True)
        assert np.max(np.abs(twice - once.features)) <= 1e-12


class TestPipeline:
    def test_full_dataset_scope(self, small_table):
        base, t = fit(small_table)
        values = t.apply(base, every_row(base), scaled=True)
        assert base.feature_names == ("dur", "proto")
        assert base.schema.categorical_names == ("proto",)
        assert values.min() >= 0.0 and values.max() <= 1.0
        # scaler was fitted over all rows: extremes hit exactly 0 and 1
        assert values[:, 0].min() == 0.0 and values[:, 0].max() == 1.0

    def test_train_only_scope_clamps_test_rows(self):
        table = make_table(
            [
                {"x": 0.0, "attack_class": "Benign", "label": 0},
                {"x": 1.0, "attack_class": "A", "label": 1},
                {"x": 5.0, "attack_class": "A", "label": 1},
            ]
        )
        base, t = fit(table, np.array([0, 1]))
        assert t.apply(base, every_row(base), scaled=True).ravel().tolist() == [0.0, 1.0, 1.0]
        assert t.counters.clamped == {"x": 1}

    def test_numeric_only_table_has_empty_encoder(self):
        table = make_table(
            [
                {"x": 0.0, "attack_class": "Benign", "label": 0},
                {"x": 1.0, "attack_class": "A", "label": 1},
            ]
        )
        base, t = fit(table)
        assert t.mappings == {}
        assert base.categories == {}
        assert t.apply(base, every_row(base), scaled=False).tobytes() == base.features.tobytes()

    def test_train_only_requires_indices(self, small_table):
        with pytest.raises(ValueError, match="train_indices"):
            preprocess_pipeline(small_table, "train-only")

    def test_matrix_requires_encoding_first(self, small_table):
        # category indices are never passed on as values without an encoding
        base, t = fit(small_table)
        with pytest.raises(DataError, match="proto"):
            FittedTransform(t.mappings, t.ranges, {}, t.counters).apply(base, every_row(base), scaled=False)

    def test_shape_preservation(self, small_table):
        base, t = fit(small_table)
        rows = np.array([4, 0, 0, 2])
        assert t.apply(base, rows, scaled=True).shape == (4, len(base.feature_names))
        assert t.column(base, rows, 1, scaled=True).shape == (4,)

    def test_transforms_serializable(self, small_table):
        _, t = fit(small_table)
        doc = transforms_to_json(t, "full-dataset")
        parsed = json.loads(json.dumps(doc))
        assert parsed["feature_names"] == ["dur", "proto"]
        assert parsed["encoded_features"] == ["proto"]
        assert parsed["encoder"]["proto"] == {"tcp": 0, "udp": 1, "icmp": 2}
        assert parsed["scaler"]["dur"] == {"min": 1.0, "max": 5.0}
        assert parsed["encoder"] == t.mappings
        assert parsed["scaler"] == {f: {"min": lo, "max": hi} for f, (lo, hi) in t.ranges.items()}


class TestDeterminism:
    def test_fit_twice_identical(self, small_table):
        base1, r1 = fit(small_table)
        base2, r2 = fit(small_table)
        assert r1.mappings == r2.mappings
        rows = every_row(base1)
        assert np.array_equal(r1.apply(base1, rows, scaled=True), r2.apply(base2, rows, scaled=True))
        assert r1.ranges == r2.ranges


# few distinct values, so columns tie, repeat and often come out constant;
# "10" sorts before "9", and -0.0 and huge magnitudes probe the float path
_CATEGORY_VALUES = ("tcp", "udp", "icmp", "10", "9", "")
_NUMBER_VALUES = (0.0, -0.0, 1.0, -2.5, 3.25, 7.0, 1e-300, -1e300, 1e300)


@st.composite
def _tables(draw):
    n = draw(st.integers(1, 14))
    kinds = draw(st.lists(st.sampled_from(("n", "c")), min_size=1, max_size=4))
    columns, data = [Column("flow_id", ColumnKind.IDENTIFIER)], {"flow_id": np.array(["x"] * n, dtype=object)}
    for j, kind in enumerate(kinds):
        name = f"{kind}{j}"
        if kind == "n":
            pool = draw(st.lists(st.sampled_from(_NUMBER_VALUES), min_size=1, max_size=4))
            data[name] = np.array(draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n)), dtype=np.float64)
            columns.append(Column(name, ColumnKind.NUMERIC))
        else:
            pool = draw(st.lists(st.sampled_from(_CATEGORY_VALUES), min_size=1, max_size=5))
            data[name] = np.array(draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n)), dtype=object)
            columns.append(Column(name, ColumnKind.CATEGORICAL))
    classes = draw(st.lists(st.sampled_from(("Benign", "A")), min_size=n, max_size=n))
    columns += [Column("attack_class", ColumnKind.ATTACK_CLASS), Column("label", ColumnKind.BINARY_LABEL)]
    data["attack_class"] = np.array(classes, dtype=object)
    data["label"] = np.array([int(c != "Benign") for c in classes], dtype=np.int64)
    table = FlowTable(FeatureSchema(tuple(columns)), "Benign", data)
    train = draw(st.none() | st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
    rows = draw(st.lists(st.integers(0, n - 1), max_size=2 * n))
    return table, data, None if train is None else np.array(train, dtype=np.int64), np.array(rows, dtype=np.int64)


class TestStringOracle:
    """The index-based transforms against the string-based path they replace."""

    @given(_tables())
    @settings(max_examples=300, deadline=None)
    def test_transforms_equal_string_pipeline(self, case):
        table, cells, train, rows = case
        expected = string_pipeline(table.schema, cells, train)
        base, t = fit(table, train)
        assert base.feature_names == expected["feature_names"]
        assert [(f, list(m.items())) for f, m in t.mappings.items()] == [
            (f, list(m.items())) for f, m in expected["mappings"].items()
        ]
        assert list(t.ranges.items()) == list(expected["ranges"].items())
        assert t.counters.clamped == expected["clamped"]
        assert t.counters.unseen == expected["unseen"]
        # bit for bit: the same operations on the same values, and the table's block left as it was
        loaded = base.features.copy()
        for scaled, key in ((True, "scaled"), (False, "unscaled")):
            assert t.apply(base, rows, scaled=scaled).tobytes() == expected[key][rows].tobytes()
            for j in range(len(base.feature_names)):
                col = t.column(base, rows, j, scaled=scaled)
                assert col.tobytes() == expected[key][rows, j].tobytes()
                # into a caller's buffer: the tail of a larger one, as a distance workspace passes it
                buf = np.full(2 * len(rows) + 1, np.nan)
                out = buf[len(rows) + 1:]
                assert t.column(base, rows, j, scaled=scaled, out=out) is out
                assert out.tobytes() == col.tobytes()
                assert np.isnan(buf[:len(rows) + 1]).all()
        assert base.features.tobytes() == loaded.tobytes()

    def test_train_only_range_keeps_the_sign_of_zero(self):
        # min and max of a tie between -0.0 and 0.0 depend on the layout reduced: a contiguous
        # column of these fit rows gives min -0.0, the column of their gathered block 0.0, so a
        # fit that gathers one column at a time must still reduce a strided column
        values = np.zeros((10, 3))
        values[:, 2] = [-0.0] * 7 + [1.0, 0.0, -0.0]
        table = feature_table(values, ("a", "b", "c"))
        train = np.array([0, 1, 2, 3, 4, 9, 5, 6, 8, 7])
        _, t = fit(table, train)
        block = values[train]
        for j, name in enumerate(("a", "b", "c")):
            assert repr(t.ranges[name]) == repr((float(block[:, j].min()), float(block[:, j].max())))

    @pytest.mark.parametrize("train", [None, np.array([5, 1, 2, 8])])
    def test_column_gathers_across_chunks(self, monkeypatch, train):
        # chunks of 3 rows: unsorted, repeated rows cross every chunk boundary
        monkeypatch.setattr(preprocess, "_GATHER_ROWS", 3)
        table = make_table(
            [{"x": float((i * 7) % 5) - 1.5, "proto": ("tcp", "udp", "icmp")[i % 3],
              "attack_class": "Benign", "label": 0} for i in range(10)]
        )
        base, t = fit(table, train)
        rows = np.array([9, 0, 3, 3, 7, 1, 8, 2, 6, 5, 4, 0])
        for scaled in (True, False):
            values = t.apply(base, rows, scaled=scaled)
            for j in range(len(base.feature_names)):
                out = np.full(len(rows), np.nan)
                t.column(base, rows, j, scaled=scaled, out=out)
                assert out.tobytes() == values[:, j].tobytes()

    @pytest.mark.parametrize("train", [None, np.arange(0, 40_000, 3)])
    def test_column_into_a_buffer_allocates_only_chunks(self, train):
        rng = np.random.default_rng(18)
        n = 40_000
        table = FlowTable(
            FeatureSchema((Column("x", ColumnKind.NUMERIC), Column("proto", ColumnKind.CATEGORICAL),
                           Column("attack_class", ColumnKind.ATTACK_CLASS), Column("label", ColumnKind.BINARY_LABEL))),
            "Benign",
            {"x": rng.normal(size=n), "proto": np.array(rng.choice(["tcp", "udp", "icmp"], n), dtype=object),
             "attack_class": np.full(n, "Benign", dtype=object), "label": np.zeros(n, dtype=np.int64)},
        )
        base, t = fit(table, train)
        rows, out = rng.permutation(n), np.empty(n)
        t.column(base, rows, 1, scaled=True, out=out)  # the first call sets up what is cached
        tracemalloc.start()
        try:
            for j in range(len(base.feature_names)):
                t.column(base, rows, j, scaled=True, out=out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a chunk of gathered, cast and coded values at a time; the column is n x 8 bytes
        assert peak <= 64 * 1024

    def test_column_rejects_a_row_past_the_table(self, small_table):
        base, t = fit(small_table)
        with pytest.raises(IndexError):
            t.column(base, np.array([0, base.row_count]), 0, scaled=True, out=np.empty(2))

    @given(_tables())
    @settings(max_examples=100, deadline=None)
    def test_unseen_error_matches_string_pipeline(self, case):
        table, cells, train, _ = case
        try:
            string_pipeline(table.schema, cells, train, unseen="error")
        except ValueError as exc:
            with pytest.raises(DataError) as raised:
                fit(table, train, unseen="error")
            assert str(raised.value) == str(exc)
        else:
            fit(table, train, unseen="error")
