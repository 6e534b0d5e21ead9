from __future__ import annotations

import csv
import re
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from conftest import column, feature_table, make_table, tables_equal
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracle_impls import row_at_a_time_load_csv, unique_summary_counts

from zdeval import flowdata
from zdeval.errors import DataError, SchemaError
from zdeval.flowdata import (
    Column,
    ColumnKind,
    FeatureSchema,
    FlowTable,
    load_csv,
    summarize,
    table_from_columns,
    write_csv,
)
from zdeval.harness import subsample_rows
from zdeval.synth import AttackBlob, SyntheticSpec, synthesize_dataset


def schema_3col() -> FeatureSchema:
    return FeatureSchema(
        (
            Column("dur", ColumnKind.NUMERIC),
            Column("attack_class", ColumnKind.ATTACK_CLASS),
            Column("label", ColumnKind.BINARY_LABEL),
        )
    )


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


class TestFeatureSchema:
    def test_duplicate_names_rejected(self):
        with pytest.raises(SchemaError, match="duplicate"):
            FeatureSchema(
                (
                    Column("x", ColumnKind.NUMERIC),
                    Column("x", ColumnKind.NUMERIC),
                    Column("c", ColumnKind.ATTACK_CLASS),
                    Column("l", ColumnKind.BINARY_LABEL),
                )
            )

    def test_exactly_one_label_and_class(self):
        with pytest.raises(SchemaError, match="binary_label"):
            FeatureSchema((Column("x", ColumnKind.NUMERIC), Column("c", ColumnKind.ATTACK_CLASS)))
        with pytest.raises(SchemaError, match="attack_class"):
            FeatureSchema((Column("x", ColumnKind.NUMERIC), Column("l", ColumnKind.BINARY_LABEL)))

    def test_needs_a_feature_column(self):
        with pytest.raises(SchemaError, match="numeric or categorical"):
            FeatureSchema(
                (
                    Column("i", ColumnKind.IDENTIFIER),
                    Column("c", ColumnKind.ATTACK_CLASS),
                    Column("l", ColumnKind.BINARY_LABEL),
                )
            )

    def test_json_round_trip(self):
        schema = schema_3col()
        assert FeatureSchema.from_json(schema.to_json()) == schema


class TestLoadCsv:
    def test_three_row_file(self, tmp_path):
        p = tmp_path / "t.csv"
        write_lines(p, ["dur,attack_class,label", "1.5,Benign,0", "2.0,Dos,1", "0.5,Worms,1"])
        table = load_csv(p, schema_3col(), "Benign")
        assert table.row_count == 3
        assert table.class_names == ("Benign", "Dos", "Worms")
        assert table.class_codes.tolist() == [0, 1, 2]
        assert column(table, "dur").tolist() == [1.5, 2.0, 0.5]

    def test_header_order_insensitive(self, tmp_path):
        p = tmp_path / "t.csv"
        write_lines(p, ["label,dur,attack_class", "0,1.5,Benign", "1,2.0,Dos"])
        table = load_csv(p, schema_3col(), "Benign")
        assert column(table, "dur").tolist() == [1.5, 2.0]

    def test_missing_column_named(self, tmp_path):
        p = tmp_path / "t.csv"
        write_lines(p, ["dur,label", "1.5,0"])
        with pytest.raises(SchemaError, match="attack_class"):
            load_csv(p, schema_3col(), "Benign")

    def test_extra_column_named(self, tmp_path):
        p = tmp_path / "t.csv"
        write_lines(p, ["dur,attack_class,label,bogus", "1.5,Benign,0,x"])
        with pytest.raises(SchemaError, match="bogus"):
            load_csv(p, schema_3col(), "Benign")

    def test_duplicated_header_column_rejected(self, tmp_path):
        p = tmp_path / "t.csv"
        write_lines(p, ["dur,dur,attack_class,label", "1.5,2.5,Benign,0"])
        with pytest.raises(SchemaError, match="repeats"):
            load_csv(p, schema_3col(), "Benign")

    def test_empty_file_distinct_error(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("", encoding="utf-8")
        with pytest.raises(DataError, match="empty CSV"):
            load_csv(p, schema_3col(), "Benign")

    def test_header_only_is_zero_rows(self, tmp_path):
        p = tmp_path / "t.csv"
        write_lines(p, ["dur,attack_class,label"])
        table = load_csv(p, schema_3col(), "Benign")
        assert table.row_count == 0
        assert table.features.dtype == np.float64 and table.features.shape == (0, 1)
        assert table.class_codes.dtype == np.intp and table.class_names == ("Benign",)

    def test_bad_numeric_abort_names_line(self, tmp_path):
        p = tmp_path / "t.csv"
        write_lines(p, ["dur,attack_class,label", "1.5,Benign,0", "oops,Dos,1"])
        with pytest.raises(DataError, match=r"line 3.*oops.*dur"):
            load_csv(p, schema_3col(), "Benign")

    def test_bad_numeric_drop_policy(self, tmp_path):
        p = tmp_path / "t.csv"
        write_lines(p, ["dur,attack_class,label", "1.5,Benign,0", "oops,Dos,1", "2.5,Dos,1"])
        table = load_csv(p, schema_3col(), "Benign", on_bad_row="drop")
        assert table.row_count == 2
        assert table.dropped_rows == 1

    def test_nan_and_inf_rejected(self, tmp_path):
        p = tmp_path / "t.csv"
        write_lines(p, ["dur,attack_class,label", "nan,Benign,0"])
        with pytest.raises(DataError, match="non-finite"):
            load_csv(p, schema_3col(), "Benign")
        write_lines(p, ["dur,attack_class,label", "inf,Benign,0"])
        with pytest.raises(DataError, match="non-finite"):
            load_csv(p, schema_3col(), "Benign")

    def test_label_class_mismatch_detected(self, tmp_path):
        p = tmp_path / "t.csv"
        write_lines(p, ["dur,attack_class,label", "1.0,Dos,0"])
        with pytest.raises(DataError, match="disagrees"):
            load_csv(p, schema_3col(), "Benign")

    def test_label_must_be_binary(self, tmp_path):
        p = tmp_path / "t.csv"
        write_lines(p, ["dur,attack_class,label", "1.0,Dos,2"])
        with pytest.raises(DataError, match="0 or 1"):
            load_csv(p, schema_3col(), "Benign")

    def test_benign_name_is_config(self, tmp_path):
        p = tmp_path / "t.csv"
        write_lines(p, ["dur,attack_class,label", "1.0,Normal,0", "2.0,Dos,1"])
        table = load_csv(p, schema_3col(), "Normal")
        assert table.class_names == ("Normal", "Dos")
        assert table.class_codes.tolist() == [0, 1]

    def test_scientific_notation_and_dot_decimal(self, tmp_path):
        p = tmp_path / "t.csv"
        write_lines(p, ["dur,attack_class,label", "1e-3,Benign,0", "2.75,Dos,1"])
        table = load_csv(p, schema_3col(), "Benign")
        assert column(table, "dur").tolist() == [0.001, 2.75]


class TestRoundTrip:
    def test_write_then_load_identical(self, tmp_path, small_table):
        p = tmp_path / "rt.csv"
        write_csv(small_table, p)
        again = load_csv(p, small_table.schema, small_table.benign_name, keep_identifiers=True)
        assert tables_equal(small_table, again)

    def test_identifier_cells_kept_only_when_asked(self, tmp_path, small_table):
        p = tmp_path / "rt.csv"
        write_csv(small_table, p)
        table = load_csv(p, small_table.schema, small_table.benign_name)
        assert list(small_table.identifiers) == ["flow_id"] and table.identifiers == {}
        assert np.array_equal(table.features, small_table.features)
        assert column(table.take(np.array([4, 0])), "dur").tolist() == [5.0, 1.0]
        with pytest.raises(DataError, match=r"^summarize needs identifier column 'flow_id'"):
            summarize(table)
        with pytest.raises(DataError, match=r"^write_csv needs identifier column 'flow_id'"):
            write_csv(table, tmp_path / "again.csv")

    def test_round_trip_awkward_values(self, tmp_path):
        rng = np.random.default_rng(3)
        rows = []
        for i in range(50):
            value = float(rng.normal() * 10 ** int(rng.integers(-8, 8)))
            cls = "Benign" if i % 3 == 0 else "Odd, \"quoted\" class"
            rows.append({"x": value, "attack_class": cls, "label": 0 if cls == "Benign" else 1})
        table = make_table(rows)
        p = tmp_path / "rt.csv"
        write_csv(table, p)
        assert tables_equal(table, load_csv(p, table.schema, "Benign"))


class TestCatalog:
    """The table is the class catalog: `class_names`, `attack_names` and `class_counts` read its codes."""

    def test_first_appearance_order(self):
        table = make_table(
            [
                {"x": 0.0, "attack_class": "Benign", "label": 0},
                {"x": 1.0, "attack_class": "A", "label": 1},
                {"x": 2.0, "attack_class": "B", "label": 1},
                {"x": 3.0, "attack_class": "A", "label": 1},
            ]
        )
        assert table.attack_names == ("A", "B")
        assert table.class_counts == (1, 2, 1)
        assert table.class_codes.tolist() == [0, 1, 2, 1]

    def test_counts_sum_to_rows(self, small_table):
        assert sum(small_table.class_counts) == small_table.row_count
        assert len(small_table.class_counts) == len(small_table.class_names)

    def test_only_benign_rows_is_error(self):
        table = make_table([{"x": 0.0, "attack_class": "Benign", "label": 0}])
        with pytest.raises(DataError, match="no attack classes"):
            table.attack_names

    def test_no_benign_rows_allowed(self):
        table = make_table([{"x": 0.0, "attack_class": "A", "label": 1}])
        assert table.class_names == ("Benign", "A")
        assert table.class_counts == (0, 1)
        assert table.attack_names == ("A",)

    def test_peak_memory_is_near_the_codes(self):
        spec = SyntheticSpec(
            n_benign=30_000, attacks=(AttackBlob("Reconnaissance", 6_000), AttackBlob("DoS", 4_000)), d=1, seed=2
        )
        table = synthesize_dataset(spec)
        tracemalloc.start()
        try:
            counts, attack_names = table.class_counts, table.attack_names
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert dict(zip(table.class_names, counts)) == {"Benign": 30_000, "Reconnaissance": 6_000, "DoS": 4_000}
        assert attack_names == ("Reconnaissance", "DoS")
        # counts from a fixed-width unicode copy of the class column and a sort of it peaked at about 24x here
        assert peak <= 3 * table.class_codes.nbytes


class TestSummarize:
    def test_numeric_stats(self):
        table = make_table(
            [
                {"x": 2.0, "attack_class": "Benign", "label": 0},
                {"x": 4.0, "attack_class": "A", "label": 1},
                {"x": 6.0, "attack_class": "A", "label": 1},
            ]
        )
        s = summarize(table)
        assert s["numeric"]["x"]["min"] == 2.0
        assert s["numeric"]["x"]["max"] == 6.0
        assert s["numeric"]["x"]["mean"] == 4.0
        assert s["class_counts"] == {"Benign": 1, "A": 2}

    def test_min_and_max_keep_the_sign_of_zero(self):
        # a contiguous column of these values reduces to min -0.0, and the summary records that
        # zero min as 0.0, as a fitted range does
        values = np.zeros((9, 3))
        values[:, 2] = [-0.0] * 7 + [1.0, 0.0]
        s = summarize(feature_table(values, ("a", "b", "c")))
        assert (repr(s["numeric"]["c"]["min"]), repr(s["numeric"]["c"]["max"])) == ("0.0", "1.0")

    def test_cardinality_and_feature_count(self, small_table):
        s = summarize(small_table)
        assert s["cardinality"]["proto"] == 3
        assert s["cardinality"]["flow_id"] == 5
        assert s["n_feature_columns"] == 2  # dur + proto; identifier excluded

    def test_empty_table_cardinality_zero(self, small_table):
        empty = small_table.take(np.array([], dtype=np.int64))
        s = summarize(empty)
        assert s["cardinality"]["proto"] == 0
        assert s["row_count"] == 0

    @pytest.mark.parametrize(
        "rows",
        [
            [],  # empty table
            [("x1", "tcp", "Benign"), ("x2", "tcp", "Benign")],  # one class
            # ties: equal class counts in an order unlike the sorted names, repeated identifiers
            [("b", "udp", "Worms"), ("a", "tcp", "Dos"), ("a", "icmp", "Benign"), ("c", "tcp", "Dos"),
             ("b", "udp", "Worms"), ("d", "tcp", "Benign")],
            [("x1", "tcp", "Dos"), ("x2", "udp", "Worms"), ("x3", "tcp", "Dos")],  # no benign rows
        ],
        ids=["empty", "one-class", "ties", "no-benign"],
    )
    def test_counts_match_unique_oracle(self, small_table, rows):
        cells = [
            {"flow_id": f, "dur": 1.0, "proto": p, "attack_class": c, "label": int(c != "Benign")} for f, p, c in rows
        ]
        table = make_table(cells, schema=small_table.schema)
        s = summarize(table)
        columns = {name: [row[name] for row in cells] for name in table.schema.names}
        class_counts, cardinality = unique_summary_counts(table.schema, columns)
        assert list(s["class_counts"].items()) == list(class_counts.items())
        assert s["cardinality"] == cardinality

    def test_peak_memory_without_fixed_width_copies(self):
        spec = SyntheticSpec(
            n_benign=30_000, attacks=(AttackBlob("Reconnaissance", 6_000), AttackBlob("DoS", 4_000)), d=1, seed=2
        )
        table = synthesize_dataset(spec)  # flow_id is a distinct 12-character string per row
        tracemalloc.start()
        try:
            s = summarize(table)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert s["cardinality"] == {"flow_id": 40_000}
        # a set of the 40k identifiers peaks at about 66 bytes per row; a fixed-width
        # unicode copy of the column and its sorted copy peaked at about 170
        assert peak <= 100 * table.row_count


def test_label_consistency_assertable_over_all_rows(small_table):
    # the label is not held: a row's label is its class code != 0, and code 0 is the benign name
    assert small_table.class_names[0] == small_table.benign_name
    derived = (small_table.attack_classes != small_table.benign_name).astype(int)
    assert np.array_equal((small_table.class_codes != 0).astype(int), derived)
    with pytest.raises(DataError, match=r"^binary label disagrees with attack class at row 1: label=0, class='Dos'"):
        make_table([{"x": 0.0, "attack_class": "Benign", "label": 0}, {"x": 1.0, "attack_class": "Dos", "label": 0}])


MIXED_COLUMNS = FeatureSchema(
    (
        Column("flow_id", ColumnKind.IDENTIFIER),
        Column("dur", ColumnKind.NUMERIC),
        Column("proto", ColumnKind.CATEGORICAL),
        Column("attack_class", ColumnKind.ATTACK_CLASS),
        Column("label", ColumnKind.BINARY_LABEL),
    )
)


class TestConstructor:
    """`FlowTable` takes the coded form and checks only its shapes, naming what is wrong."""

    def parts(self, n=3):
        features = np.zeros((n, 2), order="F")
        return {"features": features, "categories": {"proto": np.array(["tcp"])},
                "class_codes": np.zeros(n, dtype=np.intp), "class_names": ("Benign",),
                "identifiers": {"flow_id": np.array(["a"] * n, dtype=object)}}

    def test_the_coded_form_is_taken_as_it_is(self):
        parts = self.parts()
        table = FlowTable(MIXED_COLUMNS, "Benign", **parts)
        assert table.features is parts["features"] and table.identifiers is parts["identifiers"]
        assert table.row_count == 3 and table.dropped_rows == 0

    @pytest.mark.parametrize("shape", [(3, 3), (3, 1), (6,)])
    def test_a_block_of_the_wrong_shape(self, shape):
        parts = {**self.parts(), "features": np.zeros(shape)}
        with pytest.raises(DataError, match=rf"^feature block has shape {re.escape(str(shape))}, expected \(rows, 2\)"):
            FlowTable(MIXED_COLUMNS, "Benign", **parts)

    def test_a_categorical_feature_with_no_categories(self):
        parts = {**self.parts(), "categories": {}}
        with pytest.raises(DataError, match=r"^categorical feature 'proto' has no categories"):
            FlowTable(MIXED_COLUMNS, "Benign", **parts)

    def test_an_identifier_column_of_the_wrong_length(self):
        parts = {**self.parts(), "identifiers": {"flow_id": np.array(["a", "b"], dtype=object)}}
        with pytest.raises(DataError, match=r"^'flow_id' has 2 cells, expected 3, one per row of the feature block"):
            FlowTable(MIXED_COLUMNS, "Benign", **parts)

    def test_class_codes_of_the_wrong_length(self):
        parts = {**self.parts(), "class_codes": np.zeros(4, dtype=np.intp)}
        with pytest.raises(DataError, match=r"^'class_codes' has 4 cells, expected 3, one per row of the feature block"):
            FlowTable(MIXED_COLUMNS, "Benign", **parts)


class TestTableFromColumns:
    """`table_from_columns` codes columns of strings and numbers, and checks their cells."""

    COLUMNS = {
        "flow_id": ["a", "b", "c", "d"],
        "dur": [1.5, 2.0, 0.5, 4.0],
        "proto": ["udp", "tcp", "udp", "icmp"],
        "attack_class": ["Dos", "Benign", "Worms", "Dos"],
        "label": [1, 0, 1, 1],
    }

    def test_categories_indexed_and_classes_coded(self):
        table = table_from_columns(MIXED_COLUMNS, "Benign", self.COLUMNS)
        assert table.categories["proto"].tolist() == ["icmp", "tcp", "udp"]
        assert table.features.tolist() == [[1.5, 2.0], [2.0, 1.0], [0.5, 2.0], [4.0, 0.0]]
        assert table.features.strides[0] == table.features.itemsize
        assert table.class_names == ("Benign", "Dos", "Worms")
        assert table.class_codes.tolist() == [1, 0, 2, 1]
        assert table.identifiers["flow_id"].dtype == object
        assert table.identifiers["flow_id"].tolist() == ["a", "b", "c", "d"]

    def test_identifiers_and_label_may_be_left_out(self):
        columns = {k: v for k, v in self.COLUMNS.items() if k not in ("flow_id", "label")}
        table, full = (table_from_columns(MIXED_COLUMNS, "Benign", c) for c in (columns, self.COLUMNS))
        assert table.identifiers == {}
        assert np.array_equal(table.features, full.features) and np.array_equal(table.class_codes, full.class_codes)

    @pytest.mark.parametrize("name", ["dur", "proto", "attack_class"])
    def test_a_missing_column(self, name):
        columns = {k: v for k, v in self.COLUMNS.items() if k != name}
        with pytest.raises(DataError, match=rf"^table is missing column '{name}'"):
            table_from_columns(MIXED_COLUMNS, "Benign", columns)

    @pytest.mark.parametrize("name", ["flow_id", "dur", "proto", "label"])
    def test_a_column_of_the_wrong_length(self, name):
        columns = {**self.COLUMNS, name: self.COLUMNS[name][:3]}
        with pytest.raises(DataError, match=rf"^column '{name}' has 3 cells, expected 4"):
            table_from_columns(MIXED_COLUMNS, "Benign", columns)

    def test_a_label_that_disagrees_with_the_class(self):
        columns = {**self.COLUMNS, "label": [1, 0, 0, 1]}
        with pytest.raises(DataError, match=r"^binary label disagrees with attack class at row 2: label=0, class='Worms'"):
            table_from_columns(MIXED_COLUMNS, "Benign", columns)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_a_numeric_cell_that_is_not_finite(self, value):
        columns = {**self.COLUMNS, "dur": [1.5, 2.0, 0.5, value]}
        with pytest.raises(DataError, match=r"^non-finite value in column 'dur' at row 3"):
            table_from_columns(MIXED_COLUMNS, "Benign", columns)


class TestLoadLineNumbers:
    @pytest.mark.parametrize(
        "lines, expect",
        [
            (["dur,label,attack_class", "1.0,0,Benign", "", "", "2.0,1,dos", "abc,1,dos"], r"^line 6: .*'abc'"),
            (["dur,label,attack_class", "1.0,0,Benign", '2.0,1,"d', 'os"', "abc,1,dos"], r"^line 5: .*'abc'"),
            (["dur,label,attack_class", "1.0,0,Benign", 'abc,1,"d', 'os"', "2.0,1,dos"], r"^line 4: .*'abc'"),
            (["dur,label,attack_class", "1.0,0,Benign", '2.0,1,"d', 'os"', "3.0,1"], r"^row at line 5 has 2 cells"),
        ],
        ids=["blank-lines", "quoted-newline", "multiline-bad-row", "quoted-newline-width"],
    )
    def test_error_names_the_file_line(self, tmp_path, lines, expect):
        p = tmp_path / "t.csv"
        write_lines(p, lines)
        with pytest.raises(DataError, match=expect):
            load_csv(p, schema_3col(), "Benign")

    def test_first_bad_line_wins_whatever_its_kind(self, tmp_path):
        p = tmp_path / "t.csv"
        write_lines(p, ["dur,label,attack_class", "1.0,0,Benign", "abc,1,dos", "2.0,1"])
        with pytest.raises(DataError, match=r"^line 3: .*'abc'"):
            load_csv(p, schema_3col(), "Benign")
        # dropping the bad cell's row leaves the short row, which no policy can repair
        with pytest.raises(DataError, match=r"^row at line 4 has 2 cells"):
            load_csv(p, schema_3col(), "Benign", on_bad_row="drop")


class TestLoadLineEnds:
    """The feature block is sized from the file's line ends; every row lands in it whatever they are."""

    ROWS = [(1.5, "Benign"), (2.5, "dos"), (0.25, "Benign")]

    def expected(self, schema):
        return make_table(
            [{"dur": d, "attack_class": c, "label": int(c != "Benign")} for d, c in self.ROWS], schema=schema
        )

    @pytest.mark.parametrize(
        "newline, trailing",
        [("\n", True), ("\r\n", True), ("\r", True), ("\n", False), ("\r\n", False), ("\r", False)],
        ids=["lf", "crlf", "cr", "lf-no-final", "crlf-no-final", "cr-no-final"],
    )
    def test_rows_load_whatever_the_line_ends(self, tmp_path, newline, trailing):
        lines = ["dur,attack_class,label"] + [f"{d!r},{c},{int(c != 'Benign')}" for d, c in self.ROWS]
        p = tmp_path / "t.csv"
        p.write_bytes((newline.join(lines) + (newline if trailing else "")).encode())
        table = load_csv(p, schema_3col(), "Benign")
        assert tables_equal(table, self.expected(table.schema))
        assert table.features.shape == (3, 1)

    def test_quoted_line_ends_and_blank_lines_only_overcount(self, tmp_path):
        p = tmp_path / "t.csv"
        write_lines(p, ["dur,attack_class,label", "", '1.5,"Ben', 'ign",1', "", "", "2.5,Benign,0", ""])
        table = load_csv(p, schema_3col(), "Benign")
        assert table.attack_classes.tolist() == ["Ben\nign", "Benign"]
        assert column(table, "dur").tolist() == [1.5, 2.5]
        assert table.features.shape == (2, 1)

    @pytest.mark.parametrize(
        "content, ends",
        [
            (b"", 0),
            (b"a\nb\n", 2),
            (b"a\r\nb\r\n", 2),
            (b"a\rb\r", 2),
            (b"a\r\nb\rc\n\n", 4),
            (b"a\nb", 1),
            # a "\r\n" split between two reads is one line end
            (b"x" * (flowdata._COUNT_BYTES - 1) + b"\r\ny\n", 2),
            (b"x" * (flowdata._COUNT_BYTES - 1) + b"\r\ry\n", 3),
        ],
        ids=["empty", "lf", "crlf", "cr", "mixed", "no-final", "crlf-split", "cr-cr-split"],
    )
    def test_bound_is_the_line_ends_plus_one(self, tmp_path, content, ends):
        p = tmp_path / "t.csv"
        p.write_bytes(content)
        assert flowdata._line_end_bound(p) == ends + 1


class TestCategoryIndices:
    def test_same_as_unique_over_the_str_copy(self):
        col = np.array(["udp", 1, "1.0", 1.0, True, "tcp", 2, "udp", "10"], dtype=object)
        categories, index = flowdata._category_indices(col)
        expect_categories, expect_index = np.unique(col.astype(str), return_inverse=True)
        assert categories.dtype.kind == "U"
        assert categories.tolist() == expect_categories.tolist()
        assert index.tolist() == expect_index.tolist()

    def test_table_block_holds_the_indices(self, small_table):
        j = small_table.schema.feature_names.index("proto")
        assert small_table.categories["proto"].tolist() == ["icmp", "tcp", "udp"]
        assert small_table.features[:, j].tolist() == [1.0, 2.0, 1.0, 0.0, 1.0]

    def test_taken_rows_index_their_own_values(self, small_table):
        taken = small_table.take(np.array([3, 1]))
        j = small_table.schema.feature_names.index("proto")
        assert taken.categories["proto"].tolist() == ["icmp", "udp"]
        assert taken.features[:, j].tolist() == [0.0, 1.0]
        assert column(taken, "dur").tolist() == [4.0, 2.0]


def assert_feature_major(table: FlowTable) -> None:
    """Each column of the table's block is contiguous."""
    assert table.features.strides[0] == table.features.itemsize


class TestFeatureMajorLayout:
    """Every way a table is built gives it a feature-major block. Not `f_contiguous`: the
    loader's block is a view of a larger allocation."""

    SCHEMA = FeatureSchema(
        (
            Column("dur", ColumnKind.NUMERIC),
            Column("proto", ColumnKind.CATEGORICAL),
            Column("bytes", ColumnKind.NUMERIC),
            Column("attack_class", ColumnKind.ATTACK_CLASS),
            Column("label", ColumnKind.BINARY_LABEL),
        )
    )
    LINES = ["dur,proto,bytes,attack_class,label", "1.5,tcp,10,Benign,0", "2.5,udp,20,Dos,1", "3.5,tcp,30,Dos,1"]

    def test_load_csv(self, tmp_path):
        p = tmp_path / "t.csv"
        write_lines(p, self.LINES)
        table = load_csv(p, self.SCHEMA, "Benign")
        assert_feature_major(table)
        assert column(table, "bytes").tolist() == [10.0, 20.0, 30.0]

    def test_load_csv_dropping_a_row(self, tmp_path):
        p = tmp_path / "t.csv"
        write_lines(p, [*self.LINES[:2], "oops,udp,20,Dos,1", *self.LINES[3:]])
        table = load_csv(p, self.SCHEMA, "Benign", on_bad_row="drop")
        assert table.dropped_rows == 1
        assert_feature_major(table)
        assert column(table, "dur").tolist() == [1.5, 3.5]
        assert column(table, "bytes").tolist() == [10.0, 30.0]

    def test_built_from_data(self, small_table):
        assert_feature_major(small_table)

    def test_given_a_row_major_block(self):
        values = np.arange(12.0).reshape(4, 3)
        table = feature_table(values, ("a", "b", "c"))
        assert_feature_major(table)
        assert table.features.tolist() == values.tolist()

    def test_take_and_subsample(self, small_table):
        taken = small_table.take(np.array([4, 0, 3, 0]))
        assert_feature_major(taken)
        assert column(taken, "dur").tolist() == [5.0, 1.0, 4.0, 1.0]
        assert_feature_major(subsample_rows(small_table, 3, seed=1))

    def test_take_holds_the_rows_once(self):
        # the block is filled a column at a time; a row-major gather converted to the
        # feature-major layout would hold the taken rows twice
        table = feature_table(np.random.default_rng(2).normal(size=(40_000, 20)), tuple(f"x{k}" for k in range(20)))
        half = np.arange(0, 40_000, 2)
        tracemalloc.start()
        try:
            taken = table.take(half)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * taken.features.nbytes


class TestTakeAgainstLoad:
    """A taken or subsampled table equals the table loaded from a CSV of its rows' own cells."""

    SCHEMA = FeatureSchema(
        (
            Column("flow_id", ColumnKind.IDENTIFIER),
            Column("proto", ColumnKind.CATEGORICAL),
            Column("dur", ColumnKind.NUMERIC),
            Column("service", ColumnKind.CATEGORICAL),
            Column("attack_class", ColumnKind.ATTACK_CLASS),
            Column("label", ColumnKind.BINARY_LABEL),
        )
    )

    @staticmethod
    def rows():
        rng = np.random.default_rng(4)
        # the table meets dos before scan; the reversed rows meet scan first
        protos, services = ("tcp", "udp", "icmp", "gre"), ("10", "9", "dns", "", "http")
        classes = ("Benign", "dos", "scan")
        return [
            {"flow_id": str(i), "proto": protos[rng.integers(4)], "dur": float(rng.normal()),
             "service": services[rng.integers(5)], "attack_class": classes[i % 3], "label": int(i % 3 > 0)}
            for i in range(40)
        ]

    def loaded(self, tmp_path, rows) -> FlowTable:
        path = tmp_path / "subset.csv"
        names = self.SCHEMA.names
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(names)
            writer.writerows([repr(r[n]) if n == "dur" else r[n] for n in names] for r in rows)
        return load_csv(path, self.SCHEMA, "Benign", keep_identifiers=True)

    def assert_same(self, table, loaded):
        assert table.features.tobytes() == loaded.features.tobytes()
        assert tables_equal(table, loaded)  # the categories, the class codes and the other columns

    @pytest.mark.parametrize(
        "keep", [[5, 3, 3, 0, 39], [1, 1], list(range(40))[::-1], []], ids=["unsorted", "repeated", "reversed", "empty"]
    )
    def test_take(self, tmp_path, keep):
        rows = self.rows()
        taken = make_table(rows, schema=self.SCHEMA).take(np.array(keep, dtype=np.int64))
        self.assert_same(taken, self.loaded(tmp_path, [rows[i] for i in keep]))

    @pytest.mark.parametrize("cap", [1, 7, 25])
    def test_subsample(self, tmp_path, cap):
        rows = self.rows()
        sub = subsample_rows(make_table(rows, schema=self.SCHEMA), cap, seed=cap)
        keep = [int(i) for i in sub.identifiers["flow_id"]]
        assert len(keep) == cap
        self.assert_same(sub, self.loaded(tmp_path, [rows[i] for i in keep]))


class TestLoadChunks:
    """Files longer than one parse chunk: rows, errors and drops across chunk boundaries."""

    def rows(self, n):
        return [(float(i), "Benign" if i % 3 else "dos") for i in range(n)]

    def write(self, path, rows, bad):
        lines = ["dur,label,attack_class"]
        for i, (dur, cls) in enumerate(rows):
            lines.append(f"{'oops' if i in bad else repr(dur)},{int(cls != 'Benign')},{cls}")
        write_lines(path, lines)

    def test_drop_across_chunks(self, tmp_path):
        n = 2 * flowdata._CHUNK_ROWS + 3
        bad = {0, flowdata._CHUNK_ROWS - 1, flowdata._CHUNK_ROWS, n - 1}
        rows = self.rows(n)
        p = tmp_path / "t.csv"
        self.write(p, rows, bad)
        table = load_csv(p, schema_3col(), "Benign", on_bad_row="drop")
        good = [r for i, r in enumerate(rows) if i not in bad]
        expect = make_table(
            [{"dur": d, "attack_class": c, "label": int(c != "Benign")} for d, c in good], schema=table.schema
        )
        assert table.dropped_rows == len(bad)
        assert tables_equal(table, expect)
        assert table.features.shape == (len(good), 1)
        assert table.class_codes.dtype == np.intp

    @pytest.mark.parametrize("chunk_rows", [2, flowdata._CHUNK_ROWS], ids=["second-chunk", "one-chunk"])
    @pytest.mark.parametrize("bad", ["oops,X,1", "nan,X,1", "1.0,X,0"], ids=["unparseable", "nan", "label"])
    def test_a_dropped_row_codes_no_class(self, tmp_path, chunk_rows, bad):
        # X's first row is dropped and Y comes before X's next row; the chunk that holds
        # them falls back to the csv path, the second of 2-row chunks or the only chunk
        p = tmp_path / "t.csv"
        write_lines(p, ["dur,attack_class,label", "1.0,Benign,0", "2.0,Benign,0", bad, "3.0,Y,1", "4.0,X,1"])
        with mock.patch.object(flowdata, "_CHUNK_ROWS", chunk_rows):
            table = load_csv(p, schema_3col(), "Benign", on_bad_row="drop")
        assert table.dropped_rows == 1
        assert table.attack_names == ("Y", "X")
        assert table.class_codes.tolist() == [0, 0, 1, 2]

    @pytest.mark.parametrize("keep", [[0, 2, 3], []], ids=["rows", "no-rows"])
    def test_take_keeps_dropped_rows(self, tmp_path, keep):
        # the count is the loader's, so a subsample of the table still reports it
        p = tmp_path / "t.csv"
        write_lines(p, ["dur,attack_class,label", "1.0,Benign,0", "oops,X,1", "2.0,X,1", "3.0,Y,1", "4.0,Benign,0"])
        table = load_csv(p, schema_3col(), "Benign", on_bad_row="drop")
        assert table.dropped_rows == 1
        assert table.take(np.array(keep, dtype=np.int64)).dropped_rows == 1
        assert subsample_rows(table, 2, seed=0).dropped_rows == 1

    def test_abort_names_a_line_in_a_later_chunk(self, tmp_path):
        n = 2 * flowdata._CHUNK_ROWS + 3
        p = tmp_path / "t.csv"
        self.write(p, self.rows(n), {flowdata._CHUNK_ROWS + 5, n - 1})
        with pytest.raises(DataError, match=rf"^line {flowdata._CHUNK_ROWS + 7}: .*'oops'"):
            load_csv(p, schema_3col(), "Benign")


# a file of every column kind, its columns not in schema order
MIXED = FeatureSchema(
    (
        Column("flow_id", ColumnKind.IDENTIFIER),
        Column("dur", ColumnKind.NUMERIC),
        Column("proto", ColumnKind.CATEGORICAL),
        Column("bytes", ColumnKind.NUMERIC),
        Column("label", ColumnKind.BINARY_LABEL),
        Column("attack_class", ColumnKind.ATTACK_CLASS),
    )
)
MIXED_HEADER = "dur,flow_id,label,proto,attack_class,bytes"
# numeric cells: what both readers take, then what one of them turns down or reads as non-finite
GOOD_NUMBERS = ("0", "1.5", "-2", "1e3", "7", " 4.5 ", '"2.5"', "+.5", "1.", "-0", "1E-2")
BAD_NUMBERS = ("nan", "inf", "-Infinity", "1_5", "\u0661\u0662", "", "abc", "1e500", "0x10", " ", "1.5e", '"2\n"')
# raw class cell -> the class it names
CLASSES = {
    "Benign": "Benign", "dos": "dos", '"d,os"': "d,os", '"Ben""ign"': 'Ben"ign', '"x\ny"': "x\ny",
    'a"b': 'a"b', '"ab"c': "abc", " Benign": " Benign", '"Benign"': "Benign", "sc\x00an": "sc\x00an",
}
IDENTIFIERS = ("10.0.0.1", '"a,b"', '"multi\nline"', "", '"q""q"')


@st.composite
def mixed_rows(draw) -> str:
    """One row of a MIXED file, sometimes with a fault: a bad cell, label or width, or a blank line."""
    if draw(st.integers(0, 11)) == 0:
        return ""
    fault = draw(st.integers(0, 15))
    cls = draw(st.sampled_from(sorted(CLASSES)))
    label = str(int(CLASSES[cls] != "Benign"))
    numbers = st.sampled_from(BAD_NUMBERS if fault == 0 else GOOD_NUMBERS) | st.floats(
        allow_nan=False, allow_infinity=False
    ).map(repr)
    if fault == 1:
        label = draw(st.sampled_from(("2", "", "yes", "1" if label == "0" else "0")))
    elif draw(st.booleans()):
        label = draw(st.sampled_from((f" {label} ", f'"{label}"', f"{label} ")))
    cells = {
        "dur": draw(numbers), "flow_id": draw(st.sampled_from(IDENTIFIERS)), "label": label,
        "proto": draw(st.sampled_from(("tcp", "udp", '"i,cmp"'))), "attack_class": cls,
        "bytes": draw(numbers),
    }
    row = [cells[name] for name in MIXED_HEADER.split(",")]
    if fault == 2:
        row = row[:-1] if draw(st.booleans()) else row + ["x"]
    return ",".join(row)


@st.composite
def mixed_files(draw) -> bytes:
    newline = draw(st.sampled_from(("\n", "\r\n", "\r")))
    lines = [MIXED_HEADER] + draw(st.lists(mixed_rows(), max_size=14))
    return (newline.join(lines) + (newline if draw(st.booleans()) else "")).encode()


def _outcome(load, path, **kwargs):
    """What `load` returns on a MIXED file, or its DataError message."""
    try:
        return load(path, MIXED, "Benign", **kwargs)
    except DataError as exc:
        return str(exc)


def _loaded(table) -> tuple:
    """A loaded table as plain values: its block's bytes, its other columns, its categories and its drops."""
    strings = {name: (col.dtype, col.tolist()) for name, col in table.identifiers.items()}
    categories = {name: col.tolist() for name, col in table.categories.items()}
    return table.features.tobytes(), strings, categories, table.dropped_rows


def _parsed(cells, dropped) -> tuple:
    """The oracle's cells as `_loaded` puts a table: each categorical column indexed by `np.unique` over its strings."""
    block, categories = [], {}
    for name in MIXED.feature_names:
        if name in MIXED.categorical_names:
            uniq, index = np.unique(cells[name].astype(str), return_inverse=True)
            categories[name] = uniq.tolist()
            block.append(index.astype(np.float64))
        else:
            block.append(cells[name])
    held = (*MIXED.feature_names, MIXED.label_column, MIXED.attack_class_column)
    strings = {name: (col.dtype, col.tolist()) for name, col in cells.items() if name not in held}
    return np.column_stack(block).tobytes(), strings, categories, dropped


def assert_same_as_oracle(path, keep_identifiers=False):
    for on_bad_row in ("abort", "drop"):
        kwargs = {"on_bad_row": on_bad_row, "keep_identifiers": keep_identifiers}
        table, parsed = _outcome(load_csv, path, **kwargs), _outcome(row_at_a_time_load_csv, path, **kwargs)
        if isinstance(table, str) or isinstance(parsed, str):
            assert table == parsed
            continue
        assert _loaded(table) == _parsed(*parsed)
        # the categorical column is held once, as the block's indices into its categories
        cells, _ = parsed
        index = table.features[:, MIXED.feature_names.index("proto")].astype(np.intp)
        assert table.categories["proto"][index].tolist() == cells["proto"].tolist()
        # the class is held once, as codes into the names in order of first appearance, and the label not at all
        classes = cells["attack_class"].tolist()
        assert table.class_names == tuple(dict.fromkeys(["Benign", *classes]))
        assert [table.class_names[c] for c in table.class_codes] == classes
        assert (table.class_codes != 0).tolist() == (cells["label"] == 1).tolist()


class TestLoadAgainstOracle:
    """The loader against the row-at-a-time csv loader, on files that take the csv path at any chunk."""

    @pytest.mark.parametrize("chunk_rows", [2, 3])
    @given(content=mixed_files(), keep_identifiers=st.booleans())
    # an unterminated quote reads to the end of the file, in either reader
    @example(content=f'{MIXED_HEADER}\n1,a,0,tcp,Benign,2\n1,"open,0,tcp,Benign,2\n3,b,1,tcp,dos,4\n'.encode(),
             keep_identifiers=True)
    @settings(max_examples=150, deadline=None)
    def test_same_table_error_and_drops(self, tmp_path_factory, chunk_rows, content, keep_identifiers):
        path = tmp_path_factory.getbasetemp() / "mixed.csv"
        path.write_bytes(content)
        with mock.patch.object(flowdata, "_CHUNK_ROWS", chunk_rows):
            assert_same_as_oracle(path, keep_identifiers)

    @pytest.mark.parametrize("chunk_rows", [2, 3])
    @pytest.mark.parametrize(
        "late",
        ["nan,id6,1,tcp,dos,6", "6.5,id6,2,tcp,dos,6", "6.5,id6,1,tcp,dos", "1_5,id6,1,tcp,dos,6"],
        ids=["nan", "label", "width", "csv-only-number"],
    )
    def test_quoted_newline_across_a_chunk_end_then_a_late_row(self, tmp_path, chunk_rows, late):
        rows = [f"{i}.5,id{i},1,tcp,dos,{i}" for i in range(8)]
        rows[1] = '1.5,"multi\nline id",1,"t\ncp","Ben\nign",2'
        rows[chunk_rows] = '9.5,"x\n\ny",1,"u,dp",dos,3'  # the first row of the second chunk
        rows[6] = late  # in the third chunk of 2 rows, or the third row of the second of 3
        path = tmp_path / "t.csv"
        write_lines(path, [MIXED_HEADER] + rows)
        with mock.patch.object(flowdata, "_CHUNK_ROWS", chunk_rows):
            assert_same_as_oracle(path)
            assert_same_as_oracle(path, keep_identifiers=True)
            if late.startswith("1_5"):
                assert column(load_csv(path, MIXED, "Benign"), "dur")[6] == 15.0
                return
            line = 1 + sum(row.count("\n") + 1 for row in rows[:7])
            with pytest.raises(DataError, match=rf"^(row at )?line {line}\b"):
                load_csv(path, MIXED, "Benign")

    def test_clean_file_never_takes_the_csv_path(self, tmp_path):
        rows = [f"{i}.25,id{i},{int(i % 3 > 0)},tcp,{'dos' if i % 3 else 'Benign'},{i}" for i in range(9)]
        rows[2] = '2.25,"a,""b""\r\nc",1,"u\ndp",dos,2'
        rows[5] = ""
        path = tmp_path / "t.csv"
        path.write_bytes(("\r\n".join([MIXED_HEADER] + rows) + "\r\n").encode())
        with mock.patch.object(flowdata, "_CHUNK_ROWS", 2):
            with mock.patch.object(flowdata, "_parse_numeric_column", side_effect=AssertionError("csv path")) as csv_path:
                table = load_csv(path, MIXED, "Benign", keep_identifiers=True)
                assert table.row_count == 8 and csv_path.call_count == 0
                proto = table.categories["proto"][int(table.features[2, MIXED.feature_names.index("proto")])]
                assert table.identifiers["flow_id"][2] == 'a,"b"\r\nc' and proto == "u\ndp"
                path.write_bytes(path.read_bytes().replace(b"7.25", b"nan"))
                with pytest.raises(AssertionError, match="csv path"):
                    load_csv(path, MIXED, "Benign")
            assert_same_as_oracle(path)

    def test_a_chunk_that_falls_back_falls_back_alone(self, tmp_path):
        # 4 chunks of 2 rows; the one bad cell is in chunk 2, and only that chunk is parsed by the csv path
        rows = [f"{i}.5,id{i},{int(i % 3 > 0)},tcp,{'dos' if i % 3 else 'Benign'},{i}" for i in range(8)]
        clean, bad = tmp_path / "clean.csv", tmp_path / "bad.csv"
        write_lines(clean, [MIXED_HEADER] + rows[:3] + rows[4:])
        write_lines(bad, [MIXED_HEADER] + rows[:3] + [rows[3].replace("3.5", "nan")] + rows[4:])
        parse = flowdata._parse_numeric_column
        with mock.patch.object(flowdata, "_CHUNK_ROWS", 2):
            with mock.patch.object(flowdata, "_parse_numeric_column", wraps=parse) as csv_path:
                table = load_csv(bad, MIXED, "Benign", on_bad_row="drop")
            assert [(len(c.args[0]), c.args[1]) for c in csv_path.call_args_list] == [(2, "dur"), (2, "bytes")]
            assert table.dropped_rows == 1
            assert _loaded(table)[:3] == _loaded(load_csv(clean, MIXED, "Benign"))[:3]
            assert_same_as_oracle(bad)

    @pytest.mark.parametrize("policy", ["abort", "drop"])
    def test_file_lines_are_counted_past_a_chunk_that_fell_back(self, tmp_path, policy):
        # chunk 2 falls back and spans an extra line; a row of the wrong width in chunk 4 is named by its line
        rows = [f"{i}.5,id{i},1,tcp,dos,{i}" for i in range(8)]
        rows[2] = '2.5,"two\nlines",1,tcp,dos,1_5'  # a number only the csv path reads
        rows[7] = "7.5,id7,1,tcp,dos"
        path = tmp_path / "t.csv"
        write_lines(path, [MIXED_HEADER] + rows)
        with mock.patch.object(flowdata, "_CHUNK_ROWS", 2):
            with pytest.raises(DataError, match=r"^row at line 10 has 5 cells"):
                load_csv(path, MIXED, "Benign", on_bad_row=policy)
            assert_same_as_oracle(path)

    def test_a_byte_order_mark_is_not_part_of_the_header(self, tmp_path):
        rows = [f"{i}.5,id{i},{int(i % 2)},tcp,{'dos' if i % 2 else 'Benign'},{i}" for i in range(5)]
        plain, marked = tmp_path / "plain.csv", tmp_path / "bom.csv"
        write_lines(plain, [MIXED_HEADER] + rows)
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        for keep_identifiers in (False, True):
            table = load_csv(marked, MIXED, "Benign", keep_identifiers=keep_identifiers)
            assert _loaded(table) == _loaded(load_csv(plain, MIXED, "Benign", keep_identifiers=keep_identifiers))
            assert table.row_count == 5
        assert_same_as_oracle(marked)


def _table_bytes(table) -> int:
    """Array bytes, the class codes' included, plus each distinct string object the object arrays point to."""
    strings = {id(s): s for col in table.identifiers.values() for s in col}
    arrays = table.features.nbytes + sum(col.nbytes for col in table.identifiers.values()) + table.class_codes.nbytes
    return arrays + sum(sys.getsizeof(s) for s in strings.values())


def test_load_peak_memory_is_near_the_table(tmp_path):
    spec = SyntheticSpec(
        n_benign=14_000, attacks=(AttackBlob("dos", 3_000), AttackBlob("scan", 3_000, shift=2.0)), d=40, seed=1
    )
    source = synthesize_dataset(spec)
    p = tmp_path / "wide.csv"
    write_csv(source, p)
    schema = source.schema
    del source
    tracemalloc.start()
    try:
        table = load_csv(p, schema, "Benign")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table.row_count == 20_000 and len(schema.names) == 43
    # a loader that held every cell as a string until the whole file was read peaked at 8.9x here
    assert peak <= 2.5 * _table_bytes(table)
