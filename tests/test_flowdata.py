from __future__ import annotations

import sys
import tracemalloc

import numpy as np
import pytest
from conftest import make_table, tables_equal
from oracle_impls import unique_summary_counts

from zdeval import flowdata
from zdeval.errors import DataError, SchemaError
from zdeval.flowdata import (
    Column,
    ColumnKind,
    FeatureSchema,
    build_catalog,
    infer_schema,
    load_csv,
    summarize,
    write_csv,
)
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
        assert table.labels.tolist() == [0, 1, 1]
        assert table.column("dur").tolist() == [1.5, 2.0, 0.5]

    def test_header_order_insensitive(self, tmp_path):
        p = tmp_path / "t.csv"
        write_lines(p, ["label,dur,attack_class", "0,1.5,Benign", "1,2.0,Dos"])
        table = load_csv(p, schema_3col(), "Benign")
        assert table.column("dur").tolist() == [1.5, 2.0]

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
        assert [col.dtype for col in table.data.values()] == [np.float64, np.int64, object]

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
        assert table.labels.tolist() == [0, 1]

    def test_scientific_notation_and_dot_decimal(self, tmp_path):
        p = tmp_path / "t.csv"
        write_lines(p, ["dur,attack_class,label", "1e-3,Benign,0", "2.75,Dos,1"])
        table = load_csv(p, schema_3col(), "Benign")
        assert table.column("dur").tolist() == [0.001, 2.75]


class TestRoundTrip:
    def test_write_then_load_identical(self, tmp_path, small_table):
        p = tmp_path / "rt.csv"
        write_csv(small_table, p)
        again = load_csv(p, small_table.schema, small_table.benign_name)
        assert tables_equal(small_table, again)

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
    def test_first_appearance_order(self):
        table = make_table(
            [
                {"x": 0.0, "attack_class": "Benign", "label": 0},
                {"x": 1.0, "attack_class": "A", "label": 1},
                {"x": 2.0, "attack_class": "B", "label": 1},
                {"x": 3.0, "attack_class": "A", "label": 1},
            ]
        )
        catalog = build_catalog(table)
        assert catalog.attack_names == ("A", "B")
        assert catalog.counts == {"Benign": 1, "A": 2, "B": 1}
        assert catalog.class_codes.tolist() == [0, 1, 2, 1]

    def test_counts_sum_to_rows(self, small_table):
        catalog = build_catalog(small_table)
        assert sum(catalog.counts.values()) == small_table.row_count

    def test_only_benign_rows_is_error(self):
        table = make_table([{"x": 0.0, "attack_class": "Benign", "label": 0}])
        with pytest.raises(DataError, match="no attack classes"):
            build_catalog(table)

    def test_no_benign_rows_allowed(self):
        table = make_table([{"x": 0.0, "attack_class": "A", "label": 1}])
        catalog = build_catalog(table)
        assert catalog.counts["Benign"] == 0
        assert catalog.attack_names == ("A",)

    def test_peak_memory_is_near_the_codes(self):
        spec = SyntheticSpec(
            n_benign=30_000, attacks=(AttackBlob("Reconnaissance", 6_000), AttackBlob("DoS", 4_000)), d=1, seed=2
        )
        table = synthesize_dataset(spec)
        tracemalloc.start()
        try:
            catalog = build_catalog(table)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert catalog.counts == {"Benign": 30_000, "Reconnaissance": 6_000, "DoS": 4_000}
        # a catalog built from a fixed-width unicode copy of the column and a sort of it peaked at about 24x here
        assert peak <= 3 * catalog.class_codes.nbytes


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
        assert s.numeric["x"].min == 2.0
        assert s.numeric["x"].max == 6.0
        assert s.numeric["x"].mean == 4.0
        assert s.class_counts == {"Benign": 1, "A": 2}

    def test_cardinality_and_feature_count(self, small_table):
        s = summarize(small_table)
        assert s.cardinality["proto"] == 3
        assert s.cardinality["flow_id"] == 5
        assert s.n_feature_columns == 2  # dur + proto; identifier excluded

    def test_empty_table_cardinality_zero(self, small_table):
        empty = small_table.take(np.array([], dtype=np.int64))
        s = summarize(empty)
        assert s.cardinality["proto"] == 0
        assert s.row_count == 0

    @pytest.mark.parametrize(
        "rows",
        [
            [],  # empty table
            [("x1", "tcp", "Benign"), ("x2", "tcp", "Benign")],  # one class
            # ties: equal class counts in an order unlike the sorted names, repeated identifiers
            [("b", "udp", "Worms"), ("a", "tcp", "Dos"), ("a", "icmp", "Benign"), ("c", "tcp", "Dos"),
             ("b", "udp", "Worms"), ("d", "tcp", "Benign")],
        ],
        ids=["empty", "one-class", "ties"],
    )
    def test_counts_match_unique_oracle(self, small_table, rows):
        if rows:
            table = make_table(
                [{"flow_id": f, "dur": 1.0, "proto": p, "attack_class": c, "label": int(c != "Benign")}
                 for f, p, c in rows]
            )
        else:
            table = small_table.take(np.array([], dtype=np.int64))
        s = summarize(table)
        class_counts, cardinality = unique_summary_counts(table)
        assert list(s.class_counts.items()) == list(class_counts.items())
        assert s.cardinality == cardinality

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
        assert s.cardinality == {"flow_id": 40_000}
        # a set of the 40k identifiers peaks at about 66 bytes per row; a fixed-width
        # unicode copy of the column and its sorted copy peaked at about 170
        assert peak <= 100 * table.row_count


class TestInferSchema:
    def test_kinds_guessed_for_review(self, tmp_path):
        p = tmp_path / "t.csv"
        write_lines(
            p,
            [
                "src_ip,dur,proto,attack_class,label",
                "10.0.0.1,1.5,tcp,Benign,0",
                "10.0.0.2,2.5,udp,Dos,1",
            ],
        )
        schema = infer_schema(p, "label", "attack_class")
        kinds = {c.name: c.kind for c in schema.columns}
        assert kinds["src_ip"] is ColumnKind.IDENTIFIER
        assert kinds["dur"] is ColumnKind.NUMERIC
        assert kinds["proto"] is ColumnKind.CATEGORICAL
        assert kinds["label"] is ColumnKind.BINARY_LABEL
        assert kinds["attack_class"] is ColumnKind.ATTACK_CLASS


def test_label_consistency_assertable_over_all_rows(small_table):
    derived = (small_table.attack_classes != small_table.benign_name).astype(int)
    assert np.array_equal(small_table.labels, derived)


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
        assert list(table.data) == ["dur", "label", "attack_class"]
        assert [col.dtype for col in table.data.values()] == [np.float64, np.int64, object]

    def test_abort_names_a_line_in_a_later_chunk(self, tmp_path):
        n = 2 * flowdata._CHUNK_ROWS + 3
        p = tmp_path / "t.csv"
        self.write(p, self.rows(n), {flowdata._CHUNK_ROWS + 5, n - 1})
        with pytest.raises(DataError, match=rf"^line {flowdata._CHUNK_ROWS + 7}: .*'oops'"):
            load_csv(p, schema_3col(), "Benign")


def _table_bytes(table) -> int:
    """Array bytes plus each distinct string object the object arrays point to."""
    strings = {id(s): s for col in table.data.values() if col.dtype == object for s in col}
    return sum(col.nbytes for col in table.data.values()) + sum(sys.getsizeof(s) for s in strings.values())


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
