from __future__ import annotations

import json
import tracemalloc

import numpy as np
import pytest
from conftest import column, feature_table, fit_rows, make_table, table_columns
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from oracle_impls import gathered_scenario_fit, string_pipeline

from zdeval import preprocess
from zdeval.errors import DataError
from zdeval.flowdata import Column, ColumnKind, FeatureSchema, summarize, table_from_columns
from zdeval.harness import subsample_rows
from zdeval.preprocess import FittedTransform, PrepCounters, preprocess_pipeline, transforms_to_json
from zdeval.synth import AttackBlob, SyntheticSpec, synthesize_dataset
from zdeval.zslsplit import Scenario, make_fold_plan, make_zero_day_scenarios, row_groups, scenario_rows, train_groups


def cat_table(values: list[str]):
    return make_table(
        [{"proto": v, "attack_class": "A" if i % 2 else "Benign", "label": 1 if i % 2 else 0}
         for i, v in enumerate(values)]
    )


def every_row(table: FlowTable) -> np.ndarray:
    return np.arange(table.row_count)


def fit(table, train_indices=None) -> tuple[FlowTable, FittedTransform]:
    return table, fit_rows(table, train_indices)


def coded(base: FlowTable, t: FittedTransform, rows: np.ndarray) -> np.ndarray:
    """The table's `rows` encoded by `t` but not scaled: each column of their block through `preprocess._coded`."""
    block = base.features[rows]
    return np.column_stack(
        [preprocess._coded(base, name, block[:, j], t.codes) for j, name in enumerate(base.feature_names)]
    )


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
        assert coded(base, t, every_row(base)).ravel().tolist() == [0.0, 1.0]
        assert t.apply(base, every_row(base)).ravel().tolist() == [0.0, 1.0]

    def test_unseen_reserve_code_flagged(self):
        base, t = fit(cat_table(["tcp", "udp", "icmp"]), np.array([0, 1]))
        assert coded(base, t, np.array([2])).ravel().tolist() == [2.0]
        assert t.counters.unseen == [("proto", "icmp", 2)]

    def test_empty_table_stays_empty(self):
        table = cat_table(["tcp", "udp"])
        assert table.take(np.array([], dtype=np.int64)).features.shape == (0, 1)
        base, t = fit(table)
        assert t.apply(base, np.array([], dtype=np.int64)).shape == (0, 1)

    def test_identifiers_are_not_features(self, small_table):
        assert small_table.feature_names == ("dur", "proto")
        assert small_table.features.shape == (5, 2)

    def test_base_matrix_is_the_tables_block(self, small_table):
        _, t = fit(small_table)
        assert small_table.features.strides[0] == small_table.features.itemsize  # each column contiguous
        rows = every_row(small_table)
        assert coded(small_table, t, rows)[:, 0].tobytes() == small_table.features[:, 0].tobytes()

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
            fit_rows(table)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a full-dataset fit reads the table's block in place; a copy of it is n x d float64
        assert peak < table.features.nbytes

    def test_labels_preserved_exactly(self, small_table):
        # the class is held as codes, and the label is the code != 0
        assert (small_table.class_codes != 0).astype(int).tolist() == [0, 1, 1, 1, 0]
        assert small_table.attack_classes.tolist() == ["Benign", "Dos", "Worms", "Dos", "Benign"]


class TestScaler:
    def matrix(self, column):
        return feature_table(column)

    def test_fit_min_max(self):
        t = fit_rows(self.matrix([2.0, 4.0, 6.0]))
        assert t.ranges["x"] == (2.0, 6.0)

    def test_constant_column(self):
        m = self.matrix([5.0, 5.0])
        t = fit_rows(m)
        assert t.ranges["x"] == (5.0, 5.0)
        assert t.apply(m, every_row(m)).tolist() == [[0.0], [0.0]]

    def test_single_row(self):
        t = fit_rows(self.matrix([7.0]))
        assert t.ranges["x"] == (7.0, 7.0)

    def test_apply_arithmetic(self):
        m = self.matrix([2.0, 4.0, 6.0])
        assert fit_rows(m).apply(m, every_row(m)).ravel().tolist() == [0.0, 0.5, 1.0]

    def test_range_wider_than_the_largest_float(self):
        # hi - lo overflows to inf, and (x - lo) / inf read 0 for 0 and nan for hi
        m = self.matrix([-1e308, 0.0, 1e308])
        assert fit_rows(m).apply(m, every_row(m)).ravel().tolist() == [0.0, 0.5, 1.0]
        t = fit_rows(m, np.array([0, 1]))  # the out-of-range row overflows to inf, then clamps to 1
        assert t.apply(m, every_row(m)).ravel().tolist() == [0.0, 1.0, 1.0]
        assert t.counters.clamped == {"x": 1}

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "lo, hi, value", [(0.0, 1e-10, 1e300), (-1e308, 0.0, 1.7e308)], ids=["divide", "subtract"]
    )
    def test_an_overflow_the_clamp_maps_into_range_does_not_warn(self, lo, hi, value):
        # (value - lo) / (hi - lo) overflows to inf in the divide or in the subtract: the fit
        # counts the clamp, and the read clamps the value to 1, neither with a numpy warning
        m = self.matrix([lo, hi, value])
        t = fit_rows(m, np.array([0, 1]))
        assert t.counters.clamped == {"x": 1}
        assert t.apply(m, every_row(m)).ravel().tolist() == [0.0, 1.0, 1.0]

    def test_out_of_range_clamped_and_counted(self):
        m = self.matrix([2.0, 6.0, 8.0, 0.0, 4.0])
        t = fit_rows(m, np.array([0, 1]))
        assert t.ranges["x"] == (2.0, 6.0)
        assert t.apply(m, every_row(m)).ravel().tolist() == [0.0, 1.0, 1.0, 0.0, 0.5]
        assert t.counters.clamped == {"x": 2}

    def test_column_mismatch_rejected(self):
        t = FittedTransform({}, {"y": (0.0, 1.0)}, {}, PrepCounters())
        with pytest.raises(ValueError, match="mismatch"):
            t.apply(self.matrix([1.0]), np.array([0]))

    def test_empty_matrix_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            fit_rows(self.matrix([]))

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=50))
    def test_range_property(self, column):
        m = self.matrix(column)
        out = fit_rows(m).apply(m, every_row(m))
        assert np.all(out >= 0.0)
        assert np.all(out <= 1.0)

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=50))
    def test_idempotence_property(self, column):
        m = self.matrix(column)
        once = self.matrix(fit_rows(m).apply(m, every_row(m)).ravel())
        twice = fit_rows(once).apply(once, every_row(once))
        assert np.max(np.abs(twice - once.features)) <= 1e-12


class TestPipeline:
    def test_full_dataset_scope(self, small_table):
        base, t = fit(small_table)
        values = t.apply(base, every_row(base))
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
        assert t.apply(base, every_row(base)).ravel().tolist() == [0.0, 1.0, 1.0]
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
        assert coded(base, t, every_row(base)).tobytes() == base.features.tobytes()

    def test_matrix_requires_encoding_first(self, small_table):
        # category indices are never passed on as values without an encoding
        base, t = fit(small_table)
        with pytest.raises(DataError, match="proto"):
            FittedTransform(t.mappings, t.ranges, {}, t.counters).apply(base, every_row(base))

    def test_shape_preservation(self, small_table):
        base, t = fit(small_table)
        rows = np.array([4, 0, 0, 2])
        values = t.apply(base, rows)
        assert values.shape == (4, len(base.feature_names))
        assert t.column(base, rows, 1, out=np.empty(4)).tobytes() == values[:, 1].tobytes()

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
        assert np.array_equal(r1.apply(base1, rows), r2.apply(base2, rows))
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
    table = table_from_columns(FeatureSchema(tuple(columns)), "Benign", data)
    # sorted, as a scenario's train rows are: a fit takes its rows as a set, in row order
    train = draw(st.none() | st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True).map(sorted))
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
        assert coded(base, t, rows).tobytes() == expected["unscaled"][rows].tobytes()
        assert t.apply(base, rows).tobytes() == expected["scaled"][rows].tobytes()
        for j in range(len(base.feature_names)):
            # into a caller's buffer: the tail of a larger one, as a distance workspace passes it
            buf = np.full(2 * len(rows) + 1, np.nan)
            out = buf[len(rows) + 1:]
            assert t.column(base, rows, j, out=out) is out
            assert out.tobytes() == expected["scaled"][rows, j].tobytes()
            assert np.isnan(buf[:len(rows) + 1]).all()
        assert base.features.tobytes() == loaded.tobytes()

    def test_train_only_range_keeps_the_sign_of_zero(self):
        # a contiguous column of these fit rows reduces to min -0.0, the column of their gathered
        # block to 0.0; the range records a zero end as 0.0, which is the gathered block's pick
        values = np.zeros((10, 3))
        values[:, 2] = [-0.0] * 7 + [1.0, 0.0, -0.0]
        table = feature_table(values, ("a", "b", "c"))
        train = np.arange(9)
        block = values[train]
        assert repr(values[train, 2].min()) != repr(block[:, 2].min())
        _, t = fit(table, train)
        for j, name in enumerate(("a", "b", "c")):
            assert repr(t.ranges[name]) == repr((float(block[:, j].min()), float(block[:, j].max())))

    def test_full_dataset_range_keeps_the_sign_of_zero(self):
        # the full-scope twin of the test above: a contiguous column of these values reduces to
        # min -0.0, and the range records that zero end as 0.0
        values = np.zeros((9, 3))
        values[:, 2] = [-0.0] * 7 + [1.0, 0.0]
        assert np.signbit(values[:, 2].copy().min())
        t = fit_rows(feature_table(values, ("a", "b", "c")))
        assert repr(t.ranges["c"]) == "(0.0, 1.0)"

    def test_a_zero_end_is_recorded_as_zero(self):
        # "a" holds its zeros as -0.0 only, at its min, and "b" ends at -0.0, its max: every
        # reduction of them gives -0.0, yet the fits and the summary record 0.0
        values = np.array([[-0.0, -1.0], [1.0, -0.0], [-0.0, -2.0], [3.0, -0.0], [2.0, -0.0], [2.0, -1.0]])
        table = feature_table(values, ("a", "b"))
        expected = {"a": "(0.0, 3.0)", "b": "(-2.0, 0.0)"}
        for train in (None, np.arange(5)):
            _, t = fit(table, train)
            assert {name: repr(r) for name, r in t.ranges.items()} == expected
        stats = summarize(table).numeric
        assert {name: repr((s.min, s.max)) for name, s in stats.items()} == expected

    @pytest.mark.parametrize("train", [None, np.array([0, 1, 3])])
    def test_apply_returns_contiguous_columns(self, small_table, train):
        # each column is one `column` read, and the forest sorts and reads each feature whole
        base, t = fit(small_table, train)
        values = t.apply(base, np.array([4, 0, 2]))
        assert values.shape == (3, 2) and values.strides[0] == values.itemsize

    def test_apply_refuses_a_row_outside_the_table(self, small_table):
        # as `column` does: a gather from the block would read row -1 as the last row
        base, t = fit(small_table)
        for rows in (np.array([0, -1]), np.array([base.row_count])):
            with pytest.raises(IndexError, match=r"rows must lie in \[0, 5\) of the table"):
                t.apply(base, rows)

    @pytest.mark.parametrize("train", [None, np.array([1, 2, 5, 8])])
    def test_column_gathers_across_chunks(self, monkeypatch, train):
        # chunks of 3 rows: unsorted, repeated rows cross every chunk boundary
        monkeypatch.setattr(preprocess, "_GATHER_ROWS", 3)
        records = [{"x": float((i * 7) % 5) - 1.5, "proto": ("tcp", "udp", "icmp")[i % 3],
                    "attack_class": "Benign", "label": 0} for i in range(10)]
        base, t = fit(make_table(records), train)
        rows = np.array([9, 0, 3, 3, 7, 1, 8, 2, 6, 5, 4, 0])
        values = t.apply(base, rows)
        for j in range(len(base.feature_names)):
            out = np.full(len(rows), np.nan)
            t.column(base, rows, j, out=out)
            assert out.tobytes() == values[:, j].tobytes()
        cells = {key: [r[key] for r in records] for key in records[0]}
        expected = string_pipeline(base.schema, cells, train)
        assert coded(base, t, rows).tobytes() == expected["unscaled"][rows].tobytes()
        assert values.tobytes() == expected["scaled"][rows].tobytes()

    @pytest.mark.parametrize("train", [None, np.arange(0, 40_000, 3)])
    def test_column_into_a_buffer_allocates_only_chunks(self, train):
        rng = np.random.default_rng(18)
        n = 40_000
        table = table_from_columns(
            FeatureSchema((Column("x", ColumnKind.NUMERIC), Column("proto", ColumnKind.CATEGORICAL),
                           Column("attack_class", ColumnKind.ATTACK_CLASS), Column("label", ColumnKind.BINARY_LABEL))),
            "Benign",
            {"x": rng.normal(size=n), "proto": np.array(rng.choice(["tcp", "udp", "icmp"], n), dtype=object),
             "attack_class": np.full(n, "Benign", dtype=object), "label": np.zeros(n, dtype=np.int64)},
        )
        base, t = fit(table, train)
        rows, out = rng.permutation(n), np.empty(n)
        t.column(base, rows, 1, out=out)  # the first call sets up what is cached
        tracemalloc.start()
        try:
            for j in range(len(base.feature_names)):
                t.column(base, rows, j, out=out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a chunk of gathered, cast and coded values at a time; the column is n x 8 bytes
        assert peak <= 64 * 1024


def _transform_bytes(t: FittedTransform) -> tuple:
    """Everything of a transform that a run reads or records, in order and bit for bit."""
    return (
        repr(list(t.ranges.items())),
        repr([(f, list(m.items())) for f, m in t.mappings.items()]),
        [(f, c.tobytes()) for f, c in t.codes.items()],
        repr(list(t.counters.clamped.items())),
        repr(t.counters.unseen),
    )


def _fit_or_error(fit):
    try:
        return fit()
    except ValueError as exc:
        return exc


def assert_fits_equal_oracle(table: FlowTable, plan, scenarios: list[Scenario]) -> None:
    """The one-pass fits against the oracle's fit of each on its rows, or both raise the same first error.

    Both scopes' fits over the (class, fold) groups: the full-dataset fit,
    one over every group, against the oracle on every row, and the
    train-only fit of every scenario against the oracle on its train rows.
    """
    groups = row_groups(plan, table)
    [full] = preprocess_pipeline(table, groups, np.ones((1, len(table.class_names) * plan.k), dtype=bool))
    assert _transform_bytes(full) == _transform_bytes(gathered_scenario_fit(table, np.arange(table.row_count)))
    expected = [
        _fit_or_error(lambda s=s: gathered_scenario_fit(table, scenario_rows(s, plan, table)[0])) for s in scenarios
    ]
    got = _fit_or_error(lambda: preprocess_pipeline(table, groups, train_groups(scenarios, plan, table)))
    first = next((i for i, e in enumerate(expected) if isinstance(e, Exception)), None)
    if first is not None:
        assert type(got) is type(expected[first]) and str(got) == str(expected[first])
        assert got.fit == first
        return
    assert len(got) == len(expected)
    for one_pass, oracle in zip(got, expected):
        assert _transform_bytes(one_pass) == _transform_bytes(oracle)


# ties, both zeros, the smallest subnormal, and a range wider than the largest float
_SPREAD_VALUES = (0.0, -0.0, 1.0, -2.5, 7.0, 5e-324, -1.5e308, 1.5e308)
_CLASSES = ("Benign", "A", "B", "C")


@st.composite
def _scenario_tables(draw):
    """A labelled table with its fold plan and scenarios: baseline folds, then the selected classes' folds."""
    n = draw(st.integers(2, 30))
    classes = draw(st.lists(st.sampled_from(_CLASSES), min_size=n, max_size=n).filter(lambda c: set(c) != {"Benign"}))
    columns, data = [], {}
    for j, kind in enumerate(draw(st.lists(st.sampled_from(("n", "c")), min_size=1, max_size=4))):
        name = f"{kind}{j}"
        if kind == "n":
            pool = draw(st.lists(st.sampled_from(_SPREAD_VALUES), min_size=1, max_size=4))
            data[name] = np.array(draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n)), dtype=np.float64)
            columns.append(Column(name, ColumnKind.NUMERIC))
        else:
            pool = draw(st.lists(st.sampled_from(("tcp", "udp", "dns")), min_size=1, max_size=3))
            cells = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
            only_in = draw(st.sampled_from((None, *_CLASSES)))  # a category of one class's rows, as "icmp" is
            data[name] = np.array([("icmp" if c == only_in else v) for v, c in zip(cells, classes)], dtype=object)
            columns.append(Column(name, ColumnKind.CATEGORICAL))
    columns += [Column("attack_class", ColumnKind.ATTACK_CLASS), Column("label", ColumnKind.BINARY_LABEL)]
    data["attack_class"] = np.array(classes, dtype=object)
    data["label"] = np.array([int(c != "Benign") for c in classes], dtype=np.int64)
    table = table_from_columns(FeatureSchema(tuple(columns)), "Benign", data)
    k = draw(st.integers(2, min(3, n)))
    cap = draw(st.none() | st.integers(k, n))
    if cap is not None:
        table = subsample_rows(table, cap, draw(st.integers(0, 9)))
    assume(k <= table.row_count and sum(table.class_counts[1:]) > 0)
    plan = make_fold_plan(table, k, draw(st.integers(0, 9)))
    selected = draw(st.lists(st.sampled_from(table.attack_names), min_size=1, unique=True))
    scenarios = [Scenario(None, f) for f in range(k)]
    scenarios += [s for s in make_zero_day_scenarios(plan, table) if s.held_out in selected]
    return table, plan, scenarios


class TestOnePassFit:
    """Both scopes' transforms from one pass over the columns, against fitting each on its rows."""

    @given(_scenario_tables())
    @settings(max_examples=300, deadline=None)
    def test_fits_equal_the_per_scenario_oracle(self, case):
        table, plan, scenarios = case
        with np.errstate(over="ignore"):  # an out-of-range value of a wide range scales past the largest float
            assert_fits_equal_oracle(table, plan, scenarios)

    @pytest.mark.parametrize("subsample", [None, 900])
    def test_a_synthetic_table_fits_as_the_oracle(self, subsample):
        # 1200 rows, 4 classes, k=5: values rounded to ties with both zeros, one category in one class only
        spec = SyntheticSpec(
            n_benign=600, attacks=tuple(AttackBlob(c, 200, mean=0.5 * i) for i, c in enumerate("abc")), d=3, seed=4,
            include_identifier=False,
        )
        table = synthesize_dataset(spec)
        proto = np.where(table.attack_classes == "c", "icmp", np.where(np.arange(table.row_count) % 3, "tcp", "udp"))
        x = np.round(column(table, "f0"), 0) * np.where(np.arange(table.row_count) % 2, 1.0, -1.0)
        schema = FeatureSchema((*table.schema.columns, Column("proto", ColumnKind.CATEGORICAL)))
        table = table_from_columns(schema, table.benign_name, {**table_columns(table), "f0": x, "proto": proto})
        assert np.signbit(x[x == 0]).any() and not np.signbit(x[x == 0]).all()
        if subsample is not None:
            table = subsample_rows(table, subsample, 3)
        plan = make_fold_plan(table, 5, 11)
        scenarios = [Scenario(None, f) for f in range(5)]
        scenarios += [s for s in make_zero_day_scenarios(plan, table) if s.held_out in ("a", "c")]
        assert_fits_equal_oracle(table, plan, scenarios)

    def test_a_fit_over_every_group_reduces_each_column_whole(self):
        rng = np.random.default_rng(3)
        n = 40_000
        table = table_from_columns(
            FeatureSchema((Column("x", ColumnKind.NUMERIC), Column("proto", ColumnKind.CATEGORICAL),
                           Column("attack_class", ColumnKind.ATTACK_CLASS), Column("label", ColumnKind.BINARY_LABEL))),
            "Benign",
            {"x": rng.normal(size=n), "proto": np.array(rng.choice(["tcp", "udp", "icmp"], n), dtype=object),
             "attack_class": np.array(rng.choice(["Benign", "a", "b"], n), dtype=object)},
        )
        plan = make_fold_plan(table, 5, 1)
        groups, fits = row_groups(plan, table), np.ones((1, 3 * 5), dtype=bool)
        tracemalloc.start()
        try:
            [full] = preprocess_pipeline(table, groups, fits)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert _transform_bytes(full) == _transform_bytes(gathered_scenario_fit(table, np.arange(n)))
        # the category indices and the row numbers, 16 bytes a row; keyed by (group, category), the
        # first rows took a third array of 8 bytes a row
        assert peak <= 17 * n

    @pytest.mark.parametrize(
        "lo, hi, value",
        [(-0.5, 2.0**53 - 1, 2.0**53), (3 * 5e-324, 1e300, 2 * 5e-324)],
        ids=["rounds-to-one", "rounds-to-negative-zero"],
    )
    def test_a_value_the_scaling_rounds_into_range_is_not_clamped(self, lo, hi, value):
        # outside [lo, hi], yet the scaling lands it on 1.0 or -0.0, which the clamp leaves as it is
        table = feature_table([lo, hi, value])
        t = fit_rows(table, np.array([0, 1]))
        assert t.ranges == {"x": (lo, hi)} and not lo <= value <= hi
        assert t.apply(table, np.array([2])).tobytes() == preprocess._min_max(np.array([value]), lo, hi).tobytes()
        assert t.counters.clamped == {}
        assert gathered_scenario_fit(table, np.array([0, 1])).counters.clamped == {}
