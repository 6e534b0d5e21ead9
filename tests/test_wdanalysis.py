from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from conftest import feature_table, fit_rows, make_table, raw_wd, wasserstein_1d
from hypothesis import given, settings
from hypothesis import strategies as st
from oracle_impls import cdf_grid_wd, sorted_diff_wd, spearman_oracle, three_sort_wd

from zdeval.flowdata import Column, ColumnKind, FeatureSchema, FlowTable
from zdeval.wdanalysis import _feature_wd, _Workspace, per_feature_wd, rank_correlation

finite_floats = st.floats(-1e3, 1e3, allow_nan=False)
samples = st.lists(finite_floats, min_size=1, max_size=60)


class TestWasserstein1d:
    def test_identity(self):
        u = [3.0, 1.0, 2.0, 2.0]
        assert wasserstein_1d(u, list(reversed(u))) == 0.0

    def test_single_atom_transport(self):
        assert wasserstein_1d([0.0], [1.0]) == 1.0

    def test_derived_two_point_example(self):
        # sorted-difference oracle: (|0-0.5| + |1-1.5|) / 2
        assert wasserstein_1d([0.0, 1.0], [0.5, 1.5]) == pytest.approx(0.5, abs=1e-15)
        assert sorted_diff_wd([0.0, 1.0], [0.5, 1.5]) == 0.5

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            wasserstein_1d([], [1.0])

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            wasserstein_1d([np.nan], [1.0])
        with pytest.raises(ValueError, match="finite"):
            wasserstein_1d([1.0], [np.inf])

    def test_equal_size_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(1, 400))
            u = rng.normal(size=n) * rng.uniform(0.1, 10)
            v = rng.normal(size=n) * rng.uniform(0.1, 10)
            assert wasserstein_1d(u, v) == pytest.approx(sorted_diff_wd(u, v), abs=1e-9)

    def test_unequal_size_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            u = rng.normal(size=int(rng.integers(1, 80)))
            v = rng.normal(size=int(rng.integers(1, 80)))
            assert wasserstein_1d(u, v) == pytest.approx(cdf_grid_wd(list(u), list(v)), abs=1e-9)

    def test_matches_scipy(self):
        scipy_stats = pytest.importorskip("scipy.stats")
        rng = np.random.default_rng(2)
        for _ in range(20):
            u = rng.normal(size=int(rng.integers(1, 100)))
            v = rng.normal(size=int(rng.integers(1, 100)))
            assert wasserstein_1d(u, v) == pytest.approx(
                float(scipy_stats.wasserstein_distance(u, v)), abs=1e-9
            )

    @given(samples, samples)
    @settings(max_examples=80, deadline=None)
    def test_symmetry_exact(self, u, v):
        assert wasserstein_1d(u, v) == wasserstein_1d(v, u)

    @given(samples, samples, samples)
    @settings(max_examples=60, deadline=None)
    def test_triangle_inequality(self, u, v, w):
        assert wasserstein_1d(u, w) <= wasserstein_1d(u, v) + wasserstein_1d(v, w) + 1e-9

    @given(samples, samples, st.floats(-100, 100))
    @settings(max_examples=60, deadline=None)
    def test_translation_invariance(self, u, v, c):
        u = np.asarray(u)
        v = np.asarray(v)
        assert wasserstein_1d(u + c, v + c) == pytest.approx(wasserstein_1d(u, v), abs=1e-12, rel=1e-12)

    @given(samples, samples, st.floats(0.01, 50))
    @settings(max_examples=60, deadline=None)
    def test_positive_scaling(self, u, v, alpha):
        u = np.asarray(u)
        v = np.asarray(v)
        assert wasserstein_1d(alpha * u, alpha * v) == pytest.approx(
            alpha * wasserstein_1d(u, v), abs=1e-12, rel=1e-12
        )

    def test_bounded_on_unit_interval(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            u = rng.random(int(rng.integers(1, 50)))
            v = rng.random(int(rng.integers(1, 50)))
            assert 0.0 <= wasserstein_1d(u, v) <= 1.0


def matrix_from(values: np.ndarray, names: tuple[str, ...], encoded=()) -> FlowTable:
    """A table of `values`: its block itself, or, with `encoded`, the strings of those columns' values."""
    if not encoded:
        return feature_table(values, names)
    return make_table(
        [
            {**{name: repr(v) if name in encoded else v for name, v in zip(names, row)},
             "attack_class": "Benign", "label": 0}
            for row in np.asarray(values, dtype=np.float64).tolist()
        ]
    )


def stacked(train: np.ndarray, test: np.ndarray, names: tuple[str, ...], encoded=()):
    """One matrix holding the train rows, then the test rows, with both row sets."""
    m = matrix_from(np.vstack([train, test]), names, encoded)
    n_train = len(train)
    return m, np.arange(n_train), np.arange(n_train, n_train + len(test))


class TestPerFeatureWd:
    def test_identical_sets_all_zero(self):
        rng = np.random.default_rng(4)
        values = rng.random((30, 3))
        report = raw_wd(*stacked(values, values, ("a", "b", "c")))
        assert all(v == 0.0 for v in report.per_feature.values())
        assert report.mean_wd == 0.0

    def test_single_shifted_feature(self):
        rng = np.random.default_rng(5)
        base = rng.random((40, 4))
        shifted = base.copy()
        shifted[:, 2] += 0.3
        report = raw_wd(*stacked(base, shifted, ("a", "b", "c", "d")))
        assert report.per_feature["c"] == pytest.approx(0.3, abs=1e-12)
        assert report.per_feature["a"] == 0.0
        assert report.mean_wd == pytest.approx(0.3 / 4, abs=1e-12)
        # cross-check the shifted column against the sorted-difference oracle
        assert report.per_feature["c"] == pytest.approx(
            sorted_diff_wd(base[:, 2], shifted[:, 2]), abs=1e-12
        )

    def test_empty_side_rejected(self):
        m = matrix_from(np.zeros((3, 1)), ("a",))
        empty = np.array([], dtype=np.int64)
        with pytest.raises(ValueError, match="nonempty"):
            raw_wd(m, np.arange(3), empty)
        with pytest.raises(ValueError, match="nonempty"):
            raw_wd(m, empty, np.arange(3))

    def test_a_row_outside_the_table_is_rejected(self):
        # with the IndexError `FittedTransform.apply` raises: `column` does not check its rows,
        # and its clipping take would read row n - 1 for row n
        table = feature_table(np.arange(5.0))
        transform = fit_rows(table)
        for train, test in ((np.array([0, 5]), np.array([1])), (np.array([0]), np.array([-1, 2]))):
            rows = train if train.max() >= 5 else test
            with pytest.raises(IndexError) as applied:
                transform.apply(table, rows)
            with pytest.raises(IndexError, match=r"^rows must lie in \[0, 5\) of the table$") as raised:
                per_feature_wd(table, train, test, transform=transform)
            assert str(raised.value) == str(applied.value)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_rejected(self, bad):
        values = np.zeros((4, 2))
        values[3, 1] = bad
        m = matrix_from(values, ("a", "b"))
        with pytest.raises(ValueError, match="finite"):
            raw_wd(m, np.arange(2), np.arange(2, 4))

    def test_matrix_left_unchanged(self):
        rng = np.random.default_rng(12)
        values = rng.random((50, 3))
        m = matrix_from(values.copy(), ("a", "b", "c"))
        raw_wd(m, np.arange(49, 10, -1), np.arange(10))
        assert np.array_equal(m.features, values)

    def test_mean_is_arithmetic_mean(self):
        rng = np.random.default_rng(6)
        report = raw_wd(*stacked(rng.random((25, 5)), rng.random((35, 5)), tuple("abcde")))
        assert report.mean_wd == pytest.approx(np.mean(list(report.per_feature.values())), abs=1e-15)

    def test_a_side_over_100k_rows_is_read_whole(self):
        # every distance is exact: no side is cut to a sample, however many rows it holds
        rng = np.random.default_rng(7)
        train, test = rng.random((100_001, 2)), rng.random((50, 2))
        m, train_rows, test_rows = stacked(train, test, ("a", "b"))
        report = raw_wd(m, train_rows, test_rows)
        assert report.per_feature == {name: three_sort_wd(train[:, j], test[:, j]) for j, name in enumerate("ab")}
        assert (report.rows_train, report.rows_test) == (100_001, 50)

    def test_encoded_features_flagged(self):
        m = matrix_from(np.zeros((3, 2)), ("num", "proto"), encoded=("proto",))
        report = raw_wd(m, np.arange(3), np.arange(3))
        assert report.encoded_features == ("proto",)

    def test_report_serialization(self):
        import json

        rng = np.random.default_rng(11)
        m, train_rows, test_rows = stacked(rng.random((20, 2)), rng.random((30, 2)), ("a", "b"), encoded=("b",))
        report = raw_wd(m, train_rows, test_rows, held_out_class="X", fold_id=1)
        doc = json.loads(json.dumps(report.to_json()))
        assert doc["held_out_class"] == "X" and doc["fold"] == 1
        assert set(doc["per_feature"]) == {"a", "b"}
        assert doc["encoded_features"] == ["b"]

    def test_scaled_features_stay_in_unit_interval(self):
        rng = np.random.default_rng(8)
        m, train_rows, test_rows = stacked(rng.random((50, 3)) * 7 - 2, rng.random((60, 3)), ("a", "b", "c"))
        report = per_feature_wd(m, train_rows, test_rows, transform=fit_rows(m))
        assert all(0.0 <= v <= 1.0 for v in report.per_feature.values())
        assert 0.0 <= report.mean_wd <= 1.0

    def test_train_only_clamped_features_stay_in_unit_interval(self):
        # test rows fall outside the train range on both sides: they clamp to 0 and 1
        rng = np.random.default_rng(9)
        train, test = rng.random((50, 3)), rng.random((60, 3)) * 7 - 2
        m, train_rows, test_rows = stacked(train, test, ("a", "b", "c"))
        transform = fit_rows(m, train_rows)
        report = per_feature_wd(m, train_rows, test_rows, transform=transform)
        assert set(transform.counters.clamped) == {"a", "b", "c"}
        assert all(0.0 <= v <= 1.0 for v in report.per_feature.values())
        assert 0.0 <= report.mean_wd <= 1.0

    def test_scaled_distance_is_the_raw_distance_over_the_range(self):
        # W1(a x + b, a y + b) = a W1(x, y): min-max scaling divides each raw distance by its column's range
        rng = np.random.default_rng(10)
        m, train_rows, test_rows = stacked(rng.random((40, 3)) * [1.0, 50.0, 1e4], rng.random((30, 3)) + 0.5,
                                           ("a", "b", "c"))
        transform = fit_rows(m)
        scaled = per_feature_wd(m, train_rows, test_rows, transform=transform).per_feature
        raw = raw_wd(m, train_rows, test_rows).per_feature
        for name, (lo, hi) in transform.ranges.items():
            assert scaled[name] == pytest.approx(raw[name] / (hi - lo), rel=1e-12)
        assert raw["c"] > 1.0 > scaled["c"]


@st.composite
def wd_cases(draw):
    """A matrix and disjoint unsorted train/test row sets.

    Columns are tie-heavy grids, constant, or spread over a drawn magnitude
    (negative and large included); rows may repeat; a side may hold one row
    or be far smaller than the other.
    """
    n_train = draw(st.integers(1, 120))
    n_test = draw(st.sampled_from([1, 2, 3, draw(st.integers(1, 120))]))
    n_rows = n_train + n_test + draw(st.integers(0, 10))
    d = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    columns = []
    for _ in range(d):
        kind = draw(st.sampled_from(["grid", "constant", "spread"]))
        scale = draw(st.sampled_from([1e-3, 1.0, 1e6, 1e100]))
        if kind == "grid":
            col = rng.integers(-3, 4, n_rows) * scale
        elif kind == "constant":
            col = np.full(n_rows, draw(st.floats(-1e6, 1e6)))
        else:
            col = rng.standard_normal(n_rows) * scale
        columns.append(col.astype(np.float64))
    values = np.column_stack(columns)
    if draw(st.booleans()):  # duplicate rows
        values = values[rng.integers(0, max(1, n_rows // 4), n_rows)]
    perm = rng.permutation(n_rows)
    return values, perm[:n_train], perm[n_train:n_train + n_test]


class TestBitIdentity:
    """The merge kernel equals the earlier three-sort kernel exactly."""

    @given(wd_cases())
    @settings(max_examples=150, deadline=None)
    def test_per_feature_wd_equals_three_sort_oracle(self, case):
        values, train_rows, test_rows = case
        names = tuple(f"f{j}" for j in range(values.shape[1]))
        report = raw_wd(matrix_from(values, names), train_rows, test_rows)
        for j, name in enumerate(names):
            assert report.per_feature[name] == three_sort_wd(values[train_rows, j], values[test_rows, j])
        assert (report.rows_train, report.rows_test) == (train_rows.size, test_rows.size)

    def test_inputs_left_unsorted(self):
        values = np.array([[3.0], [1.0], [2.0], [0.5], [0.25]])
        raw_wd(matrix_from(values, ("x",)), np.array([0, 1, 2]), np.array([3, 4]))
        assert values.ravel().tolist() == [3.0, 1.0, 2.0, 0.5, 0.25]


class TestWorkspace:
    """Every feature of a scenario is computed inside one workspace."""

    @staticmethod
    def mixed_table(n: int, rng) -> FlowTable:
        schema = FeatureSchema((
            Column("a", ColumnKind.NUMERIC), Column("proto", ColumnKind.CATEGORICAL), Column("b", ColumnKind.NUMERIC),
            Column("attack_class", ColumnKind.ATTACK_CLASS), Column("label", ColumnKind.BINARY_LABEL),
        ))
        data = {
            "a": rng.normal(size=n) * 100,
            "proto": np.array(rng.choice(["tcp", "udp", "icmp"], n), dtype=object),
            "b": rng.integers(0, 5, n).astype(np.float64),
            "attack_class": np.full(n, "Benign", dtype=object),
            "label": np.zeros(n, dtype=np.int64),
        }
        return FlowTable(schema, "Benign", data)

    @pytest.mark.parametrize("scope", ["full-dataset", "train-only"])
    def test_a_feature_allocates_one_index_array(self, scope):
        rng = np.random.default_rng(15)
        table = self.mixed_table(50_000, rng)
        perm = rng.permutation(table.row_count)
        train, test = perm[:30_000], perm[30_000:]
        transform = fit_rows(table, None if scope == "full-dataset" else train)
        ws = _Workspace(train, test)
        _feature_wd(ws, table, transform, 0)  # the first call sets up what is cached
        tracemalloc.start()
        try:
            peaks = []
            for j in range(len(table.feature_names)):
                tracemalloc.reset_peak()
                before = tracemalloc.get_traced_memory()[0]
                _feature_wd(ws, table, transform, j)
                peaks.append(tracemalloc.get_traced_memory()[1] - before)
        finally:
            tracemalloc.stop()
        # the argsort result, n int64, and nothing else of more than a few chunks
        assert max(peaks) <= (train.size + test.size) * 8 + 64 * 1024

    def test_one_row_each_side(self):
        m, train_rows, test_rows = stacked(np.array([[0.25, 3.0]]), np.array([[1.0, 3.0]]), ("a", "b"))
        report = raw_wd(m, train_rows, test_rows)
        assert report.per_feature == {"a": 0.75, "b": 0.0}
        assert report.per_feature["a"] == three_sort_wd([0.25], [1.0])

    def test_ties_across_the_two_sides(self):
        u = np.array([0.0, 1.0, 1.0, 2.0, 2.0, 5.0])
        v = np.array([1.0, 1.0, 2.0, 5.0])
        m, train_rows, test_rows = stacked(u[::-1, None], v[:, None], ("x",))
        got = raw_wd(m, train_rows, test_rows).per_feature["x"]
        assert got == three_sort_wd(u, v)
        assert got == pytest.approx(cdf_grid_wd(list(u), list(v)), abs=1e-15)
        assert wasserstein_1d(v, u) == got

    def test_buffers_carry_nothing_from_feature_to_feature(self):
        # a wide feature, then a constant one, then the first again: each equals it computed alone
        rng = np.random.default_rng(17)
        wide = rng.normal(size=40) * 1e6
        values = np.column_stack([wide, np.full(40, 2.0), wide])
        m = matrix_from(values, ("a", "b", "c"))
        train_rows, test_rows = np.arange(25), np.arange(25, 40)
        report = raw_wd(m, train_rows, test_rows)
        for j, name in enumerate(("a", "b", "c")):
            alone = raw_wd(matrix_from(values[:, j:j + 1], (name,)), train_rows, test_rows)
            assert report.per_feature[name] == alone.per_feature[name]
        assert report.per_feature["b"] == 0.0

    def test_a_row_past_the_table_raises(self):
        m = matrix_from(np.arange(6.0).reshape(3, 2), ("a", "b"))
        with pytest.raises(IndexError):
            raw_wd(m, np.array([0, 1]), np.array([2, 3]))
        with pytest.raises(IndexError):
            raw_wd(m, np.array([3, 0]), np.array([2]))


class TestRankCorrelation:
    def test_perfectly_anti_monotone(self):
        assert rank_correlation([1, 2, 3, 4], [9, 7, 5, 3]) == pytest.approx(-1.0)

    def test_identical_rankings(self):
        assert rank_correlation([0.1, 0.5, 0.9], [10, 20, 30]) == pytest.approx(1.0)

    def test_derived_three_point_example(self):
        # hand-ranked: x ranks (1,2,3), y ranks (3,1,2) -> rho = -0.5
        assert rank_correlation([0.2, 0.5, 1.0], [95, 20, 60]) == pytest.approx(-0.5, abs=1e-15)

    def test_too_few_pairs_rejected(self):
        with pytest.raises(ValueError, match=">= 3"):
            rank_correlation([1, 2], [3, 4])

    def test_fully_tied_side_rejected(self):
        with pytest.raises(ValueError, match="tied"):
            rank_correlation([1, 1, 1], [1, 2, 3])

    def test_matches_loop_oracle_with_ties(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            n = int(rng.integers(3, 30))
            xs = rng.integers(0, 5, n).astype(float)
            ys = rng.integers(0, 5, n).astype(float)
            if len(set(xs)) < 2 or len(set(ys)) < 2:
                continue
            assert rank_correlation(xs, ys) == pytest.approx(spearman_oracle(xs, ys), abs=1e-12)

    def test_matches_scipy(self):
        scipy_stats = pytest.importorskip("scipy.stats")
        rng = np.random.default_rng(10)
        for _ in range(20):
            xs = rng.random(10)
            ys = rng.random(10)
            assert rank_correlation(xs, ys) == pytest.approx(
                float(scipy_stats.spearmanr(xs, ys).statistic), abs=1e-12
            )
