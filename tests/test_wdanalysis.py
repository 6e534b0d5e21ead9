from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from conftest import feature_table, fit_rows, make_table, scenario_wd, wasserstein_1d, with_classes
from hypothesis import given, settings
from hypothesis import strategies as st
from oracle_impls import cdf_grid_wd, merge_wd, sorted_diff_wd, spearman_oracle, three_sort_wd

from zdeval.flowdata import Column, ColumnKind, FeatureSchema, FlowTable, table_from_columns
from zdeval.preprocess import preprocess_pipeline
from zdeval.wdanalysis import per_feature_wd, rank_correlation
from zdeval.zslsplit import FoldPlan, make_zero_day_scenarios, row_groups, scenario_rows, train_groups

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
        distances = scenario_wd(*stacked(values, values, ("a", "b", "c")))
        assert all(v == 0.0 for v in distances.values())

    def test_single_shifted_feature(self):
        rng = np.random.default_rng(5)
        base = rng.random((40, 4))
        shifted = base.copy()
        shifted[:, 2] += 0.3
        distances = scenario_wd(*stacked(base, shifted, ("a", "b", "c", "d")))
        assert distances["c"] == pytest.approx(0.3, abs=1e-12)
        assert distances["a"] == 0.0
        # cross-check the shifted column against the sorted-difference oracle
        assert distances["c"] == pytest.approx(sorted_diff_wd(base[:, 2], shifted[:, 2]), abs=1e-12)

    def test_empty_side_rejected(self):
        m = matrix_from(np.zeros((3, 1)), ("a",))
        empty = np.array([], dtype=np.int64)
        with pytest.raises(ValueError, match="nonempty"):
            scenario_wd(m, np.arange(3), empty)
        with pytest.raises(ValueError, match="nonempty"):
            scenario_wd(m, empty, np.arange(3))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_rejected(self, bad):
        values = np.zeros((4, 2))
        values[3, 1] = bad
        m = matrix_from(values, ("a", "b"))
        with pytest.raises(ValueError, match="finite"):
            scenario_wd(m, np.arange(2), np.arange(2, 4))

    def test_matrix_left_unchanged(self):
        rng = np.random.default_rng(12)
        values = rng.random((50, 3))
        m = matrix_from(values.copy(), ("a", "b", "c"))
        scenario_wd(m, np.arange(49, 10, -1), np.arange(10))
        assert np.array_equal(m.features, values)

    def test_a_side_over_100k_rows_is_read_whole(self):
        # every distance is exact: no side is cut to a sample, however many rows it holds
        rng = np.random.default_rng(7)
        train, test = rng.random((100_001, 2)), rng.random((50, 2))
        m, train_rows, test_rows = stacked(train, test, ("a", "b"))
        distances = scenario_wd(m, train_rows, test_rows)
        assert distances == {name: three_sort_wd(train[:, j], test[:, j]) for j, name in enumerate("ab")}

    def test_scaled_features_stay_in_unit_interval(self):
        rng = np.random.default_rng(8)
        m, train_rows, test_rows = stacked(rng.random((50, 3)) * 7 - 2, rng.random((60, 3)), ("a", "b", "c"))
        distances = scenario_wd(m, train_rows, test_rows, fit_rows(m))
        assert all(0.0 <= v <= 1.0 for v in distances.values())

    def test_train_only_clamped_features_stay_in_unit_interval(self):
        # test rows fall outside the train range on both sides: they clamp to 0 and 1
        rng = np.random.default_rng(9)
        train, test = rng.random((50, 3)), rng.random((60, 3)) * 7 - 2
        m, train_rows, test_rows = stacked(train, test, ("a", "b", "c"))
        transform = fit_rows(m, train_rows)
        distances = scenario_wd(m, train_rows, test_rows, transform)
        assert set(transform.counters.clamped) == {"a", "b", "c"}
        assert all(0.0 <= v <= 1.0 for v in distances.values())

    def test_scaled_distance_is_the_raw_distance_over_the_range(self):
        # W1(a x + b, a y + b) = a W1(x, y): min-max scaling divides each raw distance by its column's range
        rng = np.random.default_rng(10)
        m, train_rows, test_rows = stacked(rng.random((40, 3)) * [1.0, 50.0, 1e4], rng.random((30, 3)) + 0.5,
                                           ("a", "b", "c"))
        transform = fit_rows(m)
        scaled = scenario_wd(m, train_rows, test_rows, transform)
        raw = scenario_wd(m, train_rows, test_rows)
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
    """The one-sort kernel equals the earlier three-sort kernel exactly."""

    @given(wd_cases())
    @settings(max_examples=150, deadline=None)
    def test_per_feature_wd_equals_three_sort_oracle(self, case):
        values, train_rows, test_rows = case
        names = tuple(f"f{j}" for j in range(values.shape[1]))
        distances = scenario_wd(matrix_from(values, names), train_rows, test_rows)
        for j, name in enumerate(names):
            assert distances[name] == three_sort_wd(values[train_rows, j], values[test_rows, j])

    def test_inputs_left_unsorted(self):
        values = np.array([[3.0], [1.0], [2.0], [0.5], [0.25]])
        scenario_wd(matrix_from(values, ("x",)), np.array([0, 1, 2]), np.array([3, 4]))
        assert values.ravel().tolist() == [3.0, 1.0, 2.0, 0.5, 0.25]


class TestFeatureJob:
    """A distance job is one feature over every scenario, computed in a few columns' worth of memory."""

    @staticmethod
    def mixed_table(n: int, rng, n_classes: int = 1) -> FlowTable:
        schema = FeatureSchema((
            Column("a", ColumnKind.NUMERIC), Column("proto", ColumnKind.CATEGORICAL), Column("b", ColumnKind.NUMERIC),
            Column("attack_class", ColumnKind.ATTACK_CLASS), Column("label", ColumnKind.BINARY_LABEL),
        ))
        data = {
            "a": rng.normal(size=n) * 100,
            "proto": np.array(rng.choice(["tcp", "udp", "icmp"], n), dtype=object),
            "b": rng.integers(0, 5, n).astype(np.float64),
            "attack_class": np.full(n, "Benign", dtype=object),
        }
        names = ("Benign", *(f"attack{c}" for c in range(1, n_classes)))
        return with_classes(table_from_columns(schema, "Benign", data), rng.integers(0, n_classes, n), names)

    @pytest.mark.parametrize("scope", ["full-dataset", "train-only"])
    def test_a_job_holds_eight_columns_whatever_the_scenario_count(self, scope):
        rng = np.random.default_rng(15)
        table = self.mixed_table(50_000, rng, n_classes=4)
        plan = FoldPlan(3, 0, rng.integers(0, 3, table.row_count).astype(np.uint8), ())
        scenarios = make_zero_day_scenarios(plan, table)
        fits = np.ones((1, 4 * 3), dtype=bool) if scope == "full-dataset" else train_groups(scenarios, plan, table)
        fitted = preprocess_pipeline(table, row_groups(plan, table), fits)
        transforms = fitted * len(scenarios) if scope == "full-dataset" else fitted
        per_feature_wd(table, 1, plan.fold, scenarios, transforms)  # the first call sets up what is cached
        peaks = []
        tracemalloc.start()
        try:
            for count in (1, len(scenarios)):
                for j in range(len(table.feature_names)):
                    tracemalloc.reset_peak()
                    before = tracemalloc.get_traced_memory()[0]
                    per_feature_wd(table, j, plan.fold, scenarios[:count], transforms[:count])
                    peaks.append(tracemalloc.get_traced_memory()[1] - before)
        finally:
            tracemalloc.stop()
        # the sorted values, one-byte class codes and folds, the scaled values and the ranks, then
        # one scenario's masks, sample and counts: 48.9 bytes a row for one scenario or nine, 51.7
        # for the categorical column under train-only fits (58.7 with class codes of 8 bytes)
        assert max(peaks) <= 52 * table.row_count

    def test_one_row_each_side(self):
        m, train_rows, test_rows = stacked(np.array([[0.25, 3.0]]), np.array([[1.0, 3.0]]), ("a", "b"))
        distances = scenario_wd(m, train_rows, test_rows)
        assert distances == {"a": 0.75, "b": 0.0}
        assert distances["a"] == three_sort_wd([0.25], [1.0])

    def test_ties_across_the_two_sides(self):
        u = np.array([0.0, 1.0, 1.0, 2.0, 2.0, 5.0])
        v = np.array([1.0, 1.0, 2.0, 5.0])
        m, train_rows, test_rows = stacked(u[::-1, None], v[:, None], ("x",))
        got = scenario_wd(m, train_rows, test_rows)["x"]
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
        distances = scenario_wd(m, train_rows, test_rows)
        for j, name in enumerate(("a", "b", "c")):
            alone = scenario_wd(matrix_from(values[:, j:j + 1], (name,)), train_rows, test_rows)
            assert distances[name] == alone[name]
        assert distances["b"] == 0.0


@st.composite
def scenario_cases(draw):
    """A table of classes in folds, its zero-day scenarios and their transforms, under either fit scope.

    Columns are integer-valued with heavy ties, raw -0.0 next to 0.0,
    constant, spread, or categorical; folds are drawn per row, so a class
    may have no row in some fold and a fold no row at all. Under the
    train-only scope a category of no train row is unseen, and a scenario
    with no train row is left out, since it has no fit.
    """
    n = draw(st.integers(2, 90))
    n_classes, k = draw(st.integers(2, 4)), draw(st.integers(2, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kinds = draw(st.lists(st.sampled_from(["integers", "signed-zeros", "constant", "spread", "categorical"]),
                          min_size=1, max_size=4))
    columns, data = [], {}
    for j, kind in enumerate(kinds):
        name = f"f{j}"
        if kind == "categorical":
            columns.append(Column(name, ColumnKind.CATEGORICAL))
            data[name] = np.array(rng.choice(["tcp", "udp", "icmp", "gre"], n, p=[0.5, 0.3, 0.15, 0.05]), dtype=object)
            continue
        columns.append(Column(name, ColumnKind.NUMERIC))
        if kind == "integers":
            data[name] = rng.integers(-2, 3, n).astype(np.float64)
        elif kind == "signed-zeros":
            data[name] = rng.choice(np.array([-0.0, 0.0, 0.5, 1.0]), n)
        elif kind == "constant":
            data[name] = np.full(n, draw(st.sampled_from([-0.0, 0.0, 3.5])))
        else:
            data[name] = rng.standard_normal(n) * draw(st.sampled_from([1e-3, 1.0, 1e6]))
    schema = FeatureSchema((*columns, Column("attack_class", ColumnKind.ATTACK_CLASS),
                            Column("label", ColumnKind.BINARY_LABEL)))
    names = ("Benign", *(f"c{c}" for c in range(1, n_classes)))
    data["attack_class"] = np.full(n, "Benign", dtype=object)
    table = with_classes(table_from_columns(schema, "Benign", data), rng.integers(0, n_classes, n), names)
    plan = FoldPlan(k, 0, rng.integers(0, k, n).astype(np.uint8), ())
    scenarios = make_zero_day_scenarios(plan, table)
    groups = row_groups(plan, table)
    if draw(st.booleans()):  # the full-dataset scope
        [fit] = preprocess_pipeline(table, groups, np.ones((1, n_classes * k), dtype=bool))
        return table, plan, scenarios, [fit] * len(scenarios)
    fits = train_groups(scenarios, plan, table)
    fitted = fits @ np.bincount(groups, minlength=n_classes * k) > 0
    scenarios, fits = [s for s, ok in zip(scenarios, fitted) if ok], fits[fitted]
    return table, plan, scenarios, preprocess_pipeline(table, groups, fits) if len(fits) else []


class TestOneSortEqualsMergeOracle:
    """The one-sort kernel equals the earlier job per scenario, which sorted each side and merged them, bit for bit."""

    @given(scenario_cases())
    @settings(max_examples=200, deadline=None)
    def test_every_scenario_and_feature(self, case):
        table, plan, scenarios, transforms = case
        jobs = [per_feature_wd(table, j, plan.fold, scenarios, transforms) for j in range(len(table.feature_names))]
        for i, (scenario, transform) in enumerate(zip(scenarios, transforms)):
            train, test = scenario_rows(scenario, plan, table)
            if not (train.size and test.size):
                for outcomes in jobs:
                    assert str(outcomes[i]) == "per_feature_wd requires nonempty train and test sets"
                continue
            expected = merge_wd(table, train, test, transform)
            got = [outcomes[i] for outcomes in jobs]
            assert np.array(got).view(np.int64).tolist() == np.array(list(expected.values())).view(np.int64).tolist()


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
