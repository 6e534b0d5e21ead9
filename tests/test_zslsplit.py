from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from conftest import coded_table, make_table
from oracle_impls import stored_fold_plan, stored_fold_warnings, stored_zero_day_scenarios

from zdeval.flowdata import FlowTable
from zdeval.zslsplit import (
    Scenario, fold_warnings, make_fold_plan, make_zero_day_scenarios, row_groups, scenario_rows, train_groups,
)


def table_from_counts(counts: dict[str, int], benign_name: str = "Benign") -> FlowTable:
    """Table with class blocks laid out in dict order, benign first."""
    names = (benign_name, *(n for n in counts if n != benign_name))
    return coded_table(np.repeat(np.arange(len(names)), [counts.get(n, 0) for n in names]), names)


def known(plan) -> list[Scenario]:
    """The plan's known-attack scenarios, one per fold."""
    return [Scenario(None, f) for f in range(plan.k)]


def fold_train(s, plan, table) -> np.ndarray:
    return scenario_rows(s, plan, table)[0]


def fold_test(s, plan, table) -> np.ndarray:
    return scenario_rows(s, plan, table)[1]


class TestFoldPlan:
    def test_single_class_even_split(self):
        table = table_from_counts({"Benign": 0, "X": 10})
        plan = make_fold_plan(table, k=5, seed=0)
        assert np.array_equal(np.bincount(plan.fold), [2] * 5)

    def test_determinism(self):
        table = table_from_counts({"Benign": 20, "A": 11, "B": 7})
        p1 = make_fold_plan(table, k=5, seed=9)
        p2 = make_fold_plan(table, k=5, seed=9)
        assert np.array_equal(p1.fold, p2.fold)

    def test_sparse_class_flagged(self):
        table = table_from_counts({"Benign": 20, "A": 3})
        plan = make_fold_plan(table, k=5, seed=1)
        assert plan.sparse_classes == ("A",)

    def test_k_bounds(self):
        table = table_from_counts({"Benign": 2, "A": 1})
        with pytest.raises(ValueError, match=">= 2"):
            make_fold_plan(table, k=1, seed=0)
        with pytest.raises(ValueError, match="exceeds"):
            make_fold_plan(table, k=4, seed=0)

    @pytest.mark.parametrize(("k", "dtype"), [(2, np.uint8), (256, np.uint8), (257, np.uint16)])
    def test_fold_ids_use_the_smallest_unsigned_dtype(self, k, dtype):
        table = table_from_counts({"Benign": 300, "A": 10})
        plan = make_fold_plan(table, k=k, seed=0)
        assert plan.fold.dtype == dtype and plan.fold.shape == (table.row_count,)
        assert int(plan.fold.max()) == k - 1

    def test_scenarios_hold_no_arrays(self):
        table = table_from_counts({"Benign": 30, "A": 10, "B": 10})
        plan = make_fold_plan(table, k=5, seed=0)
        for s in [*known(plan), *make_zero_day_scenarios(plan, table)]:
            assert all(not isinstance(v, np.ndarray) for v in vars(s).values())
        assert Scenario("A", 2) == Scenario("A", 2) and hash(Scenario("A", 2)) == hash(Scenario("A", 2))

    def test_partition_properties(self):
        table = table_from_counts({"Benign": 33, "A": 17, "B": 5})
        plan = make_fold_plan(table, k=4, seed=2)
        n = table.row_count
        all_test = np.concatenate([fold_test(s, plan, table) for s in known(plan)])
        assert np.array_equal(np.sort(all_test), np.arange(n))  # disjoint cover
        for s in known(plan):
            train, test = scenario_rows(s, plan, table)
            assert np.intersect1d(train, test).size == 0
            assert train.size + test.size == n

    def test_stratification_within_one(self):
        table = table_from_counts({"Benign": 23, "A": 11, "B": 6})
        plan = make_fold_plan(table, k=5, seed=3)
        for code in range(3):
            per_fold = [
                int((table.class_codes[fold_test(s, plan, table)] == code).sum()) for s in known(plan)
            ]
            assert max(per_fold) - min(per_fold) <= 1

    def test_seed_sensitivity_smoke(self):
        table = table_from_counts({"Benign": 40, "A": 20})
        p1 = make_fold_plan(table, k=5, seed=0)
        p2 = make_fold_plan(table, k=5, seed=1)
        assert not np.array_equal(p1.fold, p2.fold)


class TestZeroDayScenarios:
    def test_counts_classes_times_folds(self):
        table = table_from_counts({"Benign": 30, "A": 10, "B": 10, "C": 10})
        plan = make_fold_plan(table, k=5, seed=0)
        scenarios = make_zero_day_scenarios(plan, table)
        assert len(scenarios) == 3 * 5

    def test_exclusion(self):
        table = table_from_counts({"Benign": 30, "Worms": 9, "Dos": 12})
        plan = make_fold_plan(table, k=3, seed=0)
        for s in make_zero_day_scenarios(plan, table):
            code = table.class_names.index(s.held_out)
            assert not np.any(table.class_codes[fold_train(s, plan, table)] == code)

    def test_test_side_untouched_and_disjoint(self):
        table = table_from_counts({"Benign": 30, "A": 10, "B": 10})
        plan = make_fold_plan(table, k=5, seed=0)
        for s in make_zero_day_scenarios(plan, table):
            train, test = scenario_rows(s, plan, table)
            assert np.array_equal(test, fold_test(Scenario(None, s.fold_id), plan, table))
            assert np.intersect1d(train, test).size == 0

    def test_generalized_shape_mixes_seen_and_unseen(self):
        table = table_from_counts({"Benign": 30, "A": 10, "B": 10})
        plan = make_fold_plan(table, k=5, seed=0)
        for s in make_zero_day_scenarios(plan, table):
            test_codes = set(table.class_codes[fold_test(s, plan, table)].tolist())
            assert table.class_names.index(s.held_out) in test_codes
            assert len(test_codes) == 3

    def test_coverage_per_class(self):
        table = table_from_counts({"Benign": 21, "A": 14})
        plan = make_fold_plan(table, k=5, seed=0)
        scenarios = [s for s in make_zero_day_scenarios(plan, table) if s.held_out == "A"]
        union = np.concatenate([fold_test(s, plan, table) for s in scenarios])
        assert np.array_equal(np.sort(union), np.arange(table.row_count))

    def test_single_attack_class_degenerate(self):
        table = table_from_counts({"Benign": 10, "A": 4})
        plan = make_fold_plan(table, k=2, seed=0)
        scenarios = make_zero_day_scenarios(plan, table)
        assert len(scenarios) == 2
        for s in scenarios:
            assert np.all(table.class_codes[fold_train(s, plan, table)] == 0)  # benign only


class TestKnownScenarios:
    def test_k_scenarios_mirroring_folds(self):
        table = table_from_counts({"Benign": 30, "A": 10})
        plan = make_fold_plan(table, k=5, seed=0)
        assert len(known(plan)) == 5
        for f, s in enumerate(known(plan)):
            train, test = scenario_rows(s, plan, table)
            assert np.array_equal(test, np.flatnonzero(plan.fold == f))
            assert np.array_equal(train, np.flatnonzero(plan.fold != f))

    def test_each_row_tested_once(self):
        table = table_from_counts({"Benign": 13, "A": 9})
        plan = make_fold_plan(table, k=3, seed=0)
        union = np.concatenate([fold_test(s, plan, table) for s in known(plan)])
        assert np.array_equal(np.sort(union), np.arange(table.row_count))

    def test_rare_class_warning(self):
        # one row of A: it lands in exactly one fold's test, so that fold's
        # training side is missing A entirely
        table = table_from_counts({"Benign": 10, "A": 1})
        plan = make_fold_plan(table, k=2, seed=0)
        assert any("'A'" in w for w in fold_warnings(plan, table))


@st.composite
def random_tables(draw):
    n_classes = draw(st.integers(1, 4))
    counts = {"Benign": draw(st.integers(0, 30))}
    for i in range(n_classes):
        counts[f"atk{i}"] = draw(st.integers(1, 25))
    k = draw(st.integers(2, 5))
    seed = draw(st.integers(0, 2**32))
    return counts, k, seed


@given(random_tables())
@settings(max_examples=60, deadline=None)
def test_split_invariants_property(case):
    counts, k, seed = case
    table = table_from_counts(counts)
    if k > table.row_count:
        return
    plan = make_fold_plan(table, k=k, seed=seed)
    n = table.row_count

    all_test = np.concatenate([fold_test(s, plan, table) for s in known(plan)])
    assert np.array_equal(np.sort(all_test), np.arange(n))
    for code in range(len(table.class_names)):
        per_fold = [int((table.class_codes[fold_test(s, plan, table)] == code).sum()) for s in known(plan)]
        assert max(per_fold) - min(per_fold) <= 1
    for s in make_zero_day_scenarios(plan, table):
        code = table.class_names.index(s.held_out)
        train, test = scenario_rows(s, plan, table)
        assert not np.any(table.class_codes[train] == code)
        assert np.intersect1d(train, test).size == 0


@st.composite
def oracle_cases(draw):
    k = draw(st.integers(2, 7))
    tiny = draw(st.booleans())  # every class smaller than k, so some folds get no test rows
    most = k - 1 if tiny else 25
    counts = {"Benign": draw(st.integers(0, most))}
    for i in range(draw(st.integers(1, 4))):
        counts[f"atk{i}"] = draw(st.integers(1, most))
    return counts, k, draw(st.integers(0, 2**32 - 1)), draw(st.integers(0, 2**63 - 1))


@given(oracle_cases())
@example(({"Benign": 2, "atk0": 3, "atk1": 1}, 5, 0, 7))  # folds 3 and 4 have no test rows
@example(({"Benign": 0, "atk0": 1, "atk1": 1}, 2, 1, 3))  # no benign rows at all
@settings(max_examples=150, deadline=None)
def test_derived_rows_match_stored_arrays_oracle(case):
    counts, k, shuffle, seed = case
    laid_out = table_from_counts(counts)
    assume(k <= laid_out.row_count)
    codes = laid_out.class_codes[np.random.default_rng(shuffle).permutation(laid_out.row_count)]
    table = coded_table(codes, laid_out.class_names)
    plan = make_fold_plan(table, k=k, seed=seed)
    folds = stored_fold_plan(table, k, seed)

    assert plan.sparse_classes == tuple(c for c, n in zip(table.class_names, table.class_counts) if 0 < n < k)
    for f, (train, test) in enumerate(folds):
        got_train, got_test = scenario_rows(Scenario(None, f), plan, table)
        assert np.array_equal(got_train, train) and np.array_equal(got_test, test)
    stored = stored_zero_day_scenarios(folds, table)
    scenarios = make_zero_day_scenarios(plan, table)
    assert [(s.held_out, s.fold_id) for s in scenarios] == list(stored)
    for s in scenarios:
        got_train, got_test = scenario_rows(s, plan, table)
        train, test = stored[(s.held_out, s.fold_id)]
        assert np.array_equal(got_train, train) and np.array_equal(got_test, test)
    # a scenario's train groups hold exactly its train rows
    every = [Scenario(None, f) for f in range(k)] + scenarios
    groups = row_groups(plan, table)
    for s, allowed in zip(every, train_groups(every, plan, table)):
        assert np.array_equal(np.flatnonzero(allowed[groups]), scenario_rows(s, plan, table)[0])
    assert fold_warnings(plan, table) == stored_fold_warnings(folds, table)


def test_table_codes_times_folds_do_not_wrap():
    # 30 attack classes and k=10: fold_warnings' code * k + fold passes 255, so a table
    # whose class codes were narrowed to uint8 would count its folds in the wrong bins
    rows = [{"x": float(i), "attack_class": f"atk{i % 30}", "label": 1} for i in range(90)]
    table = make_table(rows)
    plan = make_fold_plan(table, k=10, seed=3)
    assert fold_warnings(plan, table) == stored_fold_warnings(stored_fold_plan(table, 10, 3), table)
