from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zdeval.flowdata import ClassCatalog
from zdeval.zslsplit import make_fold_plan, make_known_scenarios, make_zero_day_scenarios


def catalog_from_counts(counts: dict[str, int], benign_name: str = "Benign") -> ClassCatalog:
    """Catalog with class blocks laid out in dict order."""
    attack_names = tuple(n for n in counts if n != benign_name)
    order = [benign_name] + list(attack_names)
    codes = np.concatenate(
        [np.full(counts.get(name, 0), order.index(name), dtype=np.int64) for name in order]
    ) if sum(counts.values()) else np.empty(0, dtype=np.int64)
    full = dict(counts)
    full.setdefault(benign_name, 0)
    return ClassCatalog(benign_name, attack_names, full, codes)


class TestFoldPlan:
    def test_single_class_even_split(self):
        catalog = catalog_from_counts({"Benign": 0, "X": 10})
        plan = make_fold_plan(catalog, k=5, seed=0)
        for fold in plan.folds:
            assert fold.test_indices.size == 2

    def test_determinism(self):
        catalog = catalog_from_counts({"Benign": 20, "A": 11, "B": 7})
        p1 = make_fold_plan(catalog, k=5, seed=9)
        p2 = make_fold_plan(catalog, k=5, seed=9)
        for f1, f2 in zip(p1.folds, p2.folds):
            assert np.array_equal(f1.test_indices, f2.test_indices)
            assert np.array_equal(f1.train_indices, f2.train_indices)

    def test_sparse_class_flagged(self):
        catalog = catalog_from_counts({"Benign": 20, "A": 3})
        plan = make_fold_plan(catalog, k=5, seed=1)
        assert plan.sparse_classes == ("A",)

    def test_k_bounds(self):
        catalog = catalog_from_counts({"Benign": 2, "A": 1})
        with pytest.raises(ValueError, match=">= 2"):
            make_fold_plan(catalog, k=1, seed=0)
        with pytest.raises(ValueError, match="exceeds"):
            make_fold_plan(catalog, k=4, seed=0)

    def test_row_count_beyond_int32_indices_rejected(self):
        # a stand-in catalog: 2**31 real rows would need gigabytes; the guard
        # must fire before any row is read or any index is built
        catalog = SimpleNamespace(row_count=2**31)
        with pytest.raises(ValueError, match="int32"):
            make_fold_plan(catalog, k=5, seed=0)

    def test_indices_are_int32(self):
        catalog = catalog_from_counts({"Benign": 30, "A": 10, "B": 10})
        plan = make_fold_plan(catalog, k=5, seed=0)
        scenarios = [*plan.folds, *make_zero_day_scenarios(plan, catalog), *make_known_scenarios(plan, catalog)]
        for s in scenarios:
            assert s.train_indices.dtype == np.int32 and s.test_indices.dtype == np.int32

    def test_partition_properties(self):
        catalog = catalog_from_counts({"Benign": 33, "A": 17, "B": 5})
        plan = make_fold_plan(catalog, k=4, seed=2)
        n = catalog.row_count
        all_test = np.concatenate([f.test_indices for f in plan.folds])
        assert np.array_equal(np.sort(all_test), np.arange(n))  # disjoint cover
        for fold in plan.folds:
            assert np.intersect1d(fold.train_indices, fold.test_indices).size == 0
            assert fold.train_indices.size + fold.test_indices.size == n

    def test_stratification_within_one(self):
        catalog = catalog_from_counts({"Benign": 23, "A": 11, "B": 6})
        plan = make_fold_plan(catalog, k=5, seed=3)
        for code in range(3):
            per_fold = [
                int((catalog.class_codes[f.test_indices] == code).sum()) for f in plan.folds
            ]
            assert max(per_fold) - min(per_fold) <= 1

    def test_seed_sensitivity_smoke(self):
        catalog = catalog_from_counts({"Benign": 40, "A": 20})
        p1 = make_fold_plan(catalog, k=5, seed=0)
        p2 = make_fold_plan(catalog, k=5, seed=1)
        assert any(
            not np.array_equal(f1.test_indices, f2.test_indices)
            for f1, f2 in zip(p1.folds, p2.folds)
        )


class TestZeroDayScenarios:
    def test_counts_classes_times_folds(self):
        catalog = catalog_from_counts({"Benign": 30, "A": 10, "B": 10, "C": 10})
        plan = make_fold_plan(catalog, k=5, seed=0)
        scenarios = make_zero_day_scenarios(plan, catalog)
        assert len(scenarios) == 3 * 5

    def test_exclusion(self):
        catalog = catalog_from_counts({"Benign": 30, "Worms": 9, "Dos": 12})
        plan = make_fold_plan(catalog, k=3, seed=0)
        for s in make_zero_day_scenarios(plan, catalog):
            code = catalog.code_of(s.held_out)
            assert not np.any(catalog.class_codes[s.train_indices] == code)

    def test_test_side_untouched_and_disjoint(self):
        catalog = catalog_from_counts({"Benign": 30, "A": 10, "B": 10})
        plan = make_fold_plan(catalog, k=5, seed=0)
        for s in make_zero_day_scenarios(plan, catalog):
            fold = plan.folds[s.fold_id]
            assert np.array_equal(s.test_indices, fold.test_indices)
            assert np.intersect1d(s.train_indices, s.test_indices).size == 0

    def test_generalized_shape_mixes_seen_and_unseen(self):
        catalog = catalog_from_counts({"Benign": 30, "A": 10, "B": 10})
        plan = make_fold_plan(catalog, k=5, seed=0)
        for s in make_zero_day_scenarios(plan, catalog):
            test_codes = set(catalog.class_codes[s.test_indices].tolist())
            assert catalog.code_of(s.held_out) in test_codes
            assert len(test_codes) == 3

    def test_coverage_per_class(self):
        catalog = catalog_from_counts({"Benign": 21, "A": 14})
        plan = make_fold_plan(catalog, k=5, seed=0)
        scenarios = [s for s in make_zero_day_scenarios(plan, catalog) if s.held_out == "A"]
        union = np.concatenate([s.test_indices for s in scenarios])
        assert np.array_equal(np.sort(union), np.arange(catalog.row_count))

    def test_single_attack_class_degenerate(self):
        catalog = catalog_from_counts({"Benign": 10, "A": 4})
        plan = make_fold_plan(catalog, k=2, seed=0)
        scenarios = make_zero_day_scenarios(plan, catalog)
        assert len(scenarios) == 2
        for s in scenarios:
            assert np.all(catalog.class_codes[s.train_indices] == 0)  # benign only


class TestKnownScenarios:
    def test_k_scenarios_mirroring_folds(self):
        catalog = catalog_from_counts({"Benign": 30, "A": 10})
        plan = make_fold_plan(catalog, k=5, seed=0)
        scenarios = make_known_scenarios(plan, catalog)
        assert len(scenarios) == 5
        for s, fold in zip(scenarios, plan.folds):
            assert s.held_out is None and s.fold_id == fold.fold_id
            assert np.array_equal(s.train_indices, fold.train_indices)
            assert np.array_equal(s.test_indices, fold.test_indices)

    def test_each_row_tested_once(self):
        catalog = catalog_from_counts({"Benign": 13, "A": 9})
        plan = make_fold_plan(catalog, k=3, seed=0)
        union = np.concatenate([s.test_indices for s in make_known_scenarios(plan, catalog)])
        assert np.array_equal(np.sort(union), np.arange(catalog.row_count))

    def test_rare_class_warning(self):
        # one row of A: it lands in exactly one fold's test, so that fold's
        # training side is missing A entirely
        catalog = catalog_from_counts({"Benign": 10, "A": 1})
        plan = make_fold_plan(catalog, k=2, seed=0)
        scenarios = make_known_scenarios(plan, catalog)
        assert any("'A'" in w for s in scenarios for w in s.warnings)


@st.composite
def random_catalogs(draw):
    n_classes = draw(st.integers(1, 4))
    counts = {"Benign": draw(st.integers(0, 30))}
    for i in range(n_classes):
        counts[f"atk{i}"] = draw(st.integers(1, 25))
    k = draw(st.integers(2, 5))
    seed = draw(st.integers(0, 2**32))
    return counts, k, seed


@given(random_catalogs())
@settings(max_examples=60, deadline=None)
def test_split_invariants_property(case):
    counts, k, seed = case
    catalog = catalog_from_counts(counts)
    if k > catalog.row_count:
        return
    plan = make_fold_plan(catalog, k=k, seed=seed)
    n = catalog.row_count

    all_test = np.concatenate([f.test_indices for f in plan.folds])
    assert np.array_equal(np.sort(all_test), np.arange(n))
    for code in range(len(catalog.class_order)):
        per_fold = [int((catalog.class_codes[f.test_indices] == code).sum()) for f in plan.folds]
        assert max(per_fold) - min(per_fold) <= 1
    for s in make_zero_day_scenarios(plan, catalog):
        code = catalog.code_of(s.held_out)
        assert not np.any(catalog.class_codes[s.train_indices] == code)
        assert np.intersect1d(s.train_indices, s.test_indices).size == 0
