"""Zero-day evaluation splits.

A fold plan stratifies all rows by attack class into k disjoint test folds.
From it we derive two scenario families, both of the one `Scenario` type:
the traditional known-attack split (train and test share the full class
set) and zero-day scenarios, where one attack class is removed from a fold's
training rows while the test rows keep every class. Mean metrics over the k
folds are what get reported.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .flowdata import ClassCatalog

GENERATOR_ID = "numpy-pcg64"
_MAX_ROWS = np.iinfo(np.int32).max  # scenario row indices are int32


@dataclass(frozen=True, eq=False)
class Scenario:
    """One fold's train/test split, with one attack class held out of training or none.

    `held_out=None` is the known-attack split: the fold's own train and test
    rows, every class on both sides. Otherwise the training rows are the
    fold's train set minus every row of the held-out class, and the test rows
    are the fold's test set untouched, so the test side mixes seen classes
    with the unseen one. Both index arrays are sorted int32 row indices.
    """

    held_out: str | None
    fold_id: int
    train_indices: np.ndarray
    test_indices: np.ndarray
    warnings: tuple[str, ...] = ()


@dataclass(frozen=True, eq=False)
class FoldPlan:
    """Stratified k-fold partition of the row indices.

    Test folds are pairwise disjoint and cover all rows; each fold's train
    set is the complement of its test set, and each fold is a known-attack
    `Scenario`. Per class, per-fold test counts differ by at most one.
    `sparse_classes` flags classes with fewer rows than folds.
    """

    k: int
    seed: int
    folds: tuple[Scenario, ...]
    sparse_classes: tuple[str, ...]
    generator: str = GENERATOR_ID


def make_fold_plan(catalog: ClassCatalog, k: int = 5, seed: int = 0) -> FoldPlan:
    """Stratified k-fold plan over the catalog's rows, deterministic per seed.

    Each class's rows are shuffled and dealt into k contiguous chunks whose
    sizes differ by at most one; chunk f joins fold f's test set.
    """
    n = catalog.row_count
    if k < 2:
        raise ValueError(f"fold count must be >= 2, got {k}")
    if k > n:
        raise ValueError(f"fold count {k} exceeds row count {n}")
    if n > _MAX_ROWS:
        raise ValueError(f"row count {n} exceeds {_MAX_ROWS}, the most rows that int32 row indices can address")

    rng = np.random.default_rng(np.random.SeedSequence(seed))
    test_parts: list[list[np.ndarray]] = [[] for _ in range(k)]
    sparse = []
    for code, name in enumerate(catalog.class_order):
        rows = np.flatnonzero(catalog.class_codes == code)
        if rows.size == 0:
            continue
        if rows.size < k:
            sparse.append(name)
        perm = rng.permutation(rows)
        base, rem = divmod(rows.size, k)
        start = 0
        for f in range(k):
            size = base + (1 if f < rem else 0)
            test_parts[f].append(perm[start : start + size])
            start += size

    all_idx = np.arange(n, dtype=np.int32)
    folds = []
    for f in range(k):
        test = np.sort(np.concatenate(test_parts[f])) if test_parts[f] else np.empty(0, dtype=np.int64)
        mask = np.ones(n, dtype=bool)
        mask[test] = False
        folds.append(Scenario(None, f, all_idx[mask], test.astype(np.int32)))
    return FoldPlan(k, seed, tuple(folds), tuple(sparse))


def make_zero_day_scenarios(plan: FoldPlan, catalog: ClassCatalog) -> list[Scenario]:
    """All held-out-class x fold combinations (attack classes x k scenarios)."""
    scenarios = []
    for name in catalog.attack_names:
        code = catalog.code_of(name)
        for fold in plan.folds:
            keep = catalog.class_codes[fold.train_indices] != code
            scenarios.append(
                Scenario(name, fold.fold_id, fold.train_indices[keep], fold.test_indices)
            )
    return scenarios


def make_known_scenarios(plan: FoldPlan, catalog: ClassCatalog) -> list[Scenario]:
    """The plan's folds, each with a warning per class that misses a side."""
    scenarios = []
    for fold in plan.folds:
        warnings = []
        train_codes = set(np.unique(catalog.class_codes[fold.train_indices]).tolist())
        test_codes = set(np.unique(catalog.class_codes[fold.test_indices]).tolist())
        for code in sorted(test_codes - train_codes):
            warnings.append(
                f"class {catalog.class_order[code]!r} appears in fold {fold.fold_id} test but not train"
            )
        for code in sorted(train_codes - test_codes):
            warnings.append(
                f"class {catalog.class_order[code]!r} appears in fold {fold.fold_id} train but not test"
            )
        scenarios.append(replace(fold, warnings=tuple(warnings)))
    return scenarios
