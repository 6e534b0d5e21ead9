"""Zero-day evaluation splits.

A fold plan stratifies all rows by attack class into k disjoint test folds,
recorded as one fold id per row. A scenario is a (held-out class, fold)
key: the traditional known-attack split (no class held out; train and test
share the full class set) or a zero-day scenario, where one attack class is
removed from a fold's training rows while the test rows keep every class.
`scenario_rows` derives a scenario's rows from the plan where they are used.
A scenario's train rows are also a union of (class, fold) row groups
(`row_groups`, `train_groups`), which is how the train-only fits see them.
Mean metrics over the k folds are what get reported.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .flowdata import FlowTable

GENERATOR_ID = "numpy-pcg64"


@dataclass(frozen=True)
class Scenario:
    """One fold's train/test split, with one attack class held out of training or none.

    `held_out=None` is the known-attack split: the fold's own train and test
    rows, every class on both sides. Otherwise the training rows are the
    fold's train set minus every row of the held-out class, and the test rows
    are the fold's test set untouched, so the test side mixes seen classes
    with the unseen one.
    """

    held_out: str | None
    fold_id: int


@dataclass(frozen=True, eq=False)
class FoldPlan:
    """Stratified k-fold partition of the rows.

    `fold[i]` is the test fold of row i, in the smallest unsigned dtype that
    holds k - 1; each fold's train set is every other row. Per class,
    per-fold test counts differ by at most one. `sparse_classes` flags
    classes with fewer rows than folds.
    """

    k: int
    seed: int
    fold: np.ndarray
    sparse_classes: tuple[str, ...]
    generator: str = GENERATOR_ID


def make_fold_plan(table: FlowTable, k: int = 5, seed: int = 0) -> FoldPlan:
    """Stratified k-fold plan over the table's rows, deterministic per seed.

    Each class's rows, in code order, are shuffled and dealt into k
    contiguous chunks whose sizes differ by at most one; chunk f joins fold
    f's test set.
    """
    n = table.row_count
    if k < 2:
        raise ValueError(f"fold count must be >= 2, got {k}")
    if k > n:
        raise ValueError(f"fold count {k} exceeds row count {n}")

    rng = np.random.default_rng(np.random.SeedSequence(seed))
    fold = np.empty(n, dtype=np.min_scalar_type(k - 1))
    fold_ids = np.arange(k, dtype=fold.dtype)
    sparse = []
    for code, name in enumerate(table.class_names):
        rows = np.flatnonzero(table.class_codes == code)
        if rows.size == 0:
            continue
        if rows.size < k:
            sparse.append(name)
        base, rem = divmod(rows.size, k)
        fold[rng.permutation(rows)] = np.repeat(fold_ids, base + (fold_ids < rem))
    return FoldPlan(k, seed, fold, tuple(sparse))


def make_zero_day_scenarios(plan: FoldPlan, table: FlowTable) -> list[Scenario]:
    """All held-out-class x fold combinations (attack classes x k scenarios), in code order."""
    return [Scenario(name, f) for name in table.attack_names for f in range(plan.k)]


def scenario_rows(scenario: Scenario, plan: FoldPlan, table: FlowTable) -> tuple[np.ndarray, np.ndarray]:
    """The scenario's sorted train and test row indices."""
    test = plan.fold == scenario.fold_id
    train = ~test
    if scenario.held_out is not None:
        train &= table.class_codes != table.class_names.index(scenario.held_out)
    return np.flatnonzero(train), np.flatnonzero(test)


def row_groups(plan: FoldPlan, table: FlowTable) -> np.ndarray:
    """Each row's (class, fold) group: its class code times k plus its test fold."""
    return table.class_codes * plan.k + plan.fold


def train_groups(scenarios: list[Scenario], plan: FoldPlan, table: FlowTable) -> np.ndarray:
    """Per scenario, the `row_groups` its train rows are: every class but the held-out one, in every other fold."""
    train = np.ones((len(scenarios), len(table.class_names), plan.k), dtype=bool)
    for i, s in enumerate(scenarios):
        train[i, :, s.fold_id] = False
        if s.held_out is not None:
            train[i, table.class_names.index(s.held_out)] = False
    return train.reshape(len(scenarios), -1)


def fold_warnings(plan: FoldPlan, table: FlowTable) -> list[str]:
    """A warning per (fold, class) whose class misses one side of the fold's known-attack split."""
    n_classes = len(table.class_names)
    in_test = np.bincount(row_groups(plan, table), minlength=n_classes * plan.k).reshape(n_classes, plan.k)
    in_train = in_test.sum(axis=1, keepdims=True) - in_test
    warnings = []
    for f in range(plan.k):
        test, train = in_test[:, f], in_train[:, f]
        for code in np.flatnonzero((test > 0) & (train == 0)):
            warnings.append(f"class {table.class_names[code]!r} appears in fold {f} test but not train")
        for code in np.flatnonzero((train > 0) & (test == 0)):
            warnings.append(f"class {table.class_names[code]!r} appears in fold {f} train but not test")
    return warnings
