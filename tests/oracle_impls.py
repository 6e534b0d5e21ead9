"""Independent brute-force oracles the fast implementations are checked against.

Everything here is written the naive way on purpose: plain loops, all-pairs
comparisons, Fraction-exact CDF counting, a fresh sort at every tree node,
three sorts and two full-length searches per Wasserstein distance, or a
sort of each side and a merge for every scenario and feature, string
encoding and scaling of the whole table once per fit, a gathered block and
a full-table clamp count per train-only fit, stored row arrays
for every fold and zero-day scenario, `np.unique` over fixed-width
copies of the string columns for a table summary, and a CSV loader that
reads one row at a time through the `csv` module and one cell at a time
through `float`.
None of it shares code with the package; the forest oracle grows its own
node objects and writes them out as a model document, so it shares only
the saved format with the package, and the CSV loader only the table type
and the error type it returns and raises.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from zdeval.classifiers import ForestConfig
from zdeval.errors import DataError
from zdeval.preprocess import FittedTransform, PrepCounters

SCORE_EPS = 1e-12


def brute_confusion(y_true, y_pred) -> dict[str, int]:
    counts = {"tp": 0, "fp": 0, "tn": 0, "fn": 0}
    for t, p in zip(y_true, y_pred):
        if t == 1 and p == 1:
            counts["tp"] += 1
        elif t == 0 and p == 1:
            counts["fp"] += 1
        elif t == 0 and p == 0:
            counts["tn"] += 1
        else:
            counts["fn"] += 1
    return counts


def brute_basic_metrics(y_true, y_pred) -> dict[str, float | None]:
    c = brute_confusion(y_true, y_pred)
    total = sum(c.values())
    out: dict[str, float | None] = {"accuracy": (c["tp"] + c["tn"]) / total * 100.0}
    out["dr"] = c["tp"] / (c["tp"] + c["fn"]) * 100.0 if c["tp"] + c["fn"] else None
    out["far"] = c["fp"] / (c["fp"] + c["tn"]) * 100.0 if c["fp"] + c["tn"] else None
    out["precision"] = c["tp"] / (c["tp"] + c["fp"]) if c["tp"] + c["fp"] else None
    if out["precision"] is None or out["dr"] is None:
        out["f1"] = None
    else:
        recall = out["dr"] / 100.0
        out["f1"] = 2 * out["precision"] * recall / (out["precision"] + recall) if out["precision"] + recall else None
    return out


def pairwise_auc(y_true, scores) -> float | None:
    pos = [s for t, s in zip(y_true, scores) if t == 1]
    neg = [s for t, s in zip(y_true, scores) if t == 0]
    if not pos or not neg:
        return None
    wins = 0.0
    for sp in pos:
        for sn in neg:
            if sp > sn:
                wins += 1.0
            elif sp == sn:
                wins += 0.5
    return wins / (len(pos) * len(neg))


def brute_zdr(y_pred, attack_classes, held_out) -> float | None:
    hits = 0
    total = 0
    for p, c in zip(y_pred, attack_classes):
        if c == held_out:
            total += 1
            hits += int(p == 1)
    return hits / total * 100.0 if total else None


def sorted_diff_wd(u, v) -> float:
    """Equal-size first Wasserstein distance: mean |sorted u - sorted v|."""
    u = sorted(u)
    v = sorted(v)
    assert len(u) == len(v)
    return sum(abs(a - b) for a, b in zip(u, v)) / len(u)


def three_sort_wd(u, v) -> float:
    """The earlier exact kernel: sort each side and their concatenation,
    then count every breakpoint with `searchsorted`. The merge kernel must
    equal it bit for bit."""
    u_sorted = np.sort(np.asarray(u, dtype=np.float64).ravel())
    v_sorted = np.sort(np.asarray(v, dtype=np.float64).ravel())
    breakpoints = np.sort(np.concatenate([u_sorted, v_sorted]))
    deltas = np.diff(breakpoints)
    u_cdf = np.searchsorted(u_sorted, breakpoints[:-1], side="right") / u_sorted.size
    v_cdf = np.searchsorted(v_sorted, breakpoints[:-1], side="right") / v_sorted.size
    return float(np.sum(np.abs(u_cdf - v_cdf) * deltas))


def merge_wd(base, train_rows, test_rows, transform) -> dict[str, float]:
    """Per feature, the distance between the rows' two sides as a job per scenario computed it.

    Each side is read through `transform.column` into one workspace, sorted
    on its own, and the two sorted runs merged by a stable argsort; the
    cumulative counts of each side are then integrated over the merged
    values. The one-sort kernel must equal it bit for bit.
    """
    train_rows, test_rows = np.asarray(train_rows, dtype=np.int64), np.asarray(test_rows, dtype=np.int64)
    n_u, n_v = train_rows.size, test_rows.size
    if n_u == 0 or n_v == 0:
        raise ValueError("per_feature_wd requires nonempty train and test sets")
    n = n_u + n_v
    values, merged = np.empty(n), np.empty(n)
    u, v = values[:n_u], values[n_u:]
    ranks = np.arange(1.0, n)
    out = {}
    for j, name in enumerate(base.feature_names):
        transform.column(base, train_rows, j, out=u)
        transform.column(base, test_rows, j, out=v)
        u.sort()
        v.sort()
        if not (np.isfinite(u[0]) and np.isfinite(u[-1]) and np.isfinite(v[0]) and np.isfinite(v[-1])):
            raise ValueError(f"per_feature_wd (feature {name!r}) requires finite sample values")
        order = np.argsort(values, kind="stable")
        np.take(values, order, out=merged)
        v_count = np.cumsum(order[:-1] >= n_u).astype(np.float64)
        u_count = ranks - v_count
        u_count /= n_u
        v_count /= n_v
        terms = np.abs(u_count - v_count)
        terms *= merged[1:] - merged[:-1]
        out[name] = float(np.sum(terms))
    return out


def cdf_grid_wd(u, v) -> float:
    """CDF integration with Fraction-exact step heights, any sample sizes."""
    grid = sorted(set(u) | set(v))
    nu, nv = len(u), len(v)
    total = 0.0
    for lo, hi in zip(grid[:-1], grid[1:]):
        fu = Fraction(sum(1 for x in u if x <= lo), nu)
        fv = Fraction(sum(1 for x in v if x <= lo), nv)
        total += abs(float(fu - fv)) * (hi - lo)
    return total


def spearman_oracle(xs, ys) -> float:
    """Pearson correlation of average ranks, loops only."""

    def ranks(values):
        order = sorted(range(len(values)), key=lambda i: values[i])
        out = [0.0] * len(values)
        i = 0
        while i < len(values):
            j = i
            while j + 1 < len(values) and values[order[j + 1]] == values[order[i]]:
                j += 1
            mean_rank = (i + j) / 2 + 1
            for k in range(i, j + 1):
                out[order[k]] = mean_rank
            i = j + 1
        return out

    rx, ry = ranks(list(xs)), ranks(list(ys))
    mx = sum(rx) / len(rx)
    my = sum(ry) / len(ry)
    num = sum((a - mx) * (b - my) for a, b in zip(rx, ry))
    den = (sum((a - mx) ** 2 for a in rx) * sum((b - my) ** 2 for b in ry)) ** 0.5
    return num / den


def roc_curve_points(y_true, scores) -> list[tuple[float, float]]:
    """(FPR, TPR) at every distinct threshold, plus the (0,0)/(1,1) ends."""
    y_true = np.asarray(y_true)
    scores = np.asarray(scores, dtype=float)
    pos = max(int((y_true == 1).sum()), 1)
    neg = max(int((y_true == 0).sum()), 1)
    points = {(0.0, 0.0), (1.0, 1.0)}
    for t in np.unique(scores):
        pred = (scores >= t).astype(int)
        tp = int(((y_true == 1) & (pred == 1)).sum())
        fp = int(((y_true == 0) & (pred == 1)).sum())
        points.add((fp / neg, tp / pos))
    return sorted(points)


def loop_average_ranks(values) -> np.ndarray:
    """1-based ranks, ties given their group's mean rank, one group at a time."""
    values = np.asarray(values, dtype=np.float64)
    order = np.argsort(values, kind="stable")
    ranks = np.empty(values.size, dtype=np.float64)
    i = 0
    while i < values.size:
        j = i
        while j + 1 < values.size and values[order[j + 1]] == values[order[i]]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def best_split_for_feature(values: np.ndarray, y: np.ndarray, min_leaf: int) -> tuple[float, float] | None:
    """Best (weighted child Gini, threshold) for one feature of one node, or None.

    Sorts the node's values afresh and scans every midpoint between
    consecutive distinct values; among scores within SCORE_EPS of the best
    the lowest threshold wins.
    """
    order = np.argsort(values, kind="stable")
    v = values[order]
    labels = y[order]
    n = v.size

    attack_prefix = np.cumsum(labels)
    total_attack = attack_prefix[-1]
    # split after position i puts i+1 rows on the left
    cut = np.flatnonzero(v[:-1] < v[1:])
    if cut.size == 0:
        return None
    n_left = cut + 1
    n_right = n - n_left
    valid = (n_left >= min_leaf) & (n_right >= min_leaf)
    if not valid.any():
        return None
    cut = cut[valid]
    n_left = n_left[valid]
    n_right = n_right[valid]

    a_left = attack_prefix[cut]
    b_left = n_left - a_left
    a_right = total_attack - a_left
    b_right = n_right - a_right

    gini_left = 1.0 - (b_left / n_left) ** 2 - (a_left / n_left) ** 2
    gini_right = 1.0 - (b_right / n_right) ** 2 - (a_right / n_right) ** 2
    weighted = (n_left * gini_left + n_right * gini_right) / n

    best = weighted.min()
    first = int(np.flatnonzero(weighted <= best + SCORE_EPS)[0])
    below, above = v[cut[first]], v[cut[first] + 1]
    threshold = 0.5 * (below + above)
    if not threshold < above:
        threshold = below
    return float(weighted[first]), float(threshold)


@dataclass(eq=False)
class Node:
    """Internal node (feature, threshold, children) or leaf (fraction, count)."""

    fraction: float = 0.0
    count: int = 0
    feature: int = -1
    threshold: float = math.nan
    left: "Node | None" = None
    right: "Node | None" = None


def per_node_sort_tree(X: np.ndarray, y: np.ndarray, cfg: ForestConfig, rng: np.random.Generator) -> Node:
    """One Gini tree grown by sorting every candidate feature at every node.

    Candidate features are drawn from `rng` in preorder (left child first);
    a later feature must beat the best so far by more than SCORE_EPS.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    d = X.shape[1]
    m_try = cfg.resolve_m_try(d)
    root = Node()
    stack = [(root, np.arange(X.shape[0]), 0)]
    while stack:
        node, rows, depth = stack.pop()
        labels = y[rows]
        n_attack = int(labels.sum())
        node.count = rows.size
        node.fraction = n_attack / rows.size

        pure = n_attack == 0 or n_attack == rows.size
        at_depth = cfg.max_depth is not None and depth >= cfg.max_depth
        too_small = rows.size < 2 * cfg.min_samples_leaf
        if pure or at_depth or too_small:
            continue

        candidates = np.sort(rng.choice(d, size=m_try, replace=False)) if d else np.empty(0, int)
        best_score = math.inf
        best_feature = -1
        best_threshold = math.nan
        for f in candidates:
            found = best_split_for_feature(X[rows, f], labels, cfg.min_samples_leaf)
            if found is None:
                continue
            score, threshold = found
            if score < best_score - SCORE_EPS:
                best_score, best_feature, best_threshold = score, int(f), threshold
        if best_feature < 0:
            continue

        node.feature = best_feature
        node.threshold = best_threshold
        go_left = X[rows, best_feature] <= best_threshold
        node.left = Node()
        node.right = Node()
        stack.append((node.right, rows[~go_left], depth + 1))
        stack.append((node.left, rows[go_left], depth + 1))
    return root


def node_tree_json(root: Node) -> dict:
    """The model format's flat preorder lists; a leaf has feature -1 and threshold null."""
    out: dict[str, list] = {"feature": [], "threshold": [], "fraction": [], "count": []}
    stack = [root]
    while stack:
        node = stack.pop()
        leaf = node.left is None
        out["feature"].append(-1 if leaf else node.feature)
        out["threshold"].append(None if leaf else node.threshold)
        out["fraction"].append(node.fraction)
        out["count"].append(node.count)
        if not leaf:
            stack.append(node.right)
            stack.append(node.left)
    return out


def per_node_sort_forest(X: np.ndarray, y: np.ndarray, cfg: ForestConfig, seed: int) -> dict:
    """The saved model document (format version 2) of a forest of
    `per_node_sort_tree`s, each on the materialized bootstrap rows X[sample]."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    n = X.shape[0]
    trees = []
    for i in range(cfg.n_trees):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(i,)))
        sample = rng.integers(0, n, size=n)
        trees.append(per_node_sort_tree(X[sample], y[sample], cfg, rng))
    return {
        "format": "zdeval-model", "version": 2, "kind": "forest", "n_features": X.shape[1],
        "m_try": cfg.resolve_m_try(X.shape[1]), "seed": seed, "trees": [node_tree_json(t) for t in trees],
    }


def string_pipeline(schema, cells, train_indices=None) -> dict:
    """Drop identifiers, encode and min-max scale a table's raw cells the string way.

    `cells` maps each feature column of `schema` to its cells, as the test
    built them: numbers for a numeric column, strings for a categorical one.
    The encoder and the scaler are fitted on `train_indices` (all rows when
    None) and applied to every row: `np.unique` over each categorical
    column's strings for both the fit and the application, one float64
    matrix per stage. Returns the mappings (insertion order is code order),
    the scaler ranges (a zero end as 0.0), the clamp and unseen counters, and the unscaled and
    scaled matrices with their feature names.
    """
    features = schema.feature_names
    n = len(cells[schema.attack_class_column])
    fit_rows = np.arange(n) if train_indices is None else np.asarray(train_indices, dtype=np.int64)

    mappings: dict[str, dict[str, int]] = {}
    for name in schema.categorical_names:
        uniq, first_idx = np.unique(np.asarray(cells[name], dtype=object)[fit_rows].astype(str), return_index=True)
        order = np.argsort(first_idx, kind="stable")
        mappings[name] = {str(uniq[i]): code for code, i in enumerate(order)}

    unseen_list: list[tuple[str, str, int]] = []
    columns = []
    for name in features:
        if name not in mappings:
            columns.append(np.asarray(cells[name], dtype=np.float64))
            continue
        mapping = mappings[name]
        col = np.asarray(cells[name], dtype=object).astype(str)
        uniq, inverse = np.unique(col, return_inverse=True)
        codes = np.empty(len(uniq), dtype=np.float64)
        for i, value in enumerate(uniq):
            value = str(value)
            if value in mapping:
                codes[i] = mapping[value]
            else:
                codes[i] = len(mapping)
                unseen_list.append((name, value, len(mapping)))
        columns.append(codes[inverse] if len(col) else np.empty(0, dtype=np.float64))
    unscaled = np.column_stack(columns).astype(np.float64)

    fit = unscaled[fit_rows]
    ranges = {name: (float(fit[:, j].min()) + 0.0, float(fit[:, j].max()) + 0.0) for j, name in enumerate(features)}
    scaled = np.empty_like(unscaled)
    clamped: dict[str, int] = {}
    for j, name in enumerate(features):
        lo, hi = ranges[name]
        col = unscaled[:, j]
        with np.errstate(over="ignore"):  # a value far outside a narrow range overflows to inf, then clamps
            out = (col - lo) / (hi - lo) if hi > lo else np.zeros_like(col)
        n_out = int(np.count_nonzero((out < 0.0) | (out > 1.0)))
        if n_out:
            out = np.clip(out, 0.0, 1.0)
            clamped[name] = n_out
        scaled[:, j] = out
    return {
        "feature_names": tuple(features), "mappings": mappings, "ranges": ranges, "clamped": clamped,
        "unseen": unseen_list, "unscaled": unscaled, "scaled": scaled,
    }


def gathered_scenario_fit(base, train_indices):
    """One transform fitted on a table's sorted `train_indices` (a scenario's train rows, or every row), alone.

    The fit rows' n_train x d block is gathered; each categorical column is
    encoded by `np.unique` over those rows' category indices, by first
    appearance; each range is the min and max of the gathered block's
    column, a zero end as 0.0; and the clamps are counted by min-max scaling every
    row of every column of the table, with the package's float operations.
    """
    rows = np.asarray(train_indices)
    if len(rows) == 0:
        raise ValueError("train-only fit has no train rows")
    names = base.feature_names
    counters = PrepCounters()
    fit = base.features[rows]
    mappings, codes = {}, {}
    for name, categories in base.categories.items():
        seen, first = np.unique(fit[:, names.index(name)].astype(np.intp), return_index=True)
        order = seen[np.argsort(first, kind="stable")]
        mappings[name] = {str(categories[i]): code for code, i in enumerate(order)}
        reserve = len(order)
        codes[name] = np.full(len(categories), reserve, dtype=np.float64)
        codes[name][order] = np.arange(reserve)
        for i in np.flatnonzero(codes[name] == reserve):
            counters.unseen.append((name, str(categories[i]), reserve))

    def coded(name, col):
        return codes[name][col.astype(np.intp)] if name in codes else col

    ranges = {}
    for j, name in enumerate(names):
        fit_col = coded(name, fit[:, j])
        ranges[name] = lo, hi = float(fit_col.min()) + 0.0, float(fit_col.max()) + 0.0
        col = coded(name, base.features[:, j])
        if not hi > lo:
            scaled = np.zeros_like(col)
        elif np.isfinite(hi - lo):
            scaled = (col - lo) / (hi - lo)
        else:
            scaled = (col / 2 - lo / 2) / (hi / 2 - lo / 2)
        n_out = int(np.count_nonzero((scaled < 0.0) | (scaled > 1.0)))
        if n_out:
            counters.clamped[name] = n_out
    return FittedTransform(mappings, ranges, codes, counters)


def stored_fold_plan(table, k: int, seed: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per fold, its sorted (train, test) int32 row arrays, built and stored the old way.

    Same rng draws as the package: one seeded generator, one permutation per
    nonempty class in class order, dealt into k contiguous chunks whose
    sizes differ by at most one; chunk f joins fold f's test set.
    """
    n = table.row_count
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    test_parts: list[list[np.ndarray]] = [[] for _ in range(k)]
    for code in range(len(table.class_names)):
        rows = np.flatnonzero(table.class_codes == code)
        if rows.size == 0:
            continue
        perm = rng.permutation(rows)
        base, rem = divmod(rows.size, k)
        start = 0
        for f in range(k):
            size = base + (1 if f < rem else 0)
            test_parts[f].append(perm[start : start + size])
            start += size
    folds = []
    for f in range(k):
        test = np.sort(np.concatenate(test_parts[f])) if test_parts[f] else np.empty(0, dtype=np.int64)
        mask = np.ones(n, dtype=bool)
        mask[test] = False
        folds.append((np.arange(n, dtype=np.int32)[mask], test.astype(np.int32)))
    return folds


def stored_zero_day_scenarios(folds, table) -> dict[tuple[str, int], tuple[np.ndarray, np.ndarray]]:
    """(class, fold) -> the fold's train rows minus the class's rows, and its test rows."""
    out = {}
    for name in table.attack_names:
        code = table.class_names.index(name)
        for f, (train, test) in enumerate(folds):
            out[(name, f)] = (train[table.class_codes[train] != code], test)
    return out


def stored_fold_warnings(folds, table) -> list[str]:
    """Per fold, a warning per class that misses a side, from sets of the stored arrays' codes."""
    warnings = []
    for f, (train, test) in enumerate(folds):
        train_codes = set(np.unique(table.class_codes[train]).tolist())
        test_codes = set(np.unique(table.class_codes[test]).tolist())
        for code in sorted(test_codes - train_codes):
            warnings.append(f"class {table.class_names[code]!r} appears in fold {f} test but not train")
        for code in sorted(train_codes - test_codes):
            warnings.append(f"class {table.class_names[code]!r} appears in fold {f} train but not test")
    return warnings


def unique_summary_counts(schema, cells) -> tuple[dict[str, int], dict[str, int]]:
    """Class counts and string-column cardinalities of raw cells, from `np.unique` over fixed-width copies."""
    classes, counts = np.unique(np.asarray(cells[schema.attack_class_column], dtype=str), return_counts=True)
    class_counts = {str(c): int(n) for c, n in zip(classes, counts)}
    cardinality = {}
    for name in schema.names:
        if schema.kind_of(name).value in ("categorical", "identifier"):
            cardinality[name] = int(np.unique(np.asarray(cells[name], dtype=str)).size)
    return class_counts, cardinality


def _bad_row_reason(cells: dict[str, str], schema, benign_name: str) -> str | None:
    """A row's first fault: a numeric cell in schema order, else its label, else label versus class."""
    for name in schema.feature_names:
        if schema.kind_of(name).value != "numeric":
            continue
        try:
            value = float(cells[name])
        except ValueError:
            return f"unparseable numeric cell {cells[name]!r} in column {name!r}"
        if not math.isfinite(value):
            return f"non-finite value in column {name!r}"
    raw = cells[schema.label_column]
    if raw.strip() not in ("0", "1"):
        return f"binary label must be 0 or 1, got {raw!r}"
    cls = cells[schema.attack_class_column]
    if int(raw.strip()) != int(cls != benign_name):
        return f"binary label {int(raw.strip())} disagrees with attack class {cls!r} (benign name is {benign_name!r})"
    return None


def row_at_a_time_load_csv(path, schema, benign_name: str, on_bad_row: str = "abort", keep_identifiers: bool = False):
    """The csv-only loader, one row at a time: every row through `csv.reader`, every cell through `float`.

    Returns the parsed cells, a column per kept schema column (float64
    numbers, int64 labels, object arrays of strings), and the number of
    dropped rows. The reference for `flowdata.load_csv` on files whose
    header names exactly the schema's columns: the same cells, or the same
    DataError message, and the same `dropped_rows`. A row of the wrong
    width raises under either policy; a bad row raises under "abort" and
    is dropped under "drop"; errors name the file line the row ends on.
    """
    rows = []
    dropped = 0
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        header = [h.strip() for h in next(reader)]
        for row in reader:
            if not row:
                continue
            if len(row) != len(header):
                raise DataError(f"row at line {reader.line_num} has {len(row)} cells, expected {len(header)} ({path})")
            cells = dict(zip(header, row))
            reason = _bad_row_reason(cells, schema, benign_name)
            if reason is None:
                rows.append(cells)
            elif on_bad_row == "abort":
                raise DataError(f"line {reader.line_num}: {reason} ({path})")
            else:
                dropped += 1
    data = {}
    for column in schema.columns:
        cells = [r[column.name] for r in rows]
        kind = column.kind.value
        if kind == "numeric":
            data[column.name] = np.array([float(c) for c in cells], dtype=np.float64)
        elif kind == "binary_label":
            data[column.name] = np.array([int(c.strip()) for c in cells], dtype=np.int64)
        elif kind != "identifier" or keep_identifiers:
            data[column.name] = np.array(cells, dtype=object)
    return data, dropped
