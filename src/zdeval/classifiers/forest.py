"""Random forest of Gini decision trees, built from scratch.

Trees split greedily on the (feature, threshold) pair minimizing the
weighted child Gini impurity. Thresholds are midpoints between consecutive
distinct sorted feature values, or the lower value where the midpoint rounds
up to the upper one (adjacent doubles, overflow), so that a split always
separates the two. Ties break toward the lowest feature index,
then the lowest threshold, which together with seeded per-tree generators
makes training fully deterministic. Splits with zero impurity improvement
are still taken when the node is impure: patterns like XOR are separable
only through an initially gain-free split.

Nothing is sorted per node (presorting, as in SLIQ and SPRINT). The forest
argsorts each feature once. A tree draws its bootstrap sample as counts per
row (`bincount`) and keeps, from every feature's sorted order, the row ids
with a count above 0: a d x u matrix, u about 0.63 n, whose counts act as
integer row weights. A node scores all its candidate features in one pass
over the prefix sums of weights and weighted attacks along those sorted
rows. Each row's weight and attack weight are packed into one int64, the
attack weight 32 bits up, so one gather and one cumsum give both sums; they
stay exact below 2**31 training rows, which `train_forest` checks. A split
partitions the matrix with one boolean mask, which keeps each feature's
order sorted, so the children need no sort either. A child that is a leaf
by its counts alone (pure, at max_depth, or under 2 * min_samples_leaf
rows) is known from the prefix sums at the cut, so it gets no rows: only a
child that may be split is partitioned. Each feature is sorted, and a
node reads its candidates' values, as a contiguous row of the d x n
transpose of the training matrix.

Every boolean selection (the valid cuts, the partition) is `compress` on
the C-order flattened array, with the same elements in the same order as
2-D boolean indexing: numpy's 2-D mask indexing costs about four times as
much per element (a 10 x 2,837 partition took 211-264 us against 58 us,
numpy 2.4.6).

The splits are exactly those of sorting the bootstrap multiset at every
node. A cut can only fall between two distinct values, and there the
prefix sums count every row at or below the cut once per copy, whatever the
order among tied rows. So each valid cut gets the same integer counts, the
same float formula gives the same score, and the tie-break rules and the
preorder of the generator draws are unchanged.

A tree is held in the same layout it is saved in (format version 2): flat
arrays in preorder, which the grower appends to as it pops each node. So
growing, scoring, reading and writing never recurse, deep trees round-trip,
and saving a tree is one `tolist` per array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Two float split scores closer than this are treated as equal, so the
# lowest-feature / lowest-threshold tie-break decides.
_SCORE_EPS = 1e-12

# The weight half of a packed weight and attack weight (see `_grow_tree`).
_LOW_32 = 0xFFFFFFFF


@dataclass(frozen=True, eq=False)
class Tree:
    """One tree as parallel arrays in preorder, the layout it is saved in.

    Node i is a leaf iff feature[i] == -1; a leaf's threshold is NaN and its
    right is -1. Otherwise rows with row[feature[i]] <= threshold[i] go to
    the left child, node i + 1, and the others to the right child, node
    right[i]. fraction[i] is the attack fraction of the training rows that
    reached node i and count[i] their number (bootstrap copies included).
    """

    feature: np.ndarray  # int64
    threshold: np.ndarray  # float64
    fraction: np.ndarray  # float64
    count: np.ndarray  # int64
    right: np.ndarray  # int64

    @classmethod
    def from_lists(cls, feature, threshold, fraction, count, right) -> "Tree":
        return cls(
            np.array(feature, dtype=np.int64),
            np.array(threshold, dtype=np.float64),
            np.array(fraction, dtype=np.float64),
            np.array(count, dtype=np.int64),
            np.array(right, dtype=np.int64),
        )


@dataclass(frozen=True)
class ForestConfig:
    """Forest hyperparameters; m_try=None resolves to ceil(sqrt(d)).

    `bootstrap=False` trains every tree on the full sample (test hook for
    the single-tree reduction).
    """

    n_trees: int = 50
    m_try: int | None = None
    max_depth: int | None = None
    min_samples_leaf: int = 1
    bootstrap: bool = True

    def __post_init__(self) -> None:
        for name in ("n_trees", "m_try", "max_depth", "min_samples_leaf"):
            value = getattr(self, name)
            if value is None and name in ("m_try", "max_depth"):
                continue
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            if value < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")
        if not isinstance(self.bootstrap, bool):
            raise ValueError(f"bootstrap must be true or false, got {self.bootstrap!r}")

    def resolve_m_try(self, n_features: int) -> int:
        if self.m_try is not None:
            return min(self.m_try, n_features)
        return min(math.ceil(math.sqrt(n_features)), n_features)


@dataclass(eq=False)
class RandomForestModel:
    trees: tuple[Tree, ...]
    n_features: int
    m_try: int
    seed: int

    @property
    def n_trees(self) -> int:
        return len(self.trees)


def _check_training_data(X: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if X.ndim != 2 or X.shape[0] < 1:
        raise ValueError("training data must be a nonempty 2-D matrix")
    if y.shape[0] != X.shape[0]:
        raise ValueError(f"label count {y.shape[0]} does not match row count {X.shape[0]}")
    if X.shape[0] >= 2**31:
        raise ValueError(
            f"{X.shape[0]} training rows; a forest trains on fewer than 2**31, "
            "so that a node's row and attack counts pack into one int64"
        )
    if not np.isin(y, (0, 1)).all():
        raise ValueError("labels must be binary 0/1")
    return X, y


def _grow_tree(
    XT: np.ndarray,
    y: np.ndarray,
    order: np.ndarray,
    weight: np.ndarray,
    cfg: ForestConfig,
    rng: np.random.Generator,
) -> Tree:
    """Grow one tree on the rows with weight > 0, each counted `weight` times.

    `XT` is the C-ordered transpose of the n x d training matrix, and row f
    of `order` lists the row ids in ascending order of feature f. The tree
    is the one a per-node sort would grow on the multiset of rows: see the
    module docstring. At each node, m_try candidate features are drawn
    without replacement from `rng` (consumed in preorder, left child before
    right), and the best valid split among them is taken. A node becomes a
    leaf when it is pure, at max_depth, too small to split, or none of its
    candidate features admits a valid partition.
    """
    d, n = XT.shape
    m_try = cfg.resolve_m_try(d)
    min_leaf = cfg.min_samples_leaf
    max_depth = math.inf if cfg.max_depth is None else cfg.max_depth

    def is_leaf(total: int, n_attack: int, depth: int) -> bool:
        return n_attack == 0 or n_attack == total or depth >= max_depth or total < 2 * min_leaf

    attack_weight = weight * y
    # a row's weight in the low 32 bits and its attack weight above them, so
    # one take and one cumsum give both prefix sums (exact while n < 2**31)
    packed = weight + (attack_weight << 32)
    goes_left = np.zeros(n, dtype=bool)
    total, n_attack = int(weight.sum()), int(attack_weight.sum())
    rows_sorted = None
    if d and not is_leaf(total, n_attack, 0):
        flat = order.ravel()
        rows_sorted = flat.compress((weight > 0).take(flat)).reshape(d, -1)
    node_feature: list[int] = []
    node_threshold: list[float] = []
    node_fraction: list[float] = []
    node_count: list[int] = []
    node_right: list[int] = []
    # work stack of (d x u sorted row ids, or None for a leaf, depth, row
    # count, attack count, the parent whose right child this is or -1);
    # popped in preorder, so the node lists fill in saved order and rng draws
    # are reproducible without recursion-depth limits
    stack = [(rows_sorted, 0, total, n_attack, -1)]
    while stack:
        rows_sorted, depth, total, n_attack, parent = stack.pop()
        node = len(node_feature)
        if parent >= 0:
            node_right[parent] = node
        node_feature.append(-1)
        node_threshold.append(math.nan)
        node_fraction.append(n_attack / total)
        node_count.append(total)
        node_right.append(-1)
        if rows_sorted is None:
            continue

        candidates = rng.choice(d, size=m_try, replace=False)
        candidates.sort()
        # one pass scores every valid cut of every candidate feature; a cut
        # after sorted position i puts prefix[i] rows on the left, and the
        # last position admits none
        cand_rows = rows_sorted[candidates]
        u = cand_rows.shape[1]
        values = XT.take(cand_rows + candidates[:, None] * n)
        sums = np.cumsum(packed.take(cand_rows), axis=1)
        valid = np.zeros((m_try, u), dtype=bool)
        np.less(values[:, :-1], values[:, 1:], out=valid[:, :-1])
        if min_leaf > 1:  # a weight is at least 1, so with min_leaf 1 every cut leaves enough rows
            n_left_cut = sums[:, :-1] & _LOW_32
            valid[:, :-1] &= (n_left_cut >= min_leaf) & (n_left_cut <= total - min_leaf)
        counts = valid.sum(axis=1)
        present = np.flatnonzero(counts)
        if present.size == 0:
            continue  # no candidate feature admits a valid partition

        cut = sums.ravel().compress(valid.ravel())
        n_left = cut & _LOW_32
        a_left = cut >> 32
        n_right = total - n_left
        b_left = n_left - a_left
        a_right = n_attack - a_left
        b_right = n_right - a_right
        gini_left = 1.0 - (b_left / n_left) ** 2 - (a_left / n_left) ** 2
        gini_right = 1.0 - (b_right / n_right) ** 2 - (a_right / n_right) ** 2
        weighted = (n_left * gini_left + n_right * gini_right) / total

        # per feature (a run of `counts` scores): the lowest threshold
        # scoring within _SCORE_EPS of the feature's best
        starts = np.cumsum(counts) - counts
        best = np.minimum.reduceat(weighted, starts[present])
        near = np.flatnonzero(weighted <= np.repeat(best, counts[present]) + _SCORE_EPS)
        firsts = near[np.searchsorted(near, starts[present])]

        # across features, in ascending feature order: a later feature must
        # beat the incumbent by more than _SCORE_EPS
        best_score = math.inf
        for f, at, score in zip(present.tolist(), firsts.tolist(), weighted[firsts].tolist()):
            if score < best_score - _SCORE_EPS:
                best_score, j, p = score, f, at - int(starts[f])
        p = int(np.flatnonzero(valid[j])[p])
        below, above = float(values[j, p]), float(values[j, p + 1])
        threshold = 0.5 * (below + above)
        if not threshold < above:  # the midpoint rounded up to (or overflowed past) the next value
            threshold = below

        node_feature[node] = int(candidates[j])
        node_threshold[node] = threshold
        # the split feature's sorted values route left as a prefix
        k = int(np.count_nonzero(values[j] <= threshold))
        left_sums = int(sums[j, k - 1])
        left_total, left_attack = left_sums & _LOW_32, left_sums >> 32
        right_total, right_attack = total - left_total, n_attack - left_attack
        left_rows = right_rows = None
        left_leaf = is_leaf(left_total, left_attack, depth + 1)
        right_leaf = is_leaf(right_total, right_attack, depth + 1)
        if not (left_leaf and right_leaf):
            # a stable partition keeps every feature's row order sorted; a
            # child that is a leaf by its counts needs no rows
            left_ids = cand_rows[j, :k]
            goes_left[left_ids] = True
            flat = rows_sorted.ravel()
            mask = goes_left.take(flat)
            goes_left[left_ids] = False
            left_rows = None if left_leaf else flat.compress(mask).reshape(d, k)
            right_rows = None if right_leaf else flat.compress(~mask).reshape(d, u - k)
        # push right first so the left child is processed (and draws rng) first
        stack.append((right_rows, depth + 1, right_total, right_attack, node))
        stack.append((left_rows, depth + 1, left_total, left_attack, -1))
    return Tree.from_lists(node_feature, node_threshold, node_fraction, node_count, node_right)


def tree_score(tree: Tree, X: np.ndarray) -> np.ndarray:
    """Leaf attack fraction for every row of X."""
    X = np.asarray(X, dtype=np.float64)
    feature, threshold = tree.feature.tolist(), tree.threshold.tolist()
    fraction, right = tree.fraction.tolist(), tree.right.tolist()
    out = np.empty(X.shape[0], dtype=np.float64)
    stack: list[tuple[int, np.ndarray]] = [(0, np.arange(X.shape[0]))]
    while stack:
        node, rows = stack.pop()
        if rows.size == 0:
            continue
        f = feature[node]
        if f < 0:
            out[rows] = fraction[node]
            continue
        go_left = X[rows, f] <= threshold[node]
        stack.append((node + 1, rows[go_left]))
        stack.append((right[node], rows[~go_left]))
    return out


def train_forest(X: np.ndarray, y: np.ndarray, cfg: ForestConfig, seed: int) -> RandomForestModel:
    """Train n_trees trees on bootstrap resamples with per-node feature subsampling.

    Tree i uses the generator seeded by the seed sequence (seed, spawn_key=i),
    so the forest is reproducible and trees are independent. The features
    are sorted once here and shared by every tree; the order among tied
    rows is numpy's, and no split depends on it (see the module docstring).
    """
    X, y = _check_training_data(X, y)
    n = X.shape[0]
    XT = np.ascontiguousarray(X.T)  # a view when X is column-contiguous, as a model job's matrix is
    order = np.argsort(XT, axis=1)
    trees = []
    for i in range(cfg.n_trees):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(i,)))
        if cfg.bootstrap:
            weight = np.bincount(rng.integers(0, n, size=n), minlength=n)
        else:
            weight = np.ones(n, dtype=np.int64)
        trees.append(_grow_tree(XT, y, order, weight, cfg, rng))
    return RandomForestModel(tuple(trees), X.shape[1], cfg.resolve_m_try(X.shape[1]), seed)


def forest_score(model: RandomForestModel, X: np.ndarray) -> np.ndarray:
    """Attack score per row: mean leaf attack fraction across the trees."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != model.n_features:
        raise ValueError(
            f"feature dimensionality mismatch: model expects {model.n_features}, "
            f"got {X.shape[1] if X.ndim == 2 else 'non-matrix input'}"
        )
    if X.size and not np.isfinite(X).all():
        raise ValueError("input contains non-finite values")
    total = np.zeros(X.shape[0], dtype=np.float64)
    for tree in model.trees:
        total += tree_score(tree, X)
    return total / model.n_trees


def _tree_to_json(tree: Tree) -> dict:
    """The saved preorder lists; a leaf's threshold is null."""
    feature = tree.feature.tolist()
    return {
        "feature": feature,
        "threshold": [t if f >= 0 else None for f, t in zip(feature, tree.threshold.tolist())],
        "fraction": tree.fraction.tolist(),
        "count": tree.count.tolist(),
    }


def _tree_from_json(obj: dict, n_features: int) -> Tree:
    """Check the preorder structure in one stack pass, finding each right child."""
    features, thresholds = obj["feature"], obj["threshold"]
    if not features or any(len(obj[k]) != len(features) for k in ("threshold", "fraction", "count")):
        raise ValueError("malformed tree: node lists must be nonempty and of equal length")
    right = [-1] * len(features)
    # internal nodes still missing their right child, innermost last
    open_nodes: list[int] = []
    for i, (feature, threshold) in enumerate(zip(features, thresholds)):
        if i:
            if not open_nodes:
                raise ValueError("malformed tree: nodes after the last leaf")
            if open_nodes[-1] != i - 1:  # the previous node is a leaf: i is a right child
                right[open_nodes.pop()] = i
        if feature == -1:
            continue
        if not isinstance(feature, int) or not 0 <= feature < n_features:
            raise ValueError(f"malformed tree: node {i} splits on feature {feature!r} of {n_features}")
        if not isinstance(threshold, (int, float)) or math.isnan(threshold):
            raise ValueError(f"malformed tree: internal node {i} has threshold {threshold!r}")
        open_nodes.append(i)
    if open_nodes:
        raise ValueError("malformed tree: an internal node lacks a child")
    thresholds = [t if f != -1 else math.nan for f, t in zip(features, thresholds)]
    tree = Tree.from_lists(features, thresholds, obj["fraction"], obj["count"], right)
    if not ((tree.fraction >= 0.0) & (tree.fraction <= 1.0)).all():  # a null reads as NaN
        raise ValueError("malformed tree: attack fractions must lie in [0, 1]")
    return tree


def forest_to_json(model: RandomForestModel) -> dict:
    return {
        "format": "zdeval-model",
        "version": 2,
        "kind": "forest",
        "n_features": model.n_features,
        "m_try": model.m_try,
        "seed": model.seed,
        "trees": [_tree_to_json(t) for t in model.trees],
    }


def forest_from_json(obj: dict) -> RandomForestModel:
    if obj.get("kind") != "forest":
        raise ValueError(f"not a forest model document: kind={obj.get('kind')!r}")
    if obj.get("version") != 2:
        raise ValueError(f"unsupported forest model version {obj.get('version')!r}; expected 2")
    n_features = int(obj["n_features"])
    trees = tuple(_tree_from_json(t, n_features) for t in obj["trees"])
    return RandomForestModel(trees, n_features, int(obj["m_try"]), int(obj["seed"]))
