from __future__ import annotations

import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from conftest import grow_on_every_row
from oracle_impls import node_tree_json, per_node_sort_forest, per_node_sort_tree

from zdeval.classifiers import (
    ForestConfig,
    MlpConfig,
    MlpModel,
    RandomForestModel,
    forest_from_json,
    forest_score,
    forest_to_json,
    mlp_from_json,
    mlp_init,
    mlp_loss_and_grads,
    mlp_score,
    mlp_to_json,
    mlp_train,
    predict,
    train_forest,
    tree_score,
)
from zdeval.classifiers.forest import _tree_to_json


def blobs(n_per_side=100, d=2, gap=3.0, noise=0.5, seed=0):
    rng = np.random.default_rng(seed)
    benign = rng.normal(0.0, noise, (n_per_side, d))
    attack = rng.normal(gap, noise, (n_per_side, d))
    X = np.vstack([benign, attack])
    y = np.array([0] * n_per_side + [1] * n_per_side)
    return X, y


def tree_depth(tree) -> int:
    """Longest root-to-leaf path; children follow their parent in preorder."""
    depth = [0] * len(tree.feature)
    for i, (feature, right) in enumerate(zip(tree.feature.tolist(), tree.right.tolist())):
        if feature >= 0:
            depth[i + 1] = depth[right] = depth[i] + 1
    return max(depth)


def lone_tree_forest(X, y, cfg) -> RandomForestModel:
    """A forest of one tree grown on every row once."""
    d = np.shape(X)[1]
    return RandomForestModel((grow_on_every_row(X, y, cfg),), d, cfg.resolve_m_try(d), 0)


class TestTree:
    def full_cfg(self, d):
        return ForestConfig(n_trees=1, m_try=d)

    def grow(self, X, y, cfg):
        return grow_on_every_row(X, y, cfg)

    def test_separable_1d_single_split(self):
        X = np.array([[0.1], [0.2], [0.8], [0.9]])
        y = np.array([0, 0, 1, 1])
        tree = self.grow(X, y, self.full_cfg(1))
        assert tree.feature.tolist() == [0, -1, -1] and tree.right.tolist() == [2, -1, -1]
        assert 0.2 < tree.threshold[0] < 0.8
        assert tree.fraction.tolist() == [0.5, 0.0, 1.0]

    @pytest.mark.parametrize("below, above", [(0.5000000000000001, 0.5000000000000002), (1e308, 1.5e308)])
    def test_midpoint_not_below_upper_value_falls_back_to_lower(self, below, above):
        # 0.5 * (below + above) rounds up to `above` (adjacent doubles) or
        # overflows; a threshold there would send both rows left
        assert not 0.5 * (below + above) < above
        cfg = ForestConfig(n_trees=1, max_depth=3)
        tree = self.grow(np.array([[below], [above]]), np.array([0, 1]), cfg)
        assert tree.threshold[0] == below
        assert tree.feature.tolist() == [0, -1, -1]
        assert tree.count.tolist() == [2, 1, 1] and tree.fraction.tolist() == [0.5, 0.0, 1.0]

    def test_constant_labels_single_leaf(self):
        X = np.array([[0.0], [1.0], [2.0]])
        y = np.array([1, 1, 1])
        tree = self.grow(X, y, self.full_cfg(1))
        assert tree.feature.tolist() == [-1] and tree.fraction.tolist() == [1.0] and tree.count.tolist() == [3]

    def test_xor_depth_two_perfect(self):
        # greedy split gains nothing at the root, but the children separate
        X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
        y = np.array([0, 1, 1, 0])
        tree = self.grow(X, y, self.full_cfg(2))
        scores = tree_score(tree, X)
        assert np.array_equal(predict(scores), y)
        assert (tree.feature[[0, 1, tree.right[0]]] >= 0).all()
        assert tree_depth(tree) == 2

    def test_min_samples_leaf_respected(self):
        X, y = blobs(50, d=3, gap=1.0, noise=0.8, seed=1)
        cfg = ForestConfig(n_trees=1, m_try=3, min_samples_leaf=5)
        tree = self.grow(X, y, cfg)
        assert tree.count[tree.feature == -1].min() >= 5

    def test_max_depth_respected(self):
        X, y = blobs(60, seed=2)
        cfg = ForestConfig(n_trees=1, m_try=2, max_depth=2)
        assert tree_depth(self.grow(X, y, cfg)) <= 2

    def test_tie_break_lowest_feature_then_threshold(self):
        # both features admit the identical perfect split; feature 0 must win
        X = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0], [1.0, 1.0]])
        y = np.array([0, 0, 1, 1])
        tree = self.grow(X, y, self.full_cfg(2))
        assert tree.feature[0] == 0
        assert tree.threshold[0] == 0.5

    def test_tie_break_lowest_threshold_within_feature(self):
        # splits at 0.5 and 2.5 both give weighted impurity 1/3; 0.5 wins
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([0, 1, 0, 1])
        tree = self.grow(X, y, self.full_cfg(1))
        assert tree.threshold[0] == 0.5


class TestForest:
    def test_tree_count(self):
        X, y = blobs(30)
        model = train_forest(X, y, ForestConfig(n_trees=50), seed=0)
        assert model.n_trees == 50

    def test_reduction_to_single_tree(self):
        X, y = blobs(50, d=4, seed=3)
        forest = lone_tree_forest(X, y, ForestConfig(n_trees=1, m_try=4))
        (tree,) = forest.trees
        # unit weights: the lone tree sees every row once
        assert tree.count[0] == len(X) and tree.fraction[0] == y.mean()
        assert np.array_equal(forest_score(forest, X), tree_score(tree, X))

    def test_determinism_bit_identical(self):
        X, y = blobs(40, seed=4)
        cfg = ForestConfig(n_trees=7)
        s1 = forest_score(train_forest(X, y, cfg, seed=11), X)
        s2 = forest_score(train_forest(X, y, cfg, seed=11), X)
        assert np.array_equal(s1, s2)

    def test_seed_changes_model(self):
        X, y = blobs(40, gap=1.2, noise=1.0, seed=4)
        cfg = ForestConfig(n_trees=5)
        s1 = forest_score(train_forest(X, y, cfg, seed=1), X)
        s2 = forest_score(train_forest(X, y, cfg, seed=2), X)
        assert not np.array_equal(s1, s2)

    def test_score_range_property(self):
        rng = np.random.default_rng(6)
        for _ in range(5):
            X = rng.normal(size=(60, 3))
            y = rng.integers(0, 2, 60)
            model = train_forest(X, y, ForestConfig(n_trees=5), seed=0)
            scores = forest_score(model, rng.normal(size=(40, 3)))
            assert np.all(scores >= 0.0) and np.all(scores <= 1.0)

    def test_mean_of_leaf_fractions(self):
        X, y = blobs(50, seed=7)
        model = train_forest(X, y, ForestConfig(n_trees=9), seed=0)
        manual = np.mean([tree_score(t, X) for t in model.trees], axis=0)
        assert np.allclose(forest_score(model, X), manual, atol=1e-15)

    def test_dimension_mismatch_rejected(self):
        X, y = blobs(20)
        model = train_forest(X, y, ForestConfig(n_trees=2), seed=0)
        with pytest.raises(ValueError, match="dimensionality"):
            forest_score(model, np.zeros((3, 5)))

    def test_row_count_past_the_packed_counts_rejected(self):
        # broadcast views give 2**31 rows without allocating them; the check
        # comes before anything reads the rows
        X = np.broadcast_to(np.zeros((1, 1)), (2**31, 1))
        y = np.broadcast_to(np.zeros(1, dtype=np.int64), (2**31,))
        with pytest.raises(ValueError, match=r"fewer than 2\*\*31"):
            train_forest(X, y, ForestConfig(n_trees=1), seed=0)

    def test_json_round_trip(self):
        X, y = blobs(30, seed=8)
        model = train_forest(X, y, ForestConfig(n_trees=3), seed=2)
        restored = forest_from_json(forest_to_json(model))
        assert np.array_equal(forest_score(model, X), forest_score(restored, X))
        assert forest_to_json(restored) == forest_to_json(model)

    def test_json_is_flat_preorder(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([0, 0, 1, 1])
        doc = forest_to_json(lone_tree_forest(X, y, ForestConfig(n_trees=1)))
        assert doc["version"] == 2
        assert doc["trees"] == [
            {"feature": [0, -1, -1], "threshold": [1.5, None, None], "fraction": [0.5, 0.0, 1.0], "count": [4, 2, 2]}
        ]

    def test_deep_tree_survives_json_text_round_trip(self):
        # alternating labels on one feature peel one row per split: depth 3999
        X = np.arange(4000, dtype=np.float64)[:, None]
        y = np.arange(4000) % 2
        model = lone_tree_forest(X, y, ForestConfig(n_trees=1))
        restored = forest_from_json(json.loads(json.dumps(forest_to_json(model))))
        assert np.array_equal(forest_score(restored, X), forest_score(model, X))

    def test_version_1_document_rejected(self):
        doc = {"format": "zdeval-model", "version": 1, "kind": "forest", "n_features": 1, "m_try": 1,
               "seed": 0, "trees": [{"fraction": 0.5, "count": 2}]}
        with pytest.raises(ValueError, match="version"):
            forest_from_json(doc)

    @pytest.mark.parametrize(
        "tree",
        [
            {"feature": [0, -1], "threshold": [0.5, None], "fraction": [0.5, 0.0], "count": [2, 1]},
            {"feature": [-1, -1], "threshold": [None, None], "fraction": [0.0, 0.0], "count": [1, 1]},
            {"feature": [], "threshold": [], "fraction": [], "count": []},
            {"feature": [-1], "threshold": [None], "fraction": [0.0, 1.0], "count": [1]},
            {"feature": [0, -1, -1], "threshold": [None, None, None], "fraction": [0.5, 0.0, 1.0], "count": [2, 1, 1]},
            {"feature": [5, -1, -1], "threshold": [0.5, None, None], "fraction": [0.5, 0.0, 1.0], "count": [2, 1, 1]},
            {"feature": [0.5, -1, -1], "threshold": [0.5, None, None], "fraction": [0.5, 0.0, 1.0], "count": [2, 1, 1]},
            {"feature": [0, -1, -1], "threshold": [0.5, None, None], "fraction": [0.5, None, 1.0], "count": [2, 1, 1]},
        ],
    )
    def test_malformed_tree_rejected(self, tree):
        doc = {"format": "zdeval-model", "version": 2, "kind": "forest", "n_features": 1, "m_try": 1,
               "seed": 0, "trees": [tree]}
        with pytest.raises(ValueError, match="malformed"):
            forest_from_json(doc)

    @staticmethod
    def leaf_forest_doc() -> dict:
        leaf = {"feature": [-1], "threshold": [None], "fraction": [0.5], "count": [2]}
        return {"format": "zdeval-model", "version": 2, "kind": "forest", "n_features": 1, "m_try": 1,
                "seed": 0, "trees": [leaf]}

    def test_leaf_forest_doc_loads(self):
        assert forest_score(forest_from_json(self.leaf_forest_doc()), np.zeros((2, 1))).tolist() == [0.5, 0.5]

    @pytest.mark.parametrize(
        "spoil, message",
        [
            # a forest of no trees would score every row 0 / 0
            (lambda doc: doc.update(trees=[]), "malformed forest: the 'trees' list is empty"),
            (lambda doc: doc.update(n_features=0), "malformed forest: n_features is 0; expected at least 1"),
            (lambda doc: doc.pop("n_features"), "malformed forest: missing key 'n_features'"),
            (lambda doc: doc["trees"][0].pop("count"), "malformed forest: missing key 'count'"),
        ],
        ids=["no-trees", "no-features", "missing-n_features", "tree-missing-count"],
    )
    def test_unscoreable_document_rejected(self, spoil, message):
        doc = self.leaf_forest_doc()
        spoil(doc)
        with pytest.raises(ValueError, match=message):
            forest_from_json(doc)

    @pytest.mark.parametrize("key", ["n_features", "m_try", "seed"])
    @pytest.mark.parametrize("value", [None, 1.7, "1", True], ids=["null", "float", "str", "bool"])
    def test_a_header_integer_of_another_type_is_rejected(self, key, value):
        # was cast by int(): 1.7 and "1" loaded as 1, a null raised TypeError
        doc = dict(self.leaf_forest_doc(), **{key: value})
        with pytest.raises(ValueError, match=f"^malformed forest: {key} is {re.escape(repr(value))}; expected an integer$"):
            forest_from_json(doc)

    @pytest.mark.parametrize("value", [None, 1.7, "1", True], ids=["null", "float", "str", "bool"])
    def test_a_count_of_another_type_is_rejected(self, value):
        doc = self.leaf_forest_doc()
        doc["trees"][0]["count"] = [value]
        with pytest.raises(ValueError, match=f"^malformed tree: 'count' holds {re.escape(repr(value))}; expected integers$"):
            forest_from_json(doc)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_nonfinite_input_rejected(self, value):
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        forest = lone_tree_forest(X, np.array([0, 0, 1, 1]), ForestConfig(n_trees=1))
        assert forest.trees[0].feature[0] == 0  # one split, so a NaN would fall through to a leaf
        with pytest.raises(ValueError, match="non-finite"):
            forest_score(forest, np.array([[value]]))


@st.composite
def forest_problems(draw):
    """Small tie-heavy problems: values from a 4-level grid, so duplicate rows
    and equal values are common, with an optional constant column."""
    n = draw(st.integers(1, 40))
    d = draw(st.integers(1, 4))
    grid = draw(st.lists(st.integers(0, 3), min_size=n * d, max_size=n * d))
    X = np.array(grid, dtype=np.float64).reshape(n, d) / 3.0
    if draw(st.booleans()):
        X[:, draw(st.integers(0, d - 1))] = 0.5
    y = np.array(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)), dtype=np.int64)
    cfg = ForestConfig(
        n_trees=draw(st.integers(1, 3)),
        m_try=draw(st.one_of(st.none(), st.integers(1, d))),
        max_depth=draw(st.one_of(st.none(), st.integers(1, 4))),
        min_samples_leaf=draw(st.sampled_from([1, 2, 3])),
    )
    return X, y, cfg, draw(st.integers(0, 2**32 - 1))


class TestPresortMatchesPerNodeSort:
    @given(forest_problems())
    @settings(max_examples=300, deadline=None)
    def test_forest_json_identical(self, problem):
        X, y, cfg, seed = problem
        assert forest_to_json(train_forest(X, y, cfg, seed)) == per_node_sort_forest(X, y, cfg, seed)

    @given(forest_problems())
    @settings(max_examples=300, deadline=None)
    def test_unit_weight_tree_identical(self, problem):
        # every row once, with weight 1: the presorted grower against the per-node sort on X itself
        X, y, cfg, seed = problem
        grown = grow_on_every_row(X, y, cfg, np.random.default_rng(seed))
        assert _tree_to_json(grown) == node_tree_json(per_node_sort_tree(X, y, cfg, np.random.default_rng(seed)))

    def test_continuous_blobs_identical(self):
        for seed in range(5):
            X, y = blobs(80, d=5, gap=1.0, noise=1.0, seed=seed)
            X[:, 2] = np.round(X[:, 2], 1)
            cfg = ForestConfig(n_trees=4, min_samples_leaf=1 + seed % 3)
            assert forest_to_json(train_forest(X, y, cfg, seed)) == per_node_sort_forest(X, y, cfg, seed)


class TestInputLayout:
    """A model job's matrix is column-contiguous; the classifiers give the same bytes from a row-major one."""

    def layouts(self):
        X, y = blobs(60, d=5, gap=1.0, noise=1.0, seed=2)
        X[:, 1] = np.round(X[:, 1], 1)  # ties
        return X, np.asfortranarray(X), y

    def test_forest(self):
        X, XF, y = self.layouts()
        cfg = ForestConfig(n_trees=5, min_samples_leaf=2)
        model, model_f = train_forest(X, y, cfg, seed=3), train_forest(XF, y, cfg, seed=3)
        assert forest_to_json(model_f) == forest_to_json(model)
        assert forest_score(model_f, XF).tobytes() == forest_score(model, X).tobytes()

    def test_mlp(self):
        X, XF, y = self.layouts()
        cfg = MlpConfig(batch_size=16, epochs=3, hidden_units=(8, 6))
        model, model_f = mlp_train(X, y, cfg, seed=3), mlp_train(XF, y, cfg, seed=3)
        for name, value in model.parameters().items():
            assert model_f.parameters()[name].tobytes() == value.tobytes()
        assert model_f.loss_history == model.loss_history
        assert mlp_score(model, XF).tobytes() == mlp_score(model, X).tobytes()


class TestMlp:
    def test_init_shapes_and_zero_biases(self):
        model = mlp_init(43, seed=0)
        assert model.w1.shape == (43, 100)
        assert model.w2.shape == (100, 100)
        assert model.w3.shape == (100, 1)
        assert not model.b1.any() and not model.b2.any() and not model.b3.any()

    def test_init_deterministic(self):
        m1, m2 = mlp_init(5, seed=3), mlp_init(5, seed=3)
        for k in m1.parameters():
            assert np.array_equal(m1.parameters()[k], m2.parameters()[k])

    def test_glorot_bounds(self):
        model = mlp_init(10, seed=1, hidden_units=(4, 4))
        limit = np.sqrt(6.0 / (10 + 4))
        assert np.all(np.abs(model.w1) <= limit)

    def test_zero_weights_give_half(self):
        model = MlpModel(
            np.zeros((3, 2)), np.zeros(2), np.zeros((2, 2)), np.zeros(2), np.zeros((2, 1)), np.zeros(1)
        )
        assert mlp_score(model, np.array([[5.0, -1.0, 2.0]]))[0] == 0.5

    def test_relu_zeroes_negative_preactivations(self):
        from zdeval.classifiers.mlp import _forward

        model = MlpModel(
            -np.ones((2, 3)), np.zeros(3), np.ones((3, 3)), np.zeros(3), np.ones((3, 1)), np.zeros(1)
        )
        _, h1, _, _, _ = _forward(model, np.array([[1.0, 2.0]]))
        assert not h1.any()

    def test_hand_network_closed_form(self):
        # d=1, widths (1,1), all weights 1, biases 0, x=1 -> sigmoid(1)
        model = MlpModel(
            np.ones((1, 1)), np.zeros(1), np.ones((1, 1)), np.zeros(1), np.ones((1, 1)), np.zeros(1)
        )
        assert mlp_score(model, np.array([[1.0]]))[0] == pytest.approx(0.7310585786300049, abs=1e-15)

    def test_nonfinite_input_rejected(self):
        model = mlp_init(2, seed=0, hidden_units=(2, 2))
        with pytest.raises(ValueError, match="non-finite"):
            mlp_score(model, np.array([[np.nan, 0.0]]))

    @pytest.mark.parametrize(
        "w3, logit", [([-1e300, -1e300], -np.inf), ([1e300, -1e300], np.nan)], ids=["minus-inf", "nan"]
    )
    def test_overflowing_forward_pass_rejected(self, w3, logit):
        # weights that a diverged training run leaves finite: the hidden layers overflow to
        # inf, so the logit is -inf (all-negative w3) or inf - inf = NaN (mixed signs)
        from zdeval.classifiers.mlp import _forward

        big = np.full((2, 2), 1e300)
        model = MlpModel(big, np.zeros(2), big, np.zeros(2), np.array(w3)[:, None], np.zeros(1))
        x = np.array([[1.0, 1.0]])
        with np.errstate(over="ignore", invalid="ignore"):
            np.testing.assert_equal(_forward(model, x)[4], [logit])
            with pytest.raises(ValueError, match="non-finite output logit"):
                mlp_score(model, x)

    def test_separable_blobs_high_accuracy(self):
        # margin 1.0 between the blob supports
        rng = np.random.default_rng(12)
        benign = rng.uniform(-1.0, 0.0, size=(100, 2))
        attack = rng.uniform(1.0, 2.0, size=(100, 2))
        X = np.vstack([benign, attack])
        y = np.array([0] * 100 + [1] * 100)
        cfg = MlpConfig(learning_rate=0.05, epochs=50, batch_size=32, hidden_units=(16, 16))
        model = mlp_train(X, y, cfg, seed=0)
        acc = float(np.mean(predict(mlp_score(model, X)) == y))
        assert acc >= 0.99

    def test_loss_nonincreasing_on_toy_set(self):
        # full-batch descent with a modest step: plain smoke, not a theorem
        X = np.array([[-1.0], [-0.9], [0.9], [1.0]] * 10)
        y = np.array([0, 0, 1, 1] * 10)
        cfg = MlpConfig(learning_rate=0.2, epochs=25, batch_size=40, hidden_units=(4, 4))
        model = mlp_train(X, y, cfg, seed=1)
        diffs = np.diff(model.loss_history)
        assert np.all(diffs <= 1e-9)
        assert model.loss_history[-1] < model.loss_history[0]

    def test_zero_learning_rate_is_identity(self):
        X, y = blobs(20, seed=9)
        cfg = MlpConfig(learning_rate=0.0, epochs=3, batch_size=7, hidden_units=(4, 4))
        trained = mlp_train(X, y, cfg, seed=7)
        fresh = mlp_init(2, seed=7, hidden_units=(4, 4))
        for k in fresh.parameters():
            assert np.array_equal(trained.parameters()[k], fresh.parameters()[k])
        # 40 rows in batches of 7 and a last of 5: weighted by rows, the batch losses average to the full-data loss
        full, _ = mlp_loss_and_grads(fresh, X, y.astype(float))
        assert np.allclose(trained.loss_history, [full] * 3, rtol=1e-12, atol=0)

    def test_batch_size_at_least_n_one_update_per_epoch(self):
        X, y = blobs(10, seed=10)
        cfg = MlpConfig(learning_rate=0.1, epochs=1, batch_size=100, hidden_units=(3, 3))
        trained = mlp_train(X, y, cfg, seed=2)
        # replicate by hand: a single full-batch step from the init
        manual = mlp_init(2, seed=2, hidden_units=(3, 3))
        rng = np.random.default_rng(np.random.SeedSequence(entropy=2, spawn_key=(1,)))
        order = rng.permutation(20)
        loss, grads = mlp_loss_and_grads(manual, X[order], y[order].astype(float))
        for name, grad in grads.items():
            manual.parameters()[name] -= 0.1 * grad
        for k in manual.parameters():
            assert np.allclose(trained.parameters()[k], manual.parameters()[k], atol=1e-15)
        # the epoch's loss is its batch's, taken before the update
        assert trained.loss_history == [pytest.approx(loss, rel=1e-15, abs=0)]

    def test_determinism(self):
        X, y = blobs(30, seed=11)
        cfg = MlpConfig(epochs=5, hidden_units=(8, 8))
        m1 = mlp_train(X, y, cfg, seed=4)
        m2 = mlp_train(X, y, cfg, seed=4)
        assert np.array_equal(mlp_score(m1, X), mlp_score(m2, X))

    def test_score_range_property(self):
        rng = np.random.default_rng(13)
        model = mlp_init(4, seed=0, hidden_units=(6, 6))
        scores = mlp_score(model, rng.normal(scale=50.0, size=(100, 4)))
        assert np.all(scores > 0.0) and np.all(scores < 1.0)

    def test_json_round_trip(self):
        X, y = blobs(15, seed=14)
        model = mlp_train(X, y, MlpConfig(epochs=2, hidden_units=(3, 3)), seed=5)
        restored = mlp_from_json(mlp_to_json(model))
        assert np.array_equal(mlp_score(model, X), mlp_score(restored, X))

    def test_unsupported_version_rejected(self):
        doc = dict(mlp_to_json(mlp_init(3, seed=0, hidden_units=(4, 4))), version=99)
        with pytest.raises(ValueError, match="unsupported mlp model version 99; expected 1"):
            mlp_from_json(doc)

    def test_missing_parameter_rejected(self):
        doc = mlp_to_json(mlp_init(3, seed=0, hidden_units=(4, 4)))
        del doc["weights"]["w3"]
        with pytest.raises(ValueError, match="malformed mlp: missing parameter 'w3'"):
            mlp_from_json(doc)

    def test_missing_weights_rejected(self):
        doc = mlp_to_json(mlp_init(3, seed=0, hidden_units=(4, 4)))
        del doc["weights"]
        with pytest.raises(ValueError, match="malformed mlp: missing key 'weights'"):
            mlp_from_json(doc)

    def test_mismatched_shape_rejected(self):
        # a 4x3 w2 for hidden units (4, 4) would load and then fail to broadcast at scoring
        doc = mlp_to_json(mlp_init(3, seed=0, hidden_units=(4, 4)))
        doc["weights"]["w2"] = np.zeros((4, 3)).tolist()
        with pytest.raises(ValueError, match=r"malformed mlp: b2 has shape \(4,\); expected \(3,\)"):
            mlp_from_json(doc)

    def test_nonfinite_parameter_rejected(self):
        # a NaN bias would load and score every row NaN
        doc = mlp_to_json(mlp_init(3, seed=0, hidden_units=(4, 4)))
        doc["weights"]["b1"][0] = float("nan")
        with pytest.raises(ValueError, match="malformed mlp: b1 holds a non-finite value"):
            mlp_from_json(doc)


def relu_margin(model, X) -> float:
    """Smallest |pre-activation|; finite differences are only valid when the
    +-1e-5 window cannot push any pre-activation across the ReLU kink."""
    from zdeval.classifiers.mlp import _forward

    z1, _, z2, _, _ = _forward(model, X)
    return float(min(np.abs(z1).min(), np.abs(z2).min()))


def draw_smooth_case(rng, d, hidden, seed):
    """Random parameter point + data with every pre-activation clear of zero."""
    for _ in range(100):
        model = mlp_init(d, seed=seed, hidden_units=hidden)
        for arr in model.parameters().values():
            arr += rng.normal(0, 0.5, arr.shape)
        X = rng.normal(size=(6, d))
        if relu_margin(model, X) > 1e-3:
            return model, X
    raise AssertionError("could not find a kink-free evaluation point")


class TestGradients:
    def test_analytic_matches_central_differences(self):
        rng = np.random.default_rng(20)
        checked = 0
        for trial in range(20):
            d = int(rng.integers(1, 6))
            h = (int(rng.integers(1, 5)), int(rng.integers(1, 5)))
            model, X = draw_smooth_case(rng, d, h, seed=trial)
            y = rng.integers(0, 2, 6).astype(float)
            _, grads = mlp_loss_and_grads(model, X, y)
            params = model.parameters()
            for name in params:
                flat = params[name].reshape(-1)
                for idx in range(flat.size):
                    old = flat[idx]
                    flat[idx] = old + 1e-5
                    lp, _ = mlp_loss_and_grads(model, X, y)
                    flat[idx] = old - 1e-5
                    lm, _ = mlp_loss_and_grads(model, X, y)
                    flat[idx] = old
                    numeric = (lp - lm) / 2e-5
                    analytic = grads[name].reshape(-1)[idx]
                    denom = max(abs(numeric), abs(analytic), 1e-6)
                    assert abs(numeric - analytic) / denom <= 1e-4
                    checked += 1
        assert checked >= 100


class TestPredict:
    def test_threshold_rule(self):
        assert predict(np.array([0.2, np.nextafter(0.5, 0.0), 0.5, 0.9])).tolist() == [0, 0, 1, 1]
