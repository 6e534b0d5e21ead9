"""Built-in binary classifiers: a Gini random forest and a two-hidden-layer MLP.

Both are implemented from scratch on numpy, emit attack scores in [0, 1],
and are bit-reproducible for a fixed (data, config, seed) on one platform.
"""

from __future__ import annotations

import numpy as np

from .forest import (
    ForestConfig,
    RandomForestModel,
    forest_from_json,
    forest_score,
    forest_to_json,
    train_forest,
    tree_score,
)
from .mlp import (
    MlpConfig,
    MlpModel,
    mlp_from_json,
    mlp_init,
    mlp_loss_and_grads,
    mlp_score,
    mlp_to_json,
    mlp_train,
)

__all__ = [
    "ForestConfig",
    "MlpConfig",
    "MlpModel",
    "RandomForestModel",
    "forest_from_json",
    "forest_score",
    "forest_to_json",
    "mlp_from_json",
    "mlp_init",
    "mlp_loss_and_grads",
    "mlp_score",
    "mlp_to_json",
    "mlp_train",
    "predict",
    "train_forest",
    "tree_score",
]


def predict(scores: np.ndarray) -> np.ndarray:
    """Hard labels from attack scores: 1 iff score >= 0.5."""
    scores = np.asarray(scores, dtype=np.float64)
    return (scores >= 0.5).astype(np.int64)
