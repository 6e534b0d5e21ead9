"""Seeded synthetic flow datasets for tests and desk-scale experiments.

Benign rows come from a base Gaussian blob; each attack class from its own
blob with a configurable mean, spread, and an optional constant shift that
moves the whole class away from everything else, standing in for an attack
family whose feature distribution is genuinely unlike the others.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .flowdata import Column, ColumnKind, FeatureSchema, FlowTable, table_from_columns


@dataclass(frozen=True)
class AttackBlob:
    """One synthetic attack class."""

    name: str
    count: int
    mean: float | Sequence[float] = 1.0
    cov_scale: float = 1.0
    shift: float = 0.0

    def mean_vector(self, d: int) -> np.ndarray:
        if np.isscalar(self.mean):
            return np.full(d, float(self.mean))
        vec = np.asarray(self.mean, dtype=np.float64)
        if vec.shape != (d,):
            raise ValueError(f"mean vector for class {self.name!r} must have length {d}, got {vec.shape}")
        return vec


@dataclass(frozen=True)
class SyntheticSpec:
    n_benign: int
    attacks: tuple[AttackBlob, ...]
    d: int = 4
    seed: int = 0
    benign_name: str = "Benign"
    benign_mean: float = 0.0
    benign_cov_scale: float = 1.0
    include_identifier: bool = True

    def __post_init__(self) -> None:
        if self.d < 1:
            raise ValueError(f"dimensionality must be >= 1, got {self.d}")
        if self.n_benign < 0:
            raise ValueError(f"n_benign must be >= 0, got {self.n_benign}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        names = [a.name for a in self.attacks]
        if len(set(names)) != len(names):
            raise ValueError(f"attack class names must be unique, got {names}")
        if self.benign_name in names:
            raise ValueError(f"benign name {self.benign_name!r} collides with an attack class")
        if not self.benign_cov_scale >= 0:
            raise ValueError(f"benign_cov_scale must be >= 0, got {self.benign_cov_scale}")
        for a in self.attacks:
            if a.count < 0:
                raise ValueError(f"count for class {a.name!r} must be >= 0, got {a.count}")
            if not a.cov_scale >= 0:
                raise ValueError(f"cov_scale for class {a.name!r} must be >= 0, got {a.cov_scale}")
            a.mean_vector(self.d)  # a mean of the wrong length or not numeric raises here, before any draw

    @classmethod
    def from_json(cls, obj: dict) -> "SyntheticSpec":
        """The spec a JSON document gives; a count, `d` or `seed` that is not an integer, or an
        `include_identifier` that is not a bool, raises a ValueError naming it."""
        attacks = tuple(
            AttackBlob(
                name=str(a["name"]),
                count=_checked(a["count"], f"count for class {a['name']!r}", int),
                mean=a.get("mean", 1.0),
                cov_scale=float(a.get("cov_scale", 1.0)),
                shift=float(a.get("shift", 0.0)),
            )
            for a in obj.get("attacks", [])
        )
        return cls(
            n_benign=_checked(obj["n_benign"], "n_benign", int),
            attacks=attacks,
            d=_checked(obj.get("d", 4), "d", int),
            seed=_checked(obj.get("seed", 0), "seed", int),
            benign_name=str(obj.get("benign_name", "Benign")),
            benign_mean=float(obj.get("benign_mean", 0.0)),
            benign_cov_scale=float(obj.get("benign_cov_scale", 1.0)),
            include_identifier=_checked(obj.get("include_identifier", True), "include_identifier", bool),
        )


def _checked(value, name: str, expected: type):
    """`value` if it is an `expected`, an int or a bool, where a bool is not an int; else a ValueError naming it."""
    if isinstance(value, bool) is not (expected is bool) or not isinstance(value, expected):
        raise ValueError(f"{name} must be {'a bool' if expected is bool else 'an integer'}, got {value!r}")
    return value


def synthesize_dataset(spec: SyntheticSpec) -> FlowTable:
    """Draw the configured blobs into a FlowTable, deterministic per seed.

    The class shift is added after sampling, so the same seed draws the same
    noise for every shift value and moving a class never reshuffles the rest
    of the dataset.
    """
    rng = np.random.default_rng(np.random.SeedSequence(spec.seed))
    blocks = []
    class_cells: list[str] = []

    benign = rng.normal(spec.benign_mean, spec.benign_cov_scale, size=(spec.n_benign, spec.d))
    blocks.append(benign)
    class_cells.extend([spec.benign_name] * spec.n_benign)
    for blob in spec.attacks:
        rows = rng.normal(0.0, blob.cov_scale, size=(blob.count, spec.d))
        rows += blob.mean_vector(spec.d) + blob.shift
        blocks.append(rows)
        class_cells.extend([blob.name] * blob.count)

    values = np.vstack(blocks) if blocks else np.empty((0, spec.d))
    n = values.shape[0]

    columns = []
    data: dict[str, Sequence] = {}
    if spec.include_identifier:
        columns.append(Column("flow_id", ColumnKind.IDENTIFIER))
        data["flow_id"] = np.array([f"flow-{i:07d}" for i in range(n)], dtype=object)
    for j in range(spec.d):
        columns.append(Column(f"f{j}", ColumnKind.NUMERIC))
        data[f"f{j}"] = values[:, j]
    columns.append(Column("attack_class", ColumnKind.ATTACK_CLASS))
    data["attack_class"] = class_cells
    columns.append(Column("label", ColumnKind.BINARY_LABEL))  # each row's class code != 0

    return table_from_columns(FeatureSchema(tuple(columns)), spec.benign_name, data)
