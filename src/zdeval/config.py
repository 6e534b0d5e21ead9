"""Declarative experiment configuration.

A config is one flat JSON document; every knob the run depends on lives here
(there is no hidden nondeterminism: the seed is required). The
`ExperimentConfig` fields are the one list of run settings: the config echo
is built from them, and CLI flags override them by field name. Unknown keys
are rejected so typos fail loudly, and so are the keys of deleted
settings: distances always read scaled features over all of their rows,
a category unseen at fit time always takes the encoder's reserve code, a
flow is labelled an attack iff its score is >= 0.5, and every tree trains
on a bootstrap sample. The `forest` and `mlp` hyperparameters are
type-checked, and a `subsample` below `k` is rejected, so either fails
before the dataset is read.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field, fields, is_dataclass, replace
from pathlib import Path

from .classifiers import ForestConfig, MlpConfig
from .errors import ConfigError
from .flowdata import FeatureSchema

KNOWN_MODELS = ("forest", "mlp")

_TOP_LEVEL_KEYS = {
    "dataset": str,
    "benign_name": str,
    "columns": list,
    "models": list,
    "k": int,
    "seed": int,
    "fit_scope": str,
    "subsample": (int, type(None)),
    "classes": (list, type(None)),
    "output_dir": str,
    "workers": (int, type(None)),
    "keep_going": bool,
    "save_models": bool,
    "on_bad_row": str,
    "forest": dict,
    "mlp": dict,
}


@dataclass(frozen=True)
class ExperimentConfig:
    dataset: str
    benign_name: str
    schema: FeatureSchema
    models: tuple[str, ...] = ("forest", "mlp")
    k: int = 5
    seed: int = 0
    fit_scope: str = "full-dataset"
    subsample: int | None = None
    classes: tuple[str, ...] | None = None
    output_dir: str = "out"
    workers: int | None = None
    keep_going: bool = False
    save_models: bool = True
    on_bad_row: str = "abort"
    forest: ForestConfig = field(default_factory=ForestConfig)
    mlp: MlpConfig = field(default_factory=MlpConfig)

    def __post_init__(self) -> None:
        if not self.models:
            raise ConfigError("at least one model must be selected")
        for m in self.models:
            if m not in KNOWN_MODELS:
                raise ConfigError(f"unknown model {m!r}; known models: {', '.join(KNOWN_MODELS)}")
        if len(set(self.models)) != len(self.models):
            raise ConfigError(f"duplicate model in {self.models}")
        if self.classes is not None and not self.classes:
            raise ConfigError("'classes' is empty; omit the key or set it to null for every attack class")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.k < 2:
            raise ConfigError(f"k must be >= 2, got {self.k}")
        if self.fit_scope not in ("full-dataset", "train-only"):
            raise ConfigError(f"fit_scope must be 'full-dataset' or 'train-only', got {self.fit_scope!r}")
        if self.on_bad_row not in ("abort", "drop"):
            raise ConfigError(f"on_bad_row must be 'abort' or 'drop', got {self.on_bad_row!r}")
        if self.subsample is not None and self.subsample < self.k:
            raise ConfigError(f"subsample must be >= k ({self.k}), one row per fold at least, got {self.subsample}")
        if self.workers is not None and self.workers < 1:
            raise ConfigError(f"workers must be >= 1, got {self.workers}")

    def resolved_workers(self) -> int:
        """`workers`, else the number of CPUs this process may run on."""
        if self.workers is not None:
            return self.workers
        if hasattr(os, "sched_getaffinity"):  # Linux; elsewhere every CPU counts
            return len(os.sched_getaffinity(0))
        return os.cpu_count() or 1

    def to_json(self) -> dict:
        """Config echo with every default resolved, for the run report."""
        echo = {}
        for f in fields(self):
            if f.name == "schema":
                echo["columns"] = self.schema.to_json()
            elif f.name == "workers":
                echo["workers"] = self.resolved_workers()
            else:
                echo[f.name] = _as_json(getattr(self, f.name))
        return echo


def _as_json(value):
    """A field value as JSON loads it back: dataclasses as dicts, tuples as lists."""
    if is_dataclass(value):
        return {key: _as_json(v) for key, v in asdict(value).items()}
    return list(value) if isinstance(value, tuple) else value


def _check_type(key: str, value, expected) -> None:
    # bool is an int subclass; keep them apart for int-typed keys
    if isinstance(expected, tuple):
        ok = isinstance(value, expected) and not (isinstance(value, bool) and bool not in expected)
    elif expected is int:
        ok = isinstance(value, int) and not isinstance(value, bool)
    else:
        ok = isinstance(value, expected)
    if not ok:
        raise ConfigError(f"config key {key!r} has wrong type: expected {expected}, got {type(value).__name__}")


def _lists_as_tuples(obj: dict) -> dict:
    """JSON lists become tuples, as the frozen config holds them (`_as_json` turns them back)."""
    return {key: tuple(value) if isinstance(value, list) else value for key, value in obj.items()}


def config_from_dict(obj: dict, *, base_dir: Path | None = None) -> ExperimentConfig:
    """Build and validate an ExperimentConfig from a parsed JSON document."""
    if not isinstance(obj, dict):
        raise ConfigError("config document must be a JSON object")
    unknown = set(obj) - set(_TOP_LEVEL_KEYS)
    if unknown:
        raise ConfigError(f"unknown config key {sorted(unknown)[0]!r}")
    for key in ("dataset", "benign_name", "columns"):
        if key not in obj:
            raise ConfigError(f"config is missing required key {key!r}")
    if "seed" not in obj:
        raise ConfigError("config is missing required key 'seed' (runs must be explicitly seeded)")
    for key, value in obj.items():
        _check_type(key, value, _TOP_LEVEL_KEYS[key])

    # keys left out take the ExperimentConfig defaults
    given = _lists_as_tuples({key: value for key, value in obj.items() if key != "columns"})
    try:
        given["schema"] = FeatureSchema.from_json(obj["columns"])
    except Exception as exc:
        raise ConfigError(f"bad 'columns' entry: {exc}") from exc
    for key, params_type in (("forest", ForestConfig), ("mlp", MlpConfig)):
        params = given.get(key, {})
        unknown = set(params) - {f.name for f in fields(params_type)}
        if unknown:
            raise ConfigError(f"unknown {key} key {sorted(unknown)[0]!r}")
        try:
            given[key] = params_type(**_lists_as_tuples(params))
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad model hyperparameters: {exc}") from exc
    if base_dir is not None and not Path(obj["dataset"]).is_absolute():
        given["dataset"] = str(base_dir / obj["dataset"])
    try:
        return ExperimentConfig(**given)
    except ConfigError:
        raise
    except Exception as exc:
        raise ConfigError(str(exc)) from exc


def load_config(path: str | Path) -> ExperimentConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file does not exist: {path}")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}") from exc
    return config_from_dict(obj, base_dir=path.parent)


def apply_overrides(cfg: ExperimentConfig, *, out: str | None = None, **overrides) -> ExperimentConfig:
    """CLI flags win over config keys.

    Each override names an `ExperimentConfig` field (`out` sets `output_dir`);
    anything left None keeps the config value.
    """
    if out is not None:
        overrides["output_dir"] = out
    updates = {name: value for name, value in overrides.items() if value is not None}
    return replace(cfg, **updates) if updates else cfg
