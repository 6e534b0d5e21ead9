"""Zero-day evaluation harness for ML-based network intrusion detection.

Builds leave-one-attack-class-out train/test scenarios from flow-record
datasets, trains built-in classifiers (random forest, MLP), reports the
zero-day detection rate alongside standard metrics, and explains detection
failures through per-feature Wasserstein-distance analysis.
"""

__version__ = "0.1.0"

from .errors import ConfigError, DataError, SchemaError, ZdevalError
from .flowdata import (
    Column,
    ColumnKind,
    FeatureSchema,
    FlowTable,
    load_csv,
    summarize,
    table_from_columns,
    write_csv,
)
from .preprocess import FittedTransform, preprocess_pipeline
from .zslsplit import (
    FoldPlan,
    Scenario,
    make_fold_plan,
    make_zero_day_scenarios,
    scenario_rows,
)
from .classifiers import (
    ForestConfig,
    MlpConfig,
    MlpModel,
    RandomForestModel,
    forest_score,
    mlp_init,
    mlp_score,
    mlp_train,
    predict,
    train_forest,
)
from .metrics import (
    aggregate_folds,
    auc,
    basic_metrics,
    confusion,
    per_class_positives,
    scenario_report,
    zdr,
)
from .wdanalysis import per_feature_wd, rank_correlation
from .synth import AttackBlob, SyntheticSpec, synthesize_dataset
from .config import ExperimentConfig, apply_overrides, config_from_dict, load_config
from .harness import RunReport, emit_reports, run_experiment, run_wd_analysis
