"""Experiment orchestration: scenario matrix, training runs, report emission.

A run executes, per selected model, the known-attack baseline over k folds
and every held-out-class scenario over k folds, computes per-scenario
train/test distribution distances once (they are model independent), ranks
those against the per-class zero-day detection rates, and writes all
artifacts. Everything is keyed off the config seed: two runs with the same
config and dataset produce identical metrics bytes.

The run's scenarios form one ordered list: the known-attack folds, then
each selected class's folds in catalog order. A job is (kind, scenario
index, seed): a distance job computes one zero-day scenario's per-feature
distances, a model job trains and scores one model on one scenario. A run
submits its distance jobs ahead of its model jobs to one process pool (the
`wd` command submits distance jobs alone); results are assembled in the
order of their scenario indices, so the worker count never changes any
output byte.
"""

from __future__ import annotations

import concurrent.futures
import datetime as _dt
import itertools
import json
import multiprocessing
import os
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .classifiers import forest_score, forest_to_json, mlp_score, mlp_to_json, mlp_train, predict, train_forest
from .config import KNOWN_MODELS, ExperimentConfig
from .errors import ConfigError, DataError
from .flowdata import ClassCatalog, FlowTable, build_catalog, load_csv
from .metrics import FoldAggregate, MetricsReport, aggregate_folds, per_class_positives, scenario_report
from .preprocess import FeatureMatrix, FittedTransform, encode_table, preprocess_pipeline, transforms_to_json
from .wdanalysis import WdReport, per_feature_wd, rank_correlation
from .zslsplit import FoldPlan, Scenario, fold_warnings, make_fold_plan, make_zero_day_scenarios, scenario_rows

BASELINE = "baseline"

# spawn-key prefixes partitioning the master seed into independent streams
_SEED_TRAIN, _SEED_WD, _SEED_SUBSAMPLE = 10, 20, 30


def derive_seed(master: int, *key: int) -> int:
    """Stable per-purpose seed derived from the master seed and an integer key."""
    ss = np.random.SeedSequence(entropy=master, spawn_key=tuple(key))
    return int(ss.generate_state(1, np.uint64)[0])


def subsample_rows(table: FlowTable, cap: int, seed: int) -> FlowTable:
    """Seeded uniform row subsample (without replacement), original order kept."""
    if cap >= table.row_count:
        return table
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    keep = np.sort(rng.choice(table.row_count, size=cap, replace=False))
    return table.take(keep)


DISTANCE = "wd"  # the kind of a distance job; a model job's kind is its model's name


@dataclass(frozen=True)
class ScenarioJob:
    kind: str  # DISTANCE or a model name
    scenario: int  # index into _Prepared.scenarios
    seed: int


@dataclass
class JobResult:
    kind: str
    scenario: int  # index into _Prepared.scenarios
    report: MetricsReport | WdReport | None = None
    per_class: dict[str, tuple[int, int]] | None = None
    model_json: dict | None = None
    error: str | None = None


# The prepared run and its config, shared with pool workers. Set in the
# parent before the pool is created; visible in children via fork.
_POOL_STATE: dict = {}


def _execute_job(job: ScenarioJob) -> JobResult:
    prep: _Prepared = _POOL_STATE["prep"]
    cfg: ExperimentConfig = _POOL_STATE["cfg"]
    scenario = prep.scenarios[job.scenario]
    try:
        train, test = prep.rows(job.scenario)
        if job.kind == DISTANCE:
            # under train-only scope, the matrix is this scenario's own and is dropped after the call
            report = per_feature_wd(
                prep.matrix(job.scenario, scaled=cfg.wd_on_scaled),
                train,
                test,
                held_out_class=scenario.held_out,
                fold_id=scenario.fold_id,
                subsample_cap=cfg.wd_subsample_cap,
                seed=job.seed,
            )
            return JobResult(job.kind, job.scenario, report)

        matrix = prep.matrix(job.scenario)
        x_train, y_train = matrix.values[train], matrix.labels[train]
        x_test, y_test, test_classes = matrix.values[test], matrix.labels[test], matrix.attack_classes[test]
        del matrix  # a train-only scenario's own matrix is not kept while its model trains

        if job.kind == "forest":
            model = train_forest(x_train, y_train, cfg.forest, job.seed)
            scores = forest_score(model, x_test)
            model_json = forest_to_json(model) if cfg.save_models else None
        else:
            model = mlp_train(x_train, y_train, cfg.mlp, job.seed)
            scores = mlp_score(model, x_test)
            model_json = mlp_to_json(model) if cfg.save_models else None

        y_pred = predict(scores, cfg.threshold)
        report = scenario_report(
            y_test,
            y_pred,
            scores,
            test_classes,
            cfg.benign_name,
            held_out_class=scenario.held_out,
            fold_id=scenario.fold_id,
        )
        per_class = None
        if scenario.held_out is None:
            per_class = per_class_positives(y_test, y_pred, test_classes, cfg.benign_name).by_class
        return JobResult(job.kind, job.scenario, report, per_class, model_json)
    except Exception as exc:  # noqa: BLE001 - attributed and re-raised by the parent
        error = str(exc) if job.kind == DISTANCE else f"{type(exc).__name__}: {exc}"
        return JobResult(job.kind, job.scenario, error=error)


def _attribution(prep: _Prepared, job: ScenarioJob | JobResult) -> str:
    """The job's key in messages: (class=…, fold=…), led by model=… for a model job."""
    s = prep.scenarios[job.scenario]
    where = f"class={BASELINE if s.held_out is None else s.held_out}, fold={s.fold_id}"
    return f"({where})" if job.kind == DISTANCE else f"(model={job.kind}, {where})"


def _run_jobs(cfg: ExperimentConfig, prep: _Prepared, jobs: list[ScenarioJob]) -> list[JobResult]:
    """The jobs' results in job order: in-process, or on one fork pool when workers > 1.

    A job's own failure comes back as its result's error. Without keep_going
    the run stops at a failure: jobs that have not started by then are
    dropped, so the results are those of a prefix of the jobs that holds
    the first failure in job order. A worker that dies fails the run,
    naming every job it left without a result.
    """
    workers = cfg.resolved_workers()
    _POOL_STATE.clear()
    _POOL_STATE.update({"prep": prep, "cfg": cfg})
    try:
        # without fork, the shared matrices cannot be inherited cheaply
        if workers <= 1 or len(jobs) <= 1 or "fork" not in multiprocessing.get_all_start_methods():
            results = []
            for j in jobs:
                results.append(_execute_job(j))
                if results[-1].error is not None and not cfg.keep_going:
                    break
            return results
        ctx = multiprocessing.get_context("fork")
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers, mp_context=ctx) as pool:
            futures = [pool.submit(_execute_job, j) for j in jobs]
            if not cfg.keep_going:
                for f in concurrent.futures.as_completed(futures):
                    if f.exception() is None and f.result().error is not None:
                        # the pool starts jobs in submission order: every job before this one has started
                        for pending in futures:
                            pending.cancel()
                        break
    finally:
        _POOL_STATE.clear()
    done = [(j, f) for j, f in zip(jobs, futures) if not f.cancelled()]
    lost = [(j, f.exception()) for j, f in done if f.exception() is not None]
    if lost:
        names = ", ".join(
            f"{'distance' if j.kind == DISTANCE else 'model'} job {_attribution(prep, j)}" for j, _ in lost
        )
        exc = lost[0][1]
        raise RuntimeError(f"{len(lost)} job(s) returned no result: {names}: {type(exc).__name__}: {exc}") from exc
    return [f.result() for _, f in done]


def _slug(name: str) -> str:
    out = re.sub(r"[^A-Za-z0-9]+", "-", name).strip("-").lower()
    return out or "class"


def _unique_slugs(names: tuple[str, ...], slug=_slug) -> dict[str, str]:
    """Filename-safe slugs, disambiguated when two class names collide.

    No class gets the slug of the known-attack baseline, whose model files
    and transforms are named with it. `slug=str` keeps the names as they
    are and renames only a class named like the baseline.
    """
    out: dict[str, str] = {}
    seen = {BASELINE}
    for i, name in enumerate(names):
        key = slug(name)
        while key in seen:
            key = f"{key}-{i}"
        seen.add(key)
        out[name] = key
    return out


@dataclass
class RunReport:
    """Everything a run produced, ready for serialization."""

    config: dict
    generated_at: str
    rng: dict
    dataset: dict
    fold_plan: dict
    preprocess: dict
    baseline: dict
    zero_day: dict
    wd: dict
    correlation: dict
    warnings: list[str]
    transforms: dict
    models_json: dict[str, dict] = field(default_factory=dict)
    classes: tuple[str, ...] = ()
    models: tuple[str, ...] = ()
    # file-name slug of every attack class in the catalog, not just the
    # selected ones, so a class is named alike in all of a run's files
    slugs: dict[str, str] = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "format": "zdeval-run-report",
            "version": 1,
            "zdeval_version": __version__,
            "generated_at": self.generated_at,
            "config": self.config,
            "rng": self.rng,
            "dataset": self.dataset,
            "fold_plan": self.fold_plan,
            "preprocess": self.preprocess,
            "baseline": self.baseline,
            "zero_day": self.zero_day,
            "wd": self.wd,
            "correlation": self.correlation,
            "warnings": list(self.warnings),
        }


@dataclass
class _Prepared:
    """Shared state both the full run and the analysis-only run build first."""

    rows_loaded: int
    dropped_rows: int
    catalog: ClassCatalog
    selected: tuple[str, ...]
    plan: FoldPlan
    scenarios: list[Scenario]
    # train-only scope: the encoded, unscaled matrix, the one matrix the run
    # holds; full-dataset scope keeps `shared` instead, keyed by `scaled`
    base: FeatureMatrix | None
    fitted: list[FittedTransform]  # aligned with `scenarios`
    shared: dict[bool, FeatureMatrix]
    transforms: dict
    prep_summary: dict
    warnings: list[str]

    def matrix(self, i: int, *, scaled: bool = True) -> FeatureMatrix:
        """Scenario i's matrix: a shared one, or else built now from the base matrix."""
        shared = self.shared.get(scaled)
        return shared if shared is not None else self.fitted[i].matrix(self.base, scaled=scaled)

    def rows(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        """Scenario i's sorted train and test rows."""
        return scenario_rows(self.scenarios[i], self.plan, self.catalog)

    @property
    def class_index(self) -> dict[str, int]:
        return {name: i + 1 for i, name in enumerate(self.catalog.attack_names)}

    def dataset_json(self, cfg: ExperimentConfig) -> dict:
        return {
            "path": cfg.dataset,
            "rows_loaded": self.rows_loaded,
            "rows_used": self.catalog.row_count,
            "dropped_rows": self.dropped_rows,
            "class_counts": {c: self.catalog.counts[c] for c in self.catalog.class_order},
            "benign_name": cfg.benign_name,
        }

    def fold_plan_json(self) -> dict:
        return {
            "k": self.plan.k,
            "seed": self.plan.seed,
            "generator": self.plan.generator,
            "sparse_classes": list(self.plan.sparse_classes),
        }


def _fit_transforms(
    cfg: ExperimentConfig,
    base: FeatureMatrix,
    scenarios: list[Scenario],
    plan: FoldPlan,
    catalog: ClassCatalog,
    warnings: list[str],
) -> tuple[list[FittedTransform], dict[bool, FeatureMatrix], dict, dict]:
    """Fit, per scenario, the transforms its matrices are built with.

    full-dataset scope: one transform shared by every scenario, whose
    matrices are built here, once, before the pool forks. train-only scope:
    one transform per scenario, fitted on that scenario's train rows (so
    nothing from a scenario's test rows leaks into its transforms); its
    matrix is built where it is used and dropped afterwards.
    """
    if cfg.fit_scope == "full-dataset":
        fit = preprocess_pipeline(base, "full-dataset", unseen=cfg.unseen_category_policy)
        shared = {True: fit.matrix(base)}
        if not cfg.wd_on_scaled:
            shared[False] = fit.matrix(base, scaled=False)
        transforms = {"full": transforms_to_json(fit, cfg.fit_scope)}
        summary = {"fit_scope": cfg.fit_scope, **fit.counters.to_json()}
        return [fit] * len(scenarios), shared, transforms, summary

    fitted, transforms = [], {}
    keys = _unique_slugs(catalog.attack_names, slug=str)
    clamp_total = 0
    for s in scenarios:
        name = BASELINE if s.held_out is None else keys[s.held_out]
        try:
            train, _ = scenario_rows(s, plan, catalog)
            fit = preprocess_pipeline(base, "train-only", train, unseen=cfg.unseen_category_policy)
        except DataError as exc:
            raise DataError(f"scenario {name!r} fold {s.fold_id}: {exc}") from exc
        fitted.append(fit)
        transforms[f"{name}/f{s.fold_id}"] = transforms_to_json(fit, cfg.fit_scope)
        clamp_total += fit.counters.clamped_total
        for feat, value, code in fit.counters.unseen:
            warnings.append(
                f"scenario {name!r} fold {s.fold_id}: unseen category {value!r} in {feat!r} "
                f"mapped to reserve code {code}"
            )
    if clamp_total:
        warnings.append(f"train-only scaling clamped {clamp_total} out-of-range values into [0, 1]")
    return fitted, {}, transforms, {"fit_scope": cfg.fit_scope, "clamped_total": clamp_total}


def _prepare(cfg: ExperimentConfig, *, with_baseline: bool) -> _Prepared:
    warnings: list[str] = []
    table = load_csv(cfg.dataset, cfg.schema, cfg.benign_name, on_bad_row=cfg.on_bad_row)
    rows_loaded = table.row_count
    dropped_rows = table.dropped_rows
    if dropped_rows:
        warnings.append(f"loader dropped {dropped_rows} bad rows")
    if cfg.subsample is not None and cfg.subsample < table.row_count:
        table = subsample_rows(table, cfg.subsample, derive_seed(cfg.seed, _SEED_SUBSAMPLE))
        warnings.append(f"subsampled {table.row_count} of {rows_loaded} rows (seeded)")

    catalog = build_catalog(table)
    if cfg.classes is not None:
        unknown = [c for c in cfg.classes if c not in catalog.attack_names]
        if unknown:
            raise ConfigError(f"held-out class {unknown[0]!r} not present in dataset")
        selected = tuple(c for c in catalog.attack_names if c in cfg.classes)
    else:
        selected = catalog.attack_names

    plan = make_fold_plan(catalog, cfg.k, cfg.seed)
    for name in plan.sparse_classes:
        warnings.append(f"class {name!r} has fewer rows than folds; it is sparse across folds")

    scenarios = []
    if with_baseline:
        scenarios = [Scenario(None, f) for f in range(plan.k)]
        warnings.extend(fold_warnings(plan, catalog))
    scenarios += [s for s in make_zero_day_scenarios(plan, catalog) if s.held_out in selected]

    base = encode_table(table)
    del table  # nothing reads the loaded table after encoding; free it before any matrix is built
    fitted, shared, transforms, prep_summary = _fit_transforms(cfg, base, scenarios, plan, catalog, warnings)
    return _Prepared(
        rows_loaded, dropped_rows, catalog, selected, plan, scenarios,
        None if shared else base, fitted, shared, transforms, prep_summary, warnings,
    )


def _distance_jobs(cfg: ExperimentConfig, prep: _Prepared) -> list[ScenarioJob]:
    """One distance job per zero-day scenario, in scenario order."""
    class_index = prep.class_index
    return [
        ScenarioJob(DISTANCE, i, derive_seed(cfg.seed, _SEED_WD, class_index[s.held_out], s.fold_id))
        for i, s in enumerate(prep.scenarios)
        if s.held_out is not None
    ]


def _compute_wd(cfg: ExperimentConfig, prep: _Prepared, results: list[JobResult]) -> tuple[dict, dict[str, float]]:
    """Per (class, fold) distances plus the fold-mean per class, from the distance jobs' results.

    A failed (class, fold) aborts with attribution, or is skipped with a
    warning when keep_going is set.
    """
    wd_section: dict[str, dict] = {}
    wd_mean_by_class: dict[str, float] = {}
    for name, group in itertools.groupby(results, key=lambda r: prep.scenarios[r.scenario].held_out):
        fold_reports: list[WdReport] = []
        for r in group:
            if r.error is None:
                fold_reports.append(r.report)
                continue
            message = f"distance analysis failed {_attribution(prep, r)}: {r.error}"
            if not cfg.keep_going:
                raise RuntimeError(message)
            prep.warnings.append(message)
        if not fold_reports:
            continue
        mean_over_folds = float(np.mean([r.mean_wd for r in fold_reports]))
        wd_mean_by_class[name] = mean_over_folds
        wd_section[name] = {
            "folds": [r.to_json() for r in fold_reports],
            "mean_wd": mean_over_folds,
            "per_feature_mean": {
                feat: float(np.mean([r.per_feature[feat] for r in fold_reports]))
                for feat in fold_reports[0].per_feature
            },
        }
    return wd_section, wd_mean_by_class


def _new_report(cfg: ExperimentConfig, prep: _Prepared) -> RunReport:
    return RunReport(
        config=cfg.to_json(),
        generated_at=_dt.datetime.now(_dt.timezone.utc).isoformat(),
        rng={"bit_generator": "PCG64", "numpy": np.__version__},
        dataset=prep.dataset_json(cfg),
        fold_plan=prep.fold_plan_json(),
        preprocess=prep.prep_summary,
        baseline={},
        zero_day={},
        wd={},
        correlation={},
        warnings=prep.warnings,
        transforms=prep.transforms,
        classes=prep.selected,
        models=(),
        slugs=_unique_slugs(prep.catalog.attack_names),
    )


def _aggregate_to_json(agg: FoldAggregate, folds: list[MetricsReport]) -> dict:
    return {
        "folds": [r.to_json() for r in folds],
        "mean": agg.mean.to_json(),
        "std": agg.std,
        "undefined_counts": agg.undefined_counts,
    }


def _baseline_per_class_dr(
    base: list[JobResult], catalog: ClassCatalog, warnings: list[str], model: str
) -> dict:
    """Known-attack detection rate per class, averaged over folds."""
    out = {}
    for name in catalog.attack_names:
        values = []
        for r in base:
            counts = (r.per_class or {}).get(name)
            if counts is None or sum(counts) == 0:
                continue
            tp, fn = counts
            values.append(tp / (tp + fn) * 100.0)
        if values:
            arr = np.array(values, dtype=np.float64)
            out[name] = {"mean": float(arr.mean()), "std": float(arr.std()), "n_folds": len(values)}
        else:
            out[name] = {"mean": None, "std": None, "n_folds": 0}
            warnings.append(f"class {name!r} has no test rows in any baseline fold (model={model})")
    return out


def run_experiment(cfg: ExperimentConfig) -> RunReport:
    """Execute the full model x scenario matrix described by the config."""
    prep = _prepare(cfg, with_baseline=True)
    report = _new_report(cfg, prep)
    report.models = cfg.models

    # the distance jobs first, then each model's jobs; the results come back in this order
    jobs = _distance_jobs(cfg, prep)
    n_distance = len(jobs)
    class_index = prep.class_index
    for model in cfg.models:
        model_idx = KNOWN_MODELS.index(model)
        for i, s in enumerate(prep.scenarios):
            class_key = 0 if s.held_out is None else class_index[s.held_out]
            jobs.append(ScenarioJob(model, i, derive_seed(cfg.seed, _SEED_TRAIN, model_idx, class_key, s.fold_id)))
    results = _run_jobs(cfg, prep, jobs)

    report.wd, wd_mean_by_class = _compute_wd(cfg, prep, results[:n_distance])
    results = results[n_distance:]
    failures = [f"scenario failed {_attribution(prep, r)}: {r.error}" for r in results if r.error is not None]
    report.warnings.extend(failures)
    if failures and not cfg.keep_going:
        raise RuntimeError(failures[0])

    ok = sorted((r for r in results if r.error is None), key=lambda r: r.scenario)

    for model in cfg.models:
        mine = [(prep.scenarios[r.scenario], r) for r in ok if r.kind == model]
        base = [r for s, r in mine if s.held_out is None]
        if base:
            fold_reports = [r.report for r in base]
            report.baseline[model] = {
                **_aggregate_to_json(aggregate_folds(fold_reports), fold_reports),
                "per_class_dr": _baseline_per_class_dr(base, prep.catalog, report.warnings, model),
            }
        report.zero_day[model] = {}
        for name in prep.selected:
            fold_reports = [r.report for s, r in mine if s.held_out == name]
            if not fold_reports:
                continue
            agg = aggregate_folds(fold_reports)
            if agg.undefined_counts.get("zdr"):
                report.warnings.append(
                    f"zero-day detection rate undefined in {agg.undefined_counts['zdr']} fold(s) "
                    f"for class {name!r} (model={model}); mean taken over the rest"
                )
            report.zero_day[model][name] = _aggregate_to_json(agg, fold_reports)
        for s, r in mine:
            if r.model_json is not None:
                scen = BASELINE if s.held_out is None else report.slugs[s.held_out]
                report.models_json[f"{model}_{scen}_f{s.fold_id}.json"] = r.model_json

    for model in cfg.models:
        pairs = [
            (wd_mean_by_class[name], report.zero_day[model][name]["mean"]["zdr"])
            for name in prep.selected
            if name in wd_mean_by_class
            and name in report.zero_day.get(model, {})
            and report.zero_day[model][name]["mean"]["zdr"] is not None
        ]
        if len(pairs) >= 3:
            try:
                report.correlation[model] = rank_correlation([p[0] for p in pairs], [p[1] for p in pairs])
            except ValueError as exc:
                report.correlation[model] = None
                report.warnings.append(f"rank correlation undefined for model {model!r}: {exc}")
        else:
            report.correlation[model] = None
            report.warnings.append(
                f"rank correlation undefined for model {model!r}: needs >= 3 classes with a defined "
                f"zero-day detection rate, got {len(pairs)}"
            )
    return report


def run_wd_analysis(cfg: ExperimentConfig) -> RunReport:
    """Distribution-distance analysis only, no model training."""
    prep = _prepare(cfg, with_baseline=False)
    report = _new_report(cfg, prep)
    report.wd, _ = _compute_wd(cfg, prep, _run_jobs(cfg, prep, _distance_jobs(cfg, prep)))
    return report


def _fmt(value: float | None, places: int) -> str:
    return "NA" if value is None else f"{value:.{places}f}"


def metrics_csv_text(report: RunReport, model: str) -> str:
    """One row per held-out class, in catalog order, fold-mean metrics."""
    lines = ["Zero-day Attack,Z-DR,Accuracy,F1 Score,FAR,DR,AUC"]
    for name in report.classes:
        entry = report.zero_day.get(model, {}).get(name)
        if entry is None:
            continue
        mean = entry["mean"]
        lines.append(
            ",".join(
                [
                    name,
                    _fmt(mean["zdr"], 2),
                    _fmt(mean["accuracy"], 2),
                    _fmt(mean["f1"], 4),
                    _fmt(mean["far"], 2),
                    _fmt(mean["dr"], 2),
                    _fmt(mean["auc"], 4),
                ]
            )
        )
    return "\r\n".join(lines) + "\r\n"


def dr_vs_zdr_tsv_text(report: RunReport, model: str) -> str:
    """Per class: known-attack DR (baseline) next to zero-day DR."""
    lines = ["class\tknown_dr\tzero_day_dr"]
    per_class = report.baseline.get(model, {}).get("per_class_dr", {})
    for name in report.classes:
        known = (per_class.get(name) or {}).get("mean")
        entry = report.zero_day.get(model, {}).get(name)
        zdr_mean = entry["mean"]["zdr"] if entry else None
        lines.append(f"{name}\t{_fmt(known, 2)}\t{_fmt(zdr_mean, 2)}")
    return "\n".join(lines) + "\n"


def wd_means_tsv_text(report: RunReport) -> str:
    lines = ["class\tmean_wd"]
    for name in report.classes:
        entry = report.wd.get(name)
        if entry is None:
            continue
        lines.append(f"{name}\t{_fmt(entry['mean_wd'], 4)}")
    return "\n".join(lines) + "\n"


def wd_features_csv_text(report: RunReport, class_name: str) -> str:
    """Fold-mean distance per feature for one held-out class."""
    lines = ["feature,distance"]
    for feat, value in report.wd[class_name]["per_feature_mean"].items():
        lines.append(f"{feat},{_fmt(value, 4)}")
    return "\r\n".join(lines) + "\r\n"


def _write_atomic(path, content: str) -> None:
    tmp = f"{path}.tmp-{os.getpid()}"
    with open(tmp, "w", encoding="utf-8", newline="") as fh:
        fh.write(content)
    os.replace(tmp, path)


def emit_reports(report: RunReport, out_dir) -> list[str]:
    """Write run.json, per-model CSV/TSV tables, transforms, and models.

    The directory is probed for writability first and every file lands via
    write-to-temp + rename, so a failure cannot leave a partially written
    artifact behind.
    """
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
        probe = out / f".probe-{os.getpid()}"
        probe.write_text("", encoding="utf-8")
        probe.unlink()
    except OSError as exc:
        raise DataError(f"output directory is not writable: {out} ({exc})") from exc

    written: list[str] = []

    def emit(name: str, content: str) -> None:
        _write_atomic(out / name, content)
        written.append(str(out / name))

    emit("run.json", json.dumps(report.to_json(), indent=2, sort_keys=True) + "\n")
    emit("transforms.json", json.dumps(report.transforms, indent=2, sort_keys=True) + "\n")
    for model in report.models:
        emit(f"metrics_{model}.csv", metrics_csv_text(report, model))
        emit(f"dr_vs_zdr_{model}.tsv", dr_vs_zdr_tsv_text(report, model))
    emit("wd_means.tsv", wd_means_tsv_text(report))
    for name in report.classes:
        if name in report.wd:
            emit(f"wd_features_{report.slugs[name]}.csv", wd_features_csv_text(report, name))

    if report.models_json:
        models_dir = out / "models"
        models_dir.mkdir(exist_ok=True)
        for filename, doc in sorted(report.models_json.items()):
            _write_atomic(models_dir / filename, json.dumps(doc, sort_keys=True) + "\n")
            written.append(str(models_dir / filename))
    return written
