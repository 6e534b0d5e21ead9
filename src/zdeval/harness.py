"""Experiment orchestration: scenario matrix, training runs, report emission.

A run executes, per selected model, the known-attack baseline over k folds
and every held-out-class scenario over k folds, computes per-scenario
train/test distribution distances once (they are model independent), ranks
those against the per-class zero-day detection rates, and writes all
artifacts. Everything is keyed off the config seed: two runs with the same
config and dataset produce identical metrics bytes.

The run's scenarios form one ordered list: the known-attack folds, then
each selected class's folds in code order. A job is (kind, index, seed): a
distance job computes one feature's distance in every zero-day scenario,
since one sort of the feature's column orders the sample of each (see
`wdanalysis`), and a model job trains and scores one model on one
scenario. A run submits its distance jobs ahead of its model jobs to one
process pool (the `wd` command submits distance jobs alone); results are
read in job order, so the worker count never changes any output byte.

`_prepare` builds the run report with its fixed sections (config, dataset,
fold plan, preprocessing, transforms and the preparation warnings); the
jobs' results fill in the rest. `_compute_wd` builds the `wd` section
straight from the distance jobs' per-feature lists, taking each zero-day
scenario's column in scenario order. The model jobs write the model files
and `emit_reports` the reports. `_settle` is the one place a failure is
settled, per scenario: a scenario's distances fail with the first of its
features that fails, and a model job fails alone. The distance failures
are settled first, in scenario order, then the model jobs'. Without
keep_going the first stops the run, naming the scenario; with it, each
becomes a warning and is left out of every mean.

The features are held once: the loaded table is the base matrix, its
feature-major block the one n x d float64 matrix a run holds, and nothing
writes to it. A distance job reads its feature's column whole, in sorted
order, and codes and scales it through each distinct transform of the
scenarios. A model job reads its rows through its scenario's fitted
transform, one column at a time, each one take from the contiguous column:
every feature of its train rows and, once its model is trained, of its
test rows, into a new matrix whose columns are contiguous. The table's
class codes are the one class column and the one class inventory: a model
job's labels are its rows' codes != 0.
"""

from __future__ import annotations

import concurrent.futures
import csv
import ctypes
import datetime as _dt
import json
import logging
import mmap
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
from .flowdata import FlowTable, load_csv
from .metrics import FoldAggregate, MetricsReport, aggregate_folds, per_class_positives, scenario_report, zdr
from .preprocess import FittedTransform, preprocess_pipeline, transforms_to_json
from .wdanalysis import per_feature_wd, rank_correlation
from .zslsplit import (
    FoldPlan, Scenario, fold_warnings, make_fold_plan, make_zero_day_scenarios, row_groups, scenario_rows, train_groups,
)

BASELINE = "baseline"

log = logging.getLogger(__name__)

# spawn-key prefixes partitioning the master seed into independent streams
_SEED_TRAIN, _SEED_SUBSAMPLE = 10, 30


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
class Job:
    kind: str  # DISTANCE or a model name
    index: int  # a distance job's feature; a model job's scenario, an index into _Prepared.scenarios
    seed: int = 0  # a model job's training seed


@dataclass
class JobResult:
    """A job's result; `index` is its job's, a distance job's feature or a model job's scenario.

    A distance job's `report` lists its feature's distance, or the failure
    as a message, per zero-day scenario; its `error` is its first failure.
    """

    kind: str
    index: int
    report: MetricsReport | list[float | str] | None = None
    per_class: dict[str, tuple[int, int]] | None = None
    error: str | None = None


# The prepared run and its config, shared with pool workers. Set in the
# parent before the pool is created; visible in children via fork. A pool
# run also shares one state per job: _QUEUED, then _STARTED and _FINISHED as
# a worker runs it, so the jobs a dead worker left in flight can be told
# from those that never started.
_POOL_STATE: dict = {}
_QUEUED, _STARTED, _FINISHED = 0, 1, 2


def _execute_tracked(slot: int, job: Job) -> JobResult:
    """`_execute_job` in a pool worker, recording the job's state in its slot."""
    states = _POOL_STATE["states"]
    states[slot] = _STARTED
    result = _execute_job(job)
    states[slot] = _FINISHED
    return result


def _failure(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


def _execute_job(job: Job) -> JobResult:
    prep: _Prepared = _POOL_STATE["prep"]
    cfg: ExperimentConfig = _POOL_STATE["cfg"]
    try:
        if job.kind == DISTANCE:
            zero_day = prep.zero_day
            outcomes = per_feature_wd(
                prep.base,
                job.index,
                prep.plan.fold,
                [prep.scenarios[i] for i in zero_day],
                [prep.fitted[i] for i in zero_day],
            )
            report = [_failure(o) if isinstance(o, Exception) else o for o in outcomes]
            return JobResult(job.kind, job.index, report, error=next((o for o in report if isinstance(o, str)), None))

        scenario = prep.scenarios[job.index]
        train, test = prep.rows(job.index)
        base, transform = prep.base, prep.fitted[job.index]
        train_codes, test_codes = base.class_codes[train], base.class_codes[test]
        x_train, y_train = transform.apply(base, train), (train_codes != 0).astype(np.int64)
        if job.kind == "forest":
            model = train_forest(x_train, y_train, cfg.forest, job.seed)
        else:
            model = mlp_train(x_train, y_train, cfg.mlp, job.seed)
        # read once the model is trained, so the test matrix is not held through training
        x_test, y_test = transform.apply(base, test), (test_codes != 0).astype(np.int64)
        scores = forest_score(model, x_test) if job.kind == "forest" else mlp_score(model, x_test)

        y_pred = predict(scores)
        report = scenario_report(
            y_test,
            y_pred,
            scores,
            test_codes,
            base.class_names,
            held_out_class=scenario.held_out,
            fold_id=scenario.fold_id,
        )
        per_class = None
        if scenario.held_out is None:
            per_class = per_class_positives(y_test, y_pred, test_codes, base.class_names)
        if cfg.save_models:  # written last, so a failed job leaves no model file
            doc = forest_to_json(model) if job.kind == "forest" else mlp_to_json(model)
            path = Path(cfg.output_dir, _model_file(job.kind, prep.report.slugs, scenario.held_out, scenario.fold_id))
            _write_atomic(path, json.dumps(doc, sort_keys=True) + "\n")
        return JobResult(job.kind, job.index, report, per_class)
    except Exception as exc:  # noqa: BLE001 - attributed and re-raised by the parent
        return JobResult(job.kind, job.index, error=_failure(exc))


def _model_file(kind: str, slugs: dict[str, str], held_out: str | None, fold: int) -> str:
    """A model's file in the output directory, named by its held-out class's slug (the baseline's if None)."""
    return f"models/{kind}_{BASELINE if held_out is None else slugs[held_out]}_f{fold}.json"


def _attribution(prep: _Prepared, kind: str, scenario: int) -> str:
    """A scenario's key in messages: (class=…, fold=…), led by model=… for a model job's."""
    s = prep.scenarios[scenario]
    where = f"class={BASELINE if s.held_out is None else s.held_out}, fold={s.fold_id}"
    return f"({where})" if kind == DISTANCE else f"(model={kind}, {where})"


def _job_name(prep: _Prepared, job: Job) -> str:
    """The job in messages: a distance job by its feature, a model job by its model and scenario."""
    if job.kind == DISTANCE:
        return f"distance job (feature={prep.base.feature_names[job.index]})"
    return f"model job {_attribution(prep, job.kind, job.index)}"


def openblas_function(name: str, restype, *argtypes):
    """OpenBLAS's `openblas_<name>` in the library numpy calls, typed, or None if no OpenBLAS is found.

    numpy's wheels bundle `numpy.libs/libscipy_openblas64_*.so`, whose
    symbols read `scipy_openblas_<name>64_`; a system OpenBLAS exports
    `openblas_<name>`.
    """
    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas64_*.so"))
    if libs:
        path, symbol = str(libs[0]), f"scipy_openblas_{name}64_"
    else:
        from ctypes.util import find_library  # here, as it imports subprocess, which nothing else needs

        path, symbol = find_library("openblas"), f"openblas_{name}"
        if path is None:
            return None
    try:
        function = getattr(ctypes.CDLL(path), symbol)
    except (OSError, AttributeError):
        return None
    function.restype, function.argtypes = restype, list(argtypes)
    return function


def _run_jobs(cfg: ExperimentConfig, prep: _Prepared, jobs: list[Job]) -> list[JobResult]:
    """The jobs' results in job order: in-process, or on one fork pool when workers > 1.

    A job's own failure comes back as its result's error. Without keep_going
    the run stops at a failure: model jobs that have not started by then are
    dropped, while every distance job runs, so the results hold every
    distance job's and those of a prefix of the model jobs that holds the
    first failed model job. A worker that dies fails the run,
    naming the jobs that were in flight and counting those that had not
    started. Each worker of a pool with MLP jobs does its BLAS work on one
    thread, so the workers do not contend for the CPUs with a BLAS thread
    per CPU each.
    """
    workers = cfg.resolved_workers()
    _POOL_STATE.clear()
    _POOL_STATE.update({"prep": prep, "cfg": cfg})
    try:
        # without fork, the base matrix cannot be inherited cheaply
        if workers <= 1 or len(jobs) <= 1 or "fork" not in multiprocessing.get_all_start_methods():
            results, stop = [], False
            for j in jobs:
                if stop and j.kind != DISTANCE:
                    break
                results.append(_execute_job(j))
                stop = stop or (results[-1].error is not None and not cfg.keep_going)
            return results
        ctx = multiprocessing.get_context("fork")
        # one byte per job in anonymous shared memory, which the forked workers write to
        # (a multiprocessing.Array took 6.5 ms to make)
        states = _POOL_STATE["states"] = mmap.mmap(-1, len(jobs))
        # the BLAS read its thread count from the environment before the fork, so each worker sets
        # it. Only the MLP calls the BLAS, and setting the count starts the BLAS's thread server in
        # the worker, whose idle thread spins about 80 ms, so a pool with no MLP job leaves it be
        set_threads = None
        if any(j.kind == "mlp" for j in jobs):
            set_threads = openblas_function("set_num_threads", None, ctypes.c_int)
            if set_threads is None:
                log.warning("no OpenBLAS library found: each pool worker keeps the BLAS's own thread count")
        # the pool forks all its workers at the first submit, so it gets no more than there are jobs
        with concurrent.futures.ProcessPoolExecutor(
            max_workers=min(workers, len(jobs)), mp_context=ctx, initializer=set_threads, initargs=(1,)
        ) as pool:
            futures = [pool.submit(_execute_tracked, i, j) for i, j in enumerate(jobs)]
            if not cfg.keep_going:
                for f in concurrent.futures.as_completed(futures):
                    if f.exception() is None and f.result().error is not None:
                        # the pool starts jobs in submission order: every job before this one has started
                        for job, pending in zip(jobs, futures):
                            if job.kind != DISTANCE:
                                pending.cancel()
                        break
    finally:
        _POOL_STATE.clear()
    done = [(i, f) for i, f in enumerate(futures) if not f.cancelled()]
    lost = [(i, f.exception()) for i, f in done if f.exception() is not None]
    if lost:
        # a job that finished before the pool broke may still have lost its result
        in_flight = [jobs[i] for i, _ in lost if states[i] == _STARTED]
        names = ", ".join(_job_name(prep, j) for j in in_flight)
        queued = sum(states[i] == _QUEUED for i, _ in lost)
        exc = lost[0][1]
        raise RuntimeError(
            f"a pool worker died; {len(lost)} job(s) returned no result: {len(in_flight)} in flight ({names}), "
            f"{queued} not started: {type(exc).__name__}: {exc}"
        ) from exc
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
    warnings: list[str]
    transforms: dict
    baseline: dict = field(default_factory=dict)
    zero_day: dict = field(default_factory=dict)
    wd: dict = field(default_factory=dict)
    correlation: dict = field(default_factory=dict)
    classes: tuple[str, ...] = ()
    models: tuple[str, ...] = ()
    # file-name slug of every attack class in the table, not just the
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

    plan: FoldPlan
    scenarios: list[Scenario]
    base: FlowTable  # the loaded table, its block unscaled; nothing writes to it
    fitted: list[FittedTransform]  # aligned with `scenarios`
    report: RunReport  # its fixed sections filled in; the jobs' results go into the rest

    def rows(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        """Scenario i's sorted train and test rows."""
        return scenario_rows(self.scenarios[i], self.plan, self.base)

    @property
    def zero_day(self) -> list[int]:
        """The zero-day scenarios' indices, in scenario order."""
        return [i for i, s in enumerate(self.scenarios) if s.held_out is not None]


def _fit_transforms(
    cfg: ExperimentConfig, base: FlowTable, scenarios: list[Scenario], plan: FoldPlan, warnings: list[str]
) -> tuple[list[FittedTransform], dict, dict]:
    """Fit, per scenario, the transform its jobs read the table through, in one call over the (class, fold) groups.

    full-dataset scope: one fit over every group, so on every row, shared by
    every scenario. train-only scope: one fit per scenario over the groups
    its train rows are a union of, so nothing from a scenario's test rows
    leaks into its transform. The scope picks only the fits and their names.
    """
    if cfg.fit_scope == "full-dataset":
        names, fits = [("full", None)], np.ones((1, len(base.class_names) * plan.k), dtype=bool)
    else:
        keys = _unique_slugs(base.attack_names, slug=str)
        names = [(BASELINE if s.held_out is None else keys[s.held_out], s.fold_id) for s in scenarios]
        fits = train_groups(scenarios, plan, base)
    try:
        fitted = preprocess_pipeline(base, row_groups(plan, base), fits)
    except ValueError as exc:
        if not hasattr(exc, "fit"):
            raise
        name, fold = names[exc.fit]
        raise ValueError(f"scenario {name!r} fold {fold}: {exc}") from exc
    transforms = {}
    for (name, fold), fit in zip(names, fitted):
        transforms[name if fold is None else f"{name}/f{fold}"] = transforms_to_json(fit, cfg.fit_scope)
        for feat, value, code in fit.counters.unseen:
            warnings.append(
                f"scenario {name!r} fold {fold}: unseen category {value!r} in {feat!r} mapped to reserve code {code}"
            )
    clamp_total = sum(fit.counters.clamped_total for fit in fitted)
    if clamp_total:
        warnings.append(f"train-only scaling clamped {clamp_total} out-of-range values into [0, 1]")
    if len(fitted) == 1:  # one fit serves every scenario
        fitted *= len(scenarios)
    return fitted, transforms, {"fit_scope": cfg.fit_scope, "clamped_total": clamp_total}


def _prepare(cfg: ExperimentConfig, *, with_baseline: bool) -> _Prepared:
    warnings: list[str] = []
    table = load_csv(cfg.dataset, cfg.schema, cfg.benign_name, on_bad_row=cfg.on_bad_row)
    rows_loaded = table.row_count
    if table.dropped_rows:
        warnings.append(f"loader dropped {table.dropped_rows} bad rows")
    if cfg.subsample is not None and cfg.subsample < table.row_count:
        table = subsample_rows(table, cfg.subsample, derive_seed(cfg.seed, _SEED_SUBSAMPLE))
        warnings.append(f"subsampled {table.row_count} of {rows_loaded} rows (seeded)")

    attack_names = table.attack_names  # a table with no attack class raises here, before the classes check
    unknown = [c for c in cfg.classes or () if c not in attack_names]
    if unknown:
        raise ConfigError(f"held-out class {unknown[0]!r} not present in dataset")
    selected = attack_names if cfg.classes is None else tuple(c for c in attack_names if c in cfg.classes)

    if table.row_count < cfg.k:
        raise DataError(f"k is {cfg.k}, more than the table's {table.row_count} rows: each fold needs a row")
    plan = make_fold_plan(table, cfg.k, cfg.seed)
    for name in plan.sparse_classes:
        warnings.append(f"class {name!r} has fewer rows than folds; it is sparse across folds")

    scenarios = []
    if with_baseline:
        scenarios = [Scenario(None, f) for f in range(plan.k)]
        warnings.extend(fold_warnings(plan, table))
    scenarios += [s for s in make_zero_day_scenarios(plan, table) if s.held_out in selected]

    fitted, transforms, prep_summary = _fit_transforms(cfg, table, scenarios, plan, warnings)
    report = RunReport(
        config=cfg.to_json(),
        generated_at=_dt.datetime.now(_dt.timezone.utc).isoformat(),
        rng={"bit_generator": "PCG64", "numpy": np.__version__},
        dataset={
            "path": cfg.dataset,
            "rows_loaded": rows_loaded,
            "rows_used": table.row_count,
            "dropped_rows": table.dropped_rows,
            "class_counts": dict(zip(table.class_names, table.class_counts)),
            "benign_name": cfg.benign_name,
        },
        fold_plan={
            "k": plan.k, "seed": plan.seed, "generator": plan.generator, "sparse_classes": list(plan.sparse_classes),
        },
        preprocess=prep_summary,
        warnings=warnings,
        transforms=transforms,
        classes=selected,
        slugs=_unique_slugs(attack_names),
    )
    return _Prepared(plan, scenarios, table, fitted, report)


def _distance_jobs(prep: _Prepared) -> list[Job]:
    """One distance job per feature, in feature order."""
    return [Job(DISTANCE, j) for j in range(len(prep.base.feature_names))]


def _settle(cfg: ExperimentConfig, prep: _Prepared, kind: str, scenario: int, error: str) -> None:
    """Settle a failed scenario: without keep_going, stop the run with its attribution; with it, warn.

    The caller leaves a scenario it settles out of every mean.
    """
    failed = "distance analysis failed" if kind == DISTANCE else "scenario failed"
    message = f"{failed} {_attribution(prep, kind, scenario)}: {error}"
    if not cfg.keep_going:
        raise RuntimeError(message)
    prep.report.warnings.append(message)


def _succeeded(cfg: ExperimentConfig, prep: _Prepared, results: list[JobResult]) -> list[JobResult]:
    """The model jobs' results that succeeded, in order; each failure is settled in turn."""
    for r in results:
        if r.error is not None:
            _settle(cfg, prep, r.kind, r.index, r.error)
    return [r for r in results if r.error is None]


def _compute_wd(cfg: ExperimentConfig, prep: _Prepared, results: list[JobResult]) -> dict:
    """The wd section, from the distance jobs' results in feature order.

    Per zero-day scenario, in scenario order, its fold entry under its
    class: the distance per feature, their mean and the row counts of both
    sides. A scenario fails with the first of its features that failed (a
    failed job's error stands for each of its scenarios) and is settled.
    Then each class's fold mean, overall and per feature.
    """
    base, plan, zero_day = prep.base, prep.plan, prep.zero_day
    scenarios = [prep.scenarios[i] for i in zero_day]
    group_rows = np.bincount(row_groups(plan, base), minlength=len(base.class_names) * plan.k)
    rows_train, rows_test = train_groups(scenarios, plan, base) @ group_rows, np.bincount(plan.fold, minlength=plan.k)
    wd_section: dict[str, dict] = {}
    for col, (i, s) in enumerate(zip(zero_day, scenarios)):
        outcomes = [r.error if r.report is None else r.report[col] for r in results]
        error = next((o for o in outcomes if isinstance(o, str)), None)
        if error is not None:
            _settle(cfg, prep, DISTANCE, i, error)
            continue
        wd_section.setdefault(s.held_out, {"folds": []})["folds"].append({
            "held_out_class": s.held_out,
            "fold": s.fold_id,
            "mean_wd": float(np.mean(outcomes)),
            "per_feature": dict(sorted(zip(base.feature_names, outcomes))),
            "encoded_features": list(base.schema.categorical_names),
            "rows_train": int(rows_train[col]),
            "rows_test": int(rows_test[s.fold_id]),
        })
    for entry in wd_section.values():
        folds = entry["folds"]
        entry["mean_wd"] = float(np.mean([f["mean_wd"] for f in folds]))
        entry["per_feature_mean"] = {
            feat: float(np.mean([f["per_feature"][feat] for f in folds])) for feat in base.feature_names
        }
    return wd_section


def _aggregate_to_json(agg: FoldAggregate, folds: list[MetricsReport]) -> dict:
    return {
        "folds": [r.to_json() for r in folds],
        "mean": agg.mean.to_json(),
        "std": agg.std,
        "undefined_counts": agg.undefined_counts,
    }


def _baseline_per_class_dr(
    base: list[JobResult], attack_names: tuple[str, ...], warnings: list[str], model: str
) -> dict:
    """Known-attack detection rate per class, averaged over the folds that hold the class."""
    out = {}
    for name in attack_names:
        values = [v for v in (zdr(r.per_class, name) for r in base) if v is not None]
        if values:
            out[name] = {"mean": float(np.mean(values)), "std": float(np.std(values)), "n_folds": len(values)}
        else:
            out[name] = {"mean": None, "std": None, "n_folds": 0}
            warnings.append(f"class {name!r} has no test rows in any baseline fold (model={model})")
    return out


def run_experiment(cfg: ExperimentConfig) -> RunReport:
    """Execute the full model x scenario matrix described by the config."""
    prep = _prepare(cfg, with_baseline=True)
    report = prep.report
    report.models = cfg.models

    # the distance jobs first, then each model's jobs in scenario order; the results come back in this order
    jobs = _distance_jobs(prep)
    for model in cfg.models:
        model_idx = KNOWN_MODELS.index(model)
        for i, s in enumerate(prep.scenarios):
            class_key = 0 if s.held_out is None else prep.base.class_names.index(s.held_out)
            jobs.append(Job(model, i, derive_seed(cfg.seed, _SEED_TRAIN, model_idx, class_key, s.fold_id)))
    if cfg.save_models:
        writable_dir(Path(cfg.output_dir, "models"))
    results = _run_jobs(cfg, prep, jobs)
    n_distance = len(prep.base.feature_names)
    # the distance failures are settled first, in scenario order, then the model jobs'
    report.wd = _compute_wd(cfg, prep, results[:n_distance])
    ok = _succeeded(cfg, prep, results[n_distance:])

    for model in cfg.models:
        mine = [(prep.scenarios[r.index], r) for r in ok if r.kind == model]
        base = [r for s, r in mine if s.held_out is None]
        if base:
            fold_reports = [r.report for r in base]
            report.baseline[model] = {
                **_aggregate_to_json(aggregate_folds(fold_reports), fold_reports),
                "per_class_dr": _baseline_per_class_dr(base, prep.base.attack_names, report.warnings, model),
            }
        report.zero_day[model] = {}
        for name in report.classes:
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

    for model in cfg.models:
        # zero_day[model] holds its classes in report order
        pairs = [
            (report.wd[name]["mean_wd"], entry["mean"]["zdr"])
            for name, entry in report.zero_day[model].items()
            if name in report.wd and entry["mean"]["zdr"] is not None
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
    prep.report.wd = _compute_wd(cfg, prep, _run_jobs(cfg, prep, _distance_jobs(prep)))
    return prep.report


def _fmt(value: float | None, places: int) -> str:
    return "NA" if value is None else f"{value:.{places}f}"


class _Line:
    """A stand-in file whose `write` hands its text back, so a `csv.writer` on it returns each row's line."""

    def write(self, text: str) -> str:
        return text


def _table_text(rows: list[list[str]], delimiter: str, newline: str) -> str:
    """The rows as delimited text, each ended by `newline`.

    A cell that holds the delimiter, a quote or a line break is quoted, so a
    class or feature name never splits its row.
    """
    # a writer whose line end is "\r\n" quotes a cell that holds either character; each row's end is then swapped
    writer = csv.writer(_Line(), delimiter=delimiter, lineterminator="\r\n")
    return "".join(writer.writerow(row)[:-2] + newline for row in rows)


def metrics_csv_text(report: RunReport, model: str) -> str:
    """One row per held-out class, in code order, fold-mean metrics."""
    rows = [["Zero-day Attack", "Z-DR", "Accuracy", "F1 Score", "FAR", "DR", "AUC"]]
    for name in report.classes:
        entry = report.zero_day.get(model, {}).get(name)
        if entry is None:
            continue
        mean = entry["mean"]
        rows.append([
            name, _fmt(mean["zdr"], 2), _fmt(mean["accuracy"], 2), _fmt(mean["f1"], 4), _fmt(mean["far"], 2),
            _fmt(mean["dr"], 2), _fmt(mean["auc"], 4),
        ])
    return _table_text(rows, ",", "\r\n")


def dr_vs_zdr_tsv_text(report: RunReport, model: str) -> str:
    """Per class: known-attack DR (baseline) next to zero-day DR."""
    rows = [["class", "known_dr", "zero_day_dr"]]
    per_class = report.baseline.get(model, {}).get("per_class_dr", {})
    for name in report.classes:
        known = (per_class.get(name) or {}).get("mean")
        entry = report.zero_day.get(model, {}).get(name)
        zdr_mean = entry["mean"]["zdr"] if entry else None
        rows.append([name, _fmt(known, 2), _fmt(zdr_mean, 2)])
    return _table_text(rows, "\t", "\n")


def wd_means_tsv_text(report: RunReport) -> str:
    rows = [["class", "mean_wd"]]
    for name in report.classes:
        entry = report.wd.get(name)
        if entry is None:
            continue
        rows.append([name, _fmt(entry["mean_wd"], 4)])
    return _table_text(rows, "\t", "\n")


def wd_features_csv_text(report: RunReport, class_name: str) -> str:
    """Fold-mean distance per feature for one held-out class."""
    rows = [["feature", "distance"]]
    for feat, value in report.wd[class_name]["per_feature_mean"].items():
        rows.append([feat, _fmt(value, 4)])
    return _table_text(rows, ",", "\r\n")


def _write_atomic(path, content: str) -> None:
    """Write to a temp file beside `path`, then rename it over `path`; on failure remove the temp file."""
    tmp = f"{path}.tmp-{os.getpid()}"
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            fh.write(content)
        os.replace(tmp, path)
    except BaseException:
        Path(tmp).unlink(missing_ok=True)
        raise


def writable_dir(path) -> Path:
    """Make the directory if need be, and prove a file can be written in it."""
    out = Path(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
        probe = out / f".probe-{os.getpid()}"
        probe.write_text("", encoding="utf-8")
        probe.unlink()
    except OSError as exc:
        raise DataError(f"output directory is not writable: {out} ({exc})") from exc
    return out


def _stale_files(report: RunReport, out: Path, written: set[str]) -> list[str]:
    """The files in `out` named as zdeval names its tables and model files that this run did not write.

    `written` holds the tables this run writes; its model files are named
    from its models, its classes and the baseline, and its k folds.
    """
    if report.config["save_models"]:
        written = written | {
            _model_file(model, report.slugs, held_out, fold)
            for model in report.models for held_out in (None, *report.classes) for fold in range(report.fold_plan["k"])
        }
    found = {
        path.relative_to(out).as_posix()
        for pattern in ("metrics_*.csv", "dr_vs_zdr_*.tsv", "wd_features_*.csv", "models/*.json")
        for path in out.glob(pattern)
    }
    return sorted(found - written)


def emit_reports(report: RunReport, out_dir) -> list[str]:
    """Write run.json, per-model CSV/TSV tables and transforms; return their paths.

    The directory is probed for writability first and every file lands via
    write-to-temp + rename, so a failure cannot leave a partially written
    report behind. The model files are written by the model jobs. Files an
    earlier run left in the directory under zdeval's names are kept, and
    one warning on the report names them.
    """
    out = writable_dir(out_dir)
    tables = {}
    for model in report.models:
        tables[f"metrics_{model}.csv"] = metrics_csv_text(report, model)
        tables[f"dr_vs_zdr_{model}.tsv"] = dr_vs_zdr_tsv_text(report, model)
    tables["wd_means.tsv"] = wd_means_tsv_text(report)
    for name in report.classes:
        if name in report.wd:
            tables[f"wd_features_{report.slugs[name]}.csv"] = wd_features_csv_text(report, name)
    stale = _stale_files(report, out, set(tables))
    if stale:
        report.warnings.append(
            f"the output directory holds {len(stale)} file(s) that this run did not write, left by an earlier run: "
            + ", ".join(stale)
        )
    files = {
        "run.json": json.dumps(report.to_json(), indent=2, sort_keys=True) + "\n",
        "transforms.json": json.dumps(report.transforms, indent=2, sort_keys=True) + "\n",
        **tables,
    }
    for name, content in files.items():
        _write_atomic(out / name, content)
    return [str(out / name) for name in files]
