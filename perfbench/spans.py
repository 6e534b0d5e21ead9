"""Layer spans for the traced benchmark run, and their reduction to metrics.

`install` replaces the layer functions that `zdeval.harness` looks up at
call time with wrappers that record one span per call. It runs before the
harness forks its pool, so pool workers inherit the wrappers. Each process
appends one JSON line per span to its own file, `spans-<pid>.jsonl`, so
nothing has to be collected from workers at exit.

A span records its function, process, start and end on CLOCK_MONOTONIC (one
clock for every process on the host), the process CPU time at both ends
(all threads, so BLAS threads count), peak RSS at both ends, and the work
it did: bytes read or written, rows, or columns.

The wrappers use only public names that the program keeps across its
planned refactors; `REQUIRED` lists those that each command and each model
must call.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import time
from pathlib import Path

import numpy as np

_COMMON = ("load_csv", "preprocess_pipeline", "make_fold_plan", "per_feature_wd", "emit_reports")
REQUIRED = {
    "run": (*_COMMON, "scenario_report", "run_experiment"),
    "wd": (*_COMMON, "run_wd_analysis"),
    "forest": ("train_forest", "forest_score"),
    "mlp": ("mlp_train", "mlp_score"),
}
# traced when the harness has them; their metrics read 0 otherwise
OPTIONAL = (
    "build_catalog", "make_known_scenarios", "make_zero_day_scenarios", "rank_correlation",
    "forest_to_json", "mlp_to_json", "aggregate_folds",
)
TOP = ("run_experiment", "run_wd_analysis")
TRAIN = ("train_forest", "mlp_train")
# spans that belong to the job whose training span precedes them
JOB_PARTS = ("forest_score", "mlp_score", "forest_to_json", "mlp_to_json", "scenario_report")


def _array_bytes(obj, _seen: set | None = None, _depth: int = 0) -> int:
    """Bytes of every distinct numpy array reachable from obj (4 levels deep)."""
    seen = set() if _seen is None else _seen
    if id(obj) in seen or _depth > 4:
        return 0
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        return int(obj.nbytes)
    if isinstance(obj, dict):
        items = obj.values()
    elif isinstance(obj, (list, tuple)):
        items = obj
    elif hasattr(obj, "__dict__"):
        items = vars(obj).values()
    else:
        return 0
    return sum(_array_bytes(v, seen, _depth + 1) for v in items)


def _dir_bytes(path) -> int:
    return sum(p.stat().st_size for p in Path(path).rglob("*") if p.is_file())


def _work(fn: str, args: tuple, result) -> float:
    """Work done by one call, in the unit its layer reports."""
    if fn == "load_csv":
        return os.path.getsize(args[0])
    if fn in ("preprocess_pipeline", "make_fold_plan", "make_known_scenarios", "make_zero_day_scenarios"):
        return _array_bytes(result)
    if fn == "per_feature_wd":
        return len(args[0].feature_names)
    if fn == "train_forest":
        return len(args[0]) * args[2].n_trees
    if fn == "mlp_train":
        return len(args[0]) * args[2].epochs
    if fn in ("forest_score", "mlp_score"):
        return len(args[1])
    if fn == "emit_reports":
        return _dir_bytes(args[1])
    return 0


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def peak_rss_kb() -> int:
    """Peak RSS of this process (VmHWM).

    Unlike ru_maxrss, it starts afresh at exec: ru_maxrss of an exec'd
    process keeps the peak of the process that launched it.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("/proc/self/status has no VmHWM line")


def _wrap(fn_name: str, func, span_dir: str):
    @functools.wraps(func)
    def traced(*args, **kwargs):
        rss0, c0, t0 = peak_rss_kb(), time.process_time(), _now()
        result = func(*args, **kwargs)
        t1, c1, rss1 = _now(), time.process_time(), peak_rss_kb()
        span = {
            "fn": fn_name, "pid": os.getpid(), "t0": t0, "t1": t1, "c0": c0, "c1": c1,
            "rss0_kb": rss0, "rss1_kb": rss1, "work": _work(fn_name, args, result),
        }
        with open(os.path.join(span_dir, f"spans-{os.getpid()}.jsonl"), "a", encoding="utf-8") as fh:
            fh.write(json.dumps(span) + "\n")
        return result

    return traced


def install(harness, span_dir: str) -> None:
    """Wrap the harness's layer functions; a required one that is missing is an error."""
    for name in dict.fromkeys((*(n for names in REQUIRED.values() for n in names), *OPTIONAL)):
        func = getattr(harness, name, None)
        if func is None:
            if name in OPTIONAL:
                continue
            raise RuntimeError(f"zdeval.harness has no {name!r} to trace")
        setattr(harness, name, _wrap(name, func, span_dir))


def read_spans(span_dir) -> list[dict]:
    spans = []
    for path in sorted(Path(span_dir).glob("spans-*.jsonl")):
        with open(path, encoding="utf-8") as fh:
            spans.extend(json.loads(line) for line in fh if line.strip())
    return spans


def missing_spans(spans: list[dict], command: str, models: tuple[str, ...] = ()) -> list[str]:
    """Functions that a `command` run of these models must call but that recorded no call."""
    called = {s["fn"] for s in spans}
    required = [*REQUIRED[command], *(n for model in models for n in REQUIRED[model])]
    return [name for name in required if name not in called]


def _union_length(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of the intervals, clipped to [lo, hi]."""
    total, end = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def _jobs(spans: list[dict]) -> list[tuple[float, float]]:
    """(start, end) of each job: a training span and the job spans after it in its process."""
    out: list[list[float]] = []
    by_pid: dict[int, list[dict]] = {}
    for s in spans:
        by_pid.setdefault(s["pid"], []).append(s)
    for pid_spans in by_pid.values():
        current = None
        for s in sorted(pid_spans, key=lambda s: s["t0"]):
            if s["fn"] in TRAIN:
                current = [s["t0"], s["t1"]]
                out.append(current)
            elif s["fn"] in JOB_PARTS and current is not None:
                current[1] = s["t1"]
            else:
                current = None
    return [(a, b) for a, b in out]


def reduce_spans(spans: list[dict], workers: int, untraced_wall_s: float) -> dict[str, float]:
    """Per-layer metrics from the spans of one traced run."""

    def pick(*names):
        return [s for s in spans if s["fn"] in names]

    def wall(*names):
        return sum(s["t1"] - s["t0"] for s in pick(*names))

    def cpu(*names):
        return sum(s["c1"] - s["c0"] for s in pick(*names))

    def work(*names):
        return sum(s["work"] for s in pick(*names))

    def rate(amount, seconds):
        return amount / seconds if seconds > 0 else 0.0

    mb = 1e6
    job_spans = _jobs(spans)
    durations = [b - a for a, b in job_spans]
    tops = pick(*TOP)
    self_s = 0.0
    efficiency = 0.0
    if job_spans:
        phase = max(b for _, b in job_spans) - min(a for a, _ in job_spans)
        efficiency = rate(sum(durations), workers * phase)
    if tops:
        top = tops[0]
        covered = [(s["t0"], s["t1"]) for s in spans if s["pid"] == top["pid"] and s["fn"] not in TOP]
        if job_spans:
            covered.append((min(a for a, _ in job_spans), max(b for _, b in job_spans)))
        self_s = (top["t1"] - top["t0"]) - _union_length(covered, top["t0"], top["t1"])
    traced_wall = sum(s["t1"] - s["t0"] for s in pick(*TOP, "emit_reports"))
    p50 = statistics.median(durations) if durations else 0.0
    p90 = statistics.quantiles(durations, n=10)[8] if len(durations) > 1 else p50

    load_s = wall("load_csv")
    forest_train_s, mlp_train_s = wall("train_forest"), wall("mlp_train")
    wd_s = wall("per_feature_wd")
    return {
        "flowdata.load_s": load_s,
        "flowdata.load_cpu_s": cpu("load_csv"),
        "flowdata.load_mb_per_s": rate(work("load_csv") / mb, load_s),
        "flowdata.load_rss_mb": sum(s["rss1_kb"] - s["rss0_kb"] for s in pick("load_csv")) / 1024.0,
        "flowdata.catalog_s": wall("build_catalog"),
        "preprocess.pipeline_s": wall("preprocess_pipeline"),
        "preprocess.pipeline_calls": len(pick("preprocess_pipeline")),
        "preprocess.matrix_mb": work("preprocess_pipeline") / mb,
        "zslsplit.plan_s": wall("make_fold_plan", "make_known_scenarios", "make_zero_day_scenarios"),
        "zslsplit.index_mb": work("make_fold_plan", "make_known_scenarios", "make_zero_day_scenarios") / mb,
        "wdanalysis.wd_s": wd_s,
        "wdanalysis.wd_calls": len(pick("per_feature_wd")),
        "wdanalysis.columns_per_s": rate(work("per_feature_wd"), wd_s),
        "wdanalysis.rank_corr_s": wall("rank_correlation"),
        "classifiers.forest.train_s": forest_train_s,
        "classifiers.forest.train_cpu_s": cpu("train_forest"),
        "classifiers.forest.train_calls": len(pick("train_forest")),
        "classifiers.forest.train_rows_per_s": rate(work("train_forest"), forest_train_s),
        "classifiers.forest.score_s": wall("forest_score"),
        "classifiers.forest.score_rows_per_s": rate(work("forest_score"), wall("forest_score")),
        "classifiers.forest.to_json_s": wall("forest_to_json"),
        "classifiers.mlp.train_s": mlp_train_s,
        "classifiers.mlp.train_cpu_s": cpu("mlp_train"),
        "classifiers.mlp.train_calls": len(pick("mlp_train")),
        "classifiers.mlp.train_rows_per_s": rate(work("mlp_train"), mlp_train_s),
        "classifiers.mlp.score_s": wall("mlp_score"),
        "metrics.report_s": wall("scenario_report"),
        "metrics.report_calls": len(pick("scenario_report")),
        "metrics.aggregate_s": wall("aggregate_folds"),
        "harness.job_s_p50": p50,
        "harness.job_s_p90": p90,
        "harness.parallel_efficiency": efficiency,
        "harness.emit_s": wall("emit_reports"),
        "harness.emit_mb": work("emit_reports") / mb,
        "harness.self_s": self_s,
        "harness.trace_overhead_s": traced_wall - untraced_wall_s,
    }
