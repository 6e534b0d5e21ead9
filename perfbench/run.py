"""zdeval benchmark: one workload, timed end to end, outputs checked.

Usage, from the root of a zdeval checkout:

    python3 perfbench/run.py --workload zeroday-run --seed 1 --seconds 30 --trace 0

Generates the workload's CSV and config from the seed (cached under
.perfbench_cache/, generation is never timed), then runs the workload
repeatedly, each time in a fresh interpreter (child.py), until --seconds
have passed and at least MIN_RUNS runs are done. Runs are closed loop: one
at a time. The program's worker count is left at its default, and no
BLAS or OpenMP thread variable is set.

--trace 0 reports the end-to-end metrics as medians over the runs:
  setup_s      launch of the interpreter until zdeval is imported and the
               config is loaded and validated
  wall_s       run_experiment/run_wd_analysis plus emit_reports
  cpu_s        user+sys CPU of the run process and its reaped pool workers
  peak_rss_mb  the larger peak RSS of the run process and its workers
--trace 1 makes the first run a traced one (spans.py) and reports the
per-layer metrics of that run; the untraced runs after it give the
baseline for the tracing overhead.

Every run's deterministic tables must be byte-identical, and must show the
far-shifted class with the largest mean distance and, for `run`, the lowest
zero-day detection rate under each model and a negative rank correlation.
An operation is one (model, scenario, fold) job of `run` or one (class,
fold) distance of `wd`; a run that fails or fails the check counts all its
operations as failed. The last stdout line is the result JSON; the line
before it holds host facts, sample counts, failed_ratio and result_sha256.
Exits 0 when every run passed the check, 1 when one did not, 2 when the
program is missing.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import spans  # noqa: E402

MIN_RUNS = 3
TIME_LIMIT_S = 170.0  # the whole benchmark, generation included
CACHE_KEEP = 8  # cached input sets kept per workload
DETERMINISTIC = ("metrics_*.csv", "dr_vs_zdr_*.tsv", "wd_means.tsv", "wd_features_*.csv")
END_TO_END = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {"_s": "s", "_calls": "count", "_mb": "MB", "_mb_per_s": "MB/s", "_per_s": "1/s"}


def host_facts(workers: int | None) -> dict:
    blas = {}
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": info.get("name"), "version": info.get("version")}
    except Exception:  # noqa: BLE001 - older numpy has no dict mode; the fact is optional
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_env": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
        "workers": workers,
    }


def ensure_inputs(cache: Path, workload: inputs.Workload, seed: int) -> Path:
    """Config path of the workload's inputs for this seed, generated on first use.

    The cache key includes a hash of the generator's source, so inputs made by
    an older generator are never reused.
    """
    generator = hashlib.sha256(Path(inputs.__file__).read_bytes()).hexdigest()[:12]
    directory = cache / f"{workload.name}-s{seed}-{generator}"
    config = directory / "config.json"
    if not config.is_file():
        tmp = cache / f".tmp-{os.getpid()}"
        shutil.rmtree(tmp, ignore_errors=True)
        inputs.write_inputs(workload, seed, tmp)
        shutil.rmtree(directory, ignore_errors=True)
        os.replace(tmp, directory)
    os.utime(directory)
    old = sorted(cache.glob(f"{workload.name}-s*"), key=lambda p: p.stat().st_mtime)[:-CACHE_KEEP]
    for stale in old:
        shutil.rmtree(stale, ignore_errors=True)
    return config


def launch(root: Path, args: list[str], timeout: float) -> tuple[float, dict | None]:
    """Run child.py once; returns (launch time, its JSON or None on failure)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    launched = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), *args],
        cwd=root, env=env, stdout=subprocess.PIPE, start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print(f"run timed out after {timeout:.0f}s", file=sys.stderr)
        return launched, None
    finally:
        # pool workers left behind by a crashed run share the session
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if proc.returncode != 0:
        print(f"run exited with code {proc.returncode}", file=sys.stderr)
        return launched, None
    return launched, json.loads(out.decode().strip().splitlines()[-1])


def read_table(path: Path, delimiter: str) -> dict[str, list[str]]:
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh, delimiter=delimiter))
    return {row[0]: row[1:] for row in rows[1:]}


def check_outputs(out: Path, workload: inputs.Workload) -> str:
    """sha256 of the deterministic tables; raises ValueError if the results are wrong."""
    files = sorted({p for pattern in DETERMINISTIC for p in out.glob(pattern)})
    if not files:
        raise ValueError("no deterministic tables written")
    digest = hashlib.sha256()
    for path in files:
        digest.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")

    shifted = inputs.SHIFTED
    wd = {name: float(v[0]) for name, v in read_table(out / "wd_means.tsv", "\t").items()}
    if set(wd) != set(workload.attacks):
        raise ValueError(f"wd_means.tsv lists {sorted(wd)}, expected {sorted(workload.attacks)}")
    if any(wd[shifted] <= v for name, v in wd.items() if name != shifted):
        raise ValueError(f"{shifted} does not have the largest mean WD: {wd}")
    if workload.command == "run":
        correlation = json.loads((out / "run.json").read_text(encoding="utf-8"))["correlation"]
        for model in workload.models:
            zdr = {name: float(v[0]) for name, v in read_table(out / f"metrics_{model}.csv", ",").items()}
            if any(v < zdr[shifted] for v in zdr.values()):
                raise ValueError(f"{shifted} does not have the lowest Z-DR under {model}: {zdr}")
            if correlation.get(model) is None or not correlation[model] < 0:
                raise ValueError(f"rank correlation under {model} is {correlation.get(model)}, expected < 0")
    return digest.hexdigest()


def failed_ops(ok: list[bool], operations: int) -> tuple[int, int]:
    """(attempted, failed) operations over runs; a failed run fails all of its operations."""
    return len(ok) * operations, sum(operations for passed in ok if not passed)


def summary(values: list[float]) -> dict:
    return {"median": statistics.median(values), "n": len(values), "values": values}


def unit_of(metric: str) -> str:
    if metric == "harness.parallel_efficiency":
        return "ratio"
    for suffix in sorted(PER_LAYER_UNITS, key=len, reverse=True):
        if metric.endswith(suffix):
            return PER_LAYER_UNITS[suffix]
    return "s"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(inputs.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    begun = time.monotonic()
    root = Path.cwd()
    if not (root / "src" / "zdeval" / "__init__.py").is_file():
        print(f"no zdeval sources under {root / 'src'}; run from the root of a checkout", file=sys.stderr)
        return 2
    workload = inputs.WORKLOADS[args.workload]
    cache = root / ".perfbench_cache"
    cache.mkdir(exist_ok=True)
    config = ensure_inputs(cache, workload, args.seed)
    scratch = cache / f"run-{os.getpid()}"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir()

    samples: dict[str, list[float]] = {name: [] for name in END_TO_END}
    ok: list[bool] = []
    digests: set[str] = set()
    workers = None
    traced: list[dict] | None = None
    span_dir = scratch / "spans"
    start = time.monotonic()
    try:
        while len(ok) < MIN_RUNS or time.monotonic() - start < args.seconds:
            tracing = args.trace == 1 and not ok  # the first run is the traced one
            out = scratch / f"out-{len(ok)}"
            child_args = [str(config), workload.command, str(out)]
            if tracing:
                span_dir.mkdir()
                child_args.append(str(span_dir))
            launched, result = launch(root, child_args, max(1.0, TIME_LIMIT_S - (time.monotonic() - begun)))
            passed = result is not None
            if passed:
                workers = result["workers"]
                try:
                    digests.add(check_outputs(out, workload))
                except (OSError, ValueError, KeyError, IndexError) as exc:
                    print(f"output check failed: {exc}", file=sys.stderr)
                    passed = False
            if passed and tracing:
                traced = spans.read_spans(span_dir)
                missing = spans.missing_spans(traced, workload.command, workload.models)
                if missing:
                    print(f"traced run recorded no call to {', '.join(missing)}", file=sys.stderr)
                    passed = False
            elif passed:
                samples["setup_s"].append(result["ready"] - launched)
                for name in ("wall_s", "cpu_s", "peak_rss_mb"):
                    samples[name].append(result[name])
            ok.append(passed)
            shutil.rmtree(out, ignore_errors=True)
            if tracing and not passed:
                break  # without layer numbers the untraced runs have nothing to add
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    if len(digests) > 1:
        print(f"deterministic tables differ between runs: {sorted(digests)}", file=sys.stderr)
        ok = [False] * len(ok)
    attempted, failed = failed_ops(ok, workload.operations)
    correct = failed == 0 and bool(samples["wall_s"])

    metrics = {}
    if correct and args.trace == 1:
        values = spans.reduce_spans(traced, workers, statistics.median(samples["wall_s"]))
        metrics = {name: {"value": v, "unit": unit_of(name)} for name, v in values.items()}
    elif correct:
        metrics = {name: {"value": statistics.median(samples[name]), "unit": unit}
                   for name, unit in END_TO_END.items()}

    print(json.dumps({
        "workload": workload.name,
        "seed": args.seed,
        "host": host_facts(workers),
        "samples": {name: summary(v) for name, v in samples.items() if v},
        "failed_ratio": failed / attempted,
        "result_sha256": sorted(digests),
    }))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    # on SIGTERM, unwind so that the running child and its workers are killed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    sys.exit(main())
