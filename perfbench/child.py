"""One workload run in a fresh interpreter.

Usage: python3 perfbench/child.py CONFIG COMMAND OUT_DIR [SPAN_DIR]

Imports zdeval, loads and validates CONFIG, runs COMMAND ("run" or "wd")
and emits its reports into OUT_DIR, the way `zdeval run` and `zdeval wd` do.
With SPAN_DIR, the calls into each layer are traced first (see spans.py).
Prints one JSON line: the CLOCK_MONOTONIC time at which setup finished,
the work's wall time, the CPU time of this process and its reaped pool
workers, the peak RSS of either, and the resolved worker count. Linux only:
the peak RSS of this process is its VmHWM.
"""

from __future__ import annotations

import json
import resource
import sys
import time


def _cpu_s() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def main(argv: list[str]) -> int:
    config_path, command, out_dir = argv[:3]
    span_dir = argv[3] if len(argv) > 3 else None

    from zdeval import harness
    from zdeval.config import apply_overrides, load_config

    cfg = apply_overrides(load_config(config_path), out=out_dir)
    ready = time.clock_gettime(time.CLOCK_MONOTONIC)

    import spans  # the benchmark's own module, imported after setup is timed

    if span_dir is not None:
        spans.install(harness, span_dir)

    work = harness.run_experiment if command == "run" else harness.run_wd_analysis
    cpu0 = _cpu_s()
    t0 = time.perf_counter()
    report = work(cfg)
    harness.emit_reports(report, cfg.output_dir)
    wall = time.perf_counter() - t0
    cpu = _cpu_s() - cpu0

    rss_kb = max(spans.peak_rss_kb(), resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    print(json.dumps({
        "ready": ready,
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": rss_kb / 1024.0,
        "workers": cfg.resolved_workers(),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
