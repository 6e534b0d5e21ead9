"""Tests of the benchmark itself: python3 -m pytest perfbench"""

from __future__ import annotations

import json
import sys
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import inputs  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402


@pytest.mark.parametrize("name", sorted(inputs.WORKLOADS))
def test_generator_is_a_function_of_the_seed(name):
    workload = inputs.WORKLOADS[name]
    first, schema = inputs.generate_csv(workload, 7)
    again, _ = inputs.generate_csv(workload, 7)
    other, _ = inputs.generate_csv(workload, 8)
    assert first == again
    assert first != other
    header = first.split("\n", 1)[0].split(",")
    assert header == [c["name"] for c in schema]
    assert len(header) == workload.n_columns
    assert first.count("\n") == workload.rows + 1


def test_class_sizes_are_benign_majority_with_the_shifted_class_largest():
    sizes = inputs.class_sizes(1000, inputs.WORKLOADS["zeroday-run"].attacks)
    assert sum(sizes.values()) == 1000
    assert sizes[inputs.BENIGN] > 1000 // 2
    attacks = {k: v for k, v in sizes.items() if k != inputs.BENIGN}
    assert max(attacks, key=attacks.get) == inputs.SHIFTED


def test_failed_ops_counts_every_operation_of_a_failed_run():
    assert run.failed_ops([True, True], 100) == (200, 0)
    assert run.failed_ops([True, False, True], 45) == (135, 45)
    assert run.failed_ops([False], 15) == (15, 15)


FAKE_CONFIG = '''
class _Config:
    output_dir = None
    def resolved_workers(self):
        return 1

def load_config(path):
    return _Config()

def apply_overrides(cfg, out=None):
    cfg.output_dir = out
    return cfg
'''

FAKE_HARNESS = '''
def run_wd_analysis(cfg):
    raise RuntimeError("broken on purpose")

def emit_reports(report, out_dir):
    return []
'''


def _checkout(tmp_path: Path, harness: str) -> Path:
    package = tmp_path / "src" / "zdeval"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "config.py").write_text(FAKE_CONFIG)
    (package / "harness.py").write_text(harness)
    return tmp_path


def test_a_raising_run_fails_all_its_operations(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(_checkout(tmp_path, FAKE_HARNESS))
    code = run.main(["--workload", "wd-trainonly", "--seed", "1", "--seconds", "0", "--trace", "0"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    operations = inputs.WORKLOADS["wd-trainonly"].operations
    assert code == 1
    assert result["correct"] is False
    assert result["attempted"] == run.MIN_RUNS * operations
    assert result["failed"] == result["attempted"]


def test_without_the_program_it_exits_nonzero_and_prints_no_result(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code = run.main(["--workload", "wd-ingest", "--seed", "1", "--seconds", "1", "--trace", "0"])
    assert code != 0
    assert capsys.readouterr().out == ""


def _span(fn, t0, t1, pid=1, cpu=None, work=0, rss=(0, 0)):
    cpu = t1 - t0 if cpu is None else cpu
    return {"fn": fn, "pid": pid, "t0": t0, "t1": t1, "c0": 0.0, "c1": cpu,
            "rss0_kb": rss[0], "rss1_kb": rss[1], "work": work}


def _traced_run():
    # parent (pid 1): load, pipeline, plan, wd, then two workers run two jobs each
    return [
        _span("run_experiment", 0.0, 10.0),
        _span("load_csv", 0.0, 1.0, work=2_000_000, rss=(1024, 3072)),
        _span("preprocess_pipeline", 1.0, 1.5, work=500_000),
        _span("make_fold_plan", 1.5, 1.6, work=1_000),
        _span("per_feature_wd", 1.6, 1.8, work=10),
        _span("per_feature_wd", 1.8, 2.0, work=10),
        _span("train_forest", 3.0, 5.0, pid=2, cpu=3.0, work=1_000),
        _span("forest_score", 5.0, 5.5, pid=2, work=100),
        _span("scenario_report", 5.5, 6.0, pid=2),
        _span("mlp_train", 6.0, 8.0, pid=2, work=400),
        _span("mlp_score", 8.0, 8.5, pid=2),
        _span("scenario_report", 8.5, 9.0, pid=2),
        _span("train_forest", 3.0, 6.0, pid=3, work=1_000),
        _span("forest_score", 6.0, 7.0, pid=3, work=100),
        _span("scenario_report", 7.0, 7.5, pid=3),
        _span("aggregate_folds", 9.2, 9.4),
        _span("emit_reports", 10.0, 11.0, work=3_000_000),
    ]


def test_reduce_spans_sums_layers_and_rates_read_from_span_files(tmp_path):
    for span in _traced_run():
        with open(tmp_path / f"spans-{span['pid']}.jsonl", "a") as fh:
            fh.write(json.dumps(span) + "\n")
    recorded = spans.read_spans(tmp_path)
    assert len(recorded) == len(_traced_run())
    m = spans.reduce_spans(recorded, workers=2, untraced_wall_s=10.0)
    assert m["flowdata.load_s"] == pytest.approx(1.0)
    assert m["flowdata.load_mb_per_s"] == pytest.approx(2.0)
    assert m["flowdata.load_rss_mb"] == pytest.approx(2.0)
    assert m["preprocess.pipeline_calls"] == 1
    assert m["preprocess.matrix_mb"] == pytest.approx(0.5)
    assert m["wdanalysis.wd_calls"] == 2
    assert m["wdanalysis.columns_per_s"] == pytest.approx(20 / 0.4)
    assert m["classifiers.forest.train_s"] == pytest.approx(5.0)
    assert m["classifiers.forest.train_cpu_s"] == pytest.approx(6.0)
    assert m["classifiers.forest.train_calls"] == 2
    assert m["classifiers.forest.train_rows_per_s"] == pytest.approx(2_000 / 5.0)
    assert m["classifiers.mlp.train_rows_per_s"] == pytest.approx(400 / 2.0)
    assert m["metrics.report_calls"] == 3
    assert m["harness.emit_mb"] == pytest.approx(3.0)
    assert m["classifiers.forest.to_json_s"] == 0.0  # not traced in this run


def test_reduce_spans_jobs_efficiency_self_time_and_overhead():
    m = spans.reduce_spans(_traced_run(), workers=2, untraced_wall_s=10.0)
    # jobs: pid 2 has [3, 6] and [6, 9]; pid 3 has [3, 7.5]
    assert m["harness.job_s_p50"] == pytest.approx(3.0)
    # job phase 3..9 on 2 workers, 10.5 s of jobs
    assert m["harness.parallel_efficiency"] == pytest.approx(10.5 / 12.0)
    # run 0..10 covered by 0..2 (parent spans), 3..9 (jobs), 9.2..9.4 (aggregate)
    assert m["harness.self_s"] == pytest.approx(10.0 - 2.0 - 6.0 - 0.2)
    assert m["harness.trace_overhead_s"] == pytest.approx(11.0 - 10.0)


def test_missing_spans_names_required_calls_that_never_happened():
    recorded = [s for s in _traced_run() if s["fn"] != "mlp_score"]
    assert spans.missing_spans(recorded, "run", ("forest", "mlp")) == ["mlp_score"]
    assert spans.missing_spans(recorded, "run", ("forest",)) == []
    assert spans.missing_spans(_traced_run(), "wd") == ["run_wd_analysis"]


def test_install_refuses_a_harness_without_a_required_name(tmp_path):
    class Harness:
        pass

    with pytest.raises(RuntimeError, match="load_csv"):
        spans.install(Harness, str(tmp_path))


def test_installed_wrappers_record_one_span_per_call(tmp_path):
    names = {name for required in spans.REQUIRED.values() for name in required}
    harness = types.SimpleNamespace(**{name: (lambda *args: "result") for name in names})
    spans.install(harness, str(tmp_path))
    assert harness.scenario_report(1, 2) == "result"
    assert harness.scenario_report(3, 4) == "result"
    recorded = spans.read_spans(tmp_path)
    assert [s["fn"] for s in recorded] == ["scenario_report", "scenario_report"]
    assert all(s["t1"] >= s["t0"] and s["rss1_kb"] >= s["rss0_kb"] > 0 for s in recorded)


def test_check_outputs_wants_the_shifted_class_furthest(tmp_path):
    workload = inputs.WORKLOADS["wd-ingest"]
    means = {"Exploits": 0.02, "Reconnaissance": 0.01, inputs.SHIFTED: 0.05}

    def write(values):
        rows = "".join(f"{name}\t{value:.4f}\n" for name, value in values.items())
        (tmp_path / "wd_means.tsv").write_text("class\tmean_wd\n" + rows)

    write(means)
    assert len(run.check_outputs(tmp_path, workload)) == 64
    write(dict(means, Exploits=0.06))
    with pytest.raises(ValueError, match="largest mean WD"):
        run.check_outputs(tmp_path, workload)
