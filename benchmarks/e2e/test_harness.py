"""Checks of the benchmark harness itself (not of the engine).

Outside tier-1's ``testpaths``; run explicitly::

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_harness.py -q
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
RUN = str(HERE / "run.py")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
E2E = {e["name"] for e in SPEC["end_to_end"]}
LAYERS = {e["name"] for e in SPEC["per_layer"]}
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(HERE))
import compare  # noqa: E402
import harness  # noqa: E402


def _run(*args, cwd=ROOT, env=None):
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, env=env, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, timeout=300,
    )


def _result_line(done):
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_smoke_all_validates_schema_and_oracle(tmp_path):
    done = _run(RUN, "--all", "--smoke", "--out", str(tmp_path))
    assert done.returncode == 0, done.stdout + done.stderr
    results = json.loads((tmp_path / "results.json").read_text())
    assert sorted(results["workloads"]) == sorted(WORKLOADS)
    assert results["environment"]["nproc"] >= 1
    for name, entry in results["workloads"].items():
        assert entry["failed"] == 0 and entry["attempted"] > 0, name
        assert set(entry["metrics"]) == E2E, name
        for metric, cell in entry["metrics"].items():
            assert all(v > 0 for v in cell["values"]), (name, metric)
        assert entry["runs"][0]["smoke"] and "params" in entry["runs"][0]
    # nothing of the run is left behind in the scratch area
    assert not list((ROOT / ".bench_e2e" / "tmp").iterdir())


def test_result_line_follows_the_driver_contract():
    done = _run(RUN, "--workload", "sensor_durable", "--smoke", "--seed", "3",
                "--seconds", "1", "--trace", "0")
    assert done.returncode == 0, done.stdout + done.stderr
    result = _result_line(done)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    units = {e["name"]: e["unit"] for e in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units


def test_traced_run_reports_every_layer_and_writes_spans(tmp_path):
    for workload in ("tpch_join", "sensor_durable"):
        done = _run(RUN, "--workload", workload, "--smoke", "--trace", "1", "--out", str(tmp_path))
        assert done.returncode == 0, done.stdout + done.stderr
        result = _result_line(done)
        assert set(result["metrics"]) == LAYERS
        assert all(isinstance(c["value"], float) for c in result["metrics"].values())
        trace = json.loads((tmp_path / f"trace-{workload}.json").read_text())
        assert trace["meta"]["probes_unavailable"] == []
        assert trace["spans"], workload
        for span in trace["spans"]:
            assert set(span) == {"workload", "pass", "op", "name", "parent", "start", "end"}
            assert span["end"] >= span["start"]
        names = {s["name"] for s in trace["spans"]}
        assert {"sql.parse", "sql.plan", "executor.execute"} <= names
    metrics = result["metrics"]  # sensor_durable: the table fits the cache, the WAL is busy
    assert metrics["storage.buffer_hit_rate"]["value"] > 0.9
    assert metrics["wal.bytes_per_commit"]["value"] > 0


def test_environment_is_scrubbed_and_pinned_to_this_checkout():
    env = dict(os.environ, REPRO_WORKERS="4", REPRO_COLUMNAR="0", REPRO_WORK_MEM="1",
               REPRO_PARALLEL_BACKEND="process", REPRO_FAULT_SEED="7")
    code = (
        "import os, sys; sys.path.insert(0, %r); import harness; "
        "harness.prepare_environment(); import repro; from repro.core.model import DEFAULT_CONFIG as c; "
        "print([k for k in os.environ if k.startswith('REPRO_')], c.workers, c.columnar, c.work_mem, "
        "repro.__file__)" % str(HERE)
    )
    done = _run("-c", code, env=env)
    assert done.returncode == 0, done.stderr
    leaked, workers, columnar, work_mem, where = done.stdout.split()
    assert (leaked, workers, columnar, work_mem) == ("[]", "1", "True", "None")
    assert Path(where).is_relative_to(ROOT / "src")


def test_refuses_to_run_without_the_engine_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(str(tmp_path / "benchmarks" / "e2e" / "run.py"), "--workload", "tpch_load",
                "--seed", "0", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert "{" not in done.stdout


def test_paced_divides_each_timing_by_the_pace_around_it(monkeypatch):
    paces = iter([1.0, 2.0, 2.0, 4.0])
    monkeypatch.setattr(harness, "pace", lambda: next(paces))
    paced = harness.Paced()
    paced.mark()
    paced.add("a", 3.0)  # between pace 1 and 2
    paced.mark()
    paced.add("a", 4.0)  # between 2 and 2
    paced.add("b", 2.0)
    paced.mark()
    paced.add("b", 6.0)  # between 2 and the closing 4
    assert paced.close() == {"a": [2.0, 2.0], "b": [1.0, 2.0]}


def test_paced_replaces_the_measured_flush_by_the_reference_flush(monkeypatch):
    class Probe:
        def seconds(self):
            return 0.001

    monkeypatch.setattr(harness, "pace", lambda: 2.0)
    paced = harness.Paced()
    paced.sync = Probe()
    paced.add("commit", 0.005, syncs=1)
    paced.add("select", 0.004)
    out = paced.close()
    assert abs(out["commit"][0] - (0.004 / 2.0 + harness.REFERENCE_SYNC_S)) < 1e-12
    assert out["select"] == [0.002]


def test_estimators_take_the_median_per_operation():
    repeats = [[1.0, 10.0], [2.0, 20.0], [3.0, 60.0]]
    assert harness.sum_of_medians(repeats) == 22.0
    assert harness.median_of_medians(repeats) == 11.0


def _results(values_by_metric, failed=0):
    return {"workloads": {"w": {
        "attempted": 100, "failed": failed,
        "metrics": {m: {"unit": "x", "values": v} for m, v in values_by_metric.items()},
    }}}


#: a spec of the test's own, so the assertions do not move with BENCHMARK.json's bounds
TOY_SPEC = {
    "end_to_end": [
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.1},
        {"name": "tuples_per_s", "unit": "1/s", "better": "higher", "bound": 0.1},
    ],
    "per_layer": [],
}


def _verdicts(base, new):
    return {r["metric"]: r["verdict"] for r in compare.compare(base, new, TOY_SPEC)}


def test_compare_applies_direction_bound_and_spread():
    steady = [1.0, 1.01, 0.99, 1.0, 1.02, 0.98, 1.0, 1.01, 0.99, 1.0]
    base = _results({"wall_s": steady, "tuples_per_s": steady, "setup_s": steady})
    slower = [v * 1.2 for v in steady]
    verdicts = _verdicts(base, _results(
        {"wall_s": slower, "tuples_per_s": slower, "setup_s": slower}))
    assert verdicts["wall_s"] == "regression"  # lower is better, 20 % > 10 %
    assert verdicts["tuples_per_s"] == "ok"  # higher is better: a gain
    assert verdicts["setup_s"] == "ok"  # 20 % is inside setup_s's 25 %
    lower = [v * 0.8 for v in steady]
    assert _verdicts(base, _results({"tuples_per_s": lower}))["tuples_per_s"] == "regression"
    noisy = [0.7, 1.3, 0.8, 1.2, 1.0, 0.75, 1.25, 0.9, 1.1, 1.0]
    assert _verdicts(_results({"wall_s": noisy}), _results({"wall_s": slower}))["wall_s"] == (
        "unresolved"
    )
    assert _verdicts(base, _results({"wall_s": steady}, failed=1))["failed_frac"] == "regression"


def test_compare_exit_codes(tmp_path):
    steady = [1.0, 1.01, 0.99, 1.0]
    (tmp_path / "base.json").write_text(json.dumps(_results({"wall_s": steady})))
    (tmp_path / "same.json").write_text(json.dumps(_results({"wall_s": steady})))
    (tmp_path / "slow.json").write_text(json.dumps(_results({"wall_s": [v * 1.5 for v in steady]})))
    assert compare.main([str(tmp_path / "base.json"), str(tmp_path / "same.json")]) == 0
    assert compare.main([str(tmp_path / "base.json"), str(tmp_path / "slow.json")]) == 1
