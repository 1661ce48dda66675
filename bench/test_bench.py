"""Self-tests of the benchmark, at --smoke sizes.

    PYTHONPATH=src python -m pytest bench -q
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys

import pytest

from bench import ROOT, speed, workloads
from bench.compare import judge, judge_failures
from bench.run import describe

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in BENCH["workloads"]]
PER_LAYER = [m["name"] for m in BENCH["per_layer"]]


def run_bench(workload: str, trace: int, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    return result


@pytest.fixture(scope="module")
def traced() -> dict[str, dict]:
    return {name: result_of(run_bench(name, 1))["metrics"] for name in NAMES}


def test_workloads_match_benchmark_json():
    assert NAMES == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", NAMES)
def test_untraced_run_prints_every_end_to_end_metric(name):
    proc = run_bench(name, 0)
    metrics = result_of(proc)["metrics"]
    expected = [(m["name"], m["unit"]) for m in BENCH["end_to_end"]]
    assert [(k, v["unit"]) for k, v in metrics.items()] == expected
    assert all(v["value"] > 0 for v in metrics.values())
    for metric, unit in expected:
        assert f"{name} {metric} = " in proc.stdout and f" {unit}\n" in proc.stdout


@pytest.mark.parametrize("name", NAMES)
def test_traced_run_prints_every_per_layer_metric(traced, name):
    # result_of already required correct=True, which includes the traced
    # half of every pair reproducing the untraced half's digests.
    assert list(traced[name]) == PER_LAYER
    assert all(math.isfinite(v["value"]) for v in traced[name].values())


def value(traced, workload, metric):
    return traced[workload][metric]["value"]


def test_span_hooks_fire_where_the_layers_work(traced):
    assert value(traced, "matrix_cold", "kernel.eviction_set_ms") > 0
    assert value(traced, "matrix_cold", "channel.calibrate_memo_hit_ratio") == 0
    assert value(traced, "matrix_cold", "channel.calibrate_ms") > 0
    assert value(traced, "matrix_cold", "mem.dir.home_service") > 0
    assert value(traced, "matrix_cold", "mem.stores.rfo") > 0
    assert value(traced, "fig8_sweep", "channel.calibrate_memo_hit_ratio") == 1
    assert value(traced, "fig8_sweep", "mem.machine_builds") == 0
    assert value(traced, "fig8_sweep", "mem.machine_reset_ms") > 0
    assert value(traced, "fig8_sweep", "sim.events") > 0
    assert value(traced, "fig8_sweep", "channel.decode_ms") > 0
    assert value(traced, "cache_replay", "runner.cache_hit_ratio") == 1
    assert value(traced, "cache_replay", "sim.run_ms") == 0
    assert value(traced, "cache_replay", "runner.cache_store_ms") > 0
    assert value(traced, "cache_replay", "runner.entry_bytes") > 0
    assert value(traced, "traced_arena", "mem.machine_builds") == 1
    assert value(traced, "traced_arena", "obs.traced_events") > 0
    assert value(traced, "traced_arena", "detection.events") > 0
    assert value(traced, "traced_arena", "detection.score_ms") > 0
    for name in NAMES:
        assert value(traced, name, "mem.mesi.load_ns.l1_hit") > 0
        assert value(traced, name, "runner.dispatch_ms") > 0


def test_raising_point_is_counted_as_failed(tmp_path):
    from repro.runner import Point, ResultCache

    from bench.spans import ManifestTally
    from bench.worker import Checker, run_pass

    good = workloads.build("fig8_sweep", smoke=True).passes[0][0]
    bad = Point(fn=workloads.EXECUTE_POINT,
                params={"scenario": "no-such-scenario", "payload": [1], "seed": 0},
                label="bad")
    clock = speed.ScaledClock()
    result = run_pass("test", [bad, good], ResultCache(tmp_path), ManifestTally(), clock)
    clock.flush()
    assert [ok for ok, _s in clock.laps] == [False, True, None]
    checker = Checker(workloads.load_pins())
    checker.check(result)
    summary = checker.summary()
    assert (summary["attempted"], summary["failed"], summary["correct"]) == (2, 1, True)
    record = {"workload": "w", "seed": 0, "samples": 1, "passes": 1, "metrics": {},
              **summary}
    lines = describe(record)
    assert "failed=1/2" in lines[0]
    assert "no-such-scenario" in lines[1]
    wrong = Checker({good.label: "0" * 16})
    wrong.check(result)
    assert not wrong.summary()["correct"]


def test_scaled_clock_divides_out_the_probe(monkeypatch):
    # A host at half the reference speed takes twice as long over the
    # work and over the probe; the lap reads the same in reference time.
    ticks = iter([0.0, 4.0, 10.0, 10.0])
    monkeypatch.setattr(speed.time, "perf_counter", lambda: next(ticks))
    monkeypatch.setattr(speed, "probe", lambda: 2 * speed.REFERENCE_S)
    clock = speed.ScaledClock(probe_every=100.0)
    clock.lap("work")
    clock.flush()
    assert clock.laps == [("work", 2.0)]
    assert clock.total() == 2.0


def test_compare_rule_on_synthetic_runs():
    base = [100.0 + d for d in (-2, -1, 0, 1, 2, -2, -1, 0, 1, 2)]
    faster = [x * 1.2 for x in base]
    assert judge(base, faster, "higher", 0.1)["verdict"] == "gain"
    assert judge(base, [x * 0.8 for x in base], "lower", 0.1)["verdict"] == "gain"
    assert judge(base, [x * 0.8 for x in base], "higher", 0.1)["verdict"] == "regression"
    assert judge(base, base, "higher", 0.1)["verdict"] == "same"
    # Ten pairs are needed; five cannot claim a gain.
    assert judge(base[:5], faster[:5], "higher", 0.1)["verdict"] == "same"
    # Better by less than the parent's quartile spread: no gain.
    assert judge(base, [x + 1.5 for x in base], "higher", 0.1)["verdict"] == "same"
    # Wins 8 of 10 pairs: no gain.
    mixed = faster[:8] + [x * 0.99 for x in base[8:]]
    assert judge(base, mixed, "higher", 0.1)["verdict"] == "same"
    noisy = [60.0, 140.0, 80.0, 120.0, 100.0, 70.0, 130.0, 90.0, 110.0, 100.0]
    assert judge(noisy, noisy, "higher", 0.1)["verdict"] == "unresolved"
    # ...unless every change run beats every parent run.
    assert judge(noisy, [x + 200 for x in noisy], "higher", 0.1)["verdict"] == "gain"
    # A simulated metric with bound 0: any change for the worse regresses.
    assert judge([0.9] * 10, [0.9] * 10, "higher", 0.0)["verdict"] == "same"
    assert judge([0.9] * 10, [0.89] * 10, "higher", 0.0)["verdict"] == "regression"


def test_compare_counts_failures_against_the_change():
    parent = [{"failed": 0}] * 10
    change = [{"failed": 0}] * 9 + [{"failed": 1}]
    assert judge_failures(parent, parent)["verdict"] == "same"
    assert judge_failures(parent, change)["verdict"] == "regression"
    base = [100.0 + d for d in (-2, -1, 0, 1, 2, -2, -1, 0, 1, 2)]
    faster = [x * 1.2 for x in base]
    assert judge(base, faster, "higher", 0.1, more_failures=True)["verdict"] == "same"


def test_pins_cover_every_point():
    pins = workloads.load_pins()
    for name in NAMES:
        for smoke in (False, True):
            for point in workloads.all_points(workloads.build(name, smoke)):
                assert point.label in pins, point.label


def test_exits_nonzero_without_the_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", NAMES[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout
