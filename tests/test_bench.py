"""Tests for the performance harness (``repro.bench``)."""

import pytest

from repro.bench import (
    check_regression,
    default_report_name,
    load_report,
    run_all,
    write_report,
)
from repro.bench.harness import SCHEMA


@pytest.fixture(scope="module")
def quick_report():
    return run_all(repeats=1, quick=True)


def test_run_all_shape(quick_report):
    assert quick_report["schema"] == SCHEMA
    assert quick_report["quick"] is True
    assert quick_report["cpus"] >= 1
    bench = quick_report["benchmarks"]
    assert set(bench) == {
        "engine_micro", "fig8_point", "noise_point", "grid_sweep",
        "service_sweep", "trace_overhead",
        "streaming_overhead", "segment_overhead",
    }
    micro = bench["engine_micro"]
    assert micro["events"] > 0
    assert micro["wall_s"] > 0
    assert micro["events_per_sec"] == pytest.approx(
        micro["events"] / micro["wall_s"]
    )
    for name in ("fig8_point", "noise_point"):
        assert bench[name]["wall_s"] > 0
        assert 0.0 <= bench[name]["accuracy"] <= 1.0
    grid = bench["grid_sweep"]
    assert grid["bit_identical"] is True
    assert set(grid["modes"]) == {
        "reference", "serial", "jobs", "chunked",
    }
    for mode, info in grid["modes"].items():
        assert info["points_per_sec"] > 0
        if mode != "reference":
            assert info["speedup"] > 0
    assert grid["best_speedup"] == pytest.approx(
        max(info["speedup"] for mode, info in grid["modes"].items()
            if mode != "reference")
    )
    assert 0 < grid["cache_bytes"] <= grid["cache_bytes_legacy"]
    svc = bench["service_sweep"]
    assert svc["bit_identical"] is True
    # Single-flight makes the dedupe ratio deterministic: every unique
    # key executed exactly once, fleet-wide.
    assert svc["executed"] == svc["unique"]
    assert svc["dedupe_ratio"] == pytest.approx(
        svc["submitted"] / svc["unique"]
    )
    assert svc["local_wall_s"] > 0 and svc["service_wall_s"] > 0
    trace = bench["trace_overhead"]
    assert trace["baseline_wall_s"] > 0
    assert trace["disabled_wall_s"] > 0
    assert trace["enabled_wall_s"] > 0
    assert trace["traced_events"] > 0
    assert trace["disabled_overhead"] == pytest.approx(
        trace["disabled_wall_s"] / trace["baseline_wall_s"] - 1.0
    )
    streaming = bench["streaming_overhead"]
    for key in ("baseline_wall_s", "disabled_wall_s", "traced_wall_s",
                "streaming_wall_s"):
        assert streaming[key] > 0
    assert streaming["streamed_events"] > 0
    assert streaming["flagged"] is True
    assert streaming["disabled_overhead"] == pytest.approx(
        streaming["disabled_wall_s"] / streaming["baseline_wall_s"] - 1.0
    )
    assert streaming["sink_overhead"] == pytest.approx(
        streaming["streaming_wall_s"] / streaming["traced_wall_s"] - 1.0
    )
    segment = bench["segment_overhead"]
    assert segment["baseline_wall_s"] > 0
    assert segment["armed_wall_s"] > 0
    assert segment["overhead"] == pytest.approx(
        segment["armed_wall_s"] / segment["baseline_wall_s"] - 1.0
    )


def test_report_roundtrip(quick_report, tmp_path):
    path = write_report(quick_report, tmp_path / default_report_name())
    assert path.name.startswith("BENCH_") and path.name.endswith(".json")
    assert load_report(path) == quick_report


def _report(events_per_sec):
    return {
        "schema": SCHEMA,
        "benchmarks": {"engine_micro": {"events_per_sec": events_per_sec}},
    }


def test_check_regression_passes_within_budget():
    assert check_regression(_report(90_000.0), _report(100_000.0)) == []
    # Exactly at the floor is allowed.
    assert check_regression(_report(80_000.0), _report(100_000.0)) == []


def test_check_regression_fails_below_floor():
    problems = check_regression(_report(70_000.0), _report(100_000.0))
    assert len(problems) == 1
    assert "engine_micro regressed" in problems[0]


def test_check_regression_custom_threshold():
    assert check_regression(
        _report(95_000.0), _report(100_000.0), max_regression=0.02
    )


def test_check_regression_trace_overhead_gate():
    current = _report(100_000.0)
    current["benchmarks"]["trace_overhead"] = {"disabled_overhead": 0.05}
    problems = check_regression(current, _report(100_000.0))
    assert len(problems) == 1
    assert "trace_overhead" in problems[0]
    current["benchmarks"]["trace_overhead"] = {"disabled_overhead": 0.005}
    assert check_regression(current, _report(100_000.0)) == []
    # Negative overhead (disabled faster than baseline: pure noise) passes.
    current["benchmarks"]["trace_overhead"] = {"disabled_overhead": -0.01}
    assert check_regression(current, _report(100_000.0)) == []


def test_check_regression_streaming_overhead_gate():
    current = _report(100_000.0)
    current["benchmarks"]["streaming_overhead"] = {"disabled_overhead": 0.05}
    problems = check_regression(current, _report(100_000.0))
    assert len(problems) == 1
    assert "streaming_overhead" in problems[0]
    # Under the cap — or negative (host noise) — passes.
    for overhead in (0.005, -0.01):
        current["benchmarks"]["streaming_overhead"] = {
            "disabled_overhead": overhead,
        }
        assert check_regression(current, _report(100_000.0)) == []


def test_check_regression_segment_overhead_gate():
    current = _report(100_000.0)
    current["benchmarks"]["segment_overhead"] = {"overhead": 0.08}
    problems = check_regression(current, _report(100_000.0))
    assert len(problems) == 1
    assert "segment_overhead" in problems[0]
    # Under the cap — or negative (armed faster: host noise) — passes.
    for overhead in (0.02, -0.01):
        current["benchmarks"]["segment_overhead"] = {"overhead": overhead}
        assert check_regression(current, _report(100_000.0)) == []


def test_check_regression_service_sweep_gates():
    from repro.bench import SERVICE_MIN_DEDUPE

    baseline = _report(100_000.0)
    current = _report(100_000.0)
    # Bit-identity failure gates regardless of the dedupe ratio.
    current["benchmarks"]["service_sweep"] = {
        "bit_identical": False, "dedupe_ratio": 2.0,
    }
    problems = check_regression(current, baseline)
    assert len(problems) == 1 and "bit-identical" in problems[0]
    # A dedupe ratio below the floor means shared points re-executed.
    current["benchmarks"]["service_sweep"] = {
        "bit_identical": True,
        "dedupe_ratio": SERVICE_MIN_DEDUPE - 0.1,
    }
    problems = check_regression(current, baseline)
    assert len(problems) == 1 and "dedupe ratio" in problems[0]
    # Healthy report passes.
    current["benchmarks"]["service_sweep"] = {
        "bit_identical": True, "dedupe_ratio": 1.88,
    }
    assert check_regression(current, baseline) == []


def test_check_regression_malformed_baseline():
    problems = check_regression(_report(100_000.0), {"benchmarks": {}})
    assert problems and "malformed report" in problems[0]


def test_cli_bench_quick(capsys):
    from repro.cli import main

    assert main(["bench", "--quick", "--repeats", "1", "--no-write"]) == 0
    out = capsys.readouterr().out
    assert "engine_micro" in out and "events/s" in out
    assert "wrote" not in out
