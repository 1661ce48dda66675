"""Tests for the performance harness (``repro.bench``)."""

import pytest

from repro.bench import (
    check_regression,
    default_report_name,
    load_report,
    run_all,
    write_report,
)
from repro.bench.harness import OVERHEAD_VARIANTS, SCHEMA


@pytest.fixture(scope="module")
def quick_report():
    return run_all(repeats=1, quick=True)


def test_run_all_shape(quick_report):
    assert quick_report["schema"] == SCHEMA
    assert quick_report["quick"] is True
    assert quick_report["cpus"] >= 1
    bench = quick_report["benchmarks"]
    assert set(bench) == {"grid_sweep", "overhead"}
    grid = bench["grid_sweep"]
    assert set(grid["modes"]) == {
        "reference", "serial", "jobs", "chunked",
    }
    for mode, info in grid["modes"].items():
        assert info["points_per_sec"] > 0
        assert info["points_per_sec"] == pytest.approx(
            grid["points"] / info["wall_s"]
        )
        if mode != "reference":
            assert info["speedup"] > 0
    assert grid["best_speedup"] == pytest.approx(
        max(info["speedup"] for mode, info in grid["modes"].items()
            if mode != "reference")
    )
    costs = bench["overhead"]
    for name in OVERHEAD_VARIANTS:
        assert costs[f"{name}_wall_s"] > 0
    assert costs["traced_events"] > 0
    assert costs["streamed_events"] > 0
    assert costs["flagged"] is True
    assert costs["disabled_overhead"] == pytest.approx(
        costs["disabled_wall_s"] / costs["baseline_wall_s"] - 1.0
    )
    assert costs["sink_overhead"] == pytest.approx(
        costs["streaming_wall_s"] / costs["traced_wall_s"] - 1.0
    )
    assert "generator_wall_s" not in costs
    assert costs["armed_overhead"] == pytest.approx(
        costs["armed_wall_s"] / costs["baseline_wall_s"] - 1.0
    )


def test_report_roundtrip(quick_report, tmp_path):
    path = write_report(quick_report, tmp_path / default_report_name())
    assert path.name.startswith("BENCH_") and path.name.endswith(".json")
    assert load_report(path) == quick_report


def _report(best_speedup, **overheads):
    costs = {"disabled_overhead": 0.0, "armed_overhead": 0.0}
    costs.update(overheads)
    return {
        "schema": SCHEMA,
        "benchmarks": {
            "grid_sweep": {"best_speedup": best_speedup},
            "overhead": costs,
        },
    }


def test_check_regression_passes_within_budget():
    assert check_regression(_report(3.6), _report(4.0)) == []
    # Exactly at the floor is allowed.
    assert check_regression(_report(3.2), _report(4.0)) == []


def test_check_regression_fails_below_floor():
    problems = check_regression(_report(2.8), _report(4.0))
    assert len(problems) == 1
    assert "grid_sweep regressed" in problems[0]


def test_check_regression_custom_threshold():
    assert check_regression(_report(3.8), _report(4.0), max_regression=0.02)


def _assert_overhead_gate(key, limit):
    problems = check_regression(_report(4.0, **{key: limit + 0.001}),
                                _report(4.0))
    assert len(problems) == 1
    assert problems[0].startswith("overhead:")
    # Under the cap — or negative (host noise) — passes.
    for value in (limit - 0.001, -0.01):
        assert check_regression(_report(4.0, **{key: value}),
                                _report(4.0)) == []


def test_check_regression_trace_overhead_gate():
    """Tracing left off must be free: ``disabled_overhead`` gates at 2%.
    Turning tracing on is a price, reported but not gated."""
    _assert_overhead_gate("disabled_overhead", 0.02)
    current = _report(4.0, traced_overhead=3.0)
    assert check_regression(current, _report(4.0)) == []


def test_check_regression_streaming_overhead_gate():
    """Streaming detection shares the disabled path with tracing, so a
    full entry gates the disabled-vs-baseline ratio once, not twice;
    the detector's own cost is reported but not gated."""
    costs = {
        "disabled_overhead": 0.05, "traced_overhead": 3.0,
        "streaming_overhead": 4.0, "sink_overhead": 0.3,
    }
    problems = check_regression(_report(4.0, **costs), _report(4.0))
    assert len(problems) == 1
    assert "disabled tracing and streaming detection" in problems[0]
    costs["disabled_overhead"] = 0.005
    assert check_regression(_report(4.0, **costs), _report(4.0)) == []


def test_check_regression_armed_overhead_gate():
    """Armed-but-idle segmentation vs the driven baseline: 5%."""
    _assert_overhead_gate("armed_overhead", 0.05)


def test_check_regression_loads_committed_baseline():
    """CI passes the newest committed report as ``--baseline``; a
    current report matching its speedup must pass the gate."""
    from pathlib import Path

    root = Path(__file__).resolve().parents[1]
    baseline = load_report(sorted(root.glob("BENCH_*.json"))[-1])
    assert baseline["schema"] == SCHEMA and baseline["cpus"] >= 1
    assert set(baseline["benchmarks"]) == {"grid_sweep", "overhead"}
    speedup = baseline["benchmarks"]["grid_sweep"]["best_speedup"]
    assert check_regression(_report(speedup), baseline) == []
    assert check_regression(_report(speedup * 0.7), baseline)


def test_check_regression_malformed_baseline():
    problems = check_regression(_report(4.0), {"benchmarks": {}})
    assert problems and "malformed report" in problems[0]


def test_cli_bench_quick(capsys):
    from repro.cli import main

    assert main(["bench", "--quick", "--repeats", "1", "--no-write"]) == 0
    out = capsys.readouterr().out
    for mode in ("reference", "serial", "jobs", "chunked"):
        assert f"points/s [{mode}]" in out
    assert out.count("grid_sweep") == 4
    assert "overhead  disabled" in out and "armed-idle" in out
    assert "wrote" not in out
