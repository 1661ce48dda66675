"""Benches for the extension experiments: detection ROC and capacity."""

from repro.experiments import capacity_analysis, detection_roc
from repro.experiments.common import run


def test_detection_roc(once):
    """Every Table I attack is flagged; benign workloads are not."""
    result = once(run, detection_roc.build_spec(seed=0, bits=32))
    assert result["true_positives"] == result["attacks"] == 6
    assert result["false_positives"] == 0


def test_capacity_analysis(once):
    """Capacity mirrors the paper's bandwidth story in bits/symbol."""
    result = once(run, capacity_analysis.build_spec(seed=0, bits=160))
    points = {p["label"]: p for p in result["points"]}
    # binary at a comfortable rate carries ~1 bit/symbol
    assert points["binary@400K noise=0"]["capacity_bits"] >= 0.95
    # the 2-bit symbol channel nearly doubles it at its peak rate
    multibit = points["2-bit symbols@1100K"]
    assert multibit["capacity_bits"] >= 1.8
    assert multibit["capacity_kbps"] >= 1000
    # noise costs capacity but does not kill the channel
    noisy = points["binary@400K noise=4"]
    assert 0.4 <= noisy["capacity_bits"] <= 1.0
