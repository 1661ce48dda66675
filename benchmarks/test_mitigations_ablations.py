"""Section VIII-E benches: mitigation effectiveness and design ablations."""

from repro.experiments import ablations, mitigations
from repro.experiments.common import run


def test_mitigations_close_the_channel(once):
    result = once(run, mitigations.build_spec(seed=0, bits=60))
    outcomes = result["outcomes"]
    assert outcomes["undefended"] >= 0.95
    # Every defense must cut the channel's accuracy drastically.
    assert outcomes["noise injector"] <= 0.6
    assert outcomes["llc direct E response"] <= 0.6
    assert outcomes["timing obfuscation"] <= 0.6
    assert outcomes["ksm timeout triggered"]
    assert outcomes["ksm timeout"] < 1.0


def test_ablation_protocol_variants(once):
    """F/O states don't change the channel (paper Sec II-B / VIII-E)."""
    outcomes = once(ablations.run_protocols, seed=0, bits=40)
    for protocol in ("mesi", "mesif", "moesi"):
        assert outcomes[protocol] >= 0.95, protocol


def test_ablation_inclusion(once):
    """Non-inclusive LLCs keep distinct latency profiles (Sec VIII-E)."""
    outcomes = once(ablations.run_inclusion, seed=0, bits=40)
    assert outcomes["inclusive"] >= 0.95
    assert outcomes["non-inclusive"] >= 0.7


def test_ablation_band_gap_vs_robustness(once):
    """Record gap-vs-robustness at 1 Mbps; assert a usability floor.

    The paper attributes Fig 8's high-rate exceptions to wide Tc/Tb band
    gaps.  In this reproduction the dominant high-rate error source is
    the trojan's state re-establishment time (see EXPERIMENTS.md), so no
    gap-ordering is asserted — only that every scenario stays usable and
    that calibration produced strictly positive gaps.
    """
    result = once(ablations.run_band_gap, seed=0, bits=80, rate=1000.0)
    for row in result["rows"]:
        assert row["gap_cycles"] > 0, row["scenario"]
        assert row["accuracy"] >= 0.75, row["scenario"]


def test_ablation_flush_methods(once):
    """Section VI-B: eviction-based flushing works, at ~10x lower rate."""
    outcomes = once(ablations.run_flush_methods, seed=0, bits=32)
    assert outcomes["clflush"]["accuracy"] >= 0.95
    assert outcomes["evict"]["accuracy"] >= 0.9
    assert (outcomes["evict"]["rate_kbps"]
            < outcomes["clflush"]["rate_kbps"] / 3)


def test_ablation_home_agent(once):
    """Section VIII-E: home-directory hops split the miss-service bands."""
    outcome = once(ablations.run_home_agent, seed=0)
    assert outcome["split_cycles"] > 20
