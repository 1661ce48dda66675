"""Smoke + shape tests for every experiment driver (small parameters)."""

import hashlib
import json

import numpy as np

from repro.channel.config import TABLE_I, scenario_by_name
from repro.experiments import (
    ablations,
    capacity_analysis,
    detection_roc,
    fig2_latency_cdf,
    fig7_reception,
    fig8_bandwidth,
    fig9_noise,
    fig10_ecc,
    fig11_multibit,
    mitigations,
    sync_handshake,
    table1_scenarios,
)
from repro.experiments.common import payload_bits, run


def test_payload_bits_fixed_pattern():
    assert payload_bits(100) == payload_bits(100)
    assert len(payload_bits(64)) == 64
    assert set(payload_bits(64)) <= {0, 1}


def test_fig2_medians_and_separation():
    result = run(fig2_latency_cdf.build_spec(samples=200, seed=1))
    medians = result["medians"]
    assert medians["LShared"] < medians["LExcl"] < medians["RShared"] \
        < medians["RExcl"] < medians["dram"]
    assert abs(medians["LShared"] - 98) < 5
    assert abs(medians["LExcl"] - 124) < 5
    assert all(sep > 1.0 for sep in result["separations"].values())


def test_table1_placement_matches_paper():
    result = run(table1_scenarios.build_spec(seed=1, bits=12))
    for row in result["rows"]:
        paper = table1_scenarios.PAPER_TABLE_I[row["scenario"]]
        assert (row["total_threads"], row["local_threads"],
                row["remote_threads"]) == paper
        assert row["accuracy"] >= 0.9


def test_fig7_all_scenarios_decode_perfectly():
    result = run(fig7_reception.build_spec(seed=1, bits=30))
    for name, outcome in result["results"].items():
        assert outcome.accuracy == 1.0, name


def test_fig8_low_rates_accurate_high_rates_degrade():
    result = run(fig8_bandwidth.build_spec(
        seed=1, bits=60, rates=(200, 1000),
        scenarios=[scenario_by_name("RExclc-LSharedb")],
    ))
    points = dict(result["curves"]["RExclc-LSharedb"])
    assert points[200.0] >= 0.97
    assert points[1000.0] <= points[200.0]


def test_fig9_noise_degrades_accuracy():
    result = run(fig9_noise.build_spec(
        seed=1, bits=60, noise_levels=(0, 8),
        scenarios=[TABLE_I[0]], trials=1,
    ))
    points = dict(result["curves"][TABLE_I[0].name])
    assert points[0] >= 0.97
    assert points[8] <= points[0]


def test_fig10_reliable_delivery():
    result = run(fig10_ecc.build_spec(
        seed=1, payload_bytes=16, packet_bytes=8,
        scenarios=[TABLE_I[0]], noise={"no-noise": 0, "medium": 2},
    ))
    table = result["table"][TABLE_I[0].name]
    assert table["no-noise"]["intact"]
    assert table["medium"]["intact"]
    assert (table["medium"]["effective_kbps"]
            <= table["no-noise"]["effective_kbps"] + 1e-9)


def test_fig11_multibit_beats_binary_peak():
    result = run(fig11_multibit.build_spec(seed=1, bits=40, rates=(1100,)))
    point = result["points"][0]
    assert point["accuracy"] >= 0.95
    assert point["achieved_kbps"] > 900
    # first nine symbols include all four values (Figure 11's view)
    assert set(result["trace"].sent_symbols[:9]) == {0, 1, 2, 3}


def test_sync_handshake_near_90ms():
    result = run(sync_handshake.build_spec(seed=1))
    assert result["synced"]
    assert 45 <= result["duration_ms"] <= 180  # paper: ~90 ms


def test_mitigations_reduce_channel_quality():
    result = run(mitigations.build_spec(seed=1, bits=30))
    outcomes = result["outcomes"]
    assert outcomes["undefended"] >= 0.95
    assert outcomes["noise injector"] <= 0.6
    assert outcomes["llc direct E response"] <= 0.6
    assert outcomes["timing obfuscation"] <= 0.6
    assert outcomes["ksm timeout triggered"]


def test_ablation_protocol_variants_all_work():
    outcomes = ablations.run_protocols(seed=1, bits=24)
    assert set(outcomes) == {"mesi", "mesif", "moesi"}
    for protocol, accuracy in outcomes.items():
        assert accuracy >= 0.9, protocol


def test_ablation_inclusion_property():
    outcomes = ablations.run_inclusion(seed=1, bits=24)
    assert outcomes["inclusive"] >= 0.9
    # non-inclusive keeps distinct latency profiles (paper Sec VIII-E)
    assert outcomes["non-inclusive"] >= 0.7


def test_ablation_band_gap_correlation():
    result = ablations.run_band_gap(seed=1, bits=60, rate=1000.0)
    rows = sorted(result["rows"], key=lambda r: r["gap_cycles"])
    # widest-gap scenario should not be the worst performer
    accuracies = [r["accuracy"] for r in rows]
    assert accuracies[-1] >= np.median(accuracies) - 0.1


def test_detection_flags_attacks_not_benign():
    result = run(detection_roc.build_spec(seed=1, bits=24))
    assert result["true_positives"] == result["attacks"] == 6
    assert result["false_positives"] == 0
    # Every row's verdict and the ROC, exactly: pinned before the
    # detect driver moved onto the trace tap, so the move is a no-op.
    canonical = {
        "rows": [
            {key: row[key]
             for key in ("workload", "detected", "score", "reasons")}
            for row in result["rows"]
        ],
        "roc_points": result["roc_points"],
        "auc": result["auc"],
    }
    digest = hashlib.sha256(json.dumps(
        canonical, sort_keys=True, separators=(",", ":")
    ).encode()).hexdigest()
    assert digest == (
        "72f953febb5c84870f43166f5d7966f9"
        "9688cfccdd885ffb98cead685e5c6c95"
    )


def test_capacity_analysis_shape():
    result = run(capacity_analysis.build_spec(seed=1, bits=80))
    points = {p["label"]: p for p in result["points"]}
    clean = points["binary@400K noise=0"]
    assert clean["capacity_bits"] >= 0.95        # near-perfect binary
    multibit = points["2-bit symbols@1100K"]
    assert multibit["capacity_bits"] >= 1.8      # near 2 bits/symbol
    assert multibit["capacity_kbps"] > clean["capacity_kbps"]


def test_ablation_flush_methods():
    outcomes = ablations.run_flush_methods(seed=1, bits=16)
    assert outcomes["clflush"]["accuracy"] >= 0.95
    assert outcomes["evict"]["accuracy"] >= 0.9
    # eviction sweeps cost ~an order of magnitude in rate
    assert (outcomes["evict"]["rate_kbps"]
            < outcomes["clflush"]["rate_kbps"] / 3)


def test_ablation_home_agent_split():
    outcome = ablations.run_home_agent(seed=1)
    assert outcome["split_cycles"] > 20
    assert outcome["home-remote"] > outcome["home-local"]


def test_leaderboard_scores_the_whole_matrix():
    from repro.experiments import leaderboard

    result = run(leaderboard.build_spec(seed=1, bits=16, noise=False))
    cells = result["cells"]
    live = {n for n, row in cells.items() if row["status"] == "ok"}
    dead = {n for n, row in cells.items() if row["status"] == "dead"}
    # 9 live cells, the two protocol-impossible cells dead, dir-lru absent
    assert len(live) == 9
    assert dead == {"mesi-ostate", "mesif-ostate"}
    assert "dir-lru" not in cells
    for name in live:
        assert cells[name]["accuracy"] >= 0.9, name
        assert cells[name]["capacity_kbps"] > 0, name
    # the LRU family pays the eviction-sweep slot cost
    assert (cells["mesi-lru"]["rate_kbps"]
            < cells["mesi-es"]["rate_kbps"] / 3)


def test_leaderboard_render_marks_every_cell_kind():
    from repro.experiments import leaderboard

    result = run(leaderboard.build_spec(seed=1, bits=16, noise=False))
    text = leaderboard.render(result)
    assert "9 live cells" in text
    assert "dead" in text
    assert "n/a" in text        # the undefined directory x lru cell
    for row in ("mesi", "mesif", "moesi", "directory"):
        assert row in text
