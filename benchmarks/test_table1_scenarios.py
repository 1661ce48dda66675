"""Table I bench: all six scenarios transmit with their paper placement."""

from repro.experiments import table1_scenarios
from repro.experiments.common import run


def test_table1_all_scenarios(once):
    result = once(run, table1_scenarios.build_spec(seed=0, bits=40))
    assert len(result["rows"]) == 6
    for row in result["rows"]:
        paper = table1_scenarios.PAPER_TABLE_I[row["scenario"]]
        ours = (row["total_threads"], row["local_threads"],
                row["remote_threads"])
        assert ours == paper, row["scenario"]
        # the paper reports 100% decode accuracy for all six at base rate
        assert row["accuracy"] >= 0.95, row["scenario"]
