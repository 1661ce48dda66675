"""Figure 2 / Section V bench: latency bands per (location, state) pair."""

from repro.experiments import fig2_latency_cdf
from repro.experiments.common import run


def test_fig2_latency_bands(once):
    result = once(run, fig2_latency_cdf.build_spec(samples=1000, seed=0))
    medians = result["medians"]
    # Section V reference points: local S ~98 cycles, local E ~124.
    assert abs(medians["LShared"] - 98) < 5
    assert abs(medians["LExcl"] - 124) < 5
    # The four coherence bands plus DRAM are strictly ordered...
    assert (medians["LShared"] < medians["LExcl"] < medians["RShared"]
            < medians["RExcl"] < medians["dram"])
    # ...and clearly separated (Figure 2's distinct CDF steps).
    assert all(sep > 1.5 for sep in result["separations"].values())
