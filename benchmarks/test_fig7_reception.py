"""Figures 6-7 bench: 100-bit pattern transmission and spy reception."""

from repro.experiments import fig7_reception
from repro.experiments.common import run


def test_fig7_reception_all_scenarios(once):
    result = once(run, fig7_reception.build_spec(seed=0, bits=100))
    assert len(result["payload"]) == 100  # Figure 6's 100-bit secret
    for name, outcome in result["results"].items():
        # Paper: "the spy is able to correctly decipher the transmitted
        # bits for all 6 attack scenarios with 100% accuracy".
        assert outcome.accuracy == 1.0, name
        # Both Tc and Tb bands appear in the reception trace.
        labels = {s.label for s in outcome.samples}
        assert {"c", "b"} <= labels, name
