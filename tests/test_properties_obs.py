"""Property-based tests for the tracing subsystem (``repro.obs``).

Two properties lock the tap's fidelity:

* Replay — the coherence-transition events a tap records from any
  random op sequence form a stream that satisfies the MESI invariants
  (:func:`check_transition_events`), and the machine itself stays
  invariant-clean: recording cannot invent impossible states.
* Band agreement — on a noiseless session, every latency sample the spy
  labels ``'c'``/``'b'`` has a ground-truth service path that matches
  the state pair whose band the latency fell in: what the tap records
  as the path is what the latency says it should be.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.channel.config import scenario_by_name
from repro.channel.session import ChannelSession, SessionConfig
from repro.mem.cacheline import LINE_SIZE
from repro.mem.hierarchy import Machine, MachineConfig
from repro.mem.invariants import check_machine, check_transition_events
from repro.mem.latency import NoiseModel
from repro.obs import MachineTap, TraceRecorder
from repro.sim.rng import RngStreams

N_LINES = 5
BASE = 0x200_0000


def tapped_machine():
    config = MachineConfig(
        cores_per_socket=3,
        l1_sets=4, l1_assoc=2,
        l2_sets=8, l2_assoc=2,
        llc_sets=16, llc_assoc=4,
        noise=NoiseModel(enabled=False),
    )
    machine = Machine(config, RngStreams(0))
    recorder = TraceRecorder()
    MachineTap(machine, recorder).attach()
    return machine, recorder


ops_strategy = st.lists(
    st.tuples(
        st.sampled_from(["load", "store", "flush"]),
        st.integers(min_value=0, max_value=5),     # core
        st.integers(min_value=0, max_value=N_LINES - 1),
        st.integers(min_value=1, max_value=1000),  # store value
    ),
    min_size=1,
    max_size=50,
)


@settings(max_examples=100, deadline=None)
@given(ops=ops_strategy)
def test_recorded_transitions_replay_clean(ops):
    machine, recorder = tapped_machine()
    now = 0.0
    for op, core, line, value in ops:
        addr = BASE + line * LINE_SIZE
        now += 100.0
        if op == "load":
            machine.load(core, addr, now=now)
        elif op == "store":
            machine.store(core, addr, value, now=now)
        else:
            machine.flush(core, addr, now=now)
    check_transition_events(recorder.select("coherence"))
    check_machine(machine)
    # Every op the machine served was recorded.
    assert len(recorder.select("load", "store", "flush")) == len(ops)


@settings(max_examples=8, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    payload=st.lists(st.integers(min_value=0, max_value=1),
                     min_size=2, max_size=5),
)
def test_labeled_samples_match_their_band_path(seed, payload):
    scenario = scenario_by_name("LExclc-LSharedb")
    session = ChannelSession(SessionConfig(
        spec=scenario.name,
        seed=seed,
        calibration_samples=120,
        machine=MachineConfig(noise=NoiseModel(enabled=False)),
        trace=True,
    ))
    result = session.transmit(list(payload))
    assert result.received == list(payload)

    expected = {
        "c": (session.bands.band_for(scenario.csc),
              scenario.csc.expected_path),
        "b": (session.bands.band_for(scenario.csb),
              scenario.csb.expected_path),
    }
    labeled = [s for s in result.samples if s.label in expected]
    assert labeled, "a decodable transmission must label some samples"
    for sample in labeled:
        band, path = expected[sample.label]
        assert band.contains(sample.latency), (
            f"label {sample.label!r} but latency {sample.latency} "
            f"outside {band}"
        )
        assert sample.path is path, (
            f"latency in {band} but ground-truth path was {sample.path}"
        )
