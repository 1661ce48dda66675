"""Golden digest for the traced event stream — and proof of inertness.

Two locks in one file:

* ``GOLDEN_TRACE`` pins the exact event stream (count, order, payloads)
  that one fixed-seed MESI transmission records, and ``BACKEND_TRACES``
  does the same for the MOESI O-state cell and the home-node directory
  backend, whose transitions the tap reads from a different holder
  record.  A change here means the
  tracing subsystem observed something different — either the simulator's
  behavior moved (check ``test_golden_determinism`` first) or the tap
  changed what it records.  Regenerate with
  ``TraceRecorder.digest`` via :func:`run_traced` if the change is
  intended.
* ``test_tracing_is_inert`` proves the transmission digest (the
  bit-for-bit observable behavior) is identical with tracing on and off.
  Tracing must never perturb what it observes.

Traced sessions never use the calibration memo, so the calibration
loads always execute and the stream does not depend on what ran
earlier in the process (``test_trace_digest_independent_of_history``).
"""

import pytest

from repro.channel.config import scenario_by_name
from repro.channel.session import (
    ChannelSession,
    SessionConfig,
    clear_warm_state,
    resolve_spec,
)
from repro.detection import StreamingDetector
from repro.mem.hierarchy import MachineConfig
from repro.mem.invariants import walk_private_states

from tests.test_golden_determinism import (
    CONFIGS,
    GOLDEN,
    PAYLOAD,
    transmission_digest,
)

GOLDEN_TRACE = (
    "f4916c5b557d3af2c5f327c976d99892f1f7f1030203e6cdede5d56e4a2b8df6"
)

#: registry cell -> trace digest of the same fixed-seed transmission.
BACKEND_TRACES = {
    "moesi-ostate":
        "bd5c2b1752352db0de8c8ee32b78d015f88164ff94ddaf2ebdd153fcd85c5eb4",
    "dir-es":
        "9bb36d6af9bcf5972e7d76ecc98ff5632286e779c8c5eee6b2a24295d4df9570",
}


def make_session(trace, spec="LExclc-LSharedb") -> ChannelSession:
    return ChannelSession(SessionConfig(
        spec=spec,
        seed=7,
        calibration_samples=150,
        trace=trace,
    ))


@pytest.fixture(scope="module")
def traced_session():
    session = make_session(trace=True)
    result = session.transmit(list(PAYLOAD))
    return session, result


def test_golden_trace_digest(traced_session):
    session, _result = traced_session
    assert session.recorder.dropped == 0, (
        "the default ring must hold a full 16-bit transmission"
    )
    assert session.recorder.digest() == GOLDEN_TRACE, (
        "the recorded event stream changed; if the change is intended, "
        "regenerate GOLDEN_TRACE"
    )


@pytest.mark.parametrize("spec", sorted(BACKEND_TRACES))
def test_backend_trace_digest(spec):
    session = make_session(trace=True, spec=spec)
    session.transmit(list(PAYLOAD))
    assert session.recorder.dropped == 0
    assert session.recorder.select("coherence"), (
        "the pinned stream must contain coherence transitions"
    )
    assert session.recorder.digest() == BACKEND_TRACES[spec], (
        f"the {spec} event stream changed; if the change is intended, "
        "regenerate BACKEND_TRACES"
    )


@pytest.mark.parametrize("spec", ["LExclc-LSharedb", *sorted(BACKEND_TRACES)])
def test_tap_snapshots_match_full_walk(spec):
    """Every snapshot the tap takes equals a peek at every core."""
    session = make_session(trace=True, spec=spec)
    machine = session.machine
    fast = machine.private_states
    checked = 0

    def private_states(paddr):
        nonlocal checked
        states = fast(paddr)
        assert states == walk_private_states(machine, paddr)
        checked += 1
        return states

    session.tap.detach()
    machine.private_states = private_states
    session.tap.attach()
    session.transmit(list(PAYLOAD))
    assert checked > 0
    expected = BACKEND_TRACES.get(spec, GOLDEN_TRACE)
    assert session.recorder.digest() == expected


def test_trace_digest_independent_of_history():
    """Two same-seed traced sessions in one process record the same
    stream: the first must not leave a memoized calibration for the
    second to skip (cold, the stream holds the calibration loads)."""
    clear_warm_state()
    digests = []
    for _ in range(2):
        session = make_session(trace=True)
        session.transmit(list(PAYLOAD))
        digests.append(session.recorder.digest())
    assert digests == [GOLDEN_TRACE, GOLDEN_TRACE]


def test_trace_covers_every_category(traced_session):
    session, _result = traced_session
    categories = {e.category for e in session.recorder.events()}
    assert categories == {"phase", "load", "flush", "hop", "coherence"}


def test_tracing_is_inert(traced_session):
    _session, traced = traced_session
    untraced = make_session(trace=False).transmit(list(PAYLOAD))
    assert transmission_digest(traced) == transmission_digest(untraced)


def test_streaming_sink_leaves_trace_digest_unchanged():
    """A subscribed live detector must not perturb the recorded stream."""
    session = make_session(trace=True)
    detector = StreamingDetector(scan_interval=100_000.0)
    session.recorder.subscribe(detector)
    session.transmit(list(PAYLOAD))
    assert detector.events > 0, "the sink must actually see the feed"
    assert session.recorder.digest() == GOLDEN_TRACE


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_digests_hold_with_streaming_tap(name):
    """The five pinned configs, traced + live-monitored: bit-identical.

    Observation (tap, recorder, subscribed streaming detector) must
    never move the transmission digests — the strongest inertness
    statement the golden locks can make.
    """
    config = CONFIGS[name]
    if isinstance(config, str):
        session_config = SessionConfig(
            spec=config, seed=7, calibration_samples=150, trace=True,
        )
    else:
        machine_kwargs, scenario = config
        session_config = SessionConfig(
            spec=resolve_spec(scenario_by_name(scenario)),
            seed=7,
            calibration_samples=150,
            machine=MachineConfig(**machine_kwargs),
            trace=True,
        )
    session = ChannelSession(session_config)
    detector = StreamingDetector(scan_interval=100_000.0)
    session.recorder.subscribe(detector)
    digest = transmission_digest(session.transmit(list(PAYLOAD)))
    assert detector.events > 0, "the sink must actually see the feed"
    assert digest == GOLDEN[name], (
        f"{name} transmission changed with the streaming tap attached; "
        "observation must be inert"
    )
