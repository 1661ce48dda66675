"""Differential test: ``Machine.private_states`` against the full walk.

``private_states`` peeks only the cores a backend records as holders —
socket core-valid bits on the snoop backends, the home entry's sharer
mask on the directory backend — and the trace tap builds every
coherence-transition event from it.  Random load/store/flush sequences
over lines that collide in every cache level (so L1/L2 victims, LLC
back-invalidations and non-inclusive tag-only entries all occur) must
keep it equal to :func:`walk_private_states`, which peeks every core.

The tap also skips both snapshots around a load whose core already
holds the line, so a private hit must leave every core's state for that
line unchanged.

The protocol invariants are not asserted here: cross-socket conflicts
reach a known snoop-mode SWMR defect, pinned in ``test_mem_coherence``.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mem.hierarchy import Machine, MachineConfig
from repro.mem.invariants import walk_private_states
from repro.mem.latency import NoiseModel
from repro.sim.rng import RngStreams

BASE = 0x300_0000
#: A stride of 16 sets x 64 B maps every line to one L1, L2 and LLC set
#: of the tiny machine, and lines 4-5 sit on the next page, so the
#: directory backend has homes on both sockets.
LINES = [BASE + i * 1024 for i in range(6)]

BACKENDS = {
    f"{protocol}-{'incl' if inclusive else 'nonincl'}": dict(
        protocol=protocol, inclusive=inclusive)
    for protocol in ("mesi", "mesif", "moesi")
    for inclusive in (True, False)
}
BACKENDS["directory-mesi"] = dict(coherence="directory")
BACKENDS["directory-moesi"] = dict(coherence="directory", protocol="moesi")


def tiny_machine(**kwargs) -> Machine:
    return Machine(MachineConfig(
        cores_per_socket=3,
        l1_sets=4, l1_assoc=2,
        l2_sets=8, l2_assoc=2,
        llc_sets=16, llc_assoc=3,
        noise=NoiseModel(enabled=False),
        **kwargs,
    ), RngStreams(0))


ops_strategy = st.lists(
    st.tuples(
        st.sampled_from(["load", "load", "store", "flush"]),
        st.integers(min_value=0, max_value=5),   # core
        st.integers(min_value=0, max_value=len(LINES) - 1),
        st.integers(min_value=1, max_value=1000),  # store value
    ),
    min_size=1,
    max_size=80,
)


@pytest.mark.parametrize("backend", sorted(BACKENDS))
@settings(max_examples=60, deadline=None)
@given(ops=ops_strategy)
def test_private_states_matches_full_walk(backend, ops):
    machine = tiny_machine(**BACKENDS[backend])
    for op, core, index, value in ops:
        addr = LINES[index]
        if op == "load":
            before = walk_private_states(machine, addr)
            machine.load(core, addr)
            if core in before:
                assert walk_private_states(machine, addr) == before, (
                    f"a private hit by core {core} changed line states"
                )
        elif op == "store":
            machine.store(core, addr, value)
        else:
            machine.flush(core, addr)
        for line in LINES:
            assert machine.private_states(line) == walk_private_states(
                machine, line), f"{op} by core {core}: line {line:#x}"
