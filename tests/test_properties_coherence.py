"""Property-based coherence fuzzing.

Random op sequences (load/store/flush from random cores over a small
line pool) must (a) never violate a protocol invariant and (b) always
return the value of the most recent store per line — checked against a
flat reference memory.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mem.cacheline import LINE_SIZE
from repro.mem.hierarchy import Machine, MachineConfig
from repro.mem.invariants import check_machine
from repro.mem.latency import NoiseModel
from repro.sim.rng import RngStreams

N_LINES = 6
BASE = 0x100_0000


def tiny_machine(protocol="mesi", coherence="snoop"):
    config = MachineConfig(
        cores_per_socket=3,
        l1_sets=4, l1_assoc=2,
        l2_sets=8, l2_assoc=2,
        llc_sets=16, llc_assoc=4,
        protocol=protocol,
        coherence=coherence,
        noise=NoiseModel(enabled=False),
    )
    return Machine(config, RngStreams(0))


ops_strategy = st.lists(
    st.tuples(
        st.sampled_from(["load", "store", "flush"]),
        st.integers(min_value=0, max_value=5),   # core
        st.integers(min_value=0, max_value=N_LINES - 1),
        st.integers(min_value=1, max_value=1000),  # store value
    ),
    min_size=1,
    max_size=60,
)


def apply_ops(machine, ops):
    reference = {}
    for op, core, line, value in ops:
        addr = BASE + line * LINE_SIZE
        if op == "load":
            got, _lat, _path = machine.load(core, addr)
            assert got == reference.get(addr, 0), (
                f"load({core}, line {line}) returned {got}, "
                f"expected {reference.get(addr, 0)}"
            )
        elif op == "store":
            machine.store(core, addr, value)
            reference[addr] = value
        else:
            machine.flush(core, addr)
    return reference


@settings(max_examples=120, deadline=None)
@given(ops=ops_strategy)
def test_mesi_random_ops_hold_invariants(ops):
    machine = tiny_machine("mesi")
    apply_ops(machine, ops)
    check_machine(machine)


@settings(max_examples=60, deadline=None)
@given(ops=ops_strategy)
def test_mesif_random_ops_hold_invariants(ops):
    machine = tiny_machine("mesif")
    apply_ops(machine, ops)
    check_machine(machine)


@settings(max_examples=60, deadline=None)
@given(ops=ops_strategy)
def test_moesi_random_ops_hold_invariants(ops):
    machine = tiny_machine("moesi")
    apply_ops(machine, ops)
    check_machine(machine)


@settings(max_examples=60, deadline=None)
@given(ops=ops_strategy)
def test_directory_random_ops_hold_invariants(ops):
    machine = tiny_machine("mesi", coherence="directory")
    apply_ops(machine, ops)
    check_machine(machine)


@settings(max_examples=60, deadline=None)
@given(ops=ops_strategy, data=st.data())
def test_final_values_readable_from_any_core(ops, data):
    machine = tiny_machine("mesi")
    reference = apply_ops(machine, ops)
    core = data.draw(st.integers(min_value=0, max_value=5))
    for addr, expected in reference.items():
        got, _lat, _path = machine.load(core, addr)
        assert got == expected
    check_machine(machine)
