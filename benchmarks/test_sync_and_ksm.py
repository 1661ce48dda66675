"""Section VII-A / Section IV benches: synchronization and KSM setup."""

from repro.experiments import sync_handshake
from repro.experiments.common import run
from repro.kernel.syscalls import Kernel
from repro.mem.hierarchy import Machine, MachineConfig
from repro.sim.engine import Simulator
from repro.sim.rng import RngStreams


def test_sync_handshake_duration(once):
    result = once(run, sync_handshake.build_spec(seed=0))
    assert result["synced"]
    # Paper: ~90 ms average at 2.67 GHz.
    assert 40 <= result["duration_ms"] <= 200


def test_ksm_merge_setup(once):
    """Section IV: dedup force-creates the shared physical page."""

    def setup():
        rng = RngStreams(0)
        machine = Machine(MachineConfig(), rng)
        kernel = Kernel(machine, Simulator(machine.stats), rng)
        trojan = kernel.create_process("trojan")
        spy = kernel.create_process("spy")
        va_t, va_s = kernel.setup_ksm_shared_page(trojan, spy)
        return kernel, trojan, spy, va_t, va_s

    kernel, trojan, spy, va_t, va_s = once(setup)
    assert trojan.translate(va_t) == spy.translate(va_s)
    assert kernel.ksm.stats.pages_merged == 1
    assert kernel.ksm.stats.pages_sharing == 2
