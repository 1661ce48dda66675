"""Tests for deterministic RNG streams."""

import numpy as np
import pytest

from repro.sim import _ziggurat
from repro.sim.rng import RngStream, RngStreams, derive_seed


def test_same_seed_same_stream():
    a = RngStreams(42).get("jitter")
    b = RngStreams(42).get("jitter")
    assert a.random() == b.random()


def test_different_names_different_streams():
    streams = RngStreams(42)
    a = streams.get("alpha").random()
    b = streams.get("beta").random()
    assert a != b


def test_stream_is_cached():
    streams = RngStreams(1)
    assert streams.get("x") is streams.get("x")


def test_creation_order_does_not_matter():
    one = RngStreams(9)
    one.get("first")
    value_one = one.get("second").random()
    two = RngStreams(9)
    value_two = two.get("second").random()
    assert value_one == value_two


def test_different_seeds_differ():
    a = RngStreams(1).get("s").random()
    b = RngStreams(2).get("s").random()
    assert a != b


def test_fork_changes_streams():
    base = RngStreams(5)
    forked = base.fork(1)
    assert forked.seed != base.seed
    assert base.get("n").random() != forked.get("n").random()


def test_fork_is_deterministic():
    assert RngStreams(5).fork(3).seed == RngStreams(5).fork(3).seed


def test_seed_property():
    assert RngStreams(7).seed == 7


def test_non_int_seed_rejected():
    with pytest.raises(TypeError):
        RngStreams("abc")


def test_streams_are_generators():
    stream = RngStreams(0).get("g")
    assert isinstance(stream, RngStream)


def test_derive_seed_is_deterministic():
    assert derive_seed(7, "fig9", 2) == derive_seed(7, "fig9", 2)


def test_derive_seed_varies_with_every_component():
    base = derive_seed(7, "fig9", 2)
    assert derive_seed(8, "fig9", 2) != base
    assert derive_seed(7, "fig8", 2) != base
    assert derive_seed(7, "fig9", 3) != base


def test_derive_seed_fits_numpy_seed_range():
    for root in range(20):
        seed = derive_seed(root, "trial", root * 3)
        assert 0 <= seed < 2**31


# ----------------------------------------------------------------------
# RngStream against numpy, draw for draw and state for state
# ----------------------------------------------------------------------

#: numpy's fused-jitter equivalent: the draw sequence RngStream.jitter
#: replaces (NoiseModel.sample, clamped).
def _numpy_jitter(gen, latency, sigma, tail_p, tail_scale):
    value = latency + sigma * gen.standard_normal()
    if gen.random() < tail_p:
        value += gen.exponential(tail_scale)
    return value if value > 1.0 else 1.0


def _same(a, b) -> bool:
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and np.array_equal(a, b)
    return type(a) is type(b) and a == b


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_stream_matches_numpy_draw_for_draw(seed):
    """Every kind of draw, interleaved with state snapshots and restores,
    gives numpy's exact values and leaves numpy's exact state.  A high
    tail probability makes the delegated exponential common; ``integers``
    over a 32-bit range leaves numpy's buffered half word behind."""
    stream = RngStream(np.random.default_rng(seed))
    gen = np.random.default_rng(seed)
    script = np.random.default_rng(100 + seed)
    ops = script.integers(0, 12, size=110_000).tolist()
    snapshots = []
    draws = 0
    for op in ops:
        if op <= 2:
            a = stream.jitter(100.0, 2.5, 0.2, 60.0)
            b = _numpy_jitter(gen, 100.0, 2.5, 0.2, 60.0)
            draws += 2
        elif op == 3:
            a, b = stream.standard_normal(), gen.standard_normal()
        elif op == 4:
            a, b = stream.random(), gen.random()
        elif op == 5:
            shape = (2.0, 2, 3.5, 0.5)[int(script.integers(4))]
            scale = 0.5 + 40.0 * script.random()
            a, b = stream.gamma(shape, scale), gen.gamma(shape, scale)
            draws += 1
        elif op == 6:
            a, b = stream.exponential(3.0), gen.exponential(3.0)
        elif op == 7:
            a, b = stream.uniform(0.5, 2.0), gen.uniform(0.5, 2.0)
        elif op == 8:
            a, b = stream.integers(0, 1000), gen.integers(0, 1000)
        elif op == 9:
            n = int(script.integers(1, 80))
            a, b = stream.choice(50, size=n), gen.choice(50, size=n)
            draws += n
        elif op == 10:
            a, b = stream.bit_generator.state, gen.bit_generator.state
            snapshots.append(a)
        else:
            if snapshots and script.random() < 0.05:
                state = snapshots[int(script.integers(len(snapshots)))]
                stream.bit_generator.state = state
                gen.bit_generator.state = state
            a = b = None
        draws += 1
        assert _same(a, b), (op, a, b)
    assert stream.bit_generator.state == gen.bit_generator.state
    assert draws >= 250_000
    assert stream.fallbacks > 0


def test_stream_reads_numpy_block_boundaries_exactly():
    """A draw that straddles a block's end, and a delegated draw that
    consumes past it, keep the stream on numpy's position."""
    stream = RngStream(np.random.default_rng(9))
    gen = np.random.default_rng(9)
    for k in range(3000):
        assert stream.jitter(4.0, 1.0, 0.5, 9.0) == _numpy_jitter(
            gen, 4.0, 1.0, 0.5, 9.0)
        if k % 97 == 0:
            assert _same(stream.integers(0, 2**40, size=700),
                         gen.integers(0, 2**40, size=700))
    assert stream.bit_generator.state == gen.bit_generator.state


def test_rejected_arguments_leave_the_stream_in_step():
    """numpy raises on bad arguments; the stream raises the same error
    and stays on numpy's position."""
    stream = RngStream(np.random.default_rng(4))
    gen = np.random.default_rng(4)
    for source in (stream, gen):
        source.random()
        for bad in (lambda: source.gamma(2.0, -1.0),
                    lambda: source.integers(5, 1),
                    lambda: source.exponential(-2.0)):
            with pytest.raises(ValueError):
                bad()
    assert [stream.jitter(9.0, 1.0, 0.5, 3.0) for _ in range(2000)] == [
        _numpy_jitter(gen, 9.0, 1.0, 0.5, 3.0) for _ in range(2000)]
    assert stream.bit_generator.state == gen.bit_generator.state


def test_rng_streams_match_plain_default_rng():
    """RngStreams.get still seeds numpy's default_rng from (seed, name)."""
    stream = RngStreams(42).get("machine.jitter")
    seq = np.random.SeedSequence(
        entropy=42, spawn_key=(int.from_bytes(b"machine.", "little"), 14))
    gen = np.random.default_rng(seq)
    assert [stream.standard_normal() for _ in range(3000)] == [
        gen.standard_normal() for _ in range(3000)]


# ----------------------------------------------------------------------
# the ziggurat literals against the installed numpy
# ----------------------------------------------------------------------

_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK = (1 << 128) - 1


def test_ziggurat_tables_match_installed_numpy():
    """Re-derive ``wi``/``ki`` by making numpy's PCG64 emit chosen words.

    A 128-bit state ``S`` with ``S >> 64 == 0`` outputs its low word
    unrotated, and the state before it is ``(S - inc) * mult^-1``.
    ``wi[i]`` is the normal drawn from ``rabs = 1`` (positive sign);
    ``ki[i]`` is the least ``rabs`` the fast path rejects, found by a
    binary search that tells a reject by the extra words it consumes.
    """
    bitgen = np.random.PCG64(0)
    gen = np.random.Generator(bitgen)
    inverse = pow(_PCG64_MULT, -1, 1 << 128)

    def normal_from(word):
        before = ((word - 1) * inverse) & _MASK
        bitgen.state = {"bit_generator": "PCG64",
                        "state": {"state": before, "inc": 1},
                        "has_uint32": 0, "uinteger": 0}
        value = gen.standard_normal()
        return value, bitgen.state["state"]["state"] != word

    wi, ki = [], []
    for idx in range(256):
        wi.append(normal_from(idx | 1 << 9)[0])
        lo, hi = 0, 1 << 52
        while lo < hi:
            mid = (lo + hi) // 2
            if normal_from(idx | mid << 9)[1]:
                hi = mid
            else:
                lo = mid + 1
        ki.append(lo)
    assert ki[1] == 0
    assert tuple(wi) == _ziggurat.WI
    assert tuple(ki) == _ziggurat.KI
