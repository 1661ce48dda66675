"""Tests for deterministic RNG streams."""

import math

import numpy as np
import pytest

from repro.channel.session import ChannelSession, SessionConfig, clear_warm_state
from repro.sim import _ziggurat
from repro.sim.rng import BLOCK_WORDS, RngStream, RngStreams, derive_seed


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
    tail probability makes the jitter's exponential common; ``integers``
    and ``choice`` still go to numpy, and ``integers`` over a 32-bit
    range leaves numpy's buffered half word behind."""
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
# crafted PCG64 words: every branch of the per-word slow paths
# ----------------------------------------------------------------------

_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK = (1 << 128) - 1
_INVERSE = pow(_PCG64_MULT, -1, 1 << 128)
_RABS = 1 << 52  # normal ziggurat: rabs < 2**52
_RI = 1 << 53    # exponential ziggurat and random(): ri < 2**53


def _emitting(first: int, u_word: int | None = None, back: int = 0) -> dict:
    """numpy's PCG64 state dict whose next output is the word *first*.

    A 128-bit state ``S`` with ``S >> 64 == 0`` outputs its low word
    unrotated, and the state before it is ``(S - inc) * mult^-1``.
    Given *u_word*, the increment is chosen so that the output after
    *first* is *u_word* too, its lowest bit (which ``random()`` drops)
    flipped if needed to keep the increment odd.  *back* steps the
    state that many words further back.
    """
    inc = 1
    if u_word is not None:
        if not (u_word - first) & 1:
            u_word ^= 1
        inc = (u_word - first * _PCG64_MULT) & _MASK
    state = first
    for _ in range(back + 1):
        state = ((state - inc) * _INVERSE) & _MASK
    return {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
            "has_uint32": 0, "uinteger": 0}


def _words_between(before: dict, after: dict) -> int:
    state, inc = before["state"]["state"], before["state"]["inc"]
    for n in range(1000):
        if state == after["state"]["state"]:
            return n
        state = (state * _PCG64_MULT + inc) & _MASK
    raise AssertionError("more than 1,000 words apart")


def _both(state: dict, draw, skip: int = 0):
    """*draw* from *state*, after *skip* ``random()`` draws, on an
    RngStream and on numpy: equal values and equal states after.
    Returns the value, the words the draw consumed and the stream's
    handoffs to numpy."""
    stream = RngStream(np.random.default_rng(0))
    gen = np.random.default_rng(0)
    for source in (stream, gen):
        source.bit_generator.state = state
        for _ in range(skip):
            source.random()
    before = gen.bit_generator.state
    value = draw(stream)
    assert _same(value, draw(gen))
    assert stream.bit_generator.state == gen.bit_generator.state
    return value, _words_between(before, gen.bit_generator.state), \
        stream.fallbacks


def _normal_word(idx: int, sign: int, rabs: int) -> int:
    return idx | sign << 8 | rabs << 9


def _exponential_word(idx: int, ri: int) -> int:
    return idx << 3 | ri << 11


def _wedge_rabs(idx: int) -> int:
    """A ``rabs`` half way into layer *idx*'s wedge."""
    return (_ziggurat.KI[idx] + _RABS) // 2


def _wedge_ri(idx: int) -> int:
    return (_ziggurat.KE[idx] + _RI) // 2


_U_LOW, _U_HIGH = 0, (_RI - 1) << 11  # random() == 0.0 and its largest
_LAYERS = (1, 2, 9, 128, 254, 255)


def _normal(source):
    return source.standard_normal()


def _exponential(source):
    return source.exponential(25.0)


def _jitter(source):
    """A jitter draw whose tail is always taken."""
    if isinstance(source, RngStream):
        return source.jitter(9.0, 1.0, 1.0, 4.0)
    return _numpy_jitter(source, 9.0, 1.0, 1.0, 4.0)


@pytest.mark.parametrize("idx", _LAYERS)
@pytest.mark.parametrize("sign", [0, 1])
def test_normal_wedge_accepts_and_rejects_as_numpy(idx, sign):
    word = _normal_word(idx, sign, _wedge_rabs(idx))
    value, words, _ = _both(_emitting(word, _U_LOW), _normal)
    assert words == 2 and (value < 0) == bool(sign)
    _, words, fallbacks = _both(_emitting(word, _U_HIGH),
                                _normal)
    assert words >= 3 and fallbacks == 0


@pytest.mark.parametrize("sign_bit", [0, 1])
def test_normal_tail_takes_its_sign_from_rabs(sign_bit):
    """Layer 0's tail takes its sign from bit 8 of ``rabs`` (bit 17 of
    the word), not from the fast path's sign bit 8."""
    spread = _RABS - _ziggurat.KI[0]
    for k in range(1, 101):
        rabs = _ziggurat.KI[0] + spread * k // 101
        rabs = rabs & ~0x100 | sign_bit << 8
        word = _normal_word(0, 1 - sign_bit, rabs)
        value, words, fallbacks = _both(_emitting(word),
                                        _normal)
        assert abs(value) > _ziggurat.NOR_R and (value < 0) == bool(sign_bit)
        assert words >= 3 and words % 2 == 1 and fallbacks == 0


def test_exponential_fast_path_wedge_and_tail_match_numpy():
    value, words, _ = _both(_emitting(_exponential_word(5, 12345)),
                            _exponential)
    assert words == 1 and value == 25.0 * (12345 * _ziggurat.WE[5])
    for idx in _LAYERS:
        word = _exponential_word(idx, _wedge_ri(idx))
        assert _both(_emitting(word, _U_LOW), _exponential)[1] == 2
        assert _both(_emitting(word, _U_HIGH), _exponential)[1] >= 3
    spread = _RI - _ziggurat.KE[0]
    for k in range(100):
        word = _exponential_word(0, _ziggurat.KE[0] + spread * k // 100)
        value, words, fallbacks = _both(_emitting(word), _exponential)
        assert value > 25.0 * _ziggurat.EXP_R and words == 2
        assert fallbacks == 0


@pytest.mark.parametrize("low, high", [
    (2, 7), (0.5, 2.0), (-4, 2.5), (3.0, 3.0), (-0.0, 0.0),
])
def test_uniform_is_served_from_the_block(low, high):
    value, words, fallbacks = _both(
        np.random.default_rng(5).bit_generator.state,
        lambda source: source.uniform(low, high))
    assert type(value) is float and words == 1 and fallbacks == 0


@pytest.mark.parametrize("low, high, error", [
    (-1e308, 1e308, OverflowError), (0.0, math.inf, OverflowError),
    (math.nan, 1.0, OverflowError), (0, 10**400, OverflowError),
    (5.0, -3.0, ValueError), (7, 2, ValueError), (0.0, -0.0, ValueError),
])
def test_uniform_raises_numpys_errors(low, high, error):
    """An infinite range and reversed bounds raise numpy's own errors
    and leave the stream in step."""
    stream = RngStream(np.random.default_rng(6))
    gen = np.random.default_rng(6)
    for source in (stream, gen):
        source.random()
        with pytest.raises(error):
            source.uniform(low, high)
    assert stream.uniform(1, 2) == gen.uniform(1, 2)
    assert stream.bit_generator.state == gen.bit_generator.state


#: A slow-path word on a block's last word, the ``random()`` draws
#: before the draw that reads it, and that draw.
_STRADDLING = {
    "normal-wedge": (_normal_word(9, 1, _wedge_rabs(9)), 0, _normal),
    "normal-tail": (_normal_word(0, 0, _ziggurat.KI[0] + 99), 0, _normal),
    "exponential-wedge": (_exponential_word(9, _wedge_ri(9)), 0,
                          _exponential),
    "jitter-exponential": (_exponential_word(9, _wedge_ri(9)), 2, _jitter),
}


@pytest.mark.parametrize("kind", sorted(_STRADDLING))
def test_slow_path_draw_straddling_a_block_end_goes_to_numpy(kind):
    """A slow-path draw that needs a word past its block's end hands
    off once, from its own first word, and the stream stays in step."""
    word, before, draw = _STRADDLING[kind]
    state = _emitting(word, back=BLOCK_WORDS - 1)
    _, words, fallbacks = _both(state, draw, skip=BLOCK_WORDS - 1 - before)
    assert words >= 2 + before and fallbacks == 1


def test_block_draws_hand_off_only_across_block_ends():
    """Mixed per-access draws hand off to numpy at most once per block."""
    stream = RngStream(np.random.default_rng(21))
    script = np.random.default_rng(22)
    for op in script.integers(0, 5, size=200_000).tolist():
        if op == 0:
            stream.jitter(100.0, 2.5, 0.05, 60.0)
        elif op == 1:
            stream.standard_normal()
        elif op == 2:
            stream.gamma(2.0, 7.5)
        elif op == 3:
            stream.exponential(25.0)
        else:
            stream.uniform(0.5, 2.0)
    assert stream.refills > 250
    assert stream.fallbacks <= stream.refills


def test_session_jitter_stream_hands_off_only_across_block_ends():
    clear_warm_state()
    session = ChannelSession(SessionConfig(spec="mesi-es", seed=3,
                                           calibration_samples=60))
    assert session.transmit([1, 0, 1, 1, 0, 0, 1, 0] * 4).accuracy == 1.0
    stream = session.rng.get("machine.jitter")
    assert stream.refills > 1
    assert stream.fallbacks <= stream.refills
    clear_warm_state()


# ----------------------------------------------------------------------
# the ziggurat literals against the installed numpy
# ----------------------------------------------------------------------

def test_ziggurat_tables_match_installed_numpy():
    """Re-derive ``wi``/``ki`` and ``we``/``ke`` from numpy's own draws.

    ``wi[i]`` is the normal drawn from ``rabs = 1`` (positive sign) and
    ``we[i]`` the exponential drawn from ``ri = 1``; ``ki[i]`` and
    ``ke[i]`` are the least ``rabs``/``ri`` the fast path rejects,
    found by a binary search that tells a reject by the extra words it
    consumes.
    """
    bitgen = np.random.PCG64(0)
    gen = np.random.Generator(bitgen)

    def draw_from(word, draw):
        bitgen.state = _emitting(word)
        value = draw()
        return value, bitgen.state["state"]["state"] != word

    def least_rejected(word_of, top, draw):
        lo, hi = 0, top
        while lo < hi:
            mid = (lo + hi) // 2
            if draw_from(word_of(mid), draw)[1]:
                hi = mid
            else:
                lo = mid + 1
        return lo

    wi, ki, we, ke = [], [], [], []
    for idx in range(256):
        wi.append(draw_from(_normal_word(idx, 0, 1), gen.standard_normal)[0])
        ki.append(least_rejected(lambda r: _normal_word(idx, 0, r), _RABS,
                                 gen.standard_normal))
        we.append(draw_from(_exponential_word(idx, 1),
                            gen.standard_exponential)[0])
        ke.append(least_rejected(lambda r: _exponential_word(idx, r), _RI,
                                 gen.standard_exponential))
    assert ki[1] == 0 and ke[1] == 0
    assert tuple(wi) == _ziggurat.WI
    assert tuple(ki) == _ziggurat.KI
    assert tuple(we) == _ziggurat.WE
    assert tuple(ke) == _ziggurat.KE


@pytest.mark.parametrize("dist", ["normal", "exponential"])
def test_wedge_tables_decide_every_layer_as_numpy(dist):
    """``fi``/``fe`` through the wedge test on every layer: for a word
    half way into the wedge, numpy's least rejecting ``random()`` word
    is found by binary search, and the stream must accept the word just
    below it and reject that one, as numpy does."""
    bitgen = np.random.PCG64(0)
    gen = np.random.Generator(bitgen)
    if dist == "normal":
        word_of = lambda idx: _normal_word(idx, idx & 1, _wedge_rabs(idx))
        draw = _normal
    else:
        word_of = lambda idx: _exponential_word(idx, _wedge_ri(idx))
        draw = _exponential
    numpy_draw = getattr(gen, "standard_" + dist)

    def rejects(word, ri):
        state = _emitting(word, ri << 11)
        bitgen.state = state
        numpy_draw()
        return _words_between(state, bitgen.state) > 2

    for idx in range(1, 256):
        word = word_of(idx)
        lo, hi = 0, _RI
        while lo < hi:
            mid = (lo + hi) // 2
            if rejects(word, mid):
                hi = mid
            else:
                lo = mid + 1
        assert 0 < lo < _RI, idx
        assert _both(_emitting(word, (lo - 1) << 11), draw)[1] == 2, idx
        assert _both(_emitting(word, lo << 11), draw)[1] > 2, idx
