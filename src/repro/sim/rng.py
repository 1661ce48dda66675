"""Deterministic random-number streams for the simulator.

Every stochastic component of the simulation (latency jitter, interconnect
contention, workload address generation, ...) draws from its own named
child stream derived from a single root seed.  Two runs with the same root
seed therefore produce bit-identical results regardless of the order in
which components are constructed, and adding a new consumer does not
perturb the draws seen by existing consumers.

Each stream is an :class:`RngStream`: numpy's ``default_rng`` draw for
draw, with the scalar draws the simulator makes per memory access served
from blocks.  A numpy scalar call costs about half a microsecond,
nearly all of it call overhead, and the jitter of every simulated access
makes two of them.  A stream instead takes :data:`BLOCK_WORDS` raw
PCG64 words at once, on its first draw and whenever it reads past
them, and decodes every word in numpy both ways numpy itself would: as
a ``random()`` uniform and as the fast path of ``standard_normal()``'s
ziggurat.  A draw then reads one decoded entry per word, in stream
order, so the values and the stream position are exactly numpy's.
The rarer branches of numpy's C algorithms (the normal ziggurat's
wedges and tail, about 1.5% of normal draws, and ``exponential``'s
ziggurat) run per word on the block's raw words, with numpy's tables
(:mod:`repro.sim._ziggurat`), expression order and libm.  Only a draw
that would read past the block's end, an argument form the block does
not serve, and the other distributions are handed to the wrapped numpy
``Generator`` after moving it to the stream's logical position.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import sys

import numpy as np

from repro.sim import _ziggurat


def derive_seed(root: int, *components: int | float | str | bool) -> int:
    """A stable 31-bit seed for one unit of parallel work.

    Hashes ``(root, components)`` through canonical JSON + SHA-256, so
    the result depends only on the values — not on process identity,
    execution order, or Python's per-process string hashing.  This is
    the sanctioned way to give every point of an experiment grid its own
    independent seed: workers constructed from ``derive_seed(...)``
    params produce bit-identical results whether the grid runs serially
    or fanned out over a process pool.

    >>> derive_seed(0, "fig8", "RExclc-LSharedb", 500.0) \\
    ...     == derive_seed(0, "fig8", "RExclc-LSharedb", 500.0)
    True
    """
    if not isinstance(root, int):
        raise TypeError(f"root seed must be an int, got {type(root).__name__}")
    text = json.dumps([root, *components], sort_keys=True,
                      separators=(",", ":"), allow_nan=False)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "little") & 0x7FFF_FFFF


#: Raw words a stream draws and decodes at once.  A block holds the
#: words and two arrays of doubles, 24 KB for 1,024 words.
BLOCK_WORDS = 1024

#: PCG64's 128-bit LCG: ``state' = state * _PCG64_MULT + inc``.
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1

#: numpy's ziggurat tables indexed by a word's low 9 bits: the layer
#: ``idx`` and the sign bit.  The signed ``_WI`` entry gives the signed
#: value (IEEE multiplication is sign-symmetric, so ``rabs * -w`` is
#: exactly ``-(rabs * w)``, as numpy computes it).
_WI = np.concatenate([_ziggurat.WI, np.negative(_ziggurat.WI)])
_KI = np.array(_ziggurat.KI * 2, dtype=np.int64)
#: The tables the per-word slow paths index, as tuples of Python numbers.
_WI_ABS, _FI = _ziggurat.WI, _ziggurat.FI
_WE, _KE, _FE = _ziggurat.WE, _ziggurat.KE, _ziggurat.FE
_NOR_R, _NOR_INV_R, _EXP_R = (
    _ziggurat.NOR_R, _ziggurat.NOR_INV_R, _ziggurat.EXP_R)
_REAL = (float, int)
_DOUBLE_53 = 1.0 / 9007199254740992.0
_FLOAT_MAX = sys.float_info.max
_EMPTY = memoryview(np.empty(0))


def _jumps(step: tuple[int, int], count: int) -> list[tuple[int, int]]:
    """``(a, c)`` for 0 to *count* repeats of the jump *step*: a jump
    ``(a, c)`` takes ``state`` to ``(a * state + c * inc) mod 2**128``."""
    table = [(1, 0)]
    for _ in range(count):
        a, c = table[-1]
        table.append(((a * step[0]) & _MASK128,
                      (c * step[0] + step[1]) & _MASK128))
    return table


#: Jumps of k and of 32 * k LCG steps, which together reach every
#: word of a block: two tables of 33 entries, not one of 1,025 (136 KB
#: of 128-bit ints).
_JUMPS = _jumps((_PCG64_MULT, 1), 32)
_JUMPS_32 = _jumps(_JUMPS[32], BLOCK_WORDS // 32)


def _decode(words: np.ndarray) -> tuple[memoryview, memoryview, memoryview]:
    """Each raw word as numpy's ``standard_normal()`` fast path would
    return it (NaN where the ziggurat rejects it), as ``random()``, and
    as itself for the draws that decode one word at a time.

    Memoryviews, not lists: indexing one makes the Python float (or
    int) a draw reads, so a block holds 24 KB of machine words instead
    of 3,072 Python objects, and no object is built for an entry
    nothing reads.
    """
    low = (words & 0x1FF).view(np.int64)
    rabs = words >> 9
    rabs &= 0xF_FFFF_FFFF_FFFF
    rabs = rabs.view(np.int64)
    normals = rabs.astype(np.float64)
    normals *= _WI.take(low)
    normals[rabs >= _KI.take(low)] = np.nan
    uniforms = (words >> 11).view(np.int64).astype(np.float64)
    uniforms *= _DOUBLE_53
    return memoryview(normals), memoryview(uniforms), memoryview(words)


class RngStream:
    """One named stream: a numpy ``default_rng`` generator, drawn in blocks.

    The scalar ``standard_normal()``, ``random()``,
    ``exponential(scale > 0)``, ``uniform(low <= high)`` over a finite
    range, ``gamma(shape > 1, scale > 0)`` and the fused :meth:`jitter`
    read the block, slow paths included.  A draw that would read past
    the block's end, every other method and argument form, and
    ``bit_generator.state`` go to the wrapped ``Generator``
    (:meth:`_numpy`).  Either way the values, the order and the state
    dicts are numpy's own.  The class
    wraps rather than subclasses ``Generator``: an inherited C method
    would read the bit generator, which runs a block ahead of the
    stream's logical position.

    The logical position is word ``_i`` of the current block, whose
    first word follows the LCG state ``_base``.  ``_synced`` is the
    block index the real bit generator sits at, so moving it costs a
    state set only when draws happened since it last moved.
    """

    __slots__ = (
        "_gen", "_bitgen", "bit_generator", "_inc", "_base", "_has32",
        "_u32", "_i", "_n", "_normals", "_uniforms", "_raw", "_synced",
        "_gamma", "fallbacks", "refills",
    )

    def __init__(self, generator: np.random.Generator):
        self._gen = generator
        self._bitgen = generator.bit_generator
        self.bit_generator = _StreamState(self)
        self._gamma = (None, 0.0, 0.0)
        #: Draws handed to the wrapped ``Generator``.
        self.fallbacks = 0
        #: Blocks drawn.
        self.refills = 0
        self._adopt()

    # -- served from the block -------------------------------------------
    # The decoded views hold exactly the block's words, so an index
    # past the end raises IndexError: the bounds check costs nothing
    # until the block runs out.

    def random(self, size=None, dtype=np.float64, out=None):
        """``Generator.random``."""
        if size is None and out is None and dtype is np.float64:
            i = self._i
            try:
                u = self._uniforms[i]
            except IndexError:
                self._refill()
                i, u = 0, self._uniforms[0]
            self._i = i + 1
            return u
        return self._numpy(self._gen.random, size, dtype, out)

    def standard_normal(self, size=None, dtype=np.float64, out=None):
        """``Generator.standard_normal``."""
        if size is None and out is None and dtype is np.float64:
            i = self._i
            try:
                x = self._normals[i]
            except IndexError:
                self._refill()
                i, x = 0, self._normals[0]
            if x == x:
                self._i = i + 1
                return x
            return self._normal_slow(i)
        return self._numpy(self._gen.standard_normal, size, dtype, out)

    def _normal_slow(self, i: int) -> float:
        """``standard_normal()`` from word *i*, which the ziggurat's fast
        path rejects: numpy's wedge test, or its tail sampler on layer
        0, then the next word if the wedge rejects too."""
        raw, normals, uniforms = self._raw, self._normals, self._uniforms
        try:
            while True:
                w = raw[i]
                idx = w & 0xFF
                rabs = (w >> 9) & 0xF_FFFF_FFFF_FFFF
                if idx == 0:
                    while True:
                        xx = -_NOR_INV_R * math.log1p(-uniforms[i + 1])
                        yy = -math.log1p(-uniforms[i + 2])
                        i += 2
                        if yy + yy > xx * xx:
                            self._i = i + 1
                            x = _NOR_R + xx
                            return -x if (rabs >> 8) & 1 else x
                x = rabs * _WI_ABS[idx]
                if w & 0x100:
                    x = -x
                f = _FI[idx]
                if (_FI[idx - 1] - f) * uniforms[i + 1] + f < math.exp(
                        -0.5 * x * x):
                    self._i = i + 2
                    return x
                i += 2
                x = normals[i]
                if x == x:
                    self._i = i + 1
                    return x
        except IndexError:
            return self._numpy(self._gen.standard_normal)

    def exponential(self, scale=1.0, size=None):
        """``Generator.exponential``: numpy's exponential ziggurat on the
        block's raw words, ``scale`` applied last."""
        if size is None and type(scale) is float and scale > 0.0:
            i = self._i
            raw = self._raw
            try:
                w = raw[i]
            except IndexError:
                self._refill()
                i, raw = 0, self._raw
                w = raw[0]
            try:
                while True:
                    ri = w >> 11
                    idx = (w >> 3) & 0xFF
                    x = ri * _WE[idx]
                    if ri < _KE[idx]:
                        self._i = i + 1
                        return scale * x
                    if idx == 0:
                        x = _EXP_R - math.log1p(-self._uniforms[i + 1])
                        self._i = i + 2
                        return scale * x
                    f = _FE[idx]
                    if (_FE[idx - 1] - f) * self._uniforms[i + 1] + f < (
                            math.exp(-x)):
                        self._i = i + 2
                        return scale * x
                    i += 2
                    w = raw[i]
            except IndexError:
                pass
        return self._numpy(self._gen.exponential, scale, size)

    def uniform(self, low=0.0, high=1.0, size=None):
        """``Generator.uniform``: ``low + (high - low) * random()``."""
        if (size is None and type(low) in _REAL and type(high) in _REAL
                and abs(low) <= _FLOAT_MAX and abs(high) <= _FLOAT_MAX):
            start = float(low)
            span = float(high) - start
            # numpy raises OverflowError on an infinite range and
            # ValueError on a negative one, -0.0 included.
            if math.isfinite(span) and math.copysign(1.0, span) > 0.0:
                return start + span * self.random()
        return self._numpy(self._gen.uniform, low, high, size)

    def jitter(self, latency: float, sigma: float, tail_p: float,
               tail_scale: float) -> float:
        """One access's jittered latency, clamped to at least 1 cycle.

        ``latency + sigma * standard_normal()``, plus
        ``exponential(tail_scale)`` when the following ``random()`` is
        below *tail_p*, in one call.  This is the one copy of the jitter
        draw sequence: :meth:`~repro.mem.latency.NoiseModel.sample`,
        ``Machine._jitter``, the worker driver's inline L1 hit and
        calibration's replay all call it.
        """
        i = self._i
        try:
            x = self._normals[i]
            u = self._uniforms[i + 1]
        except IndexError:
            x = math.nan
        if x == x:
            self._i = i + 2
        else:
            x = self.standard_normal()
            u = self.random()
        value = latency + sigma * x
        if u < tail_p:
            value += self.exponential(tail_scale)
        return value if value > 1.0 else 1.0

    def gamma(self, shape, scale=1.0, size=None):
        """``Generator.gamma``; for ``shape > 1`` numpy's Marsaglia–Tsang
        loop runs here, in numpy's expression order."""
        if (size is None and type(shape) is float and type(scale) is float
                and shape > 1.0 and scale > 0.0):
            cached, b, c = self._gamma
            if cached != shape:
                b = shape - 1.0 / 3.0
                c = 1.0 / math.sqrt(9 * b)
                self._gamma = (shape, b, c)
            while True:
                i = self._i
                try:
                    x = self._normals[i]
                    u = self._uniforms[i + 1]
                except IndexError:
                    x = math.nan
                if x == x:
                    v = 1.0 + c * x
                    if v <= 0.0:
                        self._i = i + 1
                        continue
                    self._i = i + 2
                else:
                    x = self.standard_normal()
                    v = 1.0 + c * x
                    if v <= 0.0:
                        continue
                    u = self.random()
                v = v * v * v
                xx = x * x
                if u < 1.0 - 0.0331 * xx * xx:
                    return scale * (b * v)
                # log(0) is -inf in C; math.log raises instead.
                log_u = math.log(u) if u > 0.0 else -math.inf
                if log_u < 0.5 * x * x + b * (1.0 - v + math.log(v)):
                    return scale * (b * v)
        return self._numpy(self._gen.gamma, shape, scale, size)

    # -- everything else: numpy at the logical position ------------------

    def __getattr__(self, name: str):
        if name.startswith("_"):
            raise AttributeError(name)
        attr = getattr(self._gen, name)
        return functools.partial(self._numpy, attr) if callable(attr) else attr

    def _numpy(self, method, *args, **kwargs):
        """Call a ``Generator`` *method* from the stream's logical
        position, then step the cursor past the words it consumed."""
        i = self._i
        state = self._lcg(i)
        bitgen = self._bitgen
        if self._synced != i:
            bitgen.state = self._state_dict(state)
        self.fallbacks += 1
        try:
            return method(*args, **kwargs)
        finally:
            # Also after a raise: the cursor follows the bit generator.
            after = bitgen.state
            self._has32 = after["has_uint32"]
            self._u32 = after["uinteger"]
            target = after["state"]["state"]
            inc, n = self._inc, self._n
            while state != target and i < n:
                state = (state * _PCG64_MULT + inc) & _MASK128
                i += 1
            if state == target:
                self._i = self._synced = i
            else:
                # Consumed past the block: drop it; the next starts here.
                self._base = target
                self._i = self._n = self._synced = 0
                self._normals = self._uniforms = self._raw = _EMPTY

    # -- block and state bookkeeping -------------------------------------

    def _lcg(self, k: int) -> int:
        """The LCG state after word *k* of the current block."""
        inc = self._inc
        a, c = _JUMPS[k & 31]
        state = (a * self._base + c * inc) & _MASK128
        a, c = _JUMPS_32[k >> 5]
        return (a * state + c * inc) & _MASK128

    def _state_dict(self, state: int) -> dict:
        return {
            "bit_generator": "PCG64",
            "state": {"state": state, "inc": self._inc},
            "has_uint32": self._has32, "uinteger": self._u32,
        }

    def _refill(self) -> None:
        """Draw and decode the block after the current one, which the
        cursor has reached the end of."""
        n = self._n
        base = self._lcg(n)
        if self._synced != n:
            self._bitgen.state = self._state_dict(base)
        self._normals, self._uniforms, self._raw = _decode(
            self._bitgen.random_raw(BLOCK_WORDS))
        self.refills += 1
        self._base, self._i = base, 0
        self._n = self._synced = BLOCK_WORDS

    def _adopt(self) -> None:
        """Take the bit generator's own state as the logical position."""
        state = self._bitgen.state
        self._base = state["state"]["state"]
        self._inc = state["state"]["inc"]
        self._has32 = state["has_uint32"]
        self._u32 = state["uinteger"]
        self._i = self._n = self._synced = 0
        self._normals = self._uniforms = self._raw = _EMPTY


class _StreamState:
    """``RngStream.bit_generator``: numpy's PCG64 state dict at the
    stream's logical position, for snapshots, restores and checkpoints."""

    __slots__ = ("_stream",)

    def __init__(self, stream: RngStream):
        self._stream = stream

    @property
    def state(self) -> dict:
        stream = self._stream
        return stream._state_dict(stream._lcg(stream._i))

    @state.setter
    def state(self, value: dict) -> None:
        # numpy validates and normalises the dict.
        stream = self._stream
        stream._bitgen.state = value
        stream._adopt()


class RngStreams:
    """A registry of named, independently-seeded :class:`RngStream` objects.

    Parameters
    ----------
    seed:
        Root seed for the whole simulation.  Streams are derived from it
        by hashing the stream name, so stream identity depends only on
        ``(seed, name)``.
    """

    def __init__(self, seed: int = 0):
        if not isinstance(seed, int):
            raise TypeError(f"seed must be an int, got {type(seed).__name__}")
        self._seed = seed
        self._streams: dict[str, RngStream] = {}

    @property
    def seed(self) -> int:
        """The root seed this registry was created with."""
        return self._seed

    def get(self, name: str) -> RngStream:
        """Return the stream for *name*, creating it on first use.

        The same name always returns the same stream object, so
        consumers may call :meth:`get` eagerly or lazily with identical
        results.
        """
        stream = self._streams.get(name)
        if stream is None:
            # Derive a child seed from (root seed, name) only.  Using
            # spawn() would make stream identity depend on creation order.
            name_digest = np.frombuffer(
                name.encode("utf-8").ljust(8, b"\0")[:8], dtype=np.uint64
            )[0]
            seq = np.random.SeedSequence(
                entropy=self._seed, spawn_key=(int(name_digest), len(name))
            )
            stream = RngStream(np.random.default_rng(seq))
            self._streams[name] = stream
        return stream

    def snapshot(self) -> dict[str, dict]:
        """Capture the exact state of every stream created so far.

        The returned mapping (stream name -> bit-generator state dict) is
        a deep copy, so later draws do not mutate it.  Together with
        :meth:`restore` this lets a caller skip a deterministic block of
        work — e.g. a memoized calibration pass — while leaving the
        generators exactly where really doing the work would have left
        them, which is what keeps downstream draws bit-identical.
        """
        import copy

        return {
            name: copy.deepcopy(stream.bit_generator.state)
            for name, stream in self._streams.items()
        }

    def restore(self, states: dict[str, dict]) -> None:
        """Set streams to a :meth:`snapshot` taken from an equal registry.

        Streams named in *states* are created on demand; streams we have
        that the snapshot lacks are left untouched (the snapshot was
        taken after strictly more work, so such streams cannot exist when
        restoring onto an identically-constructed registry).
        """
        import copy

        for name, state in states.items():
            self.get(name).bit_generator.state = copy.deepcopy(state)

    def fork(self, salt: int) -> "RngStreams":
        """Return a new registry whose streams are independent of ours.

        Used to give repeated experiment trials (e.g. one per sweep point)
        their own noise without re-seeding global state.
        """
        return RngStreams(seed=(self._seed * 1_000_003 + salt) & 0x7FFF_FFFF)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RngStreams(seed={self._seed}, streams={sorted(self._streams)})"
