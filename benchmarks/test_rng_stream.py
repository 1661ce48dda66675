"""Per-draw cost of the simulator's RNG streams against numpy's scalar calls.

Every simulated access draws its latency jitter (a standard normal, a
uniform and, rarely, an exponential), and every queued coherence
transaction a ``gamma(2, s)`` delay.  :class:`~repro.sim.rng.RngStream`
serves these, and ``exponential`` and ``uniform`` on their own, from
blocks of PCG64 words, slow paths included; numpy's ``Generator``
serves each draw with its own C call.  Each benchmark times 20,000
draws from a freshly seeded source, one side per parameter, and then
asserts that both sides drew exactly the same values.  Nothing here
asserts a time.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.mem.latency import NoiseModel
from repro.sim.rng import RngStream

DRAWS = 20_000
SEED = 11
NOISE = NoiseModel()


def _stream_jitter(stream: RngStream) -> list[float]:
    jitter = stream.jitter
    sigma, tail_p, tail_s = (
        NOISE.sigma, NOISE.tail_probability, NOISE.tail_scale)
    return [jitter(98.0, sigma, tail_p, tail_s) for _ in range(DRAWS)]


def _numpy_jitter(gen: np.random.Generator) -> list[float]:
    normal, uniform, exponential = (
        gen.standard_normal, gen.random, gen.exponential)
    sigma, tail_p, tail_s = (
        NOISE.sigma, NOISE.tail_probability, NOISE.tail_scale)
    out = []
    for _ in range(DRAWS):
        value = 98.0 + sigma * normal()
        if uniform() < tail_p:
            value += exponential(tail_s)
        out.append(value if value > 1.0 else 1.0)
    return out


def _gamma(source) -> list[float]:
    gamma = source.gamma
    return [gamma(2.0, 7.5) for _ in range(DRAWS)]


def _normal(source) -> list[float]:
    normal = source.standard_normal
    return [normal() for _ in range(DRAWS)]


def _exponential(source) -> list[float]:
    exponential = source.exponential
    return [exponential(25.0) for _ in range(DRAWS)]


def _uniform(source) -> list[float]:
    uniform = source.uniform
    return [uniform(0.5, 2.0) for _ in range(DRAWS)]


SOURCES = {
    "stream": lambda: RngStream(np.random.default_rng(SEED)),
    "numpy": lambda: np.random.default_rng(SEED),
}
JITTER = {"stream": _stream_jitter, "numpy": _numpy_jitter}


def _timed(benchmark, draw, side: str) -> list[float]:
    return benchmark.pedantic(
        draw, setup=lambda: ((SOURCES[side](),), {}), rounds=15)


@pytest.mark.parametrize("side", sorted(SOURCES))
def test_jitter_draw(benchmark, side):
    values = _timed(benchmark, JITTER[side], side)
    assert values == _numpy_jitter(SOURCES["numpy"]())
    assert values == _stream_jitter(SOURCES["stream"]())


@pytest.mark.parametrize("side", sorted(SOURCES))
def test_gamma_draw(benchmark, side):
    values = _timed(benchmark, _gamma, side)
    assert values == _gamma(SOURCES["numpy"]()) == _gamma(SOURCES["stream"]())


@pytest.mark.parametrize("draw", [_normal, _exponential, _uniform],
                         ids=["standard_normal", "exponential", "uniform"])
@pytest.mark.parametrize("side", sorted(SOURCES))
def test_scalar_draw(benchmark, side, draw):
    values = _timed(benchmark, draw, side)
    assert values == draw(SOURCES["numpy"]()) == draw(SOURCES["stream"]())
