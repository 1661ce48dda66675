"""The four benchmark workloads and what a correct point result is.

A workload is a fixed setup (points run once, before timing) plus a list
of *passes*.  The timed phase walks the passes in order, wrapping round
at the end, and runs each pass as one serial ``Runner.run``.  The run's
``--seed`` only shuffles the order of points inside each pass, so every
seed measures the same set of points and every point result can be
checked against a digest pinned in ``pins.json``.

Why each workload exists is recorded in ``README.md``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

from repro.experiments.arena import live_cells
from repro.experiments.common import payload_bits
from repro.runner import Point

EXECUTE_POINT = "repro.channel.session:execute_point"
ARENA_POINT = "repro.experiments.arena:point"

PINS_PATH = Path(__file__).resolve().parent / "pins.json"

#: The two Fig. 8 scenarios the sweep and the replay grid use.
FIG8_SCENARIOS = ("LExclc-LSharedb", "RExclc-LSharedb")

#: Seed columns in the matrix and arena pools (one pass per column), and
#: the passes the Fig. 8 grid is split into.  A pass is a few seconds, so
#: a run stops within a few seconds of its length.
MATRIX_COLUMNS = 12
ARENA_COLUMNS = 17
FIG8_PASSES = 10


@dataclass(frozen=True)
class Workload:
    name: str
    #: Points run once before timing (the cold part of set-up time).
    setup: tuple[Point, ...]
    #: Timed passes, walked in order and wrapped round.
    passes: tuple[tuple[Point, ...], ...]
    #: Clear the calibration memo before each pass, so every timed
    #: point calibrates cold even when a pass repeats.
    cold: bool = False
    #: Timed passes look up the set-up cache instead of executing.
    replay: bool = False


def point_label(params: dict) -> str:
    """The identity a point's spans, pins and progress lines share."""
    parts = [str(params[k]) for k in ("scenario", "spec", "workload") if k in params]
    if "rate_kbps" in params:
        parts.append(f"{params['rate_kbps']:g}K")
    parts.append(f"s{params['seed']}")
    if params.get("noise_threads"):
        parts.append(f"n{params['noise_threads']}")
    return "/".join(parts)


def _point(fn: str, **params) -> Point:
    return Point(fn=fn, params=params, label=point_label(params))


def _fig8_point(scenario: str, rate: int) -> Point:
    return _point(EXECUTE_POINT, scenario=scenario, payload=payload_bits(100),
                  rate_kbps=float(rate), seed=0)


def _matrix_point(cell: str, seed: int, noise: int) -> Point:
    extra = {"noise_threads": noise, "warmup_bits": 8} if noise else {}
    return _point(EXECUTE_POINT, spec=cell, payload=payload_bits(24),
                  seed=seed, **extra)


def _arena_point(cell: str, seed: int) -> Point:
    return _point(ARENA_POINT, workload=f"attack:{cell}", seed=seed, bits=8)


def fig8_sweep(smoke: bool = False) -> Workload:
    rates = (1200, 1500) if smoke else range(100, 1600, 25)
    # Pass j takes every FIG8_PASSES-th rate on both scenarios, so each
    # pass spans the whole rate range and costs about the same.
    passes = 1 if smoke else FIG8_PASSES
    return Workload("fig8_sweep", setup=(_fig8_point("RExclc-LSharedb", 800),),
                    passes=tuple(tuple(_fig8_point(s, r) for r in rates[j::passes]
                                       for s in FIG8_SCENARIOS)
                                 for j in range(passes)))


def matrix_cold(smoke: bool = False) -> Workload:
    cells = live_cells()
    noisy = [c for c in cells if not c.endswith("-lru")]

    def column(c: int) -> tuple[Point, ...]:
        # E/S and O-state cells rotate 0/1/2 noise threads so every pass
        # holds two cells at each level; LRU cells run clean (README).
        return tuple(
            _matrix_point(
                cell, 100 + len(cells) * c + i,
                0 if cell not in noisy else (noisy.index(cell) + c) % 3,
            )
            for i, cell in enumerate(cells)
        )

    setup = (_matrix_point("mesi-es", 90, 0),)
    if smoke:
        keep = ("mesi-es", "mesi-lru", "dir-ostate")
        passes = (tuple(p for p in column(0) if p.params["spec"] in keep),)
    else:
        passes = tuple(column(c) for c in range(MATRIX_COLUMNS))
    return Workload("matrix_cold", setup=setup, passes=passes, cold=True)


def traced_arena(smoke: bool = False) -> Workload:
    cells = [c for c in live_cells() if not c.endswith("-lru")]
    columns = 1 if smoke else ARENA_COLUMNS
    passes = tuple(
        tuple(_arena_point(cell, 500 + len(cells) * c + i)
              for i, cell in enumerate(cells))
        for c in range(columns)
    )
    if smoke:
        passes = ((passes[0][0], passes[0][-1]),)
    return Workload("traced_arena", setup=(_arena_point("mesi-es", 499),),
                    passes=passes, cold=True)


def cache_replay(smoke: bool = False) -> Workload:
    rates = (1200, 1500) if smoke else range(600, 1600, 50)
    grid = tuple(_fig8_point(s, r) for s in FIG8_SCENARIOS for r in rates)
    return Workload("cache_replay", setup=grid, passes=(grid,), replay=True)


WORKLOADS = {
    "fig8_sweep": fig8_sweep,
    "matrix_cold": matrix_cold,
    "traced_arena": traced_arena,
    "cache_replay": cache_replay,
}


def build(name: str, smoke: bool = False) -> Workload:
    try:
        return WORKLOADS[name](smoke)
    except KeyError:
        raise SystemExit(f"unknown workload {name!r}; choose from {sorted(WORKLOADS)}")


def all_points(workload: Workload) -> list[Point]:
    """Every distinct point the workload can run, setup first."""
    seen: dict[str, Point] = {}
    for point in (*workload.setup, *(p for ps in workload.passes for p in ps)):
        seen.setdefault(point.label, point)
    return list(seen.values())


def result_digest(value) -> str:
    """sha256 over sent bits, received bits, samples and cycles.

    Arena rows are plain dicts and are hashed as canonical JSON.  Floats
    serialize through ``repr``, so the digest moves with the last bit.
    """
    if isinstance(value, dict):
        blob = json.dumps(value, sort_keys=True, separators=(",", ":"))
    else:
        samples = [
            [s.timestamp, s.latency, s.label, getattr(s.path, "value", s.path)]
            for s in value.samples
        ]
        blob = json.dumps([value.sent, value.received, samples, value.cycles],
                          separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def accuracy_and_rate(value) -> tuple[float, float]:
    """Simulated raw-bit accuracy and achieved rate (Kbit/s) of a result."""
    if isinstance(value, dict):
        return value["accuracy"], value["rate_kbps"]
    return value.accuracy, value.achieved_rate_kbps


def load_pins() -> dict[str, str]:
    with open(PINS_PATH) as fh:
        return json.load(fh)
