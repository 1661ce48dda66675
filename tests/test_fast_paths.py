"""One differential harness for every fast path.

Which (location, state) combination a load hits decides every result
the reproduction reports, so each fast path must reproduce the plain
reference bit for bit.  Each Hypothesis example draws a point — a
registry cell, a seed, a rate in the cell's range, a 4–8-bit payload,
on the cells ``matrix_cold`` runs noisy 0–2 noise threads, and on some
points a simulation fault plan — and runs it on the **reference** path:

* :func:`clear_warm_state` first, so the machine is fresh and the
  calibration cold;
* the generator programs, reached by emptying ``drivers.DRIVERS``;
* no tracing, no segmentation, in-process.

Then one variant per fast path runs the same point:

1. ``driven`` — the channel drivers;
2. ``warm`` — a pooled machine, left behind by a prior point with
   another seed on the same machine config;
3. ``memo`` — the same point run twice: the second run hits the
   calibration memo (a faulted point calibrates cold both times);
4. ``segmented`` — segmentation armed (``REPRO_SEGMENT_CYCLES``, a
   temporary segment store), on the channel drivers: an unfaulted point
   stores segments, a faulted one none (its fault threads run
   undriven); ``resumed`` runs the point again on that store and
   resumes from its newest segment, driven too;
5. ``streamed`` — tracing on, a :class:`StreamingDetector` subscribed,
   run driven and again on the generator programs: both runs must
   record the same trace digest and give the detector the same events
   and scores;
6. ``production`` — the default: drivers, warm machine and memo hit
   together.

Each variant's result must equal the reference's as a pickle with its
``compare=False`` fields (the manifest) blanked, ``resumed`` included,
and by :func:`transmission_digest`; where the reference raises, the
variant must raise the same exception type.  After the reference and after
every variant, :func:`check_machine` must pass on the pooled machine
the run leaves behind, on every protocol backend the draw reaches.
The five golden configs are explicit examples whose reference must also
land on its pinned digest; a fixed faulted example puts every
simulation fault kind through each variant.
:func:`test_pool_dispatch_matches_serial` covers chunked dispatch, and
:func:`test_arena_legs_match_traced_reference` the arena's attack legs,
which trace only their transmission and calibrate through the memo.

Every variant is reached through a test seam — ``clear_warm_state``,
``clear_calibration_memo``, the ``DRIVERS`` table, ``Runner(chunk_size=)``
— never through an option of the product.
"""

import pickle
import tempfile
from contextlib import contextmanager
from dataclasses import fields, replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.channel import session as session_module
from repro.channel.calibration import clear_calibration_memo
from repro.channel.config import scenario_by_name
from repro.channel.scenarios import SCENARIOS
from repro.channel.session import (
    SessionConfig,
    clear_warm_state,
    execute_point,
    resolve_spec,
)
from repro.detection import StreamingDetector
from repro.errors import ReproError
from repro.experiments import arena
from repro.experiments.common import payload_bits
from repro.faults import FaultPlan
from repro.faults.plan import SIMULATION_KINDS
from repro.mem.hierarchy import MachineConfig
from repro.mem.invariants import check_machine
from repro.obs import TraceRecorder
from repro.runner import ExperimentSpec, Point, Runner, auto_chunk_size
from repro.sim import drivers

from tests.test_golden_determinism import (
    CONFIGS,
    GOLDEN,
    PAYLOAD,
    transmission_digest,
)

#: Calibration samples of a drawn point (the golden configs pin 150).
SAMPLES = 120


def golden_point(name: str) -> dict:
    """The ``execute_point`` form of one golden config."""
    config = CONFIGS[name]
    if isinstance(config, str):
        target = {"spec": config}
    else:
        machine_kwargs, scenario = config
        target = {
            "spec": resolve_spec(scenario_by_name(scenario)),
            "machine": MachineConfig(**machine_kwargs),
        }
    return {**target, "payload": list(PAYLOAD), "seed": 7,
            "calibration_samples": 150}


def faulted(seed: int, rate_per_mcycle: float, kinds=SIMULATION_KINDS) -> dict:
    """The ``execute_point`` fault options of one simulation plan.

    No warm-up and no retry: the plan is installed at the start of the
    one transmission attempt, so its spec-less fault threads are live
    whenever that attempt could be segmented.
    """
    plan = FaultPlan.build_simulation(
        seed=seed, rate_per_mcycle=rate_per_mcycle,
        window_cycles=100_000.0, kinds=tuple(kinds),
    )
    return {"faults": plan.to_json(), "warmup_bits": 0, "resync_attempts": 0}


@st.composite
def points(draw) -> dict:
    """One ``execute_point`` call on a registry cell.

    Rates span half to one and a half times the cell's nominal rate.
    LRU cells run clean, as in ``matrix_cold``: their eviction sweeps
    stretch a point over ten times the cycles the noise workloads then
    have to fill.  Some points carry a simulation fault plan of 2–20
    faults over one or more kinds.
    """
    cell = draw(st.sampled_from(sorted(SCENARIOS)))
    nominal = SCENARIOS[cell].default_params().nominal_rate_kbps
    noise = 0 if cell.endswith("-lru") else draw(st.integers(0, 2))
    point = {
        "spec": cell,
        "seed": draw(st.integers(0, 10_000)),
        "rate_kbps": float(draw(st.integers(
            round(nominal / 2), round(nominal * 3 / 2)))),
        "payload": draw(st.lists(st.integers(0, 1), min_size=4, max_size=8)),
        "noise_threads": noise,
        "warmup_bits": 8 if noise else 0,
        "calibration_samples": SAMPLES,
    }
    if draw(st.booleans()):
        point.update(faulted(
            seed=draw(st.integers(0, 10_000)),
            rate_per_mcycle=float(draw(st.integers(20, 200))),
            kinds=draw(st.lists(st.sampled_from(SIMULATION_KINDS),
                                min_size=1, unique=True)),
        ))
    return point


def run(point: dict, **overrides):
    """``execute_point`` on *point*: its result, or the type it raised.

    Postcondition: every coherence invariant holds on the machine the
    run left in the pool (:func:`check_machine`).
    """
    try:
        outcome = execute_point(**{**point, **overrides})
    except ReproError as exc:
        outcome = type(exc)
    assert session_module._MACHINE_POOL, "no pooled machine to check"
    for machine in session_module._MACHINE_POOL.values():
        check_machine(machine)
    return outcome


def blanked(result) -> bytes:
    """*result*'s pickle with its ``compare=False`` fields blanked."""
    hidden = {f.name: None for f in fields(result) if not f.compare}
    return pickle.dumps(replace(result, **hidden))


def assert_matches(name: str, variant, reference) -> None:
    if isinstance(reference, type):
        assert variant is reference, f"{name}: expected {reference.__name__}"
        return
    assert not isinstance(variant, type), f"{name} raised {variant.__name__}"
    assert transmission_digest(variant) == transmission_digest(reference), name
    assert blanked(variant) == blanked(reference), name


@contextmanager
def streamed(feeds: list):
    """Trace every new session, with a live detector on its feed;
    each session's ``(recorder, detector)`` is appended to *feeds*."""
    def recorder() -> TraceRecorder:
        feed = TraceRecorder()
        detector = StreamingDetector(scan_interval=100_000.0)
        feed.subscribe(detector)
        feeds.append((feed, detector))
        return feed

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(session_module, "TraceRecorder", recorder)
        mp.setenv("REPRO_TRACE", "1")
        yield


def fast_path_results(point: dict) -> tuple[object, dict]:
    """The reference outcome of *point* and each variant's outcome,
    after asserting that every variant really took its fast path."""
    variants: dict = {}
    faults = point.get("faults") is not None
    with pytest.MonkeyPatch.context() as generators:
        generators.setattr(drivers, "DRIVERS", {})
        clear_warm_state()
        reference = run(point)
        ok = not isinstance(reference, type)
        variants["memo"] = run(point)
        # One stored pass: the second run hit it instead of adding one.
        # A faulted session calibrates cold and stores none.
        memoized = clear_calibration_memo()
        assert not ok or memoized == (0 if faults else 1), "memo not hit"
        clear_warm_state()
        run(point, seed=point["seed"] + 1)
        variants["warm"] = run(point)
        pooled = clear_warm_state()
        assert pooled == 1, "machine not pooled"

    with pytest.MonkeyPatch.context() as mp, tempfile.TemporaryDirectory() as tmp:
        # A boundary inside every transmission, and no more: each
        # capture pickles the whole session, noise workloads included.
        cycles = reference.cycles if ok else 25_000.0
        mp.setenv("REPRO_CACHE_DIR", tmp)
        mp.setenv("REPRO_SEGMENT_CYCLES", str(cycles))
        variants["segmented"] = run(point)
        clear_warm_state()
        variants["resumed"] = run(point)
    if ok:
        # _segmentable: an attempt that starts with undriven threads
        # live (fault injectors) runs unsegmented and stores nothing.
        stored = variants["segmented"].manifest.segments_stored
        assert (stored == 0) if faults else (stored > 0), stored
        resumed_from = variants["resumed"].manifest.resumed_from
        assert (resumed_from is None) is faults, resumed_from

    streams = {}
    for driven in (True, False):
        feeds: list = []
        clear_warm_state()
        with pytest.MonkeyPatch.context() as mp, streamed(feeds):
            if not driven:
                mp.setattr(drivers, "DRIVERS", {})
            outcome = run(point)
        streams[driven] = (outcome, *feeds[-1])
    variants["streamed"], feed, detector = streams[True]
    variants["streamed-generator"], generator_feed, generator_detector = (
        streams[False]
    )
    assert not ok or detector.events > 0, "detector saw no events"
    assert feed.digest() == generator_feed.digest(), "streamed trace"
    assert detector.events == generator_detector.events
    assert detector.score_all() == generator_detector.score_all()

    clear_warm_state()
    variants["driven"] = run(point)
    variants["production"] = run(point)
    clear_warm_state()
    if ok:
        for name in ("driven", "production", "streamed", "segmented",
                     "resumed"):
            assert variants[name].manifest.engine == "driven", name
    return reference, variants


@settings(max_examples=3, deadline=None)
@given(point=points(), golden=st.none())
@example(point=golden_point("mesi_default"), golden=GOLDEN["mesi_default"])
@example(point=golden_point("llc_direct_e_response"),
         golden=GOLDEN["llc_direct_e_response"])
@example(point=golden_point("home_agent"), golden=GOLDEN["home_agent"])
@example(point=golden_point("directory_backend"),
         golden=GOLDEN["directory_backend"])
@example(point=golden_point("moesi_ostate"), golden=GOLDEN["moesi_ostate"])
@example(point={
    # No golden config runs MESIF; this noisy point puts the fourth
    # backend under the check_machine postcondition on every run.
    "spec": "mesif-es", "seed": 11, "rate_kbps": 342.0,
    "payload": payload_bits(8, seed=11), "noise_threads": 2,
    "warmup_bits": 8, "calibration_samples": SAMPLES,
}, golden=None)
@example(point={
    # Twenty faults of all four simulation kinds: forced preemption,
    # KSM unmerges, third-party touches and latency spikes under every
    # variant, the drivers included.
    "spec": "mesi-es", "seed": 7, "payload": payload_bits(8, seed=7),
    "calibration_samples": SAMPLES, **faulted(seed=7, rate_per_mcycle=200.0),
}, golden=None)
def test_every_fast_path_matches_reference(point, golden):
    with pytest.MonkeyPatch.context() as env:
        # No tracing or segmentation unless a variant arms it.
        env.delenv("REPRO_TRACE", raising=False)
        env.delenv("REPRO_SEGMENT_CYCLES", raising=False)
        reference, variants = fast_path_results(point)
    if golden is not None:
        assert transmission_digest(reference) == golden
    for name, variant in variants.items():
        assert_matches(name, variant, reference)


def test_pool_dispatch_matches_serial():
    """One future per point and auto-sized seed-grouped chunks both
    reproduce the serial grid, warm workers and memo hits included."""
    grid = tuple(
        Point(fn="repro.channel.session:execute_point", params={
            "spec": cell, "payload": payload_bits(4, seed=seed),
            "rate_kbps": rate, "seed": seed,
            "calibration_samples": SAMPLES,
        })
        for cell in ("mesi-es", "dir-ostate")
        for seed in (0, 1)
        for rate in (300.0, 400.0, 500.0, 600.0)
    )
    assert auto_chunk_size(len(grid), 2) > 1
    spec = ExperimentSpec(experiment="fast-paths", points=grid)
    clear_warm_state()
    serial = Runner(jobs=1).run(spec).values
    for chunk_size in (1, None):
        # Forked workers would inherit this process's warm state.
        clear_warm_state()
        pooled = Runner(jobs=2, chunk_size=chunk_size).run(spec).values
        for one, other in zip(pooled, serial):
            assert_matches(f"chunk_size={chunk_size}", one, other)


#: One 8-bit attack leg per non-LRU live cell at one seed, then a
#: throttled, a partially obfuscated and one 4-bit LRU leg.
ARENA_LEGS = [
    {"workload": f"attack:{cell}", "seed": 5, "bits": 8}
    for cell in arena.live_cells() if not cell.endswith("-lru")
] + [
    {"workload": "attack:mesi-es", "seed": 5, "bits": 8, "rate_scale": 0.5},
    {"workload": "attack:dir-es", "seed": 5, "bits": 8, "obf_width": 0.5},
    {"workload": "attack:mesi-lru", "seed": 5, "bits": 4},
]


def traced_reference(leg: dict) -> dict:
    """*leg*'s row from a session traced from construction, with a cold
    calibration, the detector subscribed after construction."""
    def config(**kwargs) -> SessionConfig:
        return SessionConfig(**{**kwargs, "trace": True})

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(arena, "SessionConfig", config)
        return arena.point(**leg)


def test_arena_legs_match_traced_reference():
    """An arena attack row does not depend on when tracing started or on
    what ran before it in the process (calibration memo)."""
    with pytest.MonkeyPatch.context() as env:
        env.delenv("REPRO_TRACE", raising=False)
        env.delenv("REPRO_SEGMENT_CYCLES", raising=False)
        clear_warm_state()
        for leg in ARENA_LEGS:
            row = arena.point(**leg)
            assert row["events"] > 0, leg
            assert row == traced_reference(leg), leg
        # Another cell and seed on the same MOESI backend between two
        # runs of one leg: the second run hits the memo the first run
        # stored.
        first = {"workload": "attack:moesi-es", "seed": 5, "bits": 8}
        other = {"workload": "attack:moesi-ostate", "seed": 6, "bits": 8}
        clear_warm_state()
        alone = arena.point(**first)
        arena.point(**other)
        assert arena.point(**first) == alone
        clear_warm_state()
