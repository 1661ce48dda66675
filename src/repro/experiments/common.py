"""Shared plumbing for the experiment drivers.

Every driver module declares its grid and its presentation, nothing
more:

* ``NAME`` — its :data:`~repro.experiments.REGISTRY` key, and
  ``POINT_FN`` — the ``"module:function"`` path of ``point``;
* ``point(**params)`` — the top-level per-grid-point function the
  runner executes (in-process or in a worker);
* ``build_spec(**kwargs) -> ExperimentSpec`` — declares the grid;
* ``add_arguments(parser)`` / ``spec_from_args(args)`` — the driver's
  CLI options and the grid they select;
* ``collect(spec, values) -> dict`` — reassembles point values into the
  figure-shaped result dict;
* ``render(result) -> str`` — the paper-style text table.

The entry points are written once, here: :func:`run` executes a spec
in-process and :func:`main` is the CLI glue that adds the shared
runner options (``--jobs``, ``--no-cache``, ``--cache-dir``, ...).
"""

from __future__ import annotations

import argparse
import os

import numpy as np

from repro.channel.config import TABLE_I, ProtocolParams, Scenario
from repro.experiments import REGISTRY

#: Bit rates swept in Figure 8 (Kbits/s).
FIG8_RATES = (100, 200, 300, 400, 500, 600, 700, 800, 900, 1000)

#: Co-located kernel-build thread counts of Figure 9.
FIG9_NOISE_LEVELS = (0, 1, 2, 4, 6, 8)

#: Noise levels of Figure 10 (none / medium / high).  The paper uses 4
#: and 8 kernel-build threads; our substrate's raw bit-error rate at
#: those levels is far above the regime where the paper's
#: detect-and-retransmit protocol operates (see EXPERIMENTS.md), so the
#: driver's medium/high points use 2 and 4 threads.
FIG10_NOISE = {"no-noise": 0, "medium": 2, "high": 4}


def payload_bits(n: int, seed: int = 2018) -> list[int]:
    """The pseudo-random bit pattern the trojan transmits (Figure 6).

    The paper transmits a fixed 100-bit secret; we generate it from a
    fixed seed so every experiment and test sees the same pattern.
    """
    rng = np.random.default_rng(seed)
    return [int(b) for b in rng.integers(0, 2, n)]


def default_params() -> ProtocolParams:
    """Protocol knobs used by the reception experiments."""
    return ProtocolParams()


def scenario_argument(parser: argparse.ArgumentParser) -> None:
    """Add the --scenario option accepting Table I notation."""
    parser.add_argument(
        "--scenario",
        choices=[s.name for s in TABLE_I] + ["all"],
        default="all",
        help="Table I scenario to run (default: all six)",
    )


def selected_scenarios(name: str) -> list[Scenario]:
    """Resolve a --scenario argument into scenario objects."""
    if name == "all":
        return list(TABLE_I)
    return [s for s in TABLE_I if s.name == name]


def protocol_argument(parser: argparse.ArgumentParser) -> None:
    """Add the uniform --protocol option (registered protocol names)."""
    from repro.mem.protocols import PROTOCOLS

    parser.add_argument(
        "--protocol",
        choices=sorted(PROTOCOLS),
        default=None,
        help="coherence protocol to run the machine under "
             "(default: the scenario's own, usually mesi)",
    )


def common_arguments(parser: argparse.ArgumentParser) -> None:
    """Options shared by every driver."""
    parser.add_argument("--seed", type=int, default=0, help="root RNG seed")
    parser.add_argument(
        "--bits", type=int, default=100,
        help="payload length in bits (default matches the paper's 100)",
    )
    protocol_argument(parser)


def runner_arguments(parser: argparse.ArgumentParser) -> None:
    """The shared execution options every experiment command accepts."""
    group = parser.add_argument_group("runner")
    group.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes for the point grid (0 = all CPUs)",
    )
    group.add_argument(
        "--no-cache", action="store_true",
        help="bypass the on-disk result cache",
    )
    group.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="result-cache root (default: $REPRO_CACHE_DIR or "
             "~/.cache/repro/results)",
    )
    group.add_argument(
        "--no-progress", action="store_true",
        help="suppress per-point progress lines on stderr",
    )
    group.add_argument(
        "--chunk-size", type=int, default=None, metavar="N",
        help="points per worker dispatch when --jobs > 1 (default: "
             "auto-sized from grid size and jobs; 1 restores "
             "one-future-per-point dispatch)",
    )
    group.add_argument(
        "--retries", type=int, default=0, metavar="N",
        help="extra attempts per failed point, with deterministic "
             "exponential backoff (default: fail fast)",
    )
    group.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="per-point wall-clock limit (SIGALRM-enforced in the "
             "executing process)",
    )
    group.add_argument(
        "--keep-going", action="store_true",
        help="run the whole grid even if points fail; failures are "
             "reported at the end and the command exits 1",
    )
    group.add_argument(
        "--inject-faults", action="store_true",
        help="inject a deterministic harness fault plan (worker kills, "
             "transient errors, stalls) to exercise the failure policy",
    )
    group.add_argument(
        "--fault-rate", type=float, default=0.25, metavar="P",
        help="per-point fault probability for --inject-faults "
             "(default: 0.25)",
    )
    group.add_argument(
        "--fault-seed", type=int, default=0, metavar="SEED",
        help="seed of the injected fault plan (default: 0)",
    )
    group.add_argument(
        "--trace", action="store_true",
        help="record structured trace events (repro.obs) in every "
             "session and the runner (sets REPRO_TRACE=1 so worker "
             "processes inherit it; cache keys are unaffected)",
    )
    group.add_argument(
        "--segment-cycles", type=float, default=None, metavar="CYCLES",
        help="segmented execution: checkpoint each transmission every "
             "CYCLES simulated cycles so killed/timed-out points resume "
             "from their last segment instead of recomputing (sets "
             "REPRO_SEGMENT_CYCLES so worker processes inherit it; "
             "cache keys are unaffected; segmentation is off without it)",
    )


def execute_from_args(spec, args: argparse.Namespace) -> list:
    """Run *spec* under the CLI's runner options; returns point values.

    Builds a :class:`~repro.runner.Runner` from the options
    :func:`runner_arguments` added (``--jobs``, ``--no-cache``,
    ``--cache-dir``, ``--no-progress``, ``--chunk-size``, ``--retries``,
    ``--timeout``, ``--keep-going``, ``--inject-faults``), emits
    per-point progress and an end-of-sweep timing summary on stderr,
    and returns the values in grid order.  Under ``--keep-going`` with
    failures, the per-point errors are printed to stderr and the process
    exits 1 — completed values are already cached, so re-running
    resumes the sweep.

    ``--trace``, ``--segment-cycles`` and ``--cache-dir`` reach pool
    workers through the environment (set for the duration of the run,
    then restored), never through point params, so cache keys are the
    same with and without them.
    """
    import sys

    from repro.runner import FailurePolicy, ResultCache, Runner, auto_progress

    environ: dict[str, str] = {}
    if getattr(args, "trace", False):
        environ["REPRO_TRACE"] = "1"
        spec.meta.setdefault("trace", True)
    segment_cycles = getattr(args, "segment_cycles", None)
    if segment_cycles is not None:
        if segment_cycles <= 0:
            raise SystemExit("--segment-cycles must be a positive cycle count")
        environ["REPRO_SEGMENT_CYCLES"] = repr(float(segment_cycles))
        spec.meta.setdefault("segment_cycles", float(segment_cycles))
    cache_dir = getattr(args, "cache_dir", None)
    if cache_dir is not None:
        # Checkpoint segments build their own ResultCache inside worker
        # processes from $REPRO_CACHE_DIR; an explicit --cache-dir must
        # reach them too, not just the parent's results cache.
        environ["REPRO_CACHE_DIR"] = str(cache_dir)
    cache = None if getattr(args, "no_cache", False) else ResultCache(
        cache_dir
    )
    # auto_progress keeps the interactive renderer on a TTY and switches
    # to JSON-lines when stderr is piped (CI logs, the service's event
    # feed) — same hook, machine-readable output.
    progress = None if getattr(args, "no_progress", False) else auto_progress(
        spec.experiment
    )
    policy = FailurePolicy(
        retries=getattr(args, "retries", 0),
        timeout=getattr(args, "timeout", None),
        keep_going=getattr(args, "keep_going", False),
        seed=getattr(args, "seed", 0) or 0,
    )
    injector = None
    if getattr(args, "inject_faults", False):
        from repro.faults import FaultInjector, FaultPlan

        plan = FaultPlan.build_harness(
            seed=getattr(args, "fault_seed", 0),
            n_points=len(spec.points),
            rate=getattr(args, "fault_rate", 0.25),
        )
        injector = FaultInjector(plan)
        print(
            f"{spec.experiment}: injecting {len(plan.harness_events)} "
            f"harness fault(s) (plan {plan.key()[:12]})",
            file=sys.stderr,
        )
    saved = {name: os.environ.get(name) for name in environ}
    os.environ.update(environ)
    try:
        # The runner binds its trace recorder at construction.
        runner = Runner(jobs=getattr(args, "jobs", 1), cache=cache,
                        progress=progress, policy=policy, injector=injector,
                        chunk_size=getattr(args, "chunk_size", None))
        report = runner.run(spec)
    finally:
        for name, value in saved.items():
            if value is None:
                del os.environ[name]
            else:
                os.environ[name] = value
    if progress is not None:
        progress.summarize(report)
    if report.errors:
        for outcome in report.errors:
            print(
                f"{spec.experiment}: point {outcome.point.describe()} "
                f"FAILED after {outcome.attempts} attempt(s): "
                f"{outcome.error}",
                file=sys.stderr,
            )
        print(
            f"{spec.experiment}: {len(report.errors)} of "
            f"{len(spec.points)} point(s) failed; completed values are "
            f"cached — re-run the same command to resume",
            file=sys.stderr,
        )
        raise SystemExit(1)
    return report.values


def run(spec) -> dict:
    """Execute *spec* in-process; returns its driver's collected result."""
    from repro.runner import execute

    return REGISTRY[spec.experiment].load().collect(spec, execute(spec))


def main(name: str, argv: list[str] | None = None) -> None:
    """CLI glue for the driver registered as *name*: parse, run, print."""
    driver = REGISTRY[name].load()
    parser = argparse.ArgumentParser(description=driver.__doc__)
    driver.add_arguments(parser)
    runner_arguments(parser)
    args = parser.parse_args(argv)

    spec = driver.spec_from_args(args)
    values = execute_from_args(spec, args)
    print(driver.render(driver.collect(spec, values)))
