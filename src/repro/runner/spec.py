"""Declarative experiment grids: :class:`Point` and :class:`ExperimentSpec`.

Every paper figure is an embarrassingly parallel grid of independent
simulations — one :class:`Point` per (scenario, rate, noise, seed, ...)
combination.  A point names a **top-level callable** by module path
(``"repro.experiments.fig8_bandwidth:point"``) plus JSON-safe keyword
parameters, which makes it

* *executable anywhere* — the runner can call it in-process or ship it
  to a :class:`~concurrent.futures.ProcessPoolExecutor` worker, because
  resolving a module path never requires pickling closures;
* *content-addressable* — the canonical JSON of ``(fn, params)`` hashes
  to a stable cache key, so completed points can be memoized on disk;
* *deterministic* — the full RNG seed is part of the params, so a point
  computes the same value no matter which worker runs it or in what
  order (parallel results are bit-identical to serial ones).
"""

from __future__ import annotations

import hashlib
import importlib
import json
from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass, field
from typing import Any

from repro.errors import SpecError


def canonical_json(value: Any) -> str:
    """Serialize *value* to a canonical (sorted, compact) JSON string.

    Raises :class:`SpecError` for values JSON cannot represent; point
    parameters must stay plain (numbers, strings, bools, lists, dicts)
    so cache keys and worker submissions are stable across processes.
    """
    try:
        return json.dumps(
            value, sort_keys=True, separators=(",", ":"), allow_nan=False
        )
    except (TypeError, ValueError) as exc:
        raise SpecError(f"value is not canonically JSON-serializable: {exc}")


def resolve_callable(path: str) -> Callable[..., Any]:
    """Import and return the callable named by ``"pkg.module:attr"``."""
    module_name, _, attr = path.partition(":")
    if not module_name or not attr:
        raise SpecError(
            f"point fn must look like 'pkg.module:callable', got {path!r}"
        )
    try:
        module = importlib.import_module(module_name)
        fn = getattr(module, attr)
    except (ImportError, AttributeError) as exc:
        raise SpecError(f"cannot resolve point fn {path!r}: {exc}")
    if not callable(fn):
        raise SpecError(f"point fn {path!r} resolved to a non-callable")
    return fn


@dataclass(frozen=True, eq=False)
class Point:
    """One independent unit of experimental work.

    Parameters
    ----------
    fn:
        ``"pkg.module:callable"`` path of a top-level function taking
        ``**params`` and returning any picklable value.
    params:
        JSON-safe keyword arguments, including the RNG seed.
    label:
        Short human-readable tag for progress lines (not hashed).
    """

    fn: str
    params: Mapping[str, Any]
    label: str = ""
    #: The canonical JSON, serialized once when the point is built.
    _canonical: str = field(init=False, repr=False, compare=False)
    #: Memoized :meth:`key` per salt.
    _keys: dict[str, str] = field(
        init=False, repr=False, compare=False, default_factory=dict)

    def __post_init__(self) -> None:
        # Validate eagerly so a malformed grid fails at build time, not
        # deep inside a worker process.
        object.__setattr__(self, "params", dict(self.params))
        object.__setattr__(self, "_canonical", canonical_json(
            {"fn": self.fn, "params": self.params}))
        if ":" not in self.fn:
            raise SpecError(
                f"point fn must look like 'pkg.module:callable', got "
                f"{self.fn!r}"
            )

    def canonical(self) -> str:
        """Canonical JSON identity of this point (fn + params only)."""
        return self._canonical

    def key(self, salt: str = "") -> str:
        """Content hash of the point, optionally salted (cache key)."""
        key = self._keys.get(salt)
        if key is None:
            digest = hashlib.sha256()
            digest.update(salt.encode("utf-8"))
            digest.update(b"\0")
            digest.update(self._canonical.encode("utf-8"))
            key = self._keys[salt] = digest.hexdigest()
        return key

    def execute(self) -> Any:
        """Resolve ``fn`` and call it with this point's params."""
        return resolve_callable(self.fn)(**dict(self.params))

    def describe(self) -> str:
        """The progress-line name: explicit label or a params digest."""
        if self.label:
            return self.label
        short = ",".join(f"{k}={v}" for k, v in sorted(self.params.items()))
        return f"{self.fn.rpartition(':')[2]}({short})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Point):
            return NotImplemented
        return self._canonical == other._canonical

    def __hash__(self) -> int:
        return hash(self._canonical)


def chunk_pending(
    points: Sequence[Point], pending: Sequence[int], chunk_size: int
) -> list[list[int]]:
    """Split *pending* grid indices into seed-grouped dispatch chunks.

    Chunks are the unit the pool executor ships to a worker: one future
    executes ``chunk_size`` points back-to-back in the same process, so
    points sharing a calibration identity (the root ``seed`` param)
    should travel together — the first point of the chunk pays for
    calibration, the rest hit the worker's process-local memo.  Indices
    are therefore ordered by (seed, index) before slicing.  The slot
    each value lands in is still its grid index, so chunk order never
    affects results.

    ``chunk_size == 1`` preserves *pending*'s original order — one
    point per future, the pre-chunking dispatch exactly.
    """
    if chunk_size < 1:
        raise SpecError(f"chunk_size must be >= 1, got {chunk_size}")
    if chunk_size == 1:
        return [[index] for index in pending]
    ordered = sorted(
        pending, key=lambda i: (repr(points[i].params.get("seed")), i)
    )
    return [
        ordered[lo:lo + chunk_size]
        for lo in range(0, len(ordered), chunk_size)
    ]


@dataclass(frozen=True)
class ExperimentSpec:
    """A named, declarative grid of independent points.

    ``meta`` carries the grid axes (rates, scenario names, ...) that the
    driver's ``collect()`` needs to reassemble point values into the
    figure-shaped result dict; it is not hashed and never shipped to
    workers.
    """

    experiment: str
    points: tuple[Point, ...]
    meta: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "points", tuple(self.points))
        object.__setattr__(self, "meta", dict(self.meta))
        if not self.points:
            raise SpecError(f"spec {self.experiment!r} declares no points")

    def __len__(self) -> int:
        return len(self.points)

    def subset(self, indices: Sequence[int]) -> "ExperimentSpec":
        """A spec over a subset of this grid's points (same meta).

        The runner's resume path uses this to re-dispatch only the
        points an interrupted sweep never finished; ``indices`` keeps
        the original grid order.
        """
        try:
            points = tuple(self.points[i] for i in indices)
        except IndexError as exc:
            raise SpecError(
                f"subset index out of range for {self.experiment!r} "
                f"({len(self.points)} points): {exc}"
            )
        return ExperimentSpec(
            experiment=self.experiment, points=points, meta=self.meta
        )

    def key(self, salt: str = "") -> str:
        """Content hash of the whole grid (order-sensitive)."""
        digest = hashlib.sha256()
        digest.update(self.experiment.encode("utf-8"))
        for point in self.points:
            digest.update(point.key(salt).encode("ascii"))
        return digest.hexdigest()

    def to_json(self) -> dict[str, Any]:
        """JSON-plain form of the grid (the service job-submission body).

        Points are JSON-safe by construction (:func:`canonical_json`
        validates them eagerly), so the round-trip through
        :func:`spec_from_json` reproduces an identical spec — same
        content keys, same cache hits.
        """
        return {
            "experiment": self.experiment,
            "points": [
                {"fn": p.fn, "params": dict(p.params), "label": p.label}
                for p in self.points
            ],
            "meta": dict(self.meta),
        }


def spec_from_json(data: Mapping[str, Any]) -> ExperimentSpec:
    """Rebuild an :class:`ExperimentSpec` from :meth:`~ExperimentSpec.to_json`.

    Raises :class:`SpecError` on malformed input (missing fields, bad
    point shapes) — the error path the service's job API turns into an
    HTTP 400 instead of a worker-side crash.
    """
    try:
        experiment = data["experiment"]
        raw_points = data["points"]
    except (KeyError, TypeError) as exc:
        raise SpecError(f"malformed spec payload: missing {exc}")
    if not isinstance(experiment, str) or not experiment:
        raise SpecError("spec experiment must be a non-empty string")
    points = []
    for i, raw in enumerate(raw_points):
        try:
            points.append(Point(
                fn=raw["fn"],
                params=raw.get("params", {}),
                label=str(raw.get("label", "")),
            ))
        except (KeyError, TypeError) as exc:
            raise SpecError(f"malformed point {i} in spec payload: {exc}")
    meta = data.get("meta") or {}
    if not isinstance(meta, Mapping):
        raise SpecError("spec meta must be a mapping")
    return ExperimentSpec(experiment=experiment, points=tuple(points),
                          meta=meta)
