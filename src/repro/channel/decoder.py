"""Spy-side decoding: latency samples -> bits (Algorithm 2, phase 3).

The spy records one latency per sampling slot.  Each is classified into
``'c'`` (communication band Tc), ``'b'`` (boundary band Tb) or ``'x'``
(neither — a DRAM miss, a half-established state, or jitter).  The
translation walk is the paper's: find a boundary run, count consecutive
``'c'`` samples, and compare the count against Thold to emit a 1 or a 0.
"""

from __future__ import annotations

import sys
from array import array
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass

from repro.channel.calibration import LatencyBands
from repro.channel.config import ProtocolParams, Scenario
from repro.sim.events import AccessPath


@dataclass(frozen=True)
class Sample:
    """One timed load observed by the spy.

    ``path`` records the service path ground truth from the simulator —
    the spy's decoding never uses it, but tests and diagnostics do.
    """

    timestamp: float
    latency: float
    label: str  # 'c', 'b' or 'x'
    path: object = None

    def __setstate__(self, state: dict) -> None:
        # Unpickled labels come back as fresh strings; interning them
        # makes a result rebuilt from a checkpoint pickle to the same
        # bytes as one that never left memory.
        state["label"] = sys.intern(state["label"])
        self.__dict__.update(state)


#: ``AccessPath`` by value: a trace's path table decodes through this
#: dict, so loading a trace makes no enum call.
_PATH_BY_VALUE = {path.value: path for path in AccessPath}


def _sample(timestamp: float, latency: float, label: str, path) -> Sample:
    # Filled as Sample.__setstate__ fills an unpickled one: no
    # frozen-dataclass __init__ (one object.__setattr__ per field).
    sample = object.__new__(Sample)
    sample.__dict__.update(
        timestamp=timestamp, latency=latency, label=label, path=path
    )
    return sample


class SampleTrace(Sequence):
    """A finished transmission's latency trace, stored as columns.

    A transmission's dominant payload is its latency trace — one
    :class:`Sample` per sampling slot.  The trace keeps the numeric
    fields as two ``array('d')`` columns, the one-character labels as
    one string, and the :class:`~repro.sim.events.AccessPath` ground
    truth as a byte per slot indexing a small table of paths (code 0 is
    ``None``).  It pickles as those columns, so unpickling one — every
    IPC result and every :class:`~repro.runner.cache.ResultCache` hit —
    allocates a handful of objects however many slots it holds.
    Indexing, slicing and iteration build :class:`Sample` records on
    access; a trace equals another trace with the same columns and a
    list of equal samples.  The columns are read-only by contract: a
    finished transmission's trace does not change.

    Raises ``ValueError`` on a sample that does not fit the columns: a
    label that is not one character, or a ``path`` that is neither None
    nor an ``AccessPath``.
    """

    __slots__ = ("timestamps", "latencies", "labels", "path_codes", "paths")

    def __init__(self, samples: Iterable[Sample] = ()):
        timestamps = array("d")
        latencies = array("d")
        labels: list[str] = []
        codes = bytearray()
        paths: list[AccessPath | None] = [None]
        index: dict[object, int] = {None: 0}
        for sample in samples:
            path = sample.path
            code = index.get(path)
            if code is None:
                if not isinstance(path, AccessPath):
                    raise ValueError(
                        f"sample path {path!r} is not an AccessPath"
                    )
                code = index[path] = len(paths)
                paths.append(path)
            if len(sample.label) != 1:
                raise ValueError(
                    f"sample label {sample.label!r} is not one character"
                )
            timestamps.append(sample.timestamp)
            latencies.append(sample.latency)
            labels.append(sample.label)
            codes.append(code)
        self.timestamps = timestamps
        self.latencies = latencies
        self.labels = "".join(labels)
        self.path_codes = bytes(codes)
        self.paths = tuple(paths)

    def __reduce__(self):
        return _restore_trace, (
            self.timestamps.tobytes(),
            self.latencies.tobytes(),
            self.labels,
            self.path_codes,
            tuple(path.value for path in self.paths[1:]),
        )

    def __len__(self) -> int:
        return len(self.labels)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        return _sample(
            self.timestamps[index],
            self.latencies[index],
            self.labels[index],
            self.paths[self.path_codes[index]],
        )

    def __iter__(self) -> Iterator[Sample]:
        paths = self.paths
        for timestamp, latency, label, code in zip(
            self.timestamps, self.latencies, self.labels, self.path_codes
        ):
            yield _sample(timestamp, latency, label, paths[code])

    def __eq__(self, other: object) -> bool:
        if isinstance(other, SampleTrace):
            return (
                self.labels == other.labels
                and self.timestamps == other.timestamps
                and self.latencies == other.latencies
                and self.path_codes == other.path_codes
                and self.paths == other.paths
            )
        if isinstance(other, list):
            return len(self) == len(other) and all(
                mine == theirs for mine, theirs in zip(self, other)
            )
        return NotImplemented

    def __repr__(self) -> str:
        return f"SampleTrace(n={len(self)})"


def _restore_trace(
    timestamps: bytes,
    latencies: bytes,
    labels: str,
    path_codes: bytes,
    path_values: tuple[str, ...],
) -> SampleTrace:
    """Unpickle a :class:`SampleTrace` from its columns."""
    trace = object.__new__(SampleTrace)
    trace.timestamps = array("d", timestamps)
    trace.latencies = array("d", latencies)
    trace.labels = labels
    trace.path_codes = path_codes
    trace.paths = (None, *map(_PATH_BY_VALUE.__getitem__, path_values))
    return trace


@dataclass
class DecodeReport:
    """Decoded bits plus diagnostics about the walk."""

    bits: list[int]
    runs: list[tuple[str, int]]
    n_samples: int
    n_boundary_runs: int
    n_unclassified: int


class BitDecoder:
    """Classifies and translates the spy's samples for one scenario."""

    def __init__(
        self,
        bands: LatencyBands,
        scenario: Scenario,
        params: ProtocolParams,
    ):
        self._tc = bands.band_for(scenario.csc)
        self._tb = bands.band_for(scenario.csb)
        bands.check_separation(scenario.csc, scenario.csb)
        self._params = params

    def label(self, latency: float) -> str:
        """Classify one latency into 'c', 'b' or 'x'.

        When the Tc and Tb bands both claim the latency (possible only
        with pathological calibration) the nearer band center wins.
        """
        in_c = self._tc.contains(latency)
        in_b = self._tb.contains(latency)
        if in_c and in_b:
            return (
                "c"
                if abs(latency - self._tc.center) <= abs(latency - self._tb.center)
                else "b"
            )
        if in_c:
            return "c"
        if in_b:
            return "b"
        return "x"

    def smooth(self, labels: list[str]) -> list[str]:
        """Repair isolated one-sample dropouts.

        A single unclassified ('x') sample sandwiched between two
        identical labels is almost always a jitter tail rather than a
        state change; real attack decoders apply the same fix.
        Classified samples are never overridden: an isolated flip into
        the *other* band still decodes as a short run, which the
        threshold logic usually survives, whereas rewriting it could
        erase a legitimate two-slot run entirely.
        """
        if len(labels) < 3:
            return list(labels)
        out = list(labels)
        for i in range(1, len(out) - 1):
            if out[i] == "x" and labels[i - 1] == labels[i + 1] != "x":
                out[i] = labels[i - 1]
        return out

    def repair_runs(
        self, runs: list[tuple[str, int]]
    ) -> list[tuple[str, int]]:
        """Repair single-sample runs that cannot be legitimate signal.

        With slot-locked sampling, a real boundary spans at least
        ``cb - 1`` samples and a real communication phase at least
        ``c0 - 1``; both are >= 2 with the default parameters.  Hence:

        * a 1-sample 'b' run flanked by 'c' runs is a flipped sample
          inside a communication run — rewrite it to 'c' (this repairs
          the classic split-'1' error);
        * a 1-sample 'c' run flanked by 'b' runs is a flipped boundary
          sample — drop it (keeping it would insert a spurious '0').
        """
        if self._params.cb < 3 or self._params.c0 < 2:
            return list(runs)
        repaired: list[tuple[str, int]] = []
        n = len(runs)
        for i, (label, count) in enumerate(runs):
            prev_label = runs[i - 1][0] if i > 0 else None
            next_label = runs[i + 1][0] if i < n - 1 else None
            if count == 1 and label == "b" and prev_label == next_label == "c":
                label = "c"
            elif count == 1 and label == "c" and prev_label == next_label == "b":
                label = "b"
            if repaired and repaired[-1][0] == label:
                repaired[-1] = (label, repaired[-1][1] + count)
            else:
                repaired.append((label, count))
        return repaired

    @staticmethod
    def run_length(labels: list[str]) -> list[tuple[str, int]]:
        """Run-length encode a label sequence."""
        runs: list[tuple[str, int]] = []
        for label in labels:
            if runs and runs[-1][0] == label:
                runs[-1] = (label, runs[-1][1] + 1)
            else:
                runs.append((label, 1))
        return runs

    def decode(self, samples: list[Sample]) -> DecodeReport:
        """Translate samples into bits (the paper's translation period).

        The walk mirrors Algorithm 2: advance to a Tb (boundary) run,
        then count *consecutive* Tc samples; counts above Thold decode
        as '1', others as '0'.  Samples between the end of a Tc run and
        the next boundary are skipped, so dropouts inside a run truncate
        the count and can flip a bit — the raw-bit errors of Figure 8.
        """
        labels = self.smooth([s.label for s in samples])
        runs = self.repair_runs(self.run_length(labels))
        bits: list[int] = []
        threshold = self._params.threshold
        i = 0
        n = len(runs)
        while i < n:
            # Seek the next boundary run.
            while i < n and runs[i][0] != "b":
                i += 1
            # Skip the boundary itself (possibly fragmented by x runs of
            # length >= 2 that smoothing kept).
            while i < n and runs[i][0] == "b":
                i += 1
            # Skip any junk between the boundary and the communication run.
            while i < n and runs[i][0] == "x":
                i += 1
            if i >= n or runs[i][0] != "c":
                continue
            count = runs[i][1]
            i += 1
            bits.append(1 if count > threshold else 0)
        return DecodeReport(
            bits=bits,
            runs=runs,
            n_samples=len(samples),
            n_boundary_runs=sum(1 for label, _c in runs if label == "b"),
            n_unclassified=sum(c for label, c in runs if label == "x"),
        )
