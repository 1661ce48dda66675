"""Streaming detection over the live ``repro.obs`` trace feed.

Detection observes a machine one way: a :class:`~repro.obs.MachineTap`
records its ``"flush"``/``"load"`` events into a
:class:`~repro.obs.TraceRecorder`, and an
:class:`~repro.detection.events.EventMonitor` folds them into per-line
windows.  An offline scan folds a finished recording
(``recorder.events()``) and hands the monitor to
:class:`~repro.detection.detector.ChannelDetector`.  A deployable
monitor must classify the stream *as it happens*, with memory that
does not grow with feed length.  This module provides that:

* :class:`StreamingDetector` — a :data:`~repro.obs.recorder.TraceSink`
  that subscribes to a session's recorder, maintains windowed per-line
  rates and incremental core sets (bounded by the window + idle-line
  decay of ``EventMonitor``), runs periodic interim scans for alarm
  latency, and — fed one event at a time — produces exactly the
  detections the offline scan produces on the full recording;
* :class:`OnlineRoc` — a fixed-bin score histogram from which ROC
  points and AUC are computed incrementally; because only bin counts
  are kept, the curve is invariant to sample order and chunking and
  identical to the offline batch computation on the same scores.

Equivalence with the offline scan is locked by
``tests/test_streaming_detection.py``: same detections, same scores,
same ROC, with peak tracked state asserted O(window).
"""

from __future__ import annotations

from repro.detection.detector import (
    ChannelDetector,
    Detection,
    FlushStormDetector,
    ModulationDetector,
    PingPongDetector,
)
from repro.detection.events import DEFAULT_IDLE_WINDOWS, EventMonitor
from repro.obs.recorder import TraceEvent

#: Default number of fixed score bins in :class:`OnlineRoc`.
ROC_BINS = 64

#: Default score ceiling for the histogram: three detectors contribute
#: at most ~1.0 each, so combined scores live in [0, 3]; the margin
#: keeps future detectors from silently saturating the top bin.
ROC_MAX_SCORE = 4.0


class OnlineRoc:
    """ROC curve accumulated one labeled score at a time.

    Scores are counted into ``bins`` fixed-width bins over
    ``[0, max_score)`` (out-of-range scores clamp to the edge bins), a
    positive and a negative histogram.  ROC points are read off the
    cumulative counts from the top bin down — each bin edge is one
    candidate threshold — so the curve depends only on the counts,
    never on arrival order or chunking, and matches the offline batch
    computation (:meth:`from_samples`) exactly.
    """

    __slots__ = ("bins", "max_score", "pos", "neg")

    def __init__(self, bins: int = ROC_BINS, max_score: float = ROC_MAX_SCORE):
        if bins < 1:
            raise ValueError(f"bins must be >= 1, got {bins}")
        if max_score <= 0:
            raise ValueError(f"max_score must be > 0, got {max_score}")
        self.bins = bins
        self.max_score = max_score
        self.pos = [0] * bins
        self.neg = [0] * bins

    @classmethod
    def from_samples(
        cls,
        samples,
        bins: int = ROC_BINS,
        max_score: float = ROC_MAX_SCORE,
    ) -> "OnlineRoc":
        """Batch constructor from ``(score, is_positive)`` pairs."""
        roc = cls(bins=bins, max_score=max_score)
        for score, positive in samples:
            roc.add(score, positive)
        return roc

    def _bin(self, score: float) -> int:
        index = int(score / self.max_score * self.bins)
        return min(max(index, 0), self.bins - 1)

    def add(self, score: float, positive: bool) -> None:
        """Count one labeled score."""
        (self.pos if positive else self.neg)[self._bin(score)] += 1

    def merge(self, other: "OnlineRoc") -> None:
        """Fold another histogram with identical binning into this one."""
        if (other.bins, other.max_score) != (self.bins, self.max_score):
            raise ValueError("cannot merge OnlineRoc with different binning")
        for b in range(self.bins):
            self.pos[b] += other.pos[b]
            self.neg[b] += other.neg[b]

    @property
    def positives(self) -> int:
        return sum(self.pos)

    @property
    def negatives(self) -> int:
        return sum(self.neg)

    def points(self) -> list[tuple[float, float]]:
        """ROC points ``(fpr, tpr)``, threshold descending from +inf.

        Starts at ``(0, 0)`` (threshold above every bin) and ends at
        ``(1, 1)`` once any samples exist; with an empty side the
        missing rate reads 0.0.
        """
        total_pos = self.positives
        total_neg = self.negatives
        pts = [(0.0, 0.0)]
        tp = fp = 0
        for b in range(self.bins - 1, -1, -1):
            tp += self.pos[b]
            fp += self.neg[b]
            pts.append((
                fp / total_neg if total_neg else 0.0,
                tp / total_pos if total_pos else 0.0,
            ))
        return pts

    def auc(self) -> float:
        """Area under the ROC curve (trapezoidal over the bin edges)."""
        pts = self.points()
        area = 0.0
        for (x0, y0), (x1, y1) in zip(pts, pts[1:]):
            area += (x1 - x0) * (y0 + y1) / 2.0
        return area

    def to_json(self) -> dict:
        """JSON-plain form (counts only — merges/rendering downstream)."""
        return {
            "bins": self.bins,
            "max_score": self.max_score,
            "pos": list(self.pos),
            "neg": list(self.neg),
        }


class StreamingDetector:
    """Online covert-channel detection over a live trace feed.

    A :data:`~repro.obs.recorder.TraceSink`: subscribe it to a
    recorder (``session.recorder.subscribe(detector)``) or call it /
    :meth:`consume` with events replayed from anywhere.  State is
    bounded — sliding windows plus idle-line decay in the underlying
    :class:`~repro.detection.events.EventMonitor` — so it can run on an
    unbounded feed.

    Fed the same events, :meth:`scan` returns exactly what the offline
    :class:`~repro.detection.detector.ChannelDetector` returns on the
    batch (the detectors and per-line state are the same code); the
    streaming additions are incremental: interim scans every
    ``scan_interval`` cycles record the first alarm per line (detection
    latency), and :attr:`peak_tracked` tracks the high-water mark of
    retained state for the bounded-memory gate.
    """

    def __init__(
        self,
        *,
        window: float = 400_000.0,
        idle_windows: float = DEFAULT_IDLE_WINDOWS,
        flush_storm: FlushStormDetector | None = None,
        ping_pong: PingPongDetector | None = None,
        modulation: ModulationDetector | None = None,
        flag_threshold: float = 1.0,
        scan_interval: float | None = None,
    ):
        self.monitor = EventMonitor(window=window, idle_windows=idle_windows)
        self.detector = ChannelDetector(
            self.monitor,
            flush_storm=flush_storm,
            ping_pong=ping_pong,
            modulation=modulation,
            flag_threshold=flag_threshold,
        )
        self.scan_interval = scan_interval
        self.clock = 0.0
        self.events = 0
        #: line -> (timestamp, score) at the first interim scan that
        #: flagged it (bounded: one entry per line ever flagged).
        self.alarms: dict[int, tuple[float, float]] = {}
        #: High-water mark of retained series entries, sampled at scans.
        self.peak_tracked = 0
        self._next_scan = scan_interval

    # -- feeding ------------------------------------------------------

    def __call__(self, event: TraceEvent) -> None:
        """TraceSink entry point."""
        self.consume(event)

    def consume(self, event: TraceEvent) -> None:
        """Fold one event; run an interim scan at each interval edge."""
        self.events += 1
        self.monitor.consume(event)
        if event.ts > self.clock:
            self.clock = event.ts
        if self._next_scan is not None and self.clock >= self._next_scan:
            # Catch up past quiet gaps without scanning once per
            # skipped interval.
            interval = self.scan_interval
            while self._next_scan <= self.clock:
                self._next_scan += interval
            self._interim_scan(self.clock)

    def consume_many(self, events) -> None:
        """Fold a chunk of events (identical outcome to one at a time)."""
        for event in events:
            self.consume(event)

    # -- querying -----------------------------------------------------

    def _interim_scan(self, now: float) -> None:
        self.peak_tracked = max(self.peak_tracked, self.monitor.tracked_events())
        for detection in self.detector.scan(now):
            if detection.line not in self.alarms:
                self.alarms[detection.line] = (now, detection.score)

    def scan(self, now: float | None = None) -> list[Detection]:
        """Current detections — the offline ``ChannelDetector.scan``."""
        now = self.clock if now is None else now
        self.peak_tracked = max(self.peak_tracked, self.monitor.tracked_events())
        detections = self.detector.scan(now)
        for detection in detections:
            if detection.line not in self.alarms:
                self.alarms[detection.line] = (now, detection.score)
        return detections

    def score_all(self, now: float | None = None):
        """Raw per-line scores (see ``ChannelDetector.score_all``)."""
        return self.detector.score_all(self.clock if now is None else now)

    def first_alarm(self, line: int) -> float | None:
        """Timestamp of the first scan that flagged *line*, if any."""
        entry = self.alarms.get(line)
        return entry[0] if entry else None
