"""Detection of coherence-state covert channels (defense extension).

The paper closes by motivating defenses against coherence-protocol
exploits; this package implements the detection side: per-line
coherence-event telemetry (:mod:`~repro.detection.events`) and three
signature detectors — flush storms, ownership ping-pong, slot-quantized
modulation — combined in
:class:`~repro.detection.detector.ChannelDetector`.  Detection reads
one feed, the events a :class:`~repro.obs.MachineTap` records:
:class:`~repro.detection.streaming.StreamingDetector` scores it live as
a recorder sink (bounded memory, online ROC via
:class:`~repro.detection.streaming.OnlineRoc`), and an offline scan is
an :class:`~repro.detection.events.EventMonitor` folded over the
recorded events — the same result, locked by
``tests/test_streaming_detection.py``.
"""

from repro.detection.detector import (
    ChannelDetector,
    Detection,
    FlushStormDetector,
    ModulationDetector,
    PingPongDetector,
)
from repro.detection.events import EventMonitor, LineActivity
from repro.detection.streaming import OnlineRoc, StreamingDetector

__all__ = [
    "ChannelDetector",
    "Detection",
    "EventMonitor",
    "FlushStormDetector",
    "LineActivity",
    "ModulationDetector",
    "OnlineRoc",
    "PingPongDetector",
    "StreamingDetector",
]
