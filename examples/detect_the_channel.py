"""Defender's view: spotting a covert channel in coherence telemetry.

Traces (a) a real covert transmission and (b) a benign workload through
the machine's trace tap, and prints what the detector sees for each —
the signatures a hardware/hypervisor defender could act on.  The
attack is scored offline, by folding the recorded feed into an event
monitor after the run; the benign workload is scored live, by a
streaming detector subscribed to the feed.

Run:  python examples/detect_the_channel.py
"""

from repro import ChannelSession, SessionConfig, scenario_by_name
from repro.detection import ChannelDetector, EventMonitor
from repro.experiments.arena import run_benign
from repro.experiments.common import payload_bits


def watch_attack() -> None:
    scenario = scenario_by_name("RExclc-LSharedb")
    session = ChannelSession(SessionConfig(spec=scenario.name, seed=5))
    recorder = session.start_trace()
    session.transmit(payload_bits(48))
    monitor = EventMonitor()
    for event in recorder.events():
        monitor.consume(event)
    detections = ChannelDetector(monitor).scan(session.sim.global_clock)
    print(f"[attack: {scenario.name}]")
    if not detections:
        print("  nothing flagged (detector failed!)")
        return
    top = detections[0]
    print(f"  FLAGGED line {top.line:#x} score={top.score:.2f}")
    print(f"  cores involved: {sorted(top.cores)} "
          "(spy=0, trojan local=1,2 / remote=6)")
    for reason in top.reasons:
        print(f"   - {reason}")


def watch_benign() -> None:
    detector, now = run_benign("kernel-build", seed=17)
    detections = detector.scan(now)
    print("\n[benign: 6-thread kernel build]")
    if detections:
        print(f"  false positive! {detections[0]}")
    else:
        print("  nothing flagged (correct: compiles don't flush-storm "
              "shared lines)")


def main() -> None:
    watch_attack()
    watch_benign()


if __name__ == "__main__":
    main()
