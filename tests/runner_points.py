"""Cheap top-level point functions for the runner tests.

They live in their own importable module (not inside a test function)
because :func:`repro.runner.resolve_callable` loads points by qualified
name — exactly what a worker process does.
"""


def square(*, x):
    return x * x


def record(*, x, log):
    """Append *x* to the file at *log* so tests can count executions."""
    with open(log, "a") as fh:
        fh.write(f"{x}\n")
    return x * 10


def boom(*, x):
    raise ValueError(f"boom {x}")


def flaky(*, x, counter, fail_times):
    """Fail the first *fail_times* calls (counted via the *counter* file).

    The counter file persists across pool workers and retries, so the
    point deterministically recovers on attempt ``fail_times + 1``.
    """
    import os

    count = 0
    if os.path.exists(counter):
        with open(counter) as fh:
            count = int(fh.read().strip() or 0)
    with open(counter, "w") as fh:
        fh.write(str(count + 1))
    if count < fail_times:
        raise ValueError(f"flaky {x} (attempt {count + 1})")
    return x * 100


def kill_worker(*, x, tripwire):
    """Hard-exit the worker once (the *tripwire* file marks the kill)."""
    import os

    if not os.path.exists(tripwire):
        with open(tripwire, "w") as fh:
            fh.write("killed")
        os._exit(17)
    return x * 1000


def slow_point(*, x, seconds):
    """Sleep long enough to trip a per-point timeout."""
    import time

    time.sleep(seconds)
    return x


def transmit_point(*, cell, seed, bits):
    """One real transmission on a registered scenario cell.

    Returns the full :class:`TransmissionResult` so tests can compare
    pickles byte-for-byte and read its manifest.
    """
    from repro.channel.session import ChannelSession, SessionConfig
    from repro.experiments.common import payload_bits

    session = ChannelSession(SessionConfig(
        spec=cell, seed=seed, calibration_samples=120,
    ))
    return session.transmit(payload_bits(bits, seed=seed + 77))


def transmit_opts(*, cell, seed, bits, trace=None, faults=None,
                  obfuscate=False):
    """Like :func:`transmit_point`, with the session options the
    channel drivers must run through.

    *trace* and *faults* go to :class:`SessionConfig`; *obfuscate*
    attaches an obfuscator after the session is built, before the
    first transmission.
    """
    from repro.channel.session import ChannelSession, SessionConfig
    from repro.experiments.common import payload_bits
    from repro.mitigation.hardware import attach_obfuscator

    session = ChannelSession(SessionConfig(
        spec=cell, seed=seed, calibration_samples=120, trace=trace,
        faults=faults,
    ))
    if obfuscate:
        attach_obfuscator(session.machine, suspicious_cores=range(16))
    return session.transmit(payload_bits(bits, seed=seed + 77))
