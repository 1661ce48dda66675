"""Plain-data descriptions of how to rebuild a running thread program.

Generators cannot be pickled, so a checkpoint never stores a live
program.  Instead every checkpointable thread carries a
:class:`ProgramSpec` naming the *factory* that built its program plus
the arguments it was built with.  For the three channel programs the
spec is also what attaches the thread's driver (:mod:`repro.sim.drivers`),
and restore applies the stored driver position to a fresh one.  For a
generator thread restore calls the factory again with
``cursor=<the thread's last mark>`` and re-drives the fresh generator
through the recorded op results (see :mod:`repro.checkpoint.core`).

Factory protocol::

    def factory(*args, **kwargs) -> program   # re-drive adds cursor=
    def program(cpu) -> Generator

Arguments may be live objects (a shared TrojanControl, a SpyResult, a
decoder); they are pickled inside the checkpoint's single object graph,
so identity sharing between threads survives the round trip.  The one
exception is ``numpy`` generators: RNG streams are snapshotted by name
through :class:`repro.sim.rng.RngStreams`, so an argument that is an RNG
is recorded as an :class:`RngRef` placeholder and swapped for the
restored registry's stream at rebuild time.

This module is import-light on purpose: the kernel and channel layers
import it at module scope, while the heavyweight capture/restore logic
lives in :mod:`repro.checkpoint.core`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any


@dataclass(frozen=True)
class RngRef:
    """Placeholder for an RNG-stream argument, resolved at restore.

    ``RngRef("workload.kbuild.0")`` stands for
    ``rng_streams.get("workload.kbuild.0")`` — the *name* round-trips,
    the generator object (with its restored bit state) is looked up from
    the checkpoint's own restored :class:`~repro.sim.rng.RngStreams`.
    """

    stream: str


@dataclass
class TransmitContext:
    """Live state of one in-flight transmission attempt.

    Created by ``ChannelSession._transmit_once`` and carried inside the
    checkpoint pickle graph: its ``control``/``decoder``/``spy_result``
    are the *same objects* the thread :class:`ProgramSpec` args name, so
    a restored session's respawned threads and its resumed
    ``transmit(..., _resume=ctx)`` call share state exactly as the
    original did.
    """

    payload: list
    tag: int
    attempt: int
    label: str
    control: Any
    decoder: Any
    spy_result: Any


@dataclass
class ProgramSpec:
    """How to rebuild one thread's program from plain data.

    Parameters
    ----------
    fn:
        Dotted factory path, ``"package.module:factory"`` — resolved
        with :func:`repro.runner.spec.resolve_callable`.
    args / kwargs:
        The factory's build arguments.  May contain live objects (they
        ride the checkpoint pickle graph) and :class:`RngRef`
        placeholders (swapped for restored streams at rebuild time).
    """

    fn: str
    args: tuple = ()
    kwargs: dict[str, Any] = field(default_factory=dict)

    def build(self, resolve: Any, cursor: Any = None) -> Any:
        """Call the factory with RngRefs resolved via *resolve*.

        *resolve* maps an :class:`RngRef` to a live generator (normally
        ``lambda ref: rng_streams.get(ref.stream)``).  *cursor* is
        passed only when set: driven programs take none.
        """
        args = tuple(
            resolve(a) if isinstance(a, RngRef) else a for a in self.args
        )
        kwargs = {
            k: resolve(v) if isinstance(v, RngRef) else v
            for k, v in self.kwargs.items()
        }
        from repro.runner.spec import resolve_callable

        if cursor is not None:
            kwargs["cursor"] = cursor
        return resolve_callable(self.fn)(*args, **kwargs)
