"""The one skeleton every acceptance harness runs on.

The soak, gateway soak, chaos and load-test harnesses each build a seeded
stream, drive it tick by tick, record what each tick produced or raised,
and decide a verdict (``result.passed``)::

    run = Run("soak")
    with observed(events_jsonl) as sink:
        for t, scans, imu in ticks:
            run.tick(t, step, scans, imu)   # step(t, scans, imu)
    run.errors, run.untyped_errors, run.digests, sink.counts()

:meth:`Run.tick` never lets an exception abort the run: it records it and
moves on, so one bug cannot hide later ones.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import (
    Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple,
)

from repro import obs
from repro.errors import ReproError
from repro.service.session import SessionSnapshot, snapshot_digest

__all__ = ["Run", "observed", "first_divergence"]


@dataclass
class Run:
    """One harness run's tick recorder and error ledger."""

    harness: str
    #: Exception types the driven code may surface (typed refusals);
    #: anything else is an untyped error, which is always a bug.
    allowed: Tuple[type, ...] = (ReproError,)
    #: ``("ExcType: message", typed)`` per recorded error, in order.
    caught: List[Tuple[str, bool]] = field(default_factory=list)
    #: Per-beacon snapshot sequences of the successful ticks.
    snapshots: Dict[str, List[SessionSnapshot]] = field(default_factory=dict)
    #: ``(t, snapshot_digest)`` per tick; ``None`` when the step raised.
    digests: List[Tuple[float, Optional[str]]] = field(default_factory=list)
    #: Wall-clock seconds of each successful tick's step.
    tick_wall: List[float] = field(default_factory=list)

    @property
    def errors(self) -> Tuple[str, ...]:
        return tuple(message for message, _ in self.caught)

    @property
    def untyped_errors(self) -> int:
        return sum(1 for _, typed in self.caught if not typed)

    def catch(self, exc: BaseException, t: Optional[float] = None) -> None:
        """Record an exception, typed when it is one of ``allowed``."""
        self._record(f"{type(exc).__name__}: {exc}",
                     isinstance(exc, self.allowed), t)

    def fail(self, message: str, t: Optional[float] = None) -> None:
        """Record an untyped failure that is not an exception."""
        self._record(message, False, t)

    def _record(self, message: str, typed: bool, t: Optional[float]) -> None:
        self.caught.append((message, typed))
        obs.emit("harness.error", severity="warning" if typed else "error",
                 component="harness", harness=self.harness, t=t,
                 error=message, typed=typed)

    def tick(
        self,
        t: float,
        step: Callable[..., Dict[str, SessionSnapshot]],
        *batch: Any,
    ) -> Optional[Dict[str, SessionSnapshot]]:
        """Run ``step(t, *batch)``: its snapshots, or ``None`` if it raised."""
        start = time.perf_counter()
        try:
            snaps = step(t, *batch)
        except Exception as exc:  # noqa: BLE001 — recorded, never raised
            self.catch(exc, t)
            self.digests.append((t, None))
            return None
        self.tick_wall.append(time.perf_counter() - start)
        self.digests.append((t, snapshot_digest(snaps)))
        for beacon_id, snap in snaps.items():
            self.snapshots.setdefault(beacon_id, []).append(snap)
        return snaps

    def fork(self) -> "Run":
        """A fresh tick recorder that shares this run's error ledger."""
        return Run(self.harness, self.allowed, self.caught)


@contextmanager
def observed(
    events_jsonl: Optional[str] = None,
) -> Iterator["obs.CountingSink"]:
    """Attach a run-scoped :class:`~repro.obs.CountingSink` (yielded) and,
    with ``events_jsonl`` set, a JSON-lines log of every event in the run."""
    counting = obs.add_sink(obs.CountingSink())
    jsonl = (None if events_jsonl is None
             else obs.add_sink(obs.JsonLinesSink(events_jsonl)))
    try:
        yield counting
    finally:
        obs.remove_sink(counting)
        if jsonl is not None:
            obs.remove_sink(jsonl)
            jsonl.close()


def first_divergence(
    a: Sequence[Tuple[float, Optional[str]]],
    b: Sequence[Tuple[float, Optional[str]]],
) -> Optional[float]:
    """Stream time of the first tick where two digest streams differ.

    A stream that runs longer than the other diverges at its first extra
    tick. ``None`` when both are identical.
    """
    for x, y in zip(a, b):
        if x != y:
            return x[0]
    if len(a) == len(b):
        return None
    return (a if len(a) > len(b) else b)[min(len(a), len(b))][0]
