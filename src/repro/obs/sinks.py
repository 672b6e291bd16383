"""Event sinks: where :class:`~repro.obs.events.Event` records go.

Three sinks cover the deployment shapes the ROADMAP cares about:

* :class:`RingBufferSink` — the always-on in-memory tail. Bounded (so a
  year-long service cannot leak), drainable (the soak harness empties it
  into its acceptance report), and cheap enough to leave attached forever.
* :class:`JsonLinesSink` — the durable machine-readable log: one JSON
  object per line, flushed per event so a crash loses at most the record
  being written. This is the format ``python -m repro obs report`` reads.
* :class:`CountingSink` — n-weighted event volume per name, plus the
  wall-clock aggregate of every ``span`` event's duration per span name.
  One is always attached behind :func:`repro.obs.counts` and
  :func:`repro.obs.timings`, which makes it the library's counter and timer
  view: a counter is the volume of the event of that name, a timer the sum
  of the spans of that name.
"""

from __future__ import annotations

import os
import threading
from collections import deque
from pathlib import Path
from typing import Any, Deque, Dict, List, Mapping, Optional, Union

from repro.obs.events import Event

__all__ = ["RingBufferSink", "JsonLinesSink", "CountingSink", "fold_span",
           "timing_stats"]

#: Durability policies for :class:`JsonLinesSink` (mirrors
#: :class:`repro.gateway.TraceWriter`): ``"flush"`` survives a process
#: crash, ``"fsync"`` additionally survives an OS/power crash.
DURABILITY_POLICIES = ("flush", "fsync")


class RingBufferSink:
    """Keeps the most recent ``capacity`` events in memory."""

    def __init__(self, capacity: int = 8192):
        if capacity < 1:
            raise ValueError("ring capacity must be >= 1")
        self.capacity = int(capacity)
        self._lock = threading.Lock()
        self._events: Deque[Event] = deque(maxlen=self.capacity)
        self.total = 0  # every event ever written, including evicted ones

    def write(self, event: Event) -> None:
        with self._lock:
            self._events.append(event)
            self.total += 1

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)

    def tail(self, n: Optional[int] = None) -> List[Event]:
        """The newest ``n`` events, oldest first (all when ``n`` is None)."""
        with self._lock:
            events = list(self._events)
        return events if n is None else events[-n:]

    def drain(self) -> List[Event]:
        """Remove and return every buffered event, oldest first."""
        with self._lock:
            events = list(self._events)
            self._events.clear()
        return events

    def clear(self) -> None:
        with self._lock:
            self._events.clear()


class JsonLinesSink:
    """Appends each event as one JSON line to a file.

    The file handle is opened lazily on the first event and flushed after
    every write; :meth:`close` is idempotent. ``durability="fsync"``
    additionally fsyncs each record, so the log survives an OS or power
    crash at the cost of one sync per event — the right policy when the
    event log *is* the incident record. A sink whose file becomes
    unwritable raises out of ``write`` — the
    :class:`~repro.obs.events.EventLog` responds by detaching it, so the
    solve path keeps running.
    """

    def __init__(self, path: Union[str, Path], durability: str = "flush"):
        if durability not in DURABILITY_POLICIES:
            raise ValueError(
                f"durability must be one of {DURABILITY_POLICIES}, "
                f"got {durability!r}")
        self.path = Path(path)
        self.durability = durability
        self._lock = threading.Lock()
        self._fh = None
        self.written = 0

    def write(self, event: Event) -> None:
        with self._lock:
            if self._fh is None:
                self._fh = open(self.path, "a", encoding="utf-8")
            self._fh.write(event.to_json() + "\n")
            self._fh.flush()
            if self.durability == "fsync":
                os.fsync(self._fh.fileno())
            self.written += 1

    def close(self) -> None:
        with self._lock:
            if self._fh is not None:
                self._fh.close()
                self._fh = None

    def __enter__(self) -> "JsonLinesSink":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def fold_span(timings: Dict[str, Dict[str, float]],
              record: Mapping[str, Any]) -> Optional[str]:
    """Fold one span record into ``timings[span]`` (count, total, min, max).

    ``record`` is a ``span`` event's fields or one parsed log line. This is
    the one rule behind :func:`repro.obs.timings` and the span table of
    ``python -m repro obs report``. Returns the span name (None if absent).
    """
    name = record.get("span")
    if name is None:
        return None
    name = str(name)
    try:
        duration = float(record.get("duration_s") or 0.0)
    except (TypeError, ValueError):
        duration = 0.0
    agg = timings.setdefault(name, {"count": 0, "total_s": 0.0,
                                    "min_s": duration, "max_s": duration})
    agg["count"] += 1
    agg["total_s"] += duration
    agg["min_s"] = min(agg["min_s"], duration)
    agg["max_s"] = max(agg["max_s"], duration)
    return name


def timing_stats(timings: Dict[str, Dict[str, float]]) -> Dict[str, Dict[str, float]]:
    """``{count, total_s, mean_s, min_s, max_s}`` per name, sorted by name."""
    return {
        name: {
            "count": agg["count"],
            "total_s": agg["total_s"],
            "mean_s": agg["total_s"] / agg["count"],
            "min_s": agg["min_s"],
            "max_s": agg["max_s"],
        }
        for name, agg in sorted(timings.items())
    }


class CountingSink:
    """Sums each event's ``n`` field per event name, and times spans.

    An event without an ``n`` field, or whose ``n`` is not an ``int`` (a
    ``bool`` included), counts as 1 — so an emitter that refuses a batch
    of 40 samples in one event (``n=40``) weighs the same as 40 one-sample
    events. Each ``span`` event's duration is folded into its span name's
    aggregate (:func:`fold_span`).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.by_name: Dict[str, int] = {}
        self._timings: Dict[str, Dict[str, float]] = {}

    def write(self, event: Event) -> None:
        n = event.fields.get("n", 1)
        if not isinstance(n, int) or isinstance(n, bool):
            n = 1
        with self._lock:
            self.by_name[event.name] = self.by_name.get(event.name, 0) + n
            if event.name == "span":
                fold_span(self._timings, event.fields)

    def count(self, name: str) -> int:
        with self._lock:
            return self.by_name.get(name, 0)

    def counts(self) -> Dict[str, int]:
        """A copy of every per-name total."""
        with self._lock:
            return dict(self.by_name)

    def timings(self) -> Dict[str, Dict[str, float]]:
        """Wall-clock seconds per span name (see :func:`timing_stats`)."""
        with self._lock:
            return timing_stats(self._timings)
