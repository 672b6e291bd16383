"""Structured observability for the LocBLE reproduction (:mod:`repro.obs`).

The silent-failure postmortems that motivated this layer all shared one
shape: a numeric fallback fired (``except LinAlgError: pass``, a capped
std, a shed sample) and nothing recorded that it had happened. ``repro.obs``
makes those paths loud without making them fragile — every fallback becomes
a typed, JSON-serialisable event, and the emitting code path never slows
down meaningfully or crashes because of telemetry. The event is also the
counter: :func:`counts` is the n-weighted volume of each event name, so
there is one call per signal and nothing to keep in step. The span is also
the timer: :func:`timings` sums each span name's ``span`` event durations.

The module doubles as a process-wide facade::

    from repro import obs

    obs.emit("estimator.cov_fallback", severity="warning",
             component="estimator", status="rank-deficient", cond=3.2e17)

    with obs.span("pipeline.estimate", beacon="b0") as sp:
        result = locble.estimate(trace)
        sp.annotate(confidence=result.confidence)

    @obs.span("anf.AdaptiveNoiseFilter.apply", component="anf")
    def apply(self, values, fs_hz): ...

    obs.timings()["pipeline.estimate"]["mean_s"]

A bounded :class:`~repro.obs.sinks.RingBufferSink` and a
:class:`~repro.obs.sinks.CountingSink` are always attached, so the most
recent events (``obs.tail()``), every event's running total
(``obs.counts()``) and every span name's wall-clock aggregate
(``obs.timings()``) are inspectable even when nothing was configured; extra
sinks (a :class:`~repro.obs.sinks.JsonLinesSink` file, a run-scoped
:class:`~repro.obs.sinks.CountingSink`) attach and detach freely. See
``docs/observability.md`` for the event schema and the list of events each
component emits.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional

from repro.obs.events import SEVERITIES, Event, EventLog
from repro.obs.provenance import FixProvenance
from repro.obs.sinks import CountingSink, JsonLinesSink, RingBufferSink
from repro.obs.spans import SpanHandle, current_trace_id, span_context

__all__ = [
    "SEVERITIES",
    "Event",
    "EventLog",
    "FixProvenance",
    "RingBufferSink",
    "JsonLinesSink",
    "CountingSink",
    "SpanHandle",
    "log",
    "ring",
    "emit",
    "span",
    "current_trace_id",
    "add_sink",
    "remove_sink",
    "tail",
    "counts",
    "timings",
    "drain",
    "reset",
    "enable",
    "disable",
]

#: The process-wide event log every instrumented module emits into.
log = EventLog()

#: The always-attached in-memory tail (drained by the soak harness).
ring: RingBufferSink = log.add_sink(RingBufferSink())

#: The always-attached counter and timer view behind :func:`counts` and
#: :func:`timings`.
_counting: CountingSink = log.add_sink(CountingSink())


def emit(
    name: str,
    *,
    severity: str = "info",
    component: str = "repro",
    trace: Optional[str] = None,
    **fields: Any,
) -> Optional[Event]:
    """Emit one event on the default log.

    When no ``trace`` is given, the correlation id of the innermost open
    :func:`span` (if any) is attached automatically, so leaf emissions
    inside a solve inherit the solve's id for free.
    """
    if trace is None:
        trace = current_trace_id()
    return log.emit(
        name, severity=severity, component=component, trace=trace, **fields
    )


def span(
    name: str, *, component: str = "repro", **fields: Any
) -> Iterator[SpanHandle]:
    """Open a timed, nesting span on the default log (see :mod:`.spans`)."""
    return span_context(log, name, component=component, **fields)


def add_sink(sink: Any) -> Any:
    """Attach a sink to the default log; returns the sink."""
    return log.add_sink(sink)


def remove_sink(sink: Any) -> bool:
    """Detach a sink from the default log."""
    return log.remove_sink(sink)


def tail(n: Optional[int] = None) -> List[Event]:
    """The newest ``n`` events in the default ring (all when ``n`` is None)."""
    return ring.tail(n)


def counts() -> Dict[str, int]:
    """n-weighted event volume per name since the last :func:`reset`.

    This is the library's only counter store: a counter is the volume of
    the event of the same name (see :class:`CountingSink` for the ``n``
    rule). Take a before/after difference to count over a window.
    """
    return _counting.counts()


def timings() -> Dict[str, Dict[str, float]]:
    """Wall-clock seconds per span name since the last :func:`reset`.

    This is the library's only in-process timer store: each entry sums the
    ``duration_s`` of every ``span`` event of that name, as
    ``{count, total_s, mean_s, min_s, max_s}`` — the same aggregation
    ``python -m repro obs report`` applies to a log file. Spans closed while
    the log is disabled emit no event and so are not timed.
    """
    return _counting.timings()


def drain() -> List[Event]:
    """Remove and return everything buffered in the default ring."""
    return ring.drain()


def reset() -> None:
    """Detach every sink, restart numbering, re-attach a fresh default
    ring and counter view.

    Test isolation helper; it also clears :func:`counts` and
    :func:`timings`.
    """
    global ring, _counting
    log.reset()
    log.enabled = True
    ring = log.add_sink(RingBufferSink())
    _counting = log.add_sink(CountingSink())


def enable() -> None:
    log.enable()


def disable() -> None:
    """Stop emitting (sinks stay attached; spans run untimed)."""
    log.disable()
