"""Lightweight nesting spans over the structured event log.

A span times one named operation::

    with obs.span("estimator.solve", beacon="b0"):
        fit = estimator.fit(p, q, rss)

Spans nest: the outermost span mints a correlation (trace) id, inner spans
inherit it, and every event emitted inside the ``with`` block — by any
module, at any depth — carries that id, so one solve's whole story can be
grepped out of a JSON-lines log with a single filter.

On exit each span emits a single ``span`` event (name, duration, depth,
status — ``error`` plus the exception type if the block raised, which then
propagates untouched). That event is the only timing record: the
always-attached counting sink folds each ``duration_s`` into per-name
aggregates, read back with :func:`repro.obs.timings`.

A span is also a decorator — ``@obs.span("anf.AdaptiveNoiseFilter.apply")``
times every call, each one its own span (and, at top level, its own trace).
"""

from __future__ import annotations

import contextvars
import time
from contextlib import contextmanager
from typing import Any, Iterator, Optional, Tuple

from repro.obs.events import EventLog

__all__ = ["SpanHandle", "current_trace_id", "span_context"]

#: The stack of open spans in the current execution context; contextvars
#: keep nesting correct across threads (and coroutines, should they appear).
_SPAN_STACK: contextvars.ContextVar[Tuple["SpanHandle", ...]] = (
    contextvars.ContextVar("repro_obs_span_stack", default=())
)


class SpanHandle:
    """One open span: its identity plus mutable fields for late annotation."""

    __slots__ = ("name", "component", "trace_id", "depth", "fields", "t0")

    def __init__(self, name: str, component: str, trace_id: str,
                 depth: int, fields: dict):
        self.name = name
        self.component = component
        self.trace_id = trace_id
        self.depth = depth
        self.fields = fields
        self.t0 = time.perf_counter()

    def annotate(self, **fields: Any) -> None:
        """Attach extra fields reported on the span's closing event."""
        self.fields.update(fields)


def current_trace_id() -> Optional[str]:
    """The correlation id of the innermost open span, if any."""
    stack = _SPAN_STACK.get()
    return stack[-1].trace_id if stack else None


@contextmanager
def span_context(
    log: EventLog,
    name: str,
    *,
    component: str = "repro",
    **fields: Any,
) -> Iterator[SpanHandle]:
    """Open a span on ``log``; see the module docstring.

    Exposed through :func:`repro.obs.span`, which binds the default log.
    While the log is disabled the body still runs but no event is emitted,
    so nothing is timed either.
    """
    stack = _SPAN_STACK.get()
    trace_id = stack[-1].trace_id if stack else log.next_trace_id()
    handle = SpanHandle(name, component, trace_id, len(stack), dict(fields))
    token = _SPAN_STACK.set(stack + (handle,))
    status = "ok"
    error: Optional[str] = None
    try:
        yield handle
    except BaseException as exc:
        status = "error"
        error = type(exc).__name__
        raise
    finally:
        _SPAN_STACK.reset(token)
        duration = time.perf_counter() - handle.t0
        closing = dict(handle.fields)
        closing["duration_s"] = duration
        closing["depth"] = handle.depth
        closing["status"] = status
        if error is not None:
            closing["error"] = error
        log.emit(
            "span",
            severity="info" if status == "ok" else "warning",
            component=component,
            trace=trace_id,
            span=name,
            **closing,
        )
