"""Per-layer self times, measured by wrapping the program's public functions.

The benchmark traces LocBLE from the outside: :meth:`Tracer.wrap` replaces a
public function or method with a wrapper that records one span per call, and
:meth:`Tracer.uninstall` puts the originals back. Nothing inside ``src/`` is
edited, so the untraced run measures the unmodified program.

Spans nest on one stack (every wrapped call is synchronous, so the stack is
exact even inside the gateway's event loop). A span's *self time* is its
duration minus the durations of the spans it encloses, so the self times of
all spans add up to the time spent inside top-level spans.
"""

from __future__ import annotations

import functools
import inspect
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: ``observe(args, kwargs, result)`` — called after a wrapped call returns,
#: to count what the call did (requests, bytes, ...).
Observer = Callable[[tuple, dict, Any], None]


class Tracer:
    """Records calls and self time per span name."""

    def __init__(self) -> None:
        self.calls: Dict[str, int] = {}
        self.self_s: Dict[str, float] = {}
        #: Free-form counts recorded by observers (``tracer.add(name, n)``).
        self.counts: Dict[str, float] = {}
        self._stack: List[List[float]] = []  # [start, enclosed child time]
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- spans ---------------------------------------------------------------

    def _begin(self) -> None:
        self._stack.append([time.perf_counter(), 0.0])

    def _end(self, name: str) -> None:
        now = time.perf_counter()
        start, child = self._stack.pop()
        duration = now - start
        self.calls[name] = self.calls.get(name, 0) + 1
        self.self_s[name] = self.self_s.get(name, 0.0) + duration - child
        if self._stack:
            self._stack[-1][1] += duration

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record the enclosed block as one span (for benchmark-side phases)."""
        self._begin()
        try:
            yield
        finally:
            self._end(name)

    def add(self, name: str, n: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def total_self_s(self) -> float:
        return sum(self.self_s.values())

    # -- installing wrappers -------------------------------------------------

    def wrap(self, owner: Any, attr: str, name: str,
             observe: Optional[Observer] = None) -> None:
        """Replace ``owner.attr`` (a class's method or a module's function)
        with a traced wrapper recording spans under ``name``."""
        if inspect.isclass(owner):
            original = owner.__dict__[attr]
            if not inspect.isfunction(original):
                raise TypeError(f"{owner.__name__}.{attr} is not a plain method")
        else:
            original = getattr(owner, attr)
        # Several modules may import one function by name: wrap the original
        # once, so every alias records into the same span.
        for _owner, _attr, orig in self._patches:
            if orig is original:
                setattr(owner, attr, getattr(_owner, _attr))
                self._patches.append((owner, attr, original))
                return

        @functools.wraps(original)
        def traced(*args: Any, **kwargs: Any) -> Any:
            self._begin()
            try:
                result = original(*args, **kwargs)
            finally:
                self._end(name)
            if observe is not None:
                observe(args, kwargs, result)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))
        self.calls.setdefault(name, 0)
        self.self_s.setdefault(name, 0.0)

    def uninstall(self) -> None:
        """Restore every wrapped attribute to the original."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
