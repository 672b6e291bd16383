"""Wall-clock timer registry backing the :mod:`repro.perf` facade.

The registry is deliberately tiny: a name → (count, total, min, max) map of
timers, guarded by one lock. Overhead per
timed call is two ``perf_counter`` reads and a dict update — cheap enough to
leave on the estimator / DTW / pipeline entry points permanently, which is
the whole point: the production hot paths carry their own instrumentation
instead of needing an external profiler bolted on.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import wraps
from typing import Any, Callable, Dict, Iterator, Optional

__all__ = ["TimerStats", "PerfRegistry"]


@dataclass
class TimerStats:
    """Accumulated statistics of one named timer."""

    count: int = 0
    total_s: float = 0.0
    min_s: float = float("inf")
    max_s: float = 0.0

    def add(self, elapsed_s: float) -> None:
        self.count += 1
        self.total_s += elapsed_s
        if elapsed_s < self.min_s:
            self.min_s = elapsed_s
        if elapsed_s > self.max_s:
            self.max_s = elapsed_s

    @property
    def mean_s(self) -> float:
        return self.total_s / self.count if self.count else 0.0

    def as_dict(self) -> Dict[str, float]:
        return {
            "count": self.count,
            "total_s": self.total_s,
            "mean_s": self.mean_s,
            "min_s": self.min_s if self.count else 0.0,
            "max_s": self.max_s,
        }


@dataclass
class PerfRegistry:
    """A named collection of wall-clock timers."""

    enabled: bool = True
    _timers: Dict[str, TimerStats] = field(default_factory=dict)
    _lock: threading.Lock = field(default_factory=threading.Lock)

    # -- recording -----------------------------------------------------------

    def record(self, name: str, elapsed_s: float) -> None:
        """Add one observation to timer ``name``."""
        if not self.enabled:
            return
        with self._lock:
            stats = self._timers.get(name)
            if stats is None:
                stats = self._timers[name] = TimerStats()
            stats.add(elapsed_s)

    @contextmanager
    def timer(self, name: str) -> Iterator[None]:
        """``with registry.timer("estimator.fit"): ...`` — times the block."""
        if not self.enabled:
            yield
            return
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.record(name, time.perf_counter() - t0)

    def profiled(
        self, name: Optional[str] = None
    ) -> Callable[[Callable[..., Any]], Callable[..., Any]]:
        """Decorator timing every call of the wrapped function.

        The timer name defaults to ``<leaf module>.<qualname>`` so e.g.
        ``EllipticalEstimator.fit`` shows up as ``estimator.EllipticalEstimator.fit``.
        """

        def decorate(fn: Callable[..., Any]) -> Callable[..., Any]:
            label = name or (
                f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__qualname__}"
            )

            @wraps(fn)
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                if not self.enabled:
                    return fn(*args, **kwargs)
                t0 = time.perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    self.record(label, time.perf_counter() - t0)

            wrapper.__perf_name__ = label  # type: ignore[attr-defined]
            return wrapper

        return decorate

    # -- reading / lifecycle -------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """A JSON-ready copy of every timer."""
        with self._lock:
            return {
                "timers": {k: v.as_dict() for k, v in sorted(self._timers.items())},
            }

    def reset(self) -> None:
        """Drop all accumulated timers."""
        with self._lock:
            self._timers.clear()

    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False
