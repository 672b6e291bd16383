"""Deterministic parallel execution of seeded Monte-Carlo trials.

Every sweep in this repo has the same shape: call ``fn(seed)`` for a list of
seeds and collect the results. :func:`run_trials` runs that shape over a
``ProcessPoolExecutor`` while keeping three guarantees the serial loops gave
for free:

* **Determinism** — each trial derives all randomness from
  ``np.random.default_rng(seed)`` inside ``fn``, so results are bit-identical
  for any worker count or completion order; results are always returned in
  seed order.
* **Isolation** — an exception inside one trial is captured as a
  :class:`TrialResult` failure instead of killing the sweep.
* **Graceful degradation** — small sweeps, ``max_workers=1``, pickling
  failures and pool start-up failures all fall back to the serial path.

Usage::

    from repro.sim.parallel import run_trials

    results = run_trials(my_trial, seeds=range(100), max_workers=4)
    errors = [r.value for r in results if r.ok]
"""

from __future__ import annotations

import traceback
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Any, Callable, Iterable, List, Optional, Sequence

from repro import obs
from repro.errors import ConfigurationError

__all__ = ["TrialResult", "run_trials", "effective_workers"]

#: Below this many seeds the pool's start-up cost outweighs any parallelism;
#: ``parallel="auto"`` stays serial.
MIN_PARALLEL_TRIALS = 4


@dataclass(frozen=True)
class TrialResult:
    """Outcome of one seeded trial: a value or a captured failure."""

    seed: int
    value: Any = None
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.error is None


def effective_workers(
    n_trials: int, max_workers: Optional[int]
) -> int:
    """Worker count actually used for ``n_trials`` trials."""
    import os

    if max_workers is None:
        max_workers = os.cpu_count() or 1
    return max(1, min(max_workers, n_trials))


def _run_one(fn: Callable[[int], Any], seed: int) -> TrialResult:
    """Worker-side wrapper: capture any exception as a recorded failure."""
    try:
        return TrialResult(seed=seed, value=fn(seed))
    except Exception as exc:  # noqa: BLE001 — isolation is the contract
        detail = "".join(
            traceback.format_exception_only(type(exc), exc)
        ).strip()
        return TrialResult(seed=seed, error=detail)


def _run_serial(fn: Callable[[int], Any], seeds: Sequence[int]) -> List[TrialResult]:
    return [_run_one(fn, seed) for seed in seeds]


def run_trials(
    fn: Callable[[int], Any],
    seeds: Iterable[int],
    max_workers: Optional[int] = None,
    parallel: str = "auto",
) -> List[TrialResult]:
    """Run ``fn(seed)`` for every seed; results in seed order.

    ``fn`` must derive all its randomness from the seed (spawn
    ``np.random.default_rng(seed)`` internally) and be picklable for the
    process pool — a module-level function or callable instance.

    ``parallel`` is ``"auto"`` (pool when it plausibly pays off),
    ``"force"`` (always try the pool) or ``"off"`` (always serial).
    ``max_workers=None`` uses the CPU count. Pool-level failures — pickling,
    a broken pool, missing multiprocessing support — degrade to the serial
    path; *trial*-level failures are captured per seed either way.
    """
    if parallel not in ("auto", "force", "off"):
        raise ConfigurationError(
            f"parallel must be 'auto', 'force' or 'off', got {parallel!r}"
        )
    seeds = [int(s) for s in seeds]
    workers = effective_workers(len(seeds), max_workers)
    use_pool = parallel == "force" or (
        parallel == "auto"
        and workers > 1
        and len(seeds) >= MIN_PARALLEL_TRIALS
    )
    if not use_pool or workers < 1:
        return _run_serial(fn, seeds)

    try:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_run_one, fn, seed) for seed in seeds]
            return [f.result() for f in futures]
    except Exception as exc:  # noqa: BLE001 — pool failure degrades, never crashes
        # Unpicklable fn, fork failure, or a broken pool: the sweep still
        # completes serially with identical (deterministic) results.
        obs.emit("parallel.pool_fallback", severity="warning",
                 component="parallel", error=type(exc).__name__)
        return _run_serial(fn, seeds)