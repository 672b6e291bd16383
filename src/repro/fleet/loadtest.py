"""Drive a tracking fleet with a generated load and measure what it serves.

This is the fleet's equivalent of :mod:`repro.sim.soak`: replay a
:class:`~repro.sim.load.LoadStream` tick by tick into a
:class:`~repro.fleet.TrackingFleet`, catching every exception (the fleet
inherits the service's never-raise-on-data contract) and measuring the
three numbers the ROADMAP's scale story is judged on:

* **fixes/sec** — accepted fixes per wall-clock second of processing;
* **fix latency** — per-fix processing latency: every fix accepted in a
  tick experienced that tick's wall-clock processing time, so the p50/p99
  are taken over the fix-weighted tick durations;
* **shed rate** — the fraction of offered samples refused or evicted by
  any admission layer (fleet admission, per-shard session caps, RSS-ring
  capacity pressure).

A load test can also exercise **live migration mid-stream**: with
``migrate_at_tick`` set, a deterministic slice of the live sessions moves
to other shards between two ticks. Because migration rides the
bit-identical checkpoint wire format, the resulting snapshot stream must
equal an unmigrated run's — ``snapshot_key`` defines that equality, and
the scale benchmark asserts it at load.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro import obs
from repro.errors import ConfigurationError, ReproError
from repro.fleet.fleet import FleetConfig, TrackingFleet
from repro.service.session import SessionSnapshot, snapshot_key
from repro.sim.load import LoadConfig, LoadStream, generate_load

__all__ = [
    "LoadTestConfig",
    "LoadTestResult",
    "run_load_test",
    "snapshot_key",
]


@dataclass(frozen=True)
class LoadTestConfig:
    """One load-test run: the fleet topology, the workload, migrations."""

    fleet: FleetConfig = field(default_factory=FleetConfig)
    load: LoadConfig = field(default_factory=LoadConfig)
    #: Tick index (1-based) *before* which a migration wave runs; ``None``
    #: disables migration.
    migrate_at_tick: Optional[int] = None
    #: Every ``migrate_stride``-th live session (in sorted beacon order)
    #: moves to the next shard, round-robin. 2 moves half the fleet.
    migrate_stride: int = 2

    def __post_init__(self) -> None:
        if self.migrate_at_tick is not None and self.migrate_at_tick < 1:
            raise ConfigurationError("migrate_at_tick must be >= 1")
        if self.migrate_stride < 1:
            raise ConfigurationError("migrate_stride must be >= 1")


@dataclass(frozen=True)
class LoadTestResult:
    """Everything one load-test run measured."""

    ticks: int
    offered_samples: int
    offered_per_s: float
    fixes_total: int
    #: Accepted fixes per wall-clock second of fleet processing.
    fixes_per_s: float
    #: Fix-weighted per-tick processing latency percentiles (ms).
    fix_latency_p50_ms: float
    fix_latency_p99_ms: float
    #: Fraction of offered samples lost to any shed/admission layer.
    shed_rate: float
    shed_samples: int
    #: Total wall-clock seconds spent in ingest+tick processing.
    wall_s: float
    #: ``(beacon_id, dst_shard)`` moves performed by the migration wave.
    migrations: Tuple[Tuple[str, int], ...]
    #: Per-beacon snapshot sequences (the migration-equivalence evidence).
    snapshots: Dict[str, List[SessionSnapshot]]
    #: ``"ExcType: message"`` per exception the driver caught (always a
    #: bug — the fleet must not raise on data).
    errors: Tuple[str, ...]
    untyped_errors: int
    #: Final :meth:`TrackingFleet.stats`.
    stats: Dict[str, object]


def _migration_wave(
    fleet: TrackingFleet, stride: int
) -> List[Tuple[str, int]]:
    """Move every ``stride``-th live session to the next shard."""
    beacons = sorted(
        b for w in fleet.workers for b in w.service.sessions
    )
    moves: List[Tuple[str, int]] = []
    for idx, beacon_id in enumerate(beacons):
        if idx % stride:
            continue
        src = fleet.shard_of(beacon_id)
        dst = (src + 1) % fleet.config.n_shards
        if dst == src:
            continue
        fleet.migrate(beacon_id, dst)
        moves.append((beacon_id, dst))
    return moves


def run_load_test(
    config: Optional[LoadTestConfig] = None,
    stream: Optional[LoadStream] = None,
) -> LoadTestResult:
    """Replay a load stream into a fresh fleet and measure it.

    ``stream`` lets callers reuse one generated workload across several
    runs (e.g. the migrated and unmigrated halves of an equivalence check,
    where regenerating would be both wasteful and a confound).
    """
    config = config or LoadTestConfig()
    if stream is None:
        stream = generate_load(config.load)
    fleet = TrackingFleet(config.fleet)
    obs.emit(
        "fleet.loadtest_started",
        severity="info",
        component="fleet",
        shards=config.fleet.n_shards,
        beacons=stream.n_beacons,
        offered_per_s=stream.offered_per_s,
    )

    errors: List[str] = []
    untyped = 0
    migrations: List[Tuple[str, int]] = []
    snapshots: Dict[str, List[SessionSnapshot]] = {}
    tick_wall: List[float] = []
    tick_fixes: List[int] = []

    for k, (t, scan_batch, imu_batch) in enumerate(stream.ticks, start=1):
        if (config.migrate_at_tick is not None
                and k == config.migrate_at_tick):
            migrations = _migration_wave(fleet, config.migrate_stride)
        fixes_before = obs.counts().get("fix.provenance", 0)
        start = time.perf_counter()
        try:
            fleet.ingest_scans(scan_batch)
            fleet.ingest_imu(imu_batch)
            snaps = fleet.tick(t)
        except ReproError as exc:
            # Typed refusal: the fleet said no in its own vocabulary.
            # Still a driver-visible failure (the contract is that data
            # errors are absorbed *inside* the fleet), but a different
            # defect class than an untyped escape — the chaos gate keys
            # off exactly this split.
            errors.append(f"{type(exc).__name__}: {exc}")
            obs.emit("fleet.loadtest_typed_error", severity="warning",
                     component="fleet", tick=k, error=type(exc).__name__)
            continue
        except Exception as exc:  # noqa: BLE001 — load tests record, not raise
            errors.append(f"{type(exc).__name__}: {exc}")
            untyped += 1
            obs.emit("fleet.loadtest_untyped_error", severity="error",
                     component="fleet", tick=k, error=type(exc).__name__)
            continue
        tick_wall.append(time.perf_counter() - start)
        tick_fixes.append(obs.counts().get("fix.provenance", 0)
                          - fixes_before)
        for beacon_id, snap in snaps.items():
            snapshots.setdefault(beacon_id, []).append(snap)

    wall_s = float(sum(tick_wall))
    fixes_total = int(sum(tick_fixes))
    latencies_ms = np.repeat(
        np.asarray(tick_wall, dtype=float) * 1e3,
        np.asarray(tick_fixes, dtype=int),
    )
    if latencies_ms.size:
        p50 = float(np.percentile(latencies_ms, 50))
        p99 = float(np.percentile(latencies_ms, 99))
    else:
        p50 = p99 = math.nan

    stats = fleet.stats()
    shed = (
        int(stats["shed_samples"])          # per-shard session-cap refusals
        + int(stats["refused_samples"])     # fleet admission refusals
        + sum(int(s["rss_shed"]) for s in stats["per_shard"])  # ring pressure
    )
    return LoadTestResult(
        ticks=len(stream.ticks),
        offered_samples=stream.offered_samples,
        offered_per_s=stream.offered_per_s,
        fixes_total=fixes_total,
        fixes_per_s=(fixes_total / wall_s if wall_s > 0 else 0.0),
        fix_latency_p50_ms=p50,
        fix_latency_p99_ms=p99,
        shed_rate=(shed / stream.offered_samples
                   if stream.offered_samples else 0.0),
        shed_samples=shed,
        wall_s=wall_s,
        migrations=tuple(migrations),
        snapshots=snapshots,
        errors=tuple(errors),
        untyped_errors=untyped,
        stats=stats,
    )
