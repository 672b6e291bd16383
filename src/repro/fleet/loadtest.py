"""Drive a tracking fleet with a generated load and measure what it serves.

The fleet's equivalent of :mod:`repro.sim.soak`: a
:class:`~repro.sim.load.LoadStream` is replayed tick by tick into a
:class:`~repro.fleet.TrackingFleet` on the :mod:`repro.sim.harness`
skeleton (the fleet inherits the service's never-raise-on-data contract),
measuring fixes/sec, fix latency (every fix accepted in a tick experienced
that tick's processing time, so percentiles are over the fix-weighted tick
durations) and the shed rate over every admission layer.

With ``migrate_at_tick`` set, a deterministic slice of the live sessions
moves to other shards between two ticks. Migration rides the bit-identical
checkpoint wire format, so the snapshot stream must equal an unmigrated
run's: ``snapshot_key`` defines that equality, and the scale benchmark
asserts it at load.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro import obs
from repro.errors import ConfigurationError
from repro.fleet.fleet import FleetConfig, TrackingFleet
from repro.service.session import SessionSnapshot, snapshot_key
from repro.sim.harness import Run, observed
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

    @property
    def passed(self) -> bool:
        return self.untyped_errors == 0


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
    run = Run("fleet")
    migrations: List[Tuple[str, int]] = []
    tick_fixes: List[int] = []

    def step(t, scans, imu):
        fleet.ingest_scans(scans)
        fleet.ingest_imu(imu)
        return fleet.tick(t)

    with observed() as sink:
        obs.emit(
            "fleet.loadtest_started",
            severity="info",
            component="fleet",
            shards=config.fleet.n_shards,
            beacons=stream.n_beacons,
            offered_per_s=stream.offered_per_s,
        )
        for k, (t, scans, imu) in enumerate(stream.ticks, start=1):
            if (config.migrate_at_tick is not None
                    and k == config.migrate_at_tick):
                migrations = _migration_wave(fleet, config.migrate_stride)
            fixes_before = sink.count("fix.provenance")
            if run.tick(t, step, scans, imu) is not None:
                tick_fixes.append(sink.count("fix.provenance") - fixes_before)

    wall_s = float(sum(run.tick_wall))
    fixes_total = int(sum(tick_fixes))
    latencies_ms = np.repeat(
        np.asarray(run.tick_wall, dtype=float) * 1e3,
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
        snapshots=run.snapshots,
        errors=run.errors,
        untyped_errors=run.untyped_errors,
        stats=stats,
    )
