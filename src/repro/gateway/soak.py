"""Gateway soak: concurrent hostile clients, one deterministic spine.

A :class:`~repro.sim.load.LoadConfig` workload is partitioned across
``n_clients`` :class:`~repro.gateway.client.SimulatedClient`\\ s, every
outbound frame gets a seeded :class:`~repro.sim.faults.FrameFate` from a
:class:`~repro.sim.faults.TransportFaultModel`, and the stream is pushed
through a live :class:`~repro.gateway.IngestionGateway` tick by tick on the
:mod:`repro.sim.harness` skeleton: clients misbehave concurrently *within*
a tick, the gateway drains deterministically *at* it.
:attr:`GatewaySoakResult.passed` requires zero untyped exceptions (only
``DataQualityError``/``ConfigurationError`` are typed; a dead gateway task
is untyped), every tick committed, every ``gateway.*`` counter equal to its
obs event volume over the run, and, when recording, identical live, trace
and replay digests.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError, DataQualityError
from repro.fleet import FleetConfig, TrackingFleet
from repro.gateway.client import SimulatedClient
from repro.gateway.gateway import GatewayConfig, IngestionGateway
from repro.gateway.trace import (
    ReplayResult,
    TraceWriter,
    read_trace,
    replay,
    trace_meta,
)
from repro.sim.faults import FrameFate, TransportFaultModel
from repro.sim.harness import Run, first_divergence, observed
from repro.sim.load import LoadConfig, generate_load

__all__ = ["GatewaySoakConfig", "GatewaySoakResult", "run_gateway_soak"]

#: One client's schedule for one tick: ``[(frame, fate), ...]``.
_TickSchedule = List[Tuple[Dict[str, Any], FrameFate]]


@dataclass(frozen=True)
class GatewaySoakConfig:
    """One gateway soak run: workload, fault matrix, topology, recording."""

    load: LoadConfig = field(default_factory=lambda: LoadConfig(
        duration_s=20.0, n_beacons=8, template_beacons=4, rate_hz=4.0))
    transport: TransportFaultModel = field(
        default_factory=TransportFaultModel)
    gateway: GatewayConfig = field(default_factory=GatewayConfig)
    fleet: FleetConfig = field(default_factory=FleetConfig)
    n_clients: int = 4
    seed: int = 0
    #: IMU samples bundled per imu frame (client 0 carries the IMU feed).
    imu_chunk: int = 64
    record_path: Optional[str] = None
    #: Replay the recorded trace afterwards and compare digests.
    replay_check: bool = True
    ack_timeout_s: float = 0.1
    max_attempts: int = 4
    #: Wall-sleep multiplier on client backoff (keeps soaks fast).
    sleep_scale: float = 0.001

    def __post_init__(self) -> None:
        if self.n_clients < 1:
            raise ConfigurationError("n_clients must be >= 1")
        if self.imu_chunk < 1:
            raise ConfigurationError("imu_chunk must be >= 1")


@dataclass
class GatewaySoakResult:
    """Everything the acceptance gate needs, in one report."""

    ticks: int = 0
    offered_samples: int = 0
    #: Samples the gateway acked into queues (sum of client ``taken``).
    delivered_samples: int = 0
    fleet_sessions: int = 0
    queue_shed: int = 0
    gateway_counters: Dict[str, int] = field(default_factory=dict)
    client_stats: Dict[str, Dict[str, int]] = field(default_factory=dict)
    #: ``n``-weighted obs event volume per event name over the run.
    event_volumes: Dict[str, int] = field(default_factory=dict)
    #: Counter names whose obs-event volume disagreed (must be empty).
    parity_failures: List[str] = field(default_factory=list)
    errors: List[str] = field(default_factory=list)
    untyped_errors: int = 0
    #: Per-tick live snapshot digests (the replay comparison baseline).
    tick_digests: List[Optional[str]] = field(default_factory=list)
    trace_path: Optional[str] = None
    replay_result: Optional[ReplayResult] = None
    #: First stream time at which the live digest stream differed from the
    #: recorded trace's (a missing or extra tick counts); None if never.
    divergence_t: Optional[float] = None

    @property
    def replay_identical(self) -> Optional[bool]:
        """Live, trace and replay agree tick by tick (None: not checked)."""
        if self.replay_result is None:
            return None
        return self.replay_result.identical and self.divergence_t is None

    @property
    def passed(self) -> bool:
        """Zero untyped leaks, every tick committed, full parity, and (if
        recorded) bit-identity."""
        return (self.untyped_errors == 0 and None not in self.tick_digests
                and not self.parity_failures
                and self.replay_identical is not False)

    def summary(self) -> Dict[str, Any]:
        return {
            "ticks": self.ticks,
            "offered_samples": self.offered_samples,
            "delivered_samples": self.delivered_samples,
            "fleet_sessions": self.fleet_sessions,
            "queue_shed": self.queue_shed,
            "gateway_counters": dict(sorted(self.gateway_counters.items())),
            "client_stats": self.client_stats,
            "errors": len(self.errors),
            "untyped_errors": self.untyped_errors,
            "parity_failures": list(self.parity_failures),
            "trace_path": self.trace_path,
            "replay_identical": self.replay_identical,
            "divergence_t": self.divergence_t,
            "replay_mismatches": (None if self.replay_result is None
                                  else len(self.replay_result.mismatches)),
            "passed": self.passed,
        }


def _build_schedules(
    config: GatewaySoakConfig,
) -> Tuple[List[float], List[List[_TickSchedule]], int]:
    """Per-tick, per-client frame schedules with seeded fates.

    Beacons are assigned to clients round-robin over the sorted beacon
    universe; client 0 additionally carries the shared IMU feed. Frame
    seqs are per client, monotone across the whole run. Returns
    ``(tick_times, schedules[tick][client], offered_samples)``.
    """
    stream = generate_load(config.load)
    beacons = sorted({s.beacon_id for _, scans, _ in stream.ticks
                      for s in scans})
    owner = {b: i % config.n_clients for i, b in enumerate(beacons)}

    seqs = [0] * config.n_clients
    tick_times: List[float] = []
    raw: List[List[List[Dict[str, Any]]]] = []
    for t, scans, imu in stream.ticks:
        tick_times.append(float(t))
        per_client: List[List[Dict[str, Any]]] = [
            [] for _ in range(config.n_clients)]
        by_beacon: Dict[str, List] = {}
        for s in scans:
            by_beacon.setdefault(s.beacon_id, []).append(s)
        for b in sorted(by_beacon):
            c = owner[b]
            per_client[c].append({
                "type": "scan", "seq": seqs[c], "beacon": b,
                "samples": [[s.timestamp, s.rssi, s.channel]
                            for s in by_beacon[b]],
            })
            seqs[c] += 1
        imu = list(imu)
        for i in range(0, len(imu), config.imu_chunk):
            chunk = imu[i:i + config.imu_chunk]
            per_client[0].append({
                "type": "imu", "seq": seqs[0],
                "samples": [[s.timestamp, s.accel, s.gyro_z, s.mag_heading]
                            for s in chunk],
            })
            seqs[0] += 1
        raw.append(per_client)

    # Roll each client's whole fate script in one deterministic pass; a
    # frame's fate is the one at its per-client seq.
    fates = [config.transport.plan(
        np.random.default_rng((config.seed, 104729, c)), seqs[c])
        for c in range(config.n_clients)]
    schedules = [[[(frame, fates[c][frame["seq"]]) for frame in frames]
                  for c, frames in enumerate(per_client)]
                 for per_client in raw]
    return tick_times, schedules, stream.offered_samples


async def _drive(
    config: GatewaySoakConfig, result: GatewaySoakResult, run: Run
) -> None:
    tick_times, schedules, offered = _build_schedules(config)
    result.offered_samples = offered

    fleet = TrackingFleet(config.fleet)
    gateway = IngestionGateway(config.gateway, fleet)
    writer: Optional[TraceWriter] = None
    if config.record_path is not None:
        writer = TraceWriter(config.record_path, meta=trace_meta(gateway))
        gateway.tap = writer
        result.trace_path = config.record_path

    clients = [
        SimulatedClient(
            f"c{c:03d}", gateway,
            ack_timeout_s=config.ack_timeout_s,
            max_attempts=config.max_attempts,
            sleep_scale=config.sleep_scale,
        )
        for c in range(config.n_clients)
    ]

    try:
        for t, tick_sched in zip(tick_times, schedules):
            outcomes = await asyncio.gather(
                *(clients[c].run_schedule(sched)
                  for c, sched in enumerate(tick_sched) if sched),
                return_exceptions=True,
            )
            for outcome in outcomes:
                if isinstance(outcome, BaseException):
                    run.catch(outcome, t)
            run.tick(t, gateway.tick)
        for client in clients:
            await client.close()
        await gateway.drain_clients()
    finally:
        if writer is not None:
            writer.close()
            gateway.tap = None

    for name in sorted(gateway.task_errors):
        run.fail(f"gateway task: {name}")
    result.delivered_samples = sum(c.stats.taken for c in clients)
    result.fleet_sessions = gateway.fleet.total_sessions
    stats = gateway.stats()
    result.queue_shed = stats["queue_shed"]
    result.gateway_counters = dict(gateway.counters)
    result.client_stats = {
        c.client_id: c.stats.as_dict() for c in clients
    }


def run_gateway_soak(config: GatewaySoakConfig) -> GatewaySoakResult:
    """Run one gateway soak to completion (drives its own event loop).

    Counter/event parity is audited over a run-scoped sink; the
    record→replay determinism check runs after the loop when a
    ``record_path`` was given and ``replay_check`` is on.
    """
    result = GatewaySoakResult()
    # The edge may surface only these; any other exception is untyped.
    run = Run("gateway", allowed=(DataQualityError, ConfigurationError))
    with observed() as sink:
        asyncio.run(_drive(config, result, run))
    result.event_volumes = sink.counts()
    result.ticks = len(run.digests)
    result.tick_digests = [digest for _, digest in run.digests]
    result.errors = list(run.errors)
    result.untyped_errors = run.untyped_errors

    for name, count in sorted(result.gateway_counters.items()):
        if result.event_volumes.get(f"gateway.{name}", 0) != count:
            result.parity_failures.append(name)

    if config.record_path is not None and config.replay_check:
        # replay() checks the trace's per-tick digests against a fresh
        # run; checking the live run's digests against the trace too
        # makes live, trace and replay all agree.
        result.replay_result = replay(config.record_path)
        _, records = read_trace(config.record_path)
        result.divergence_t = first_divergence(
            run.digests, [(float(r["t"]), r.get("snap")) for r in records])
    return result
