"""The benchmark's workloads, each built from one seed.

* :class:`Table1` — the paper's accuracy experiment as a batch job: the nine
  Table-1 scenarios, seeded L-walks each, through ``LocBLE.estimate``.
* :class:`FleetWorkload` — generated load streams fed straight into a
  4-shard :class:`~repro.fleet.TrackingFleet` with batched ticks. Runnable
  for diagnosis but not gated by ``BENCHMARK.json`` (see its docstring).
* :class:`GatewayWorkload` — the same kind of stream framed by two
  :class:`~repro.gateway.SimulatedClient`\\ s through an
  :class:`~repro.gateway.IngestionGateway` recording a trace, into a
  :class:`~repro.durability.FleetSupervisor` that checkpoints to an fsync'd
  :class:`~repro.durability.CheckpointStore`; sessions solve with the
  particle backend.

Every workload splits into :meth:`setup` (input generation plus system
construction, what ``setup_s`` times), :meth:`run` (the timed replay; only
the calls into the program are timed) and :meth:`check` (correctness checks
outside the timed region).
"""

from __future__ import annotations

import asyncio
import os
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.core.pipeline import LocBLE
from repro.durability import CheckpointStore, FleetSupervisor, recover
from repro.errors import ReproError
from repro.fleet import FleetConfig, TrackingFleet
from repro.gateway import (
    GatewayConfig,
    IngestionGateway,
    SimulatedClient,
    TraceWriter,
    snapshot_digest,
    trace_meta,
)
from repro.service import ServiceConfig, SessionConfig
from repro.service.health import HealthConfig
from repro.sim.faults import TransportFaultModel
from repro.sim.load import LoadConfig, generate_load
from repro.sim.simulator import BeaconSpec, Simulator
from repro.world.scenarios import scenario
from repro.world.trajectory import l_shape

from perfbench.streams import FixWatcher, StreamTruth, open_loop
from perfbench.tracer import Tracer

#: The sessions' solve window (seconds).
WINDOW_S = 20.0

#: Gateway error events that refuse or repair input (``gateway.refusals``).
GATEWAY_REFUSALS = (
    "admission_refused", "client_rejected", "client_timeout",
    "frame_invalid", "frame_malformed", "frame_truncated",
    "sample_late", "sample_rejected",
)


@dataclass
class Outcome:
    """What one timed replay of a workload measured."""

    #: Wall seconds spent inside the timed calls into the program.
    processing_s: float = 0.0
    #: Completed operations: estimates (table1) or accepted fixes (streams).
    fixes: int = 0
    #: Per-fix latency (ms) and, for streams, per-fix open-loop wait (ms).
    latency_ms: List[float] = field(default_factory=list)
    wait_ms: List[float] = field(default_factory=list)
    backlog_max_s: float = 0.0
    #: Error of each distinct fix against ground truth (m).
    errors_m: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    offered: int = 0
    shed: int = 0
    untyped: List[str] = field(default_factory=list)
    #: Snapshot digest per tick per stream unit (the determinism evidence).
    digests: List[List[str]] = field(default_factory=list)
    counts: Dict[str, float] = field(default_factory=dict)
    #: Per-unit systems kept for the post-run checks (gateway recovery).
    systems: List[Any] = field(default_factory=list)


def _service_config(solver: str) -> ServiceConfig:
    return ServiceConfig(
        session=SessionConfig(
            window_s=WINDOW_S,
            solver=solver,
            health=HealthConfig(stale_after_s=6.0, lost_after_s=60.0),
        ),
        imu_window_s=WINDOW_S + 5.0,
        max_sessions=24,
    )


# -- table1 -------------------------------------------------------------------


class Table1:
    """Nine Table-1 scenarios x seeded L-walks through ``LocBLE.estimate``."""

    name = "table1"
    #: L-walks per scenario per run; legs as in the paper's Sec. 7.6.2.
    WALKS_PER_SCENARIO = 16
    LEGS = (2.8, 2.2)

    def __init__(self, seed: int, seconds: float, workdir: str):
        self.seed = int(seed)
        self.seconds = float(seconds)
        self.inputs: List[Tuple[Any, Any, Any]] = []
        self.system: Optional[LocBLE] = None

    def setup(self) -> None:
        inputs = []
        for index in range(1, 10):
            sc = scenario(index)
            walk = l_shape(sc.observer_start, sc.observer_heading_rad,
                           leg1=self.LEGS[0], leg2=self.LEGS[1])
            for j in range(self.WALKS_PER_SCENARIO):
                rng = np.random.default_rng((self.seed, index, j))
                rec = Simulator(sc.floorplan, rng).simulate(
                    walk, [BeaconSpec("target", position=sc.beacon_position)])
                inputs.append((rec.rssi_traces["target"],
                               rec.observer_imu.trace,
                               rec.true_position_in_frame("target")))
        self.inputs = inputs
        self.system = self.build()

    def build(self) -> LocBLE:
        return LocBLE(sanitize="repair")

    def dispose(self, pipeline: LocBLE) -> None:
        """Release a system that will not be run (nothing to release)."""

    def run(self, pipeline: LocBLE, tracer: Optional[Tracer] = None
            ) -> Outcome:
        """Estimate every input once, then keep cycling through them until
        ``seconds`` of processing have passed; repeats must reproduce the
        first pass's errors exactly."""
        out = Outcome()
        first: List[Optional[float]] = [None] * len(self.inputs)
        mismatched = 0
        k = 0
        while k < len(self.inputs) or out.processing_s < self.seconds:
            i = k % len(self.inputs)
            rssi, imu, truth = self.inputs[i]
            k += 1
            out.attempted += 1
            start = time.perf_counter()
            try:
                est = pipeline.estimate(rssi, imu)
            except ReproError:
                out.processing_s += time.perf_counter() - start
                out.failed += 1
                continue
            except Exception as exc:  # noqa: BLE001 — recorded, fails the run
                out.processing_s += time.perf_counter() - start
                out.untyped.append(f"{type(exc).__name__}: {exc}")
                continue
            elapsed = time.perf_counter() - start
            out.processing_s += elapsed
            out.latency_ms.append(elapsed * 1e3)
            out.fixes += 1
            err = est.error_to(truth)
            if first[i] is None:
                first[i] = err
                out.errors_m.append(err)
            elif err != first[i]:
                mismatched += 1
        out.counts["repeat_mismatches"] = mismatched
        return out

    def check(self, out: Outcome) -> Dict[str, bool]:
        return {"repeats_reproduce": out.counts["repeat_mismatches"] == 0}


# -- streams ------------------------------------------------------------------


@dataclass
class _Unit:
    """One independent generated stream and its ground truth."""

    config: LoadConfig
    stream: Any
    truth: StreamTruth


class _StreamWorkload:
    """Shared replay loop of the two stream workloads.

    A run replays ``units`` independent streams (sub-seeds of the run seed),
    one fresh system each. Each tick's processing time is measured flat out
    and then placed on the real-time schedule by :func:`open_loop`.
    """

    name = ""
    SOLVER = "elliptical"
    #: Stream tick period (seconds): tick k is due at k * TICK_S.
    TICK_S = 1.0
    N_BEACONS = 8
    DURATION_S = 60.0
    #: Requested run seconds per unit: one unit's replay takes about this
    #: long on a 2-CPU x86 host, so a run processes for about ``--seconds``.
    UNIT_SECONDS = 10.0
    #: Ticks re-run in a fresh system to check snapshot digests reproduce.
    PREFIX_TICKS = 5

    def __init__(self, seed: int, seconds: float, workdir: str):
        self.seed = int(seed)
        self.n_units = max(1, int(round(seconds / self.UNIT_SECONDS)))
        self.workdir = workdir
        self.units: List[_Unit] = []
        self.system: Optional[List[Any]] = None
        self._builds = 0

    def setup(self) -> None:
        units = []
        for u in range(self.n_units):
            config = LoadConfig(
                duration_s=self.DURATION_S,
                tick_s=self.TICK_S,
                seed=self.seed * 1000 + u,
                n_beacons=self.N_BEACONS,
                template_beacons=self.N_BEACONS,
                rate_hz=5.0,
                arrival="poisson",
            )
            stream = generate_load(config)
            units.append(_Unit(config, stream,
                               StreamTruth(config, stream, WINDOW_S)))
        self.units = units
        self.prepare_inputs()
        self.system = self.build()

    def prepare_inputs(self) -> None:
        """Workload-specific input shaping (framing), part of set-up."""

    def build(self, n_units: Optional[int] = None) -> List[Any]:
        """One fresh system per unit (for the first ``n_units`` units)."""
        self._builds += 1
        return [self.build_unit(i, f"b{self._builds}u{i}")
                for i in range(len(self.units))[:n_units]]

    def dispose(self, systems: List[Any]) -> None:
        """Release systems that will not be run."""
        for system in systems:
            self.close_unit(system)

    # -- per-unit hooks --------------------------------------------------------

    def build_unit(self, index: int, tag: str) -> Any:
        raise NotImplementedError

    def step(self, system: Any, k: int, tick, tracer: Optional[Tracer]):
        raise NotImplementedError

    def close_unit(self, system: Any) -> None:
        """Tear-down after the last tick (outside the timed region)."""

    def account(self, system: Any, n_ticks: int, out: Outcome) -> None:
        """Add the unit's attempted/failed/shed tallies to ``out``."""
        raise NotImplementedError

    # -- the replay ------------------------------------------------------------

    def run(self, systems: List[Any], tracer: Optional[Tracer] = None,
            n_ticks: Optional[int] = None) -> Outcome:
        """Replay the first ``n_ticks`` ticks of each unit that has a
        system in ``systems``."""
        out = Outcome()
        for unit, system in zip(self.units, systems):
            ticks = unit.stream.ticks[:n_ticks]
            watcher = FixWatcher()
            service_s: List[float] = []
            fixes_per_tick: List[int] = []
            digests: List[str] = []
            try:
                for k, tick in enumerate(ticks):
                    t = tick[0]
                    start = time.perf_counter()
                    try:
                        snaps = self.step(system, k, tick, tracer)
                    except ReproError as exc:
                        service_s.append(time.perf_counter() - start)
                        fixes_per_tick.append(0)
                        digests.append(f"typed:{type(exc).__name__}")
                        out.failed += 1
                        out.attempted += 1
                        continue
                    except Exception as exc:  # noqa: BLE001 — fails the run
                        service_s.append(time.perf_counter() - start)
                        fixes_per_tick.append(0)
                        digests.append(f"untyped:{type(exc).__name__}")
                        out.untyped.append(f"{type(exc).__name__}: {exc}")
                        continue
                    service_s.append(time.perf_counter() - start)
                    digests.append(snapshot_digest(snaps))
                    fresh = watcher.new_fixes(snaps)
                    fixes_per_tick.append(len(fresh))
                    for beacon_id, est in fresh:
                        out.errors_m.append(
                            unit.truth.error(beacon_id, t, est.position))
            finally:
                self.close_unit(system)
            self.account(system, len(ticks), out)
            out.systems.append(system)
            out.offered += sum(len(scans) for _, scans, _ in ticks)
            loop = open_loop(service_s, self.TICK_S)
            for lat, wait, n in zip(loop.latency_s, loop.wait_s,
                                    fixes_per_tick):
                out.latency_ms.extend([lat * 1e3] * n)
                out.wait_ms.extend([wait * 1e3] * n)
            out.backlog_max_s = max([out.backlog_max_s, *loop.wait_s])
            out.processing_s += sum(service_s)
            out.fixes += sum(fixes_per_tick)
            out.digests.append(digests)
        return out

    def check(self, out: Outcome) -> Dict[str, bool]:
        """Re-run the first unit's first ticks in a fresh system: its
        snapshot digests must reproduce the timed run's."""
        again = self.run(self.build(1), n_ticks=self.PREFIX_TICKS)
        prefix = out.digests[0][:self.PREFIX_TICKS]
        return {"digests_reproduce": again.digests[0] == prefix}


def _fleet_tallies(stats: Dict[str, Any], out: Outcome) -> None:
    c = stats["counters"]
    shed_solves = c.get("solves_shed", 0)
    out.attempted += c.get("solves_attempted", 0) + shed_solves
    out.failed += (c.get("solves_degenerate", 0)
                   + c.get("solves_transient_failures", 0) + shed_solves)
    out.shed += (int(stats["shed_samples"]) + int(stats["refused_samples"])
                 + sum(int(s["rss_shed"]) for s in stats["per_shard"]))


class FleetWorkload(_StreamWorkload):
    """Generated load straight into a 4-shard fleet (batched ticks).

    The only workload that drives the cross-session ``fit_batch`` path. It
    is not gated: its cost is almost all cold fits, whose count per stream
    depends on the walk, so on a 2-CPU x86 host its throughput and latency
    tail moved by 20-40 % between seeds, more than the benchmark's bounds
    allow.
    """

    name = "fleet"
    SOLVER = "elliptical"
    #: Ticks match the sessions' 2 s solve period, so every session solves
    #: in every tick and the start-up burst of cold fits fits in one tick.
    TICK_S = 2.0
    N_BEACONS = 6
    UNIT_SECONDS = 7.5

    def build_unit(self, index: int, tag: str) -> TrackingFleet:
        return TrackingFleet(FleetConfig(
            n_shards=4, service=_service_config(self.SOLVER)))

    def step(self, fleet: TrackingFleet, k: int, tick, tracer):
        t, scans, imu = tick
        fleet.ingest_scans(scans)
        fleet.ingest_imu(imu)
        return fleet.tick(t)

    def account(self, fleet: TrackingFleet, n_ticks: int,
                out: Outcome) -> None:
        _fleet_tallies(fleet.stats(), out)


@dataclass
class _GatewayStack:
    """One unit's gateway -> supervisor -> fleet stack and its files."""

    root: str
    store_root: str
    trace_path: str
    gateway: IngestionGateway
    writer: TraceWriter
    clients: List[SimulatedClient]
    loop: asyncio.AbstractEventLoop
    #: ``schedule[tick][client]`` — ``[(frame, fate), ...]`` to send.
    schedule: List[List[List[Tuple[Dict[str, Any], Any]]]]


class GatewayWorkload(_StreamWorkload):
    """Two framing clients -> gateway (traced) -> checkpointing supervisor."""

    name = "gateway_durable"
    SOLVER = "particle"
    N_BEACONS = 6
    DURATION_S = 62.0
    N_CLIENTS = 2
    IMU_CHUNK = 64
    #: Not a divisor of the tick count, so recovery re-drives a trace suffix.
    CHECKPOINT_EVERY = 3
    #: Transport faults that recover without a wall-clock ack timeout.
    FAULTS = TransportFaultModel(
        duplicate_rate=0.05, reorder_rate=0.05, corrupt_rate=0.02)

    def prepare_inputs(self) -> None:
        """Frame every unit's ticks into per-client schedules with fates."""
        self.schedules = [self._frame(u) for u in self.units]

    def _frame(self, unit: _Unit):
        n = self.N_CLIENTS
        beacons = sorted({s.beacon_id for _, scans, _ in unit.stream.ticks
                          for s in scans})
        owner = {b: i % n for i, b in enumerate(beacons)}
        seqs = [0] * n
        frames: List[List[List[Dict[str, Any]]]] = []
        for _t, scans, imu in unit.stream.ticks:
            per_client: List[List[Dict[str, Any]]] = [[] for _ in range(n)]
            by_beacon: Dict[str, list] = {}
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
            for i in range(0, len(imu), self.IMU_CHUNK):
                per_client[0].append({
                    "type": "imu", "seq": seqs[0],
                    "samples": [[s.timestamp, s.accel, s.gyro_z, s.mag_heading]
                                for s in imu[i:i + self.IMU_CHUNK]],
                })
                seqs[0] += 1
            frames.append(per_client)
        fates = [self.FAULTS.plan(
            np.random.default_rng((unit.config.seed, 104729, c)), seqs[c])
            for c in range(n)]
        cursor = [0] * n
        schedules = []
        for per_client in frames:
            tick_sched = []
            for c, client_frames in enumerate(per_client):
                tick_sched.append([(f, fates[c][cursor[c] + j])
                                   for j, f in enumerate(client_frames)])
                cursor[c] += len(client_frames)
            schedules.append(tick_sched)
        return schedules

    def build_unit(self, index: int, tag: str) -> _GatewayStack:
        root = os.path.join(self.workdir, tag)
        store_root = os.path.join(root, "store")
        trace_path = os.path.join(root, "run.trace")
        os.makedirs(root)
        supervisor = FleetSupervisor(
            TrackingFleet(FleetConfig(
                n_shards=4, service=_service_config(self.SOLVER))),
            store=CheckpointStore(store_root, durability="fsync"),
            checkpoint_every=self.CHECKPOINT_EVERY)
        # No wall-clock read timeout: the stream is replayed flat out and
        # the gateway idles between ticks while the fleet works.
        gateway = IngestionGateway(GatewayConfig(client_timeout_s=None),
                                   supervisor)
        writer = TraceWriter(trace_path, meta=trace_meta(gateway))
        gateway.tap = writer
        clients = [SimulatedClient(f"c{c}", gateway, ack_timeout_s=30.0)
                   for c in range(self.N_CLIENTS)]
        return _GatewayStack(root, store_root, trace_path, gateway, writer,
                             clients, asyncio.new_event_loop(),
                             self.schedules[index])

    def step(self, stack: _GatewayStack, k: int, tick, tracer):
        sched = stack.schedule[k]

        async def send_phase():
            return await asyncio.gather(
                *(client.run_schedule(s)
                  for client, s in zip(stack.clients, sched) if s),
                return_exceptions=True)

        if tracer is None:
            results = stack.loop.run_until_complete(send_phase())
        else:
            with tracer.span("gateway.send_phase"):
                results = stack.loop.run_until_complete(send_phase())
        for res in results:
            if isinstance(res, BaseException):
                raise res
        return stack.gateway.tick(tick[0])

    def close_unit(self, stack: _GatewayStack) -> None:
        async def close_all():
            for client in stack.clients:
                await client.close()
            await stack.gateway.drain_clients()

        try:
            stack.loop.run_until_complete(close_all())
        finally:
            stack.loop.close()
            stack.writer.close()

    def account(self, stack: _GatewayStack, n_ticks: int,
                out: Outcome) -> None:
        gw = stack.gateway
        stats = gw.stats()
        _fleet_tallies(stats["fleet"], out)
        frames = sum(len(s) for tick in stack.schedule[:n_ticks] for s in tick)
        gave_up = sum(c.stats.gave_up for c in stack.clients)
        out.attempted += frames
        out.failed += gave_up
        out.shed += int(stats["queue_shed"]) + sum(
            gw.counters.get(name, 0)
            for name in ("admission_refused", "sample_late"))
        out.untyped.extend(f"gateway task: {e}" for e in gw.task_errors)
        out.counts["gateway.frames"] = (
            out.counts.get("gateway.frames", 0) + frames)
        out.counts["gateway.retries"] = (
            out.counts.get("gateway.retries", 0)
            + sum(c.stats.retries for c in stack.clients))
        out.counts["gateway.refusals"] = (
            out.counts.get("gateway.refusals", 0)
            + sum(gw.counters.get(name, 0) for name in GATEWAY_REFUSALS))

    def check(self, out: Outcome) -> Dict[str, bool]:
        checks = super().check(out)
        identical = True
        for stack in out.systems:
            _gateway, report = recover(stack.store_root, stack.trace_path)
            identical = (identical and report.identical
                         and report.redriven_ticks > 0)
        checks["recovery_identical"] = identical
        return checks


WORKLOADS = {w.name: w for w in (Table1, FleetWorkload, GatewayWorkload)}
