"""Long-horizon soak testing of the streaming tracking service.

The robustness claims of :mod:`repro.service` are *temporal*: a session must
ride out minutes of bursty loss and whole scan outages, a checkpoint taken
mid-stream must resume bit-identically, and nothing in the stack may ever
throw an untyped exception at the supervisor. None of that is visible in a
single-batch test — it needs hours-equivalent of simulated stream time with
faults injected, which is what this harness provides::

    from repro.sim.faults import FaultModel
    from repro.sim.soak import SoakConfig, run_soak

    result = run_soak(SoakConfig(
        duration_s=300.0,
        fault=FaultModel(loss_rate=0.3, n_outages=2, outage_s=60.0),
        checkpoint_t=150.0,
    ))
    assert result.untyped_errors == 0 and result.checkpoint_equal

The harness simulates one long multi-leg walk, degrades each beacon's trace
through :class:`~repro.sim.faults.FaultModel`, and replays the stream into a
:class:`~repro.service.TrackingService` tick by tick. With ``checkpoint_t``
set it additionally performs a *kill-and-resume*: the service is
checkpointed at that stream time (through a JSON round trip, i.e. exactly
what a process restart would read back from disk), a fresh service is
restored from it, and both the uninterrupted original and the resumed copy
replay the remaining stream — every tick's
:func:`~repro.service.session.snapshot_digest` must match, the same
contract the gateway soak and the chaos harness judge by.

Everything is seeded and deterministic; ``python -m repro soak`` wraps this
module for the command line.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro import obs
from repro.errors import ConfigurationError, ReproError
from repro.service import ServiceConfig, TrackingService
from repro.service.session import SessionSnapshot, snapshot_digest
from repro.sim.faults import FaultModel
from repro.sim.simulator import BeaconSpec, MeasurementRecord, Simulator
from repro.types import ImuSample, RssiSample, Vec2
from repro.world.scenarios import scenario
from repro.world.trajectory import DEFAULT_WALK_SPEED, Trajectory

__all__ = ["SoakConfig", "SoakResult", "run_soak", "long_walk"]


@dataclass(frozen=True)
class SoakConfig:
    """One soak experiment: world, faults, stream schedule, kill point."""

    duration_s: float = 300.0
    tick_s: float = 1.0
    seed: int = 0
    scenario_index: int = 6
    n_beacons: int = 1
    fault: FaultModel = field(default_factory=FaultModel)
    #: Stream time of the mid-run kill-and-resume; ``None`` skips the
    #: checkpoint/restore equivalence phase.
    checkpoint_t: Optional[float] = None
    service: ServiceConfig = field(default_factory=ServiceConfig)
    #: Optional path for a durable JSON-lines event log of the whole run
    #: (readable by ``python -m repro obs report``). The in-memory event
    #: accounting in :attr:`SoakResult.events` happens either way.
    events_jsonl: Optional[str] = None

    def __post_init__(self) -> None:
        if not (math.isfinite(self.duration_s) and self.duration_s > 0):
            raise ConfigurationError("duration_s must be finite and > 0")
        if not (math.isfinite(self.tick_s) and self.tick_s > 0):
            raise ConfigurationError("tick_s must be finite and > 0")
        if self.n_beacons < 1:
            raise ConfigurationError("n_beacons must be >= 1")
        if self.checkpoint_t is not None and not (
            0.0 < self.checkpoint_t < self.duration_s
        ):
            raise ConfigurationError(
                "checkpoint_t must fall inside (0, duration_s)"
            )


@dataclass(frozen=True)
class SoakResult:
    """Everything a soak run observed, ready for assertions and reports."""

    duration_s: float
    ticks: int
    #: Per-beacon snapshot sequence from the uninterrupted run.
    snapshots: Dict[str, List[SessionSnapshot]]
    #: Per-beacon health transitions ``(t, from, to)``.
    transitions: Dict[str, List[Tuple[float, str, str]]]
    #: Per-beacon seconds spent in each session state.
    dwell: Dict[str, Dict[str, float]]
    #: Service-aggregated event counters (solves, fixes, sheds, trips...).
    counters: Dict[str, int]
    #: Final :meth:`TrackingService.stats` of the uninterrupted run.
    stats: Dict[str, object]
    #: ``"ExcType: message"`` for every exception the stream driver caught.
    errors: Tuple[str, ...]
    #: How many of those were *untyped* (not a :class:`ReproError`) — the
    #: service's contract is that this is always zero.
    untyped_errors: int
    #: Kill-and-resume verdict: ``None`` when no checkpoint was requested,
    #: else whether the resumed run matched the uninterrupted one exactly.
    checkpoint_equal: Optional[bool]
    #: First stream time at which the resumed run's tick snapshot digest
    #: differed from the uninterrupted run's, over all beacons (None if
    #: never).
    divergence_t: Optional[float]
    #: n-weighted event volume by event name over the whole run (from a
    #: run-scoped :class:`repro.obs.CountingSink`): the run's counters.
    events: Dict[str, int] = field(default_factory=dict)
    #: Where the JSON-lines event log was written (None when not requested).
    events_jsonl: Optional[str] = None

    def states_visited(self, beacon_id: str) -> List[str]:
        """Distinct session states in first-visit order (incl. the start)."""
        seen: List[str] = []
        for snap in self.snapshots.get(beacon_id, []):
            if not seen or seen[-1] != snap.state:
                seen.append(snap.state)
        return seen


def long_walk(
    start: Vec2,
    rng: np.random.Generator,
    bounds: Tuple[float, float],
    duration_s: float,
    leg_range: Tuple[float, float] = (1.5, 4.0),
    speed: float = DEFAULT_WALK_SPEED,
    margin: float = 0.5,
) -> Trajectory:
    """A seeded multi-leg random walk lasting at least ``duration_s``.

    Unlike :func:`~repro.world.trajectory.random_waypoint_walk` the leg
    count is not fixed up front — legs are appended until the walk covers
    the requested stream duration, staying ``margin`` metres inside
    ``bounds``.
    """
    if speed <= 0:
        raise ConfigurationError("speed must be positive")
    lo = Vec2(margin, margin)
    hi = Vec2(bounds[0] - margin, bounds[1] - margin)
    if lo.x >= hi.x or lo.y >= hi.y:
        raise ConfigurationError("bounds too small for the walk margin")
    pts = [start]
    times = [0.0]
    while times[-1] < duration_s + 2.0:
        for _attempt in range(64):
            length = rng.uniform(*leg_range)
            heading = rng.uniform(-math.pi, math.pi)
            nxt = pts[-1] + Vec2.from_polar(length, heading)
            if lo.x <= nxt.x <= hi.x and lo.y <= nxt.y <= hi.y:
                pts.append(nxt)
                times.append(times[-1] + length / speed)
                break
        else:
            raise ConfigurationError(
                "could not place a soak-walk leg inside the bounds"
            )
    return Trajectory(pts, times)


def simulate_world(
    scenario_index: int,
    duration_s: float,
    n_beacons: int,
    prefix: str,
    rng: np.random.Generator,
) -> Tuple[MeasurementRecord, List[str]]:
    """One long walk past beacons ``prefix0..`` ringed round the scenario's.

    The soak and load harnesses share this world. Returns the recording
    and the beacon ids in order.
    """
    sc = scenario(scenario_index)
    walk = long_walk(
        sc.observer_start, rng,
        bounds=(sc.floorplan.width, sc.floorplan.height),
        duration_s=duration_s,
    )
    beacons = []
    for k in range(n_beacons):
        offset = (Vec2(0.0, 0.0) if k == 0
                  else Vec2.from_polar(0.6 + 0.2 * k,
                                       2.0 * math.pi * k / n_beacons))
        beacons.append(
            BeaconSpec(f"{prefix}{k}", position=sc.beacon_position + offset)
        )
    rec = Simulator(sc.floorplan, rng).simulate(walk, beacons)
    return rec, [spec.beacon_id for spec in beacons]


def slice_ticks(
    scans: List[RssiSample],
    imu: List[ImuSample],
    duration_s: float,
    tick_s: float,
) -> List[Tuple[float, List[RssiSample], List[ImuSample]]]:
    """Cut time-sorted streams into per-tick ingest batches.

    Tick ``k`` (from 1) is stamped ``t = k * tick_s`` and carries every
    not-yet-delivered sample timestamped before ``t``.
    """
    ticks: List[Tuple[float, List[RssiSample], List[ImuSample]]] = []
    n_ticks = int(math.ceil(duration_s / tick_s))
    si = ii = 0
    for k in range(1, n_ticks + 1):
        t = k * tick_s
        sj = si
        while sj < len(scans) and scans[sj].timestamp < t:
            sj += 1
        ij = ii
        while ij < len(imu) and imu[ij].timestamp < t:
            ij += 1
        ticks.append((t, scans[si:sj], imu[ii:ij]))
        si, ii = sj, ij
    return ticks


def _build_stream(config: SoakConfig):
    """Simulate the world once and slice it into per-tick ingest batches."""
    rec, beacon_ids = simulate_world(
        config.scenario_index, config.duration_s, config.n_beacons, "b",
        np.random.default_rng(config.seed))
    fault_rng = np.random.default_rng(config.seed + 977)
    scans: List[RssiSample] = []
    for beacon_id in beacon_ids:
        degraded = config.fault.apply(rec.rssi_traces[beacon_id], fault_rng)
        scans.extend(degraded.samples)
    scans.sort(key=lambda s: (s.timestamp, s.beacon_id))
    imu: List[ImuSample] = list(rec.observer_imu.trace.samples)
    return slice_ticks(scans, imu, config.duration_s, config.tick_s)


def _drive(
    service: TrackingService,
    ticks,
    caught: List[Tuple[str, bool]],
) -> Tuple[Dict[str, List[SessionSnapshot]], List[Tuple[float, Optional[str]]]]:
    """Replay ingest batches into a service, capturing every exception.

    The service's contract is to *never* raise on data; anything caught
    here is recorded as a soak failure rather than aborting the run, so a
    single bug cannot hide later ones. Each is classified as it is caught:
    ``("ExcType: message", typed)`` goes to ``caught``. Returns the
    per-beacon snapshot sequences and one ``(t, snapshot_digest)`` per
    tick (digest ``None`` for a tick that raised).
    """
    out: Dict[str, List[SessionSnapshot]] = {}
    digests: List[Tuple[float, Optional[str]]] = []
    for t, scan_batch, imu_batch in ticks:
        try:
            service.ingest_scans(scan_batch)
            service.ingest_imu(imu_batch)
            snaps = service.tick_batch(t)
        except Exception as exc:  # noqa: BLE001 — the whole point of a soak
            caught.append((f"{type(exc).__name__}: {exc}",
                           isinstance(exc, ReproError)))
            digests.append((t, None))
            continue
        digests.append((t, snapshot_digest(snaps)))
        for beacon_id, snap in snaps.items():
            out.setdefault(beacon_id, []).append(snap)
    return out, digests


def run_soak(config: Optional[SoakConfig] = None) -> SoakResult:
    """Run one seeded soak experiment; see the module docstring.

    The whole run is observed through run-scoped :mod:`repro.obs` sinks: a
    counting sink whose n-weighted per-event-name totals land in
    :attr:`SoakResult.events`, and (with ``events_jsonl`` set) a durable
    JSON-lines log for ``python -m repro obs report``.
    """
    config = config or SoakConfig()
    ticks = _build_stream(config)
    caught: List[Tuple[str, bool]] = []

    counting = obs.add_sink(obs.CountingSink())
    jsonl: Optional[obs.JsonLinesSink] = None
    if config.events_jsonl is not None:
        jsonl = obs.add_sink(obs.JsonLinesSink(config.events_jsonl))
    try:
        return _run_soak_observed(config, ticks, caught, counting)
    finally:
        obs.remove_sink(counting)
        if jsonl is not None:
            obs.remove_sink(jsonl)
            jsonl.close()


def _run_soak_observed(
    config: SoakConfig,
    ticks,
    caught: List[Tuple[str, bool]],
    counting: "obs.CountingSink",
) -> SoakResult:
    service = TrackingService(config.service)
    checkpoint_equal: Optional[bool] = None
    divergence_t: Optional[float] = None
    if config.checkpoint_t is not None:
        cut = next(
            (i for i, (t, _, _) in enumerate(ticks)
             if t >= config.checkpoint_t),
            len(ticks) - 1,
        )
        head, tail = ticks[: cut + 1], ticks[cut + 1:]
        snapshots, _ = _drive(service, head, caught)
        # The kill: what a restarting process would read back from disk.
        checkpoint_json = json.dumps(service.checkpoint())
        tail_snaps, original = _drive(service, tail, caught)
        for beacon_id, snaps in tail_snaps.items():
            snapshots.setdefault(beacon_id, []).extend(snaps)
        resumed = TrackingService.restore(json.loads(checkpoint_json))
        _, replayed = _drive(resumed, tail, caught)
        divergence_t = next(
            (a[0] for a, b in zip(original, replayed) if a != b), None)
        checkpoint_equal = divergence_t is None
    else:
        snapshots, _ = _drive(service, ticks, caught)

    t_end = ticks[-1][0] if ticks else 0.0
    transitions = {
        beacon_id: list(sess.health.transitions)
        for beacon_id, sess in sorted(service.sessions.items())
    }
    dwell = {
        beacon_id: sess.health.dwell(t_end)
        for beacon_id, sess in sorted(service.sessions.items())
    }
    stats = service.stats()
    return SoakResult(
        duration_s=config.duration_s,
        ticks=len(ticks),
        snapshots=snapshots,
        transitions=transitions,
        dwell=dwell,
        counters=dict(stats["counters"]),
        stats=stats,
        errors=tuple(message for message, _ in caught),
        untyped_errors=sum(1 for _, typed in caught if not typed),
        checkpoint_equal=checkpoint_equal,
        divergence_t=divergence_t,
        events=dict(sorted(counting.counts().items())),
        events_jsonl=config.events_jsonl,
    )

