"""Stream-side measurement: the open-loop queue and streaming ground truth.

Both stream workloads replay their ticks flat out (closed loop) and record
each tick's processing time. :func:`open_loop` then places those measured
times on a real-time schedule to get the latency a live deployment would
see, and :class:`StreamTruth` scores every new fix against where the
template beacon really is, in the fix's own measurement frame.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.sim.load import LoadConfig, LoadStream
from repro.sim.soak import long_walk
from repro.types import Vec2
from repro.world.scenarios import scenario
from repro.world.trajectory import Trajectory


@dataclass(frozen=True)
class OpenLoop:
    """Per-tick timing of a replay placed on the real-time schedule."""

    #: Seconds from the tick being due to the end of its processing.
    latency_s: Tuple[float, ...]
    #: Seconds the tick waited behind earlier ticks before starting.
    wait_s: Tuple[float, ...]


def open_loop(service_s: Sequence[float], tick_s: float) -> OpenLoop:
    """Queue recursion for ticks due every ``tick_s`` seconds.

    Tick ``k`` (1-based) is due at ``k * tick_s``; it starts at
    ``max(due, end of tick k-1)`` and ends ``service_s[k-1]`` later. A slow
    tick therefore delays every tick queued behind it.
    """
    latency: List[float] = []
    wait: List[float] = []
    end = -math.inf
    for k, service in enumerate(service_s, start=1):
        due = k * tick_s
        start = max(due, end)
        end = start + service
        wait.append(start - due)
        latency.append(end - due)
    return OpenLoop(latency_s=tuple(latency), wait_s=tuple(wait))


def frame_position(walk: Trajectory, point: Vec2, t0: float) -> Vec2:
    """``point`` in the measurement frame anchored at walk time ``t0``.

    The origin is the observer's true position at ``t0``; the x axis points
    along the observer's true heading there.
    """
    return (point - walk.position_at(t0)).rotated(-walk.heading_at(t0))


def template_positions(config: LoadConfig) -> List[Vec2]:
    """World positions of the template beacons :func:`generate_load` places."""
    sc = scenario(config.scenario_index)
    k_total = config.template_beacons
    return [
        sc.beacon_position + (
            Vec2(0.0, 0.0) if k == 0
            else Vec2.from_polar(0.6 + 0.2 * k, 2.0 * math.pi * k / k_total))
        for k in range(k_total)
    ]


def observer_walk(config: LoadConfig) -> Trajectory:
    """The observer walk :func:`generate_load` simulated, rebuilt from the seed
    (the walk is the first draw from the load's world generator)."""
    sc = scenario(config.scenario_index)
    return long_walk(
        sc.observer_start, np.random.default_rng(config.seed),
        bounds=(sc.floorplan.width, sc.floorplan.height),
        duration_s=config.duration_s,
    )


class StreamTruth:
    """Ground truth for every fix of one generated load stream."""

    def __init__(self, config: LoadConfig, stream: LoadStream,
                 window_s: float):
        self.walk = observer_walk(config)
        self.positions = template_positions(config)
        self.window_s = float(window_s)
        self._imu_t = np.array(
            [s.timestamp for _, _, imu in stream.ticks for s in imu])

    def truth(self, beacon_id: str, t: float) -> Vec2:
        """Where beacon ``beacon_id`` is in the frame of a fix solved at ``t``.

        A session solved at ``t`` dead-reckons from the first observer IMU
        sample inside its window ``[t - window_s, t)``; the load generator
        gives beacon ``b<i>`` template ``i mod template_beacons``.
        """
        first = int(np.searchsorted(self._imu_t, t - self.window_s))
        t0 = float(self._imu_t[min(first, len(self._imu_t) - 1)])
        template = int(beacon_id[1:]) % len(self.positions)
        return frame_position(self.walk, self.positions[template], t0)

    def error(self, beacon_id: str, t: float, position: Vec2) -> float:
        """Metres between a fix solved at ``t`` and the beacon's truth."""
        return position.distance_to(self.truth(beacon_id, t))


class FixWatcher:
    """Spots new fixes in a tick's snapshots (the estimate object changes)."""

    def __init__(self) -> None:
        self._last: Dict[str, object] = {}

    def new_fixes(self, snapshots) -> List[Tuple[str, object]]:
        fresh = []
        for beacon_id in sorted(snapshots):
            est = snapshots[beacon_id].estimate
            if est is None:
                continue
            if self._last.get(beacon_id) is not est:
                self._last[beacon_id] = est
                fresh.append((beacon_id, est))
        return fresh
