"""Tests for the benchmark's own logic.

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import pytest  # noqa: E402

from perfbench import layers, run  # noqa: E402
from perfbench.streams import (  # noqa: E402
    FixWatcher,
    StreamTruth,
    frame_position,
    observer_walk,
    open_loop,
    template_positions,
)
from perfbench.tracer import Tracer  # noqa: E402
from perfbench.workloads import WORKLOADS, Outcome  # noqa: E402
from repro.sim.load import LoadConfig, generate_load  # noqa: E402
from repro.types import Vec2  # noqa: E402
from repro.world.trajectory import Trajectory  # noqa: E402


# -- open-loop queue ------------------------------------------------------------


def test_open_loop_below_capacity_has_no_wait():
    loop = open_loop([0.2, 0.3, 0.1], tick_s=1.0)
    assert loop.wait_s == (0.0, 0.0, 0.0)
    assert loop.latency_s == pytest.approx((0.2, 0.3, 0.1))


def test_open_loop_stall_delays_later_ticks():
    loop = open_loop([0.1, 2.5, 0.1, 0.1, 0.1], tick_s=1.0)
    # Tick 2 (due at 2 s) ends at 4.5 s; ticks 3 and 4 queue behind it.
    assert loop.latency_s == pytest.approx((0.1, 2.5, 1.6, 0.7, 0.1))
    assert loop.wait_s == pytest.approx((0.0, 0.0, 1.5, 0.6, 0.0))


# -- streaming ground truth -------------------------------------------------------


def test_frame_position_matches_the_walks_measurement_frame():
    walk = Trajectory([Vec2(1.0, 2.0), Vec2(4.0, 6.0), Vec2(4.0, 9.0)],
                      [0.0, 5.0, 8.0])
    beacon = Vec2(7.0, 3.0)
    got = frame_position(walk, beacon, walk.times[0])
    want = walk.to_frame(beacon)
    assert got.distance_to(want) < 1e-12


def test_frame_position_is_anchored_at_the_window_start():
    walk = Trajectory([Vec2(0.0, 0.0), Vec2(10.0, 0.0), Vec2(10.0, 10.0)],
                      [0.0, 10.0, 20.0])
    # At t=15 the observer is at (10, 5) walking +y: a point 2 m ahead is
    # on the frame's +x axis, the observer itself at the origin.
    ahead = frame_position(walk, Vec2(10.0, 7.0), 15.0)
    assert ahead.distance_to(Vec2(2.0, 0.0)) < 1e-12
    assert frame_position(walk, Vec2(10.0, 5.0), 15.0).norm() < 1e-12


def test_a_fix_at_the_true_position_scores_zero():
    config = LoadConfig(duration_s=12.0, n_beacons=3, template_beacons=3,
                        seed=5)
    stream = generate_load(config)
    truth = StreamTruth(config, stream, window_s=8.0)
    # Recompute the truth of a fix solved at t=11 by hand: the frame starts
    # at the first IMU sample inside [3, 11), beacon b00001 is template 1.
    t0 = min(s.timestamp for _, _, imu in stream.ticks for s in imu
             if s.timestamp >= 3.0)
    walk = observer_walk(config)
    beacon = template_positions(config)[1]
    fix = (beacon - walk.position_at(t0)).rotated(-walk.heading_at(t0))
    assert truth.error("b00001", 11.0, fix) < 1e-12
    assert truth.error("b00004", 11.0, fix) < 1e-12  # same template
    assert truth.error("b00001", 11.0, fix + Vec2(0.0, 1.0)) == \
        pytest.approx(1.0)
    assert truth.error("b00000", 11.0, fix) > 0.1


def test_fix_watcher_reports_each_estimate_once():
    class Snap:
        def __init__(self, estimate):
            self.estimate = estimate

    first, second = object(), object()
    watcher = FixWatcher()
    assert watcher.new_fixes({"a": Snap(None)}) == []
    assert watcher.new_fixes({"a": Snap(first)}) == [("a", first)]
    assert watcher.new_fixes({"a": Snap(first)}) == []
    assert watcher.new_fixes({"a": Snap(second)}) == [("a", second)]


# -- tracer ---------------------------------------------------------------------


class _Thing:
    def outer(self):
        return self.inner() + 1

    def inner(self):
        return 1


def test_tracer_self_times_add_up_and_uninstall_restores():
    original = _Thing.__dict__["outer"]
    tracer = Tracer()
    tracer.wrap(_Thing, "outer", "x.outer")
    tracer.wrap(_Thing, "inner", "x.inner",
                observe=lambda a, k, r: tracer.add("inner.results", r))
    with tracer.span("x.top"):
        assert _Thing().outer() == 2
    assert tracer.calls == {"x.outer": 1, "x.inner": 1, "x.top": 1}
    assert tracer.counts == {"inner.results": 1}
    assert all(v >= 0.0 for v in tracer.self_s.values())
    tracer.uninstall()
    assert _Thing.__dict__["outer"] is original


# -- the metric names agree with BENCHMARK.json -----------------------------------


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    out = Outcome(processing_s=1.0, fixes=1, latency_ms=[1.0],
                  errors_m=[1.0], attempted=1)
    tracer = Tracer()
    per_layer = run.per_layer_metrics(out, out, tracer, 1.0)
    end_to_end = run.end_to_end_metrics(out, [1.0])
    assert sorted(per_layer) == sorted(m["name"] for m in spec["per_layer"])
    assert sorted(end_to_end) == sorted(m["name"] for m in spec["end_to_end"])
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)
    assert set(layers.layer_names()) >= {
        "estimator", "solvers", "motion", "anf", "robustness", "pipeline",
        "service", "tracking", "fleet", "gateway", "durability"}
