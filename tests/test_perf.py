"""Tests for span timings (:func:`repro.obs.timings`) and report rendering."""

import json
import time

import numpy as np
import pytest

from repro import obs
from repro.perf.report import REPORT_FILENAME, find_report, format_report, main


@pytest.fixture(autouse=True)
def clean_obs():
    """Isolate every test from the process-global log and its timings."""
    obs.reset()
    yield
    obs.reset()


class TestRegistry:
    """``obs.timings()``: the per-name view over ``span`` events."""

    def test_timer_records_calls(self):
        with obs.span("stage"):
            pass
        with obs.span("stage"):
            pass
        stats = obs.timings()["stage"]
        assert stats["count"] == 2
        assert stats["total_s"] >= 0.0

    def test_profiled_decorator_times_and_names(self):
        @obs.span("my.label")
        def work(x):
            return x * 2

        assert work(21) == 42
        assert work(1) == 2
        assert work.__name__ == "work"
        assert obs.timings()["my.label"]["count"] == 2

    def test_disabled_registry_is_passthrough(self):
        obs.disable()

        @obs.span("quiet")
        def work():
            return "ok"

        assert work() == "ok"
        with obs.span("quiet2"):
            pass
        assert obs.timings() == {}

    def test_reset_clears(self):
        with obs.span("t"):
            pass
        assert "t" in obs.timings()
        obs.reset()
        assert obs.timings() == {}

    def test_timer_stats_track_min_max_mean(self):
        for delay in (0.0, 0.001):
            with obs.span("t"):
                time.sleep(delay)
        stats = obs.timings()["t"]
        assert set(stats) == {"count", "total_s", "mean_s", "min_s", "max_s"}
        assert stats["min_s"] <= stats["mean_s"] <= stats["max_s"]
        assert stats["max_s"] >= 0.001
        assert stats["total_s"] == pytest.approx(stats["mean_s"] * 2)

    def test_exception_still_recorded(self):
        @obs.span("boom")
        def explode():
            raise RuntimeError("x")

        with pytest.raises(RuntimeError):
            explode()
        assert obs.timings()["boom"]["count"] == 1


class TestModuleLevelRegistry:
    def test_hot_paths_are_profiled(self):
        """One LocBLE estimate times its own span, the ANF and the fit."""
        from repro.core.pipeline import LocBLE
        from repro.sim.simulator import BeaconSpec, Simulator
        from repro.world.scenarios import scenario
        from repro.world.trajectory import l_shape

        sc = scenario(1)
        sim = Simulator(sc.floorplan, np.random.default_rng(0))
        walk = l_shape(sc.observer_start, sc.observer_heading_rad,
                       leg1=2.8, leg2=2.2)
        rec = sim.simulate(walk, [BeaconSpec("b", position=sc.beacon_position)])
        obs.reset()
        LocBLE().estimate(rec.rssi_traces["b"], rec.observer_imu.trace)
        timings = obs.timings()
        for name in ("pipeline.LocBLE.estimate",
                     "anf.AdaptiveNoiseFilter.apply",
                     "estimator.EllipticalEstimator.fit"):
            assert timings[name]["count"] >= 1, name
        assert timings["pipeline.LocBLE.estimate"]["count"] == 1

    def test_batched_fit_and_segment_matching_are_timed(self):
        from repro.core.estimator import FitRequest, fit_batch
        from repro.dtw.segmatch import SegmentMatcher
        from repro.types import RssiTrace

        rng = np.random.default_rng(0)
        t = np.linspace(0.0, 5.0, 60)
        p, q = np.minimum(t, 2.8), np.maximum(t - 2.8, 0.0)
        rss = (-59.0 - 20.0 * np.log10(np.hypot(3.0 - p, 2.0 - q))
               + rng.normal(0.0, 1.0, t.size))
        fit_batch([FitRequest(p=p, q=q, rss=rss)])
        ts = np.arange(90) / 9.0
        trace = RssiTrace.from_arrays(
            ts, -60 - 18 * np.log10(1 + ts) + rng.normal(0, 1, 90), "t")
        SegmentMatcher().match(trace, trace)
        SegmentMatcher().match_many(trace, [trace, trace])
        timings = obs.timings()
        assert timings["estimator.fit_batch"]["count"] == 1
        assert timings["segmatch.SegmentMatcher.match"]["count"] == 1
        assert timings["segmatch.SegmentMatcher.match_many"]["count"] == 1


class TestReport:
    def _sample_report(self):
        return {
            "meta": {"generated_at": "2026-01-01T00:00:00",
                     "effective_cpus": 4, "numpy": "2.4.6"},
            "benches": {
                "estimator": {"before_s": 0.012, "after_s": 0.002,
                              "speedup": 6.0, "target_speedup": 3.0,
                              "meets_target": True, "note": "grid"},
            },
            "perf_snapshot": {"timers": {
                "x": {"count": 2, "total_s": 0.5, "min_s": 0.1,
                      "max_s": 0.4, "mean_s": 0.25}}, "counters": {}},
        }

    def test_format_report_renders_fields(self):
        text = format_report(self._sample_report())
        assert "estimator" in text and "6.00x" in text and "yes" in text

    def test_find_report_walks_upward(self, tmp_path):
        (tmp_path / REPORT_FILENAME).write_text("{}")
        nested = tmp_path / "a" / "b"
        nested.mkdir(parents=True)
        assert find_report(nested) == tmp_path / REPORT_FILENAME

    def test_cli_round_trip(self, tmp_path, capsys):
        path = tmp_path / REPORT_FILENAME
        path.write_text(json.dumps(self._sample_report()))
        assert main([str(path)]) == 0
        assert "estimator" in capsys.readouterr().out

    def test_cli_missing_report(self, tmp_path):
        assert main([str(tmp_path / "nope.json")]) != 0
