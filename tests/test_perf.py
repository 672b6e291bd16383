"""Tests for the perf instrumentation registry and report rendering."""

import json
import time

import pytest

from repro import perf
from repro.perf.report import REPORT_FILENAME, find_report, format_report, main
from repro.perf.timers import PerfRegistry


@pytest.fixture()
def registry():
    return PerfRegistry()


class TestRegistry:
    def test_timer_records_calls(self, registry):
        with registry.timer("stage"):
            pass
        with registry.timer("stage"):
            pass
        snap = registry.snapshot()
        assert snap["timers"]["stage"]["count"] == 2
        assert snap["timers"]["stage"]["total_s"] >= 0.0

    def test_profiled_decorator_times_and_names(self, registry):
        @registry.profiled("my.label")
        def work(x):
            return x * 2

        assert work(21) == 42
        assert work.__perf_name__ == "my.label"
        assert registry.snapshot()["timers"]["my.label"]["count"] == 1

    def test_profiled_default_label(self, registry):
        @registry.profiled()
        def helper():
            return 1

        helper()
        (label,) = registry.snapshot()["timers"]
        assert label.endswith(".helper")

    def test_disabled_registry_is_passthrough(self, registry):
        registry.disable()

        @registry.profiled("quiet")
        def work():
            return "ok"

        assert work() == "ok"
        with registry.timer("quiet2"):
            pass
        assert registry.snapshot() == {"timers": {}}
        registry.enable()

    def test_reset_clears(self, registry):
        with registry.timer("t"):
            pass
        registry.reset()
        assert registry.snapshot() == {"timers": {}}

    def test_timer_stats_track_min_max_mean(self, registry):
        for delay in (0.0, 0.001):
            with registry.timer("t"):
                time.sleep(delay)
        stats = registry.snapshot()["timers"]["t"]
        assert stats["min_s"] <= stats["mean_s"] <= stats["max_s"]

    def test_exception_still_recorded(self, registry):
        @registry.profiled("boom")
        def explode():
            raise RuntimeError("x")

        with pytest.raises(RuntimeError):
            explode()
        assert registry.snapshot()["timers"]["boom"]["count"] == 1


class TestModuleLevelRegistry:
    def test_hot_paths_are_profiled(self):
        """The paper's hot paths must show up in the process registry."""
        import numpy as np

        from repro.dtw.dtw import dtw_distance

        perf.reset()
        dtw_distance(np.zeros(8), np.ones(8), window=2)
        assert "dtw.dtw_distance" in perf.snapshot()["timers"]


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
