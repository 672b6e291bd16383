"""Soak-harness tests: fast smoke in tier-1, full runs behind `-m soak`."""

import dataclasses

import pytest

from repro.errors import ConfigurationError, ReproError
from repro.service import ServiceConfig, SessionConfig, TrackingService
from repro.service.health import HealthConfig
from repro.sim.faults import FaultModel
from repro.sim.soak import SoakConfig, SoakResult, run_soak
from repro.world.scenarios import scenario

import numpy as np

from repro.sim.soak import long_walk


class TestLongWalk:
    def test_covers_duration_within_bounds(self):
        sc = scenario(6)
        walk = long_walk(sc.observer_start, np.random.default_rng(0),
                         bounds=(sc.floorplan.width, sc.floorplan.height),
                         duration_s=120.0)
        assert walk.times[-1] >= 120.0
        for p in walk.waypoints:
            assert 0.0 <= p.x <= sc.floorplan.width
            assert 0.0 <= p.y <= sc.floorplan.height

    def test_seeded_walks_are_reproducible(self):
        sc = scenario(6)
        kw = dict(bounds=(sc.floorplan.width, sc.floorplan.height),
                  duration_s=30.0)
        a = long_walk(sc.observer_start, np.random.default_rng(7), **kw)
        b = long_walk(sc.observer_start, np.random.default_rng(7), **kw)
        assert a.waypoints == b.waypoints and a.times == b.times

    def test_impossible_bounds_rejected(self):
        with pytest.raises(ConfigurationError):
            long_walk(scenario(1).observer_start, np.random.default_rng(0),
                      bounds=(0.5, 0.5), duration_s=10.0)


class TestSoakConfigValidation:
    def test_bad_values_rejected(self):
        with pytest.raises(ConfigurationError):
            SoakConfig(duration_s=0.0)
        with pytest.raises(ConfigurationError):
            SoakConfig(tick_s=float("nan"))
        with pytest.raises(ConfigurationError):
            SoakConfig(n_beacons=0)
        with pytest.raises(ConfigurationError):
            SoakConfig(duration_s=60.0, checkpoint_t=60.0)


def smoke_config(**kwargs):
    """A scaled-down acceptance scenario that runs in a few seconds:
    bursty loss plus an outage long enough to outlive the solve window."""
    defaults = dict(
        duration_s=90.0,
        seed=7,
        checkpoint_t=45.0,
        fault=FaultModel(loss_rate=0.3, n_outages=1, outage_s=35.0),
        service=ServiceConfig(
            session=SessionConfig(
                window_s=20.0,
                health=HealthConfig(stale_after_s=6.0, lost_after_s=60.0),
            ),
            imu_window_s=25.0,
        ),
    )
    defaults.update(kwargs)
    return SoakConfig(**defaults)


class TestSoakSmoke:
    @pytest.fixture(scope="class")
    def result(self):
        return run_soak(smoke_config())

    def test_no_untyped_exceptions(self, result):
        assert result.errors == ()
        assert result.untyped_errors == 0

    def test_session_rides_out_the_outage(self, result):
        states = result.states_visited("b0")
        assert states[0] == "ACQUIRING"
        i_h = states.index("HEALTHY")
        assert "STALE" in states[i_h:]
        i_s = states.index("STALE", i_h)
        assert "HEALTHY" in states[i_s:]  # re-acquired after the outage

    def test_checkpoint_resume_bit_identical(self, result):
        assert result.checkpoint_equal is True
        assert result.divergence_t is None

    def test_work_was_done_and_counted(self, result):
        assert result.counters["fixes_accepted"] > 10
        assert result.counters["solves_skipped_nodata"] > 0  # the outage
        assert result.dwell["b0"]["STALE"] > 0.0

    def test_result_shape(self, result):
        assert isinstance(result, SoakResult)
        assert result.ticks == 90
        assert result.stats["sessions"] == 1


class TestSoakDeterminism:
    def test_same_seed_same_outcome(self):
        cfg = smoke_config(duration_s=40.0, checkpoint_t=None,
                           fault=FaultModel(loss_rate=0.2))
        a, b = run_soak(cfg), run_soak(cfg)
        assert a.counters == b.counters
        assert a.transitions == b.transitions
        assert [s.track for s in a.snapshots["b0"]] == [
            s.track for s in b.snapshots["b0"]]


@pytest.mark.soak
class TestSoakFull:
    """The ISSUE acceptance run: 300 s, 30% bursty loss, two 60 s outages."""

    @pytest.fixture(scope="class")
    def result(self):
        return run_soak(SoakConfig(
            duration_s=300.0,
            seed=7,
            checkpoint_t=150.0,
            fault=FaultModel(loss_rate=0.3, n_outages=2, outage_s=60.0),
        ))

    def test_zero_untyped_exceptions(self, result):
        assert result.untyped_errors == 0
        assert result.errors == ()

    def test_healthy_stale_healthy(self, result):
        states = result.states_visited("b0")
        i_h = states.index("HEALTHY")
        i_s = states.index("STALE", i_h)
        assert "HEALTHY" in states[i_s:]

    def test_mid_run_checkpoint_bit_identical(self, result):
        assert result.checkpoint_equal is True

    def test_multi_beacon_soak(self):
        r = run_soak(SoakConfig(
            duration_s=180.0, seed=3, n_beacons=3,
            fault=FaultModel(loss_rate=0.3, n_outages=1, outage_s=60.0),
        ))
        assert r.untyped_errors == 0
        assert r.stats["sessions"] == 3


class _LateTypedError(ReproError):
    """A typed error class created after :mod:`repro.sim.soak` imported."""


class DataQualityError(Exception):
    """An untyped look-alike sharing a typed error's class name."""


class TestSoakVerdicts:
    """Errors are classified by type when caught, and kill/resume is judged
    by per-tick snapshot digest across all beacons."""

    def test_errors_classified_by_type_not_name(self, monkeypatch):
        tick_batch = TrackingService.tick_batch
        raises = {3.0: _LateTypedError, 5.0: _LateTypedError,
                  7.0: DataQualityError}

        def flaky(self, t):
            if t in raises:
                raise raises[t](f"scripted at t={t}")
            return tick_batch(self, t)

        monkeypatch.setattr(TrackingService, "tick_batch", flaky)
        result = run_soak(smoke_config(duration_s=10.0, checkpoint_t=None,
                                       fault=FaultModel(loss_rate=0.1)))
        assert len(result.errors) == 3
        assert result.untyped_errors == 1

    def test_divergence_t_is_earliest_across_beacons(self, monkeypatch):
        # The resumed run's b1 diverges one tick after the kill, b0 three
        # ticks after: the verdict names b1's (earlier) tick even though
        # b0 sorts first.
        restore = TrackingService.restore.__func__
        perturb_at = {1: "b1", 3: "b0"}

        def restore_perturbed(cls, cp, **kw):
            resumed = restore(cls, cp, **kw)
            tick_batch = resumed.tick_batch
            calls = []

            def tick(t):
                snaps = tick_batch(t)
                beacon = perturb_at.get(len(calls))
                calls.append(t)
                if beacon is not None:
                    snaps[beacon] = dataclasses.replace(
                        snaps[beacon], shed=snaps[beacon].shed + 1)
                return snaps

            resumed.tick_batch = tick
            return resumed

        monkeypatch.setattr(TrackingService, "restore",
                            classmethod(restore_perturbed))
        result = run_soak(smoke_config(duration_s=20.0, checkpoint_t=10.0,
                                       n_beacons=2,
                                       fault=FaultModel(loss_rate=0.1)))
        assert sorted(result.snapshots) == ["b0", "b1"]
        assert result.errors == ()
        assert result.checkpoint_equal is False and not result.passed
        assert result.divergence_t == 12.0  # tail ticks are 11, 12, ...
