"""Tests for the solver layer (:mod:`repro.core.solvers`).

Covers the solver-name tuple and the typed refusal of unknown (or
removed) names everywhere a name enters — ``LocBLE``, ``SessionConfig``,
session checkpoints, the CLI — plus the particle filter's
``observe/solve`` contract and screening policy, threading ``solver=``
through :class:`~repro.core.pipeline.LocBLE` and the session/service
configs (including checkpoint back-compat: absent field → elliptical and
a real-pipeline particle session's kill-and-resume), the ``solver.*``
event counts, and the cross-solver equivalence smoke on the
Table-1 stationary scenario.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro import obs
from repro.channel.pathloss import rss_at
from repro.core.pipeline import LocBLE
from repro.core.solvers import SOLVERS, ParticleBackend
from repro.errors import ConfigurationError, DataQualityError
from repro.service import SessionConfig, TrackingSession
from repro.sim.montecarlo import SolverPipelineFactory
from repro.types import ImuTrace, RssiSample


@pytest.fixture(autouse=True)
def clean_obs():
    obs.reset()
    yield
    obs.reset()


def _l_walk_readings(rng, true=(4.0, 3.0), gamma=-59.0, n=2.1, noise=1.5,
                     n_samples=40):
    d = np.linspace(0, 4.5, n_samples)
    p = -np.minimum(d, 2.5)
    q = -np.clip(d - 2.5, 0, 2.0)
    l = np.hypot(true[0] + p, true[1] + q)
    rss = np.array([rss_at(x, gamma, n) for x in l])
    rss = rss + rng.normal(0, noise, n_samples)
    return p, q, rss


class TestSolverNames:
    def test_solver_names(self):
        assert SOLVERS == ("elliptical", "particle")
        assert repro.SOLVERS is SOLVERS

    def test_unknown_name_is_typed(self):
        with pytest.raises(ConfigurationError):
            LocBLE(solver="levenberg")

    def test_removed_ekf_is_typed_everywhere(self):
        """The EKF was deleted; its name takes the unknown-solver path at
        every entry point, and the message lists what remains."""
        listed = "available: elliptical, particle"
        with pytest.raises(ConfigurationError, match=listed):
            LocBLE(solver="ekf")
        with pytest.raises(ConfigurationError, match=listed):
            SessionConfig(solver="ekf")
        cp = json.loads(json.dumps(TrackingSession("b0").checkpoint()))
        cp["config"]["solver"] = "ekf"
        with pytest.raises(ConfigurationError, match=listed):
            TrackingSession.restore(cp)

    def test_cli_rejects_removed_ekf_with_usage_error(self):
        env_path = str(Path(repro.__file__).resolve().parents[1])
        result = subprocess.run(
            [sys.executable, "-m", "repro", "locate", "--solver", "ekf"],
            capture_output=True, text=True, timeout=120,
            env=dict(os.environ, PYTHONPATH=env_path),
        )
        assert result.returncode == 2
        assert "usage:" in result.stderr
        assert "invalid choice: 'ekf'" in result.stderr


class TestBackendContract:
    def test_observe_solve_recovers_position(self):
        rng = np.random.default_rng(1)
        p, q, rss = _l_walk_readings(rng, noise=1.0)
        be = ParticleBackend(seed=1)
        assert be.observe(p, q, rss) == len(p)
        fit = be.solve()
        err = float(np.hypot(fit.position.x - 4.0, fit.position.y - 3.0))
        assert err < 3.0
        assert fit.solver == "particle"
        assert len(fit.residuals) == len(p)
        assert np.isfinite(fit.rss_rmse)

    def test_strict_screening_raises_typed(self):
        be = ParticleBackend(sanitize="strict")
        with pytest.raises(DataQualityError):
            be.observe([0.0, float("nan")], [0.0, 0.0], [-60.0, -61.0])
        with pytest.raises(DataQualityError):
            be.observe([0.0], [0.0], [-1.0e200])
        with pytest.raises(DataQualityError):
            be.observe(["spam"], [0.0], [-60.0])

    def test_repair_screening_skips_counts_and_events(self):
        rng = np.random.default_rng(2)
        p, q, rss = _l_walk_readings(rng)
        be = ParticleBackend(sanitize="repair", seed=2)
        p_bad = np.concatenate([p, [float("nan"), 0.0]])
        q_bad = np.concatenate([q, [0.0, float("inf")]])
        rss_bad = np.concatenate([rss, [-60.0, -60.0]])
        assert be.observe(p_bad, q_bad, rss_bad) == len(p)

        fit = be.solve()
        assert np.isfinite(fit.position.x)
        assert be.n_skipped == 2
        # The skips were evented, and the event is the counter.
        assert obs.counts().get("solver.particle_skipped") == 2

    def test_misaligned_inputs_are_typed(self):
        be = ParticleBackend()
        with pytest.raises(DataQualityError):
            be.observe([0.0, 1.0], [0.0], [-60.0])


class TestLocBLEThreading:
    @pytest.fixture(scope="class")
    def record(self):
        from repro import BeaconSpec, Simulator, l_shape, scenario

        sc = scenario(1)
        sim = Simulator(sc.floorplan, np.random.default_rng(0))
        walk = l_shape(sc.observer_start, sc.observer_heading_rad,
                       leg1=2.8, leg2=2.2)
        rec = sim.simulate(
            walk, [BeaconSpec("b", position=sc.beacon_position)])
        return rec

    def test_unknown_solver_rejected_at_construction(self):
        with pytest.raises(ConfigurationError):
            LocBLE(solver="nope")

    def test_only_elliptical_has_batched_path(self, record):
        assert LocBLE().uses_batched_solver
        pipeline = LocBLE(solver="particle")
        assert not pipeline.uses_batched_solver
        with pytest.raises(ConfigurationError):
            pipeline.prepare_estimate(
                record.rssi_traces["b"], record.observer_imu.trace)

    @pytest.mark.parametrize("name", SOLVERS)
    def test_table1_stationary_equivalence_smoke(self, record, name):
        """Cross-solver equivalence on the Table-1 scenario-1 measurement:
        every solver localises the same beacon from the same trace within
        tolerance, and provenance names the solver that solved."""
        est = LocBLE(solver=name).estimate(
            record.rssi_traces["b"], record.observer_imu.trace)
        truth = record.true_position_in_frame("b")
        assert est.error_to(truth) < 5.0
        prov = est.diagnostics.provenance
        expected = "gauss-newton" if name == "elliptical" else name
        assert prov.solver == expected
        assert est.diagnostics.full_pipeline or name == "elliptical"

    def test_backend_solve_is_deterministic(self, record):
        args = (record.rssi_traces["b"], record.observer_imu.trace)
        a = LocBLE(solver="particle").estimate(*args)
        b = LocBLE(solver="particle").estimate(*args)
        assert a.position.x == b.position.x
        assert a.position.y == b.position.y


class TestSessionThreading:
    def test_config_validates_solver(self):
        with pytest.raises(ConfigurationError):
            SessionConfig(solver="nope")

    def test_config_roundtrip_carries_solver(self):
        cfg = SessionConfig(solver="particle")
        assert SessionConfig.from_dict(
            json.loads(json.dumps(cfg.to_dict()))).solver == "particle"

    def test_legacy_config_dict_defaults_to_elliptical(self):
        d = SessionConfig().to_dict()
        d.pop("solver")
        assert SessionConfig.from_dict(d).solver == "elliptical"

    def test_session_pipeline_follows_config_solver(self):
        s = TrackingSession("b0", config=SessionConfig(solver="particle"))
        assert s.pipeline.solver == "particle"
        assert not s.pipeline.uses_batched_solver

    def test_session_checkpoint_restores_solver(self):
        s = TrackingSession("b0", config=SessionConfig(solver="particle"))
        cp = json.loads(json.dumps(s.checkpoint()))
        restored = TrackingSession.restore(cp)
        assert restored.config.solver == "particle"
        assert restored.pipeline.solver == "particle"

    def test_legacy_session_checkpoint_defaults_to_elliptical(self):
        s = TrackingSession("b0")
        cp = json.loads(json.dumps(s.checkpoint()))
        cp["config"].pop("solver")
        restored = TrackingSession.restore(cp)
        assert restored.config.solver == "elliptical"
        assert restored.pipeline.uses_batched_solver

    def test_sequential_backend_solves_inline_on_begin_step(self):
        """begin_step must not try to join the fit_batch for a backend
        with no batched path — it solves inline like step() would."""
        from repro import BeaconSpec, Simulator, l_shape, scenario

        sc = scenario(1)
        sim = Simulator(sc.floorplan, np.random.default_rng(0))
        walk = l_shape(sc.observer_start, sc.observer_heading_rad,
                       leg1=2.8, leg2=2.2)
        rec = sim.simulate(
            walk, [BeaconSpec("b", position=sc.beacon_position)])
        trace = rec.rssi_traces["b"]

        s = TrackingSession("b0", config=SessionConfig(solver="particle"))
        s.ingest(RssiSample(sm.timestamp, sm.rssi, "b0", sm.channel)
                 for sm in trace)
        pending = s.begin_step(float(trace.samples[-1].timestamp),
                               rec.observer_imu.trace)
        assert pending is None
        assert s.counters["solves_attempted"] == 1
        assert s.last_estimate is not None


class TestParticleSessionResume:
    """Kill-and-resume of a real-pipeline particle session: a checkpoint
    taken mid-stream, round-tripped through JSON and restored continues
    exactly like the session that was never interrupted."""

    @pytest.fixture(scope="class")
    def walk(self):
        from repro import BeaconSpec, Simulator, scenario
        from repro.world.trajectory import random_waypoint_walk

        sc = scenario(1)
        rng = np.random.default_rng(5)
        sim = Simulator(sc.floorplan, rng)
        path = random_waypoint_walk(
            sc.observer_start, 10, rng, leg_range=(1.5, 3.0),
            bounds=(sc.floorplan.width, sc.floorplan.height))
        rec = sim.simulate(
            path, [BeaconSpec("b", position=sc.beacon_position)])
        return rec.rssi_traces["b"].samples, rec.observer_imu.trace.samples

    @staticmethod
    def _drive(session, walk, ticks):
        rss, imu = walk
        out = []
        for t in ticks:
            session.ingest(
                RssiSample(s.timestamp, s.rssi, "b", s.channel) for s in rss
                if t - 2.0 < s.timestamp <= t)
            snap = session.step(
                t, ImuTrace([s for s in imu if s.timestamp <= t]))
            est = snap.estimate
            out.append((
                snap.t, snap.state, snap.breaker_state, snap.fix_age_s,
                snap.track, snap.buffered, snap.shed,
                None if est is None else (
                    est.position, est.position_std, est.confidence,
                    est.gamma, est.n, est.diagnostics.provenance),
            ))
        return out

    def test_particle_session_kill_and_resume_matches_uninterrupted(
        self, walk
    ):
        ticks = [2.0 * k for k in range(1, 1 + int(walk[0][-1].timestamp // 2))]
        cut = len(ticks) // 2
        assert cut >= 3

        def session():
            return TrackingSession("b", config=SessionConfig(solver="particle"))

        full = session()
        expected = self._drive(full, walk, ticks)

        first = session()
        got = self._drive(first, walk, ticks[:cut])
        cp = json.loads(json.dumps(first.checkpoint()))
        resumed = TrackingSession.restore(cp)
        assert resumed.pipeline.solver == "particle"
        got += self._drive(resumed, walk, ticks[cut:])

        assert got == expected
        assert resumed.counters == full.counters
        assert full.counters["fixes_accepted"] > cut


class TestSolverPipelineFactory:
    def test_factory_is_picklable_and_builds_solver(self):
        import pickle

        factory = pickle.loads(pickle.dumps(
            SolverPipelineFactory(solver="particle")))
        pipeline = factory()
        assert pipeline.solver == "particle"
        assert pipeline.sanitize == "repair"
