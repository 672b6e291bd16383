"""Differential tests: cold elliptical fits on the lockstep LM kernel vs the
scipy ``least_squares`` path they replaced (:mod:`tests.scipy_cold_oracle`).

Both minimise the same prior-weighted RSS-domain objective from the same
seeds under the same bounds, so they must agree on the Table-1 accuracy
grid scenario by scenario, never settle on a materially worse optimum, and
report the same covariance verdict on an unobservable (collinear) walk.
"""

import importlib.util
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.channel.pathloss import rss_at
from repro.core.estimator import EllipticalEstimator
from repro.core.pipeline import LocBLE
from repro.types import Vec2
from repro.world.scenarios import scenario
from tests.scipy_cold_oracle import scipy_cold_fit

_HELPERS = Path(__file__).resolve().parents[1] / "benchmarks" / "helpers.py"
_spec = importlib.util.spec_from_file_location("bench_helpers", _HELPERS)
bench_helpers = sys.modules.setdefault(
    "bench_helpers", importlib.util.module_from_spec(_spec))
_spec.loader.exec_module(bench_helpers)

SCENARIOS = range(1, 10)
SEEDS = range(4)

#: Per-scenario median errors of the two paths may differ by this much.
MEDIAN_TOL_M = 0.10
#: Relative total-cost excess tolerated on a flat (multi-modal) objective.
COST_TOL = 0.05

_TRUSTED = ("ok",)
_FALLBACK = ("rank-deficient", "capped")


def _total_cost(est, fit, n_rows):
    """The objective both paths minimise: data rows plus prior rows."""
    cost = float(np.sum(fit.residuals ** 2))
    root_n = math.sqrt(n_rows)
    if est.gamma_prior is not None:
        cost += (root_n * (fit.gamma - est.gamma_prior)
                 / est.gamma_prior_sigma) ** 2
    if est.n_prior is not None:
        cost += (root_n * (fit.n - est.n_prior) / est.n_prior_sigma) ** 2
    return cost


def _both(est, p, q, rss):
    p, q, rss = (np.asarray(v, dtype=float) for v in (p, q, rss))
    use_q = float(np.ptp(q)) > 0.3
    return est.fit(p, q, rss), scipy_cold_fit(est, p, q, rss, use_q)


def _walk(n, leg1, leg2):
    """Observer displacements along an L-walk (straight when ``leg2 == 0``)."""
    d = np.linspace(0.0, leg1 + leg2, n)
    ox = np.minimum(d, leg1)
    oy = np.clip(d - leg1, 0.0, leg2)
    return ox, oy


def _rss(ox, oy, beacon, gamma, n_exp, noise, rng):
    dist = np.hypot(beacon[0] - ox, beacon[1] - oy)
    rss = np.array([rss_at(d, gamma, n_exp) for d in dist])
    return rss + rng.normal(0.0, noise, len(rss))


@pytest.fixture(scope="module")
def table1_fits():
    """``{scenario: [(kernel_err, oracle_err, kernel-oracle distance)]}``
    over the Table-1 L-walks of ``benchmarks/helpers.measure_once``."""
    rows = {}
    for idx in SCENARIOS:
        for seed in SEEDS:
            rec, _ = bench_helpers.measure_once(scenario(idx), seed)
            pipeline = LocBLE(sanitize="repair")
            prep = pipeline.prepare_estimate(
                rec.rssi_traces["target"], rec.observer_imu.trace)
            ctx = prep.ctx
            kernel, oracle = _both(prep.estimator, ctx.matched_p,
                                   ctx.matched_q, ctx.matched_rss)
            assert kernel.solver == "gauss-newton"
            truth = rec.true_position_in_frame("target")
            rows.setdefault(idx, []).append((
                pipeline.complete_estimate(prep, kernel).error_to(truth),
                pipeline.complete_estimate(prep, oracle).error_to(truth),
                kernel.position.distance_to(oracle.position),
            ))
    return rows


class TestTable1Scenarios:
    def test_per_scenario_median_error_matches_oracle(self, table1_fits):
        for idx, rows in table1_fits.items():
            kernel = float(np.median([r[0] for r in rows]))
            oracle = float(np.median([r[1] for r in rows]))
            assert abs(kernel - oracle) <= MEDIAN_TOL_M, (idx, kernel, oracle)

    def test_most_fits_land_on_the_oracle_optimum(self, table1_fits):
        dist = np.array([r[2] for rows in table1_fits.values() for r in rows])
        assert np.mean(dist <= 0.05) >= 0.8, np.sort(dist)[-5:]


class TestGeneratedGeometries:
    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(
        radius=st.floats(1.0, 6.0),
        bearing=st.floats(-math.pi, math.pi),
        leg1=st.floats(1.5, 4.0),
        leg2=st.floats(1.0, 3.0),
        n=st.integers(16, 60),
        gamma=st.floats(-70.0, -50.0),
        n_exp=st.floats(1.6, 3.2),
        noise=st.floats(0.5, 3.0),
        env=st.sampled_from([None, "LOS", "P_LOS", "NLOS"]),
        seed=st.integers(0, 2 ** 16),
    )
    def test_kernel_reaches_the_oracle_optimum(
        self, radius, bearing, leg1, leg2, n, gamma, n_exp, noise, env, seed,
    ):
        est = EllipticalEstimator()
        if env is not None:
            est = est.with_environment(env)
        ox, oy = _walk(n, leg1, leg2)
        beacon = (radius * math.cos(bearing), radius * math.sin(bearing))
        rss = _rss(ox, oy, beacon, gamma, n_exp, noise,
                   np.random.default_rng(seed))
        kernel, oracle = _both(est, -ox, -oy, rss)
        assert (_total_cost(est, kernel, n)
                <= (1.0 + COST_TOL) * _total_cost(est, oracle, n))
        if kernel.cov_status in _TRUSTED and oracle.cov_status in _TRUSTED:
            # Well inside the fit's own uncertainty.
            assert (kernel.position.distance_to(oracle.position)
                    <= oracle.position_std)


class TestStraightWalks:
    def test_single_axis_fits_match_oracle(self):
        rng = np.random.default_rng(2024)
        kernel_err, oracle_err = [], []
        for _ in range(12):
            n = int(rng.integers(20, 50))
            ox, oy = _walk(n, float(rng.uniform(2.0, 4.0)), 0.0)
            beacon = (float(rng.uniform(-2.0, 6.0)), float(rng.uniform(1.0, 5.0)))
            rss = _rss(ox, oy, beacon, -59.0, 2.0, 1.0, rng)
            est = EllipticalEstimator()
            kernel, oracle = _both(est, -ox, oy, rss)
            assert kernel.position.y >= 0.0
            assert kernel.mirror == Vec2(kernel.position.x,
                                         -kernel.position.y)
            assert (_total_cost(est, kernel, n)
                    <= (1.0 + COST_TOL) * _total_cost(est, oracle, n))
            kernel_err.append(math.hypot(kernel.position.x - beacon[0],
                                         kernel.position.y - beacon[1]))
            oracle_err.append(math.hypot(oracle.position.x - beacon[0],
                                         oracle.position.y - beacon[1]))
        assert (abs(np.median(kernel_err) - np.median(oracle_err))
                <= MEDIAN_TOL_M)


class TestCollinearWalk:
    def test_covariance_fallback_matches_oracle_and_fires(self):
        # Same geometry as the estimator tests' straight walk toward a
        # beacon ON the walk axis: the cross-track coordinate is
        # unobservable, so both paths must refuse a trusted covariance.
        ox = np.linspace(0.0, 3.0, 30)
        rss = np.array([rss_at(d, -59.0, 2.0) for d in np.abs(5.0 - ox)])
        obs.reset()
        kernel, oracle = _both(EllipticalEstimator(), -ox, np.zeros(30), rss)
        fallbacks = obs.counts().get("estimator.cov_fallback", 0)
        events = [e for e in obs.tail() if e.name == "estimator.cov_fallback"]
        obs.reset()
        assert kernel.cov_status in _FALLBACK
        assert oracle.cov_status in _FALLBACK
        assert kernel.position_std == EllipticalEstimator.POS_STD_CAP
        assert fallbacks == len(events) == 1
        assert events[0].fields["solver"] == "gauss-newton"
