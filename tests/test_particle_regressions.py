"""Regressions for the particle filter's silent posterior-wipe failures.

The historical bug: one non-finite or wildly inconsistent reading drove
the filter into the degenerate-weight branch, which silently re-seeded the
entire posterior **and** zeroed the update count — so a later solve raised
``EstimationError("no readings assimilated yet")`` after hundreds of
successful updates, with no event, no counter, and no typed diagnostics.
These tests pin the contract of :class:`~repro.core.solvers.ParticleBackend`:
bad readings are screened (typed in strict mode, skip-and-count in repair
mode), the degenerate branch keeps the pre-update posterior and is loud,
and ``solve()`` keeps working after any rejected reading.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.channel.pathloss import rss_at
from repro.core.solvers import N_PARTICLES, ParticleBackend
from repro.errors import DataQualityError

TRUE = (4.0, 3.0)


def _l_walk_readings(rng, true=TRUE, gamma=-59.0, n=2.1, noise=1.5,
                     n_samples=40):
    d = np.linspace(0, 4.5, n_samples)
    p = -np.minimum(d, 2.5)
    q = -np.clip(d - 2.5, 0, 2.0)
    l = np.hypot(true[0] + p, true[1] + q)
    rss = np.array([rss_at(x, gamma, n) for x in l])
    rss = rss + rng.normal(0, noise, n_samples)
    return p, q, rss


def _converged(seed=0, sanitize="strict") -> ParticleBackend:
    rng = np.random.default_rng(seed)
    p, q, rss = _l_walk_readings(rng)
    pf = ParticleBackend(sanitize=sanitize, seed=seed)
    pf.observe(p, q, rss)
    return pf


def _n_assimilated(pf: ParticleBackend) -> int:
    return len(pf.solve().residuals)


@pytest.fixture(autouse=True)
def clean_obs():
    obs.reset()
    yield
    obs.reset()


class TestPosteriorWipeRegression:
    def test_junk_reading_does_not_wipe_history(self):
        """The headline regression: the old code wiped the posterior and
        the update count on a single NaN, making the next solve crash with
        "no readings assimilated yet" after dozens of good updates."""
        pf = _converged(sanitize="repair")
        n_before = _n_assimilated(pf)
        before = pf.solve()
        assert pf.observe([float("nan")], [0.0], [-60.0]) == 0
        assert _n_assimilated(pf) == n_before
        after = pf.solve()  # old code: EstimationError here
        assert after.position == before.position

    def test_degenerate_weights_keep_pre_update_posterior(self):
        """A finite displacement near the float limit passes screening but
        overflows every particle's likelihood: the degenerate-weight guard
        drops only that reading — evented and counted, posterior intact."""
        pf = _converged(sanitize="repair")
        n_before = _n_assimilated(pf)
        state, weights = pf._state.copy(), pf._weights.copy()
        before = pf.solve()

        assert pf.observe([1.5e308], [1.5e308], [-60.0]) == 0

        assert _n_assimilated(pf) == n_before
        np.testing.assert_array_equal(pf._state, state)
        np.testing.assert_array_equal(pf._weights, weights)
        assert pf.solve().position == before.position
        assert obs.counts().get("solver.particle_degenerate") == 1

    def test_strict_mode_raises_typed_on_junk(self):
        pf = _converged(sanitize="strict")
        before = pf.solve()
        with pytest.raises(DataQualityError):
            pf.observe([float("nan")], [0.0], [-60.0])
        with pytest.raises(DataQualityError):
            pf.observe([0.0], [float("inf")], [-60.0])
        with pytest.raises(DataQualityError):
            pf.observe([0.0], [0.0], [-1.0e200])  # implausible RSS band
        # The posterior is untouched by the refused readings.
        assert pf.solve().position == before.position

    def test_repair_mode_skips_and_counts(self):
        pf = _converged(sanitize="repair")
        taken = pf.observe(
            [0.0, float("nan"), 0.1], [0.0, 0.0, 0.1], [-60.0, -60.0, 500.0]
        )
        assert taken == 1
        assert pf.n_skipped == 2
        assert obs.counts().get("solver.particle_skipped") == 2
        # One n-weighted event per observe, not one per bad reading.
        assert [e.fields["n"] for e in obs.tail()
                if e.name == "solver.particle_skipped"] == [2]


class TestNonNumericTypedErrors:
    def test_non_numeric_raises_typed_in_strict(self):
        pf = ParticleBackend()
        with pytest.raises(DataQualityError):
            pf.observe(["spam"], [0.0], [-60.0])
        with pytest.raises(DataQualityError):
            pf.observe([0.0], [None], [-60.0])
        with pytest.raises(DataQualityError):
            pf.observe([0.0], [0.0], [{"rss": -60}])
        with pytest.raises(DataQualityError):
            pf.observe([10 ** 400], [0.0], [-60.0])  # overflows float()

    def test_non_numeric_skipped_in_repair(self):
        pf = _converged(sanitize="repair")
        before = _n_assimilated(pf)
        taken = pf.observe(["spam", 0.0], [0.0, 0.0], [-60.0, -61.0])
        assert taken == 1
        assert _n_assimilated(pf) == before + 1
        assert pf.n_skipped == 1


class TestJunkNeverDestroysPosterior:
    _BAD = st.sampled_from([
        float("nan"), float("inf"), -float("inf"), -1.0e200, 1.0e200, 500.0,
    ])
    _OK = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False)

    @staticmethod
    def _junk_reading(draw_bad, p, q, rss, which):
        # Exactly the fields named by ``which`` are poisoned; an RSS is
        # junk when outside the plausible band, p/q only when non-finite.
        if "p" in which:
            p = draw_bad if not np.isfinite(draw_bad) else float("nan")
        if "q" in which:
            q = draw_bad if not np.isfinite(draw_bad) else float("inf")
        if "rss" in which:
            rss = draw_bad
        return p, q, rss

    @given(
        readings=st.lists(
            st.tuples(
                _BAD,
                st.sampled_from(["p", "q", "rss", "pq", "prss", "pqrss"]),
            ),
            min_size=1,
            max_size=20,
        )
    )
    @settings(max_examples=25, deadline=None)
    def test_junk_stream_leaves_converged_posterior_bit_identical(
        self, readings
    ):
        """Property (hypothesis): arbitrary junk readings — any mix of
        non-finite displacements and non-finite/implausible RSS — never
        move a converged posterior at all, and solve() keeps working."""
        pf = _converged(sanitize="repair")
        state_before = pf._state.copy()
        weights_before = pf._weights.copy()
        n_before = _n_assimilated(pf)

        for bad, which in readings:
            p, q, rss = self._junk_reading(bad, 0.5, -0.5, -60.0, which)
            assert pf.observe([p], [q], [rss]) == 0

        assert _n_assimilated(pf) == n_before
        np.testing.assert_array_equal(pf._state, state_before)
        np.testing.assert_array_equal(pf._weights, weights_before)
        pf.solve()


class TestEstimateDiagnostics:
    def test_estimate_carries_posterior_spread_diagnostics(self):
        pf = _converged(sanitize="repair")
        pf.observe([float("nan")], [0.0], [-60.0])
        fit = pf.solve()
        assert fit.solver == "particle"
        assert fit.n_candidates == N_PARTICLES
        assert fit.cov_status == "ok"
        # The posterior spread: the weighted RMS radius of the cloud.
        w = pf._weights
        xy = pf._state[:, :2]
        spread = np.sqrt(np.sum(w[:, None] * (xy - w @ xy) ** 2))
        assert fit.position_std == pytest.approx(spread)
        assert pf.n_skipped == 1
        # Residuals cover exactly the assimilated readings.
        assert len(fit.residuals) == 40
