"""Tests for the deterministic parallel Monte-Carlo runner."""

import numpy as np
import pytest

from repro import obs
from repro.errors import ConfigurationError
from repro.sim.parallel import (
    MIN_PARALLEL_TRIALS,
    TrialResult,
    effective_workers,
    run_trials,
)


def _seeded_value(seed: int) -> float:
    """A trial whose result depends only on its seed."""
    rng = np.random.default_rng(seed)
    return float(np.sum(rng.normal(size=50)))


def _fails_on_odd(seed: int) -> float:
    if seed % 2:
        raise ValueError(f"seed {seed} is odd")
    return float(seed)


class TestRunTrials:
    def test_bit_identical_across_worker_counts(self):
        seeds = range(12)
        one = run_trials(_seeded_value, seeds, max_workers=1, parallel="off")
        four = run_trials(_seeded_value, seeds, max_workers=4,
                          parallel="force")
        assert [r.value for r in one] == [r.value for r in four]
        assert [r.seed for r in one] == [r.seed for r in four] == list(seeds)

    def test_results_in_seed_order(self):
        seeds = [9, 3, 7, 1, 5]
        results = run_trials(_seeded_value, seeds, parallel="off")
        assert [r.seed for r in results] == seeds

    def test_trial_failure_is_captured_not_raised(self):
        results = run_trials(_fails_on_odd, range(6), parallel="off")
        assert [r.ok for r in results] == [True, False] * 3
        failed = results[1]
        assert failed.value is None
        assert "seed 1 is odd" in failed.error

    def test_failures_identical_serial_vs_pool(self):
        serial = run_trials(_fails_on_odd, range(8), parallel="off")
        pooled = run_trials(_fails_on_odd, range(8), max_workers=4,
                            parallel="force")
        assert [(r.seed, r.ok, r.value) for r in serial] == \
               [(r.seed, r.ok, r.value) for r in pooled]

    def test_unpicklable_fn_falls_back_to_serial(self):
        obs.reset()
        offset = 10.0
        closure = lambda seed: seed + offset  # noqa: E731 — not picklable
        results = run_trials(closure, range(6), max_workers=4,
                             parallel="force")
        assert [r.value for r in results] == [float(s) + 10.0
                                              for s in range(6)]
        fallbacks = [e for e in obs.tail()
                     if e.name == "parallel.pool_fallback"]
        assert len(fallbacks) == 1
        assert fallbacks[0].severity == "warning"
        assert fallbacks[0].fields["error"]

    def test_auto_stays_serial_below_min_trials(self):
        n = MIN_PARALLEL_TRIALS - 1
        results = run_trials(_seeded_value, range(n), max_workers=4,
                             parallel="auto")
        assert len(results) == n and all(r.ok for r in results)

    def test_invalid_parallel_mode_rejected(self):
        with pytest.raises(ConfigurationError):
            run_trials(_seeded_value, range(4), parallel="yes-please")

    def test_empty_seeds(self):
        assert run_trials(_seeded_value, [], parallel="auto") == []


class TestEffectiveWorkers:
    def test_capped_by_trial_count(self):
        assert effective_workers(3, 8) == 3

    def test_capped_by_max_workers(self):
        assert effective_workers(100, 2) == 2

    def test_at_least_one(self):
        assert effective_workers(0, None) == 1


class TestTrialResult:
    def test_ok_property(self):
        assert TrialResult(seed=1, value=2.0).ok
        assert not TrialResult(seed=1, error="boom").ok


class TestStationaryTrialsParallel:
    def test_pool_matches_serial(self, scenario3):
        from repro.sim.montecarlo import stationary_trials

        serial = stationary_trials(scenario3, range(6), parallel="off",
                                   failure_value=25.0)
        pooled = stationary_trials(scenario3, range(6), max_workers=4,
                                   parallel="force", failure_value=25.0)
        assert serial == pooled

    def test_closure_factory_still_works(self, scenario3):
        from repro.core.pipeline import LocBLE
        from repro.sim.montecarlo import stationary_trials

        errors = stationary_trials(
            scenario3, range(4), pipeline_factory=lambda: LocBLE(),
            max_workers=2, parallel="force", failure_value=25.0)
        assert len(errors) == 4


@pytest.fixture(scope="module")
def scenario3():
    from repro.world.scenarios import scenario

    return scenario(3)
