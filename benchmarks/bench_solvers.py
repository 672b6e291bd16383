"""Solver accuracy-vs-cost comparison on the Table-1 scenarios.

Runs the same measurement sessions (all nine Table-1 environments, several
seeds each) through :class:`~repro.core.pipeline.LocBLE` with each solver
in :data:`~repro.core.solvers.SOLVERS` — elliptical (the paper's
regression) and particle (sequential Monte Carlo) — and writes
``BENCH_solvers.json`` at the repo root with, per solver:

* **accuracy**: median / mean / p90 location error across all scenarios
  and seeds, plus the per-scenario medians;
* **cost**: median and p90 wall-clock time per full pipeline estimate
  (everything from sanitization through the solve);
* **robustness bookkeeping**: refusals (typed) and untyped errors (must
  be zero).

Run directly (``python benchmarks/bench_solvers.py``), as the CI gate
(``python benchmarks/bench_solvers.py --smoke`` — one scenario, asserts
every backend estimates with zero untyped errors and that no elliptical
per-scenario median, taken over the committed seeds, is more than
``ACCURACY_TOL_M`` worse than the committed report, which it does not
rewrite), or via pytest (``pytest benchmarks/bench_solvers.py -m
solvers``). EXPERIMENTS.md summarizes the committed numbers.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import numpy as np
import pytest

from repro.core.pipeline import LocBLE
from repro.core.solvers import SOLVERS
from repro.errors import ReproError
from repro.world.scenarios import scenario

sys.path.insert(0, str(Path(__file__).resolve().parent))
from helpers import DEFAULT_LEGS, measure_once  # noqa: E402

REPO_ROOT = Path(__file__).resolve().parents[1]
REPORT_PATH = REPO_ROOT / "BENCH_solvers.json"

SCENARIOS = tuple(range(1, 10))
SEEDS = tuple(range(6))

#: The smoke gate fails when an elliptical per-scenario median error is
#: worse than the committed ``BENCH_solvers.json`` value by more than this.
ACCURACY_TOL_M = 0.10


def run_backend(
    backend: str,
    scenarios: Sequence[int] = SCENARIOS,
    seeds: Sequence[int] = SEEDS,
) -> Dict[str, object]:
    """Accuracy and per-estimate cost for one backend over the grid."""
    errors: List[float] = []
    times_ms: List[float] = []
    per_scenario: Dict[str, float] = {}
    refused = 0
    untyped = 0
    for idx in scenarios:
        sc = scenario(idx)
        sc_errors: List[float] = []
        for seed in seeds:
            rec, _ = measure_once(sc, seed)
            pipeline = LocBLE(solver=backend, sanitize="repair")
            t0 = time.perf_counter()
            try:
                est = pipeline.estimate(
                    rec.rssi_traces["target"], rec.observer_imu.trace)
            except ReproError:
                refused += 1
                continue
            except Exception:  # noqa: BLE001 - the bookkeeping the bench exists for
                untyped += 1
                continue
            times_ms.append(1e3 * (time.perf_counter() - t0))
            err = est.error_to(rec.true_position_in_frame("target"))
            if np.isfinite(err):
                errors.append(float(err))
                sc_errors.append(float(err))
        if sc_errors:
            per_scenario[f"scenario_{idx}"] = float(np.median(sc_errors))
    return {
        "backend": backend,
        "n_trials": len(list(scenarios)) * len(list(seeds)),
        "n_estimates": len(errors),
        "refused": refused,
        "untyped_errors": untyped,
        "error_median_m": float(np.median(errors)) if errors else None,
        "error_mean_m": float(np.mean(errors)) if errors else None,
        "error_p90_m": float(np.percentile(errors, 90)) if errors else None,
        "per_scenario_median_m": per_scenario,
        "solve_ms_median": float(np.median(times_ms)) if times_ms else None,
        "solve_ms_p90": float(np.percentile(times_ms, 90)) if times_ms else None,
    }


def run_full() -> Dict[str, object]:
    return {
        "description": (
            "Accuracy-vs-cost comparison of the solvers "
            "on the Table-1 stationary scenarios (same traces per backend)."
        ),
        "python": platform.python_version(),
        "config": {
            "scenarios": list(SCENARIOS),
            "seeds": list(SEEDS),
            "legs": list(DEFAULT_LEGS),
            "sanitize": "repair",
        },
        "backends": [run_backend(b) for b in SOLVERS],
    }


def _committed() -> Dict[str, object]:
    return json.loads(REPORT_PATH.read_text())


def run_smoke() -> Dict[str, object]:
    """The CI gate: one scenario, every backend must estimate with zero
    untyped errors. Small enough for a pull-request loop. Only the
    elliptical row is compared with the committed report, so only it runs
    over the report's seeds (its median then compares like for like); the
    other backends keep two seeds."""
    committed_seeds = tuple(_committed()["config"]["seeds"])
    return {
        "backends": [
            run_backend(b, scenarios=(1,),
                        seeds=committed_seeds if b == "elliptical" else (0, 1))
            for b in SOLVERS
        ],
    }


def accuracy_regressions(report: Dict[str, object]) -> List[str]:
    """Elliptical per-scenario medians more than ``ACCURACY_TOL_M`` worse
    than the committed report, one message each."""
    def elliptical(rep: Dict[str, object]) -> Dict[str, float]:
        row = next(r for r in rep["backends"] if r["backend"] == "elliptical")
        return row["per_scenario_median_m"]

    base = elliptical(_committed())
    return [
        f"elliptical {name}: {median:.3f} m vs committed "
        f"{base[name]:.3f} m (+{ACCURACY_TOL_M:.2f} m allowed)"
        for name, median in elliptical(report).items()
        if median > base[name] + ACCURACY_TOL_M
    ]


def _smoke_ok(report: Dict[str, object]) -> bool:
    return not accuracy_regressions(report) and all(
        row["untyped_errors"] == 0 and row["n_estimates"] > 0
        for row in report["backends"]
    )


# -- pytest entry point (excluded from tier-1 via the solvers marker) ---------


@pytest.mark.solvers
def test_bench_solvers_smoke():
    report = run_smoke()
    for row in report["backends"]:
        assert row["untyped_errors"] == 0, row
        assert row["n_estimates"] > 0, row
        assert row["error_median_m"] < 6.0, row
    assert not accuracy_regressions(report)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="tiny CI gate: every backend estimates, zero "
                             "untyped errors, elliptical accuracy within "
                             f"+{ACCURACY_TOL_M:.2f} m of BENCH_solvers.json "
                             "(which it does not rewrite)")
    args = parser.parse_args(argv)

    if args.smoke:
        report = run_smoke()
        print(json.dumps(report, indent=2))
        for msg in accuracy_regressions(report):
            print("accuracy regression:", msg)
        ok = _smoke_ok(report)
        print("smoke:", "OK" if ok else "FAILED")
        return 0 if ok else 1

    report = run_full()
    REPORT_PATH.write_text(json.dumps(report, indent=2) + "\n")
    print(f"{'backend':12s} {'median':>7s} {'mean':>6s} {'p90':>6s} "
          f"{'ms/solve':>9s} {'refused':>7s} {'untyped':>7s}")
    for row in report["backends"]:
        print(f"{row['backend']:12s} {row['error_median_m']:7.2f} "
              f"{row['error_mean_m']:6.2f} {row['error_p90_m']:6.2f} "
              f"{row['solve_ms_median']:9.1f} {row['refused']:7d} "
              f"{row['untyped_errors']:7d}")
    print(f"wrote {REPORT_PATH}")
    ok = all(r["untyped_errors"] == 0 and r["n_estimates"] > 0
             for r in report["backends"])
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
