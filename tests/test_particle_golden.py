"""Golden output of the particle-filter backend, pinned bit for bit.

``particle_golden.json`` was recorded from the two-layer implementation
that preceded :class:`~repro.core.solvers.ParticleBackend` (a registry
adapter around a separate ``ParticleEstimator``). The merged class must
reproduce every :class:`~repro.core.estimator.FitResult` field and every
``solver.particle_*`` signal total exactly, on:

* seeded Table-1 L-walks (``benchmarks/helpers.measure_once`` geometry),
  in both sanitize modes;
* a repair-mode stream poisoned with NaN displacements and out-of-band RSS;
* a stream whose one overflowing reading trips the degenerate-weight guard.

Each stream is fed in chunks with a ``solve()`` after every chunk, so
sequential assimilation across ``observe`` calls is pinned too.

Re-record (only when the numerics change on purpose) with
``PYTHONPATH=src python tests/test_particle_golden.py``.
"""

import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro import obs
from repro.core.solvers import ParticleBackend
from repro.motion.deadreckoning import MotionTracker
from repro.world.scenarios import scenario

_HELPERS = Path(__file__).resolve().parents[1] / "benchmarks" / "helpers.py"
_spec = importlib.util.spec_from_file_location("bench_helpers", _HELPERS)
bench_helpers = sys.modules.setdefault(
    "bench_helpers", importlib.util.module_from_spec(_spec))
_spec.loader.exec_module(bench_helpers)

GOLDEN_PATH = Path(__file__).with_name("particle_golden.json")

#: (fixture label, obs event) of each signal the filter emits. The labels
#: are the fixture's keys; they predate the event names.
SIGNALS = (
    ("solver.particle_skipped", "solver.particle_skipped"),
    ("solver.particle_degenerate", "solver.particle_degenerate"),
    ("solver.particle_resamples", "solver.particle_resample"),
)

#: (scenario, seed, n_prior) of the clean L-walk streams.
WALKS = ((1, 0, None), (4, 1, 2.5), (7, 2, None))

CHUNKS = 3


def _walk_rows(index, seed):
    """Matched (p, q, rss) rows of one Table-1 L-walk (raw RSS)."""
    rec, _ = bench_helpers.measure_once(scenario(index), seed)
    trace = rec.rssi_traces["target"]
    track = MotionTracker().track(rec.observer_imu.trace)
    walk = [track.displacement_at(t) for t in trace.timestamps()]
    return ([-w.x for w in walk], [-w.y for w in walk],
            [float(v) for v in trace.values()])


def _junk_rows(p, q, rss):
    """Every fifth row poisoned: NaN p, inf q, or RSS outside the band."""
    p, q, rss = list(p), list(q), list(rss)
    for k, i in enumerate(range(2, len(p), 5)):
        kind = k % 4
        if kind == 0:
            p[i] = float("nan")
        elif kind == 1:
            q[i] = float("inf")
        elif kind == 2:
            rss[i] = 500.0
        else:
            rss[i] = -1.0e200
    return p, q, rss


def _degenerate_rows(p, q, rss):
    """One finite but overflowing displacement mid-stream: it passes
    screening, and every particle's likelihood collapses to NaN."""
    mid = len(p) // 2
    return (p[:mid] + [1.5e308] + p[mid:], q[:mid] + [1.5e308] + q[mid:],
            rss[:mid] + [-60.0] + rss[mid:])


def streams():
    """``{name: (options, (p, q, rss))}`` for every golden stream."""
    out = {}
    for index, seed, n_prior in WALKS:
        rows = _walk_rows(index, seed)
        for sanitize in ("strict", "repair"):
            out[f"walk{index}_seed{seed}_{sanitize}"] = (
                dict(sanitize=sanitize, seed=seed, gamma_prior=-59.0,
                     n_prior=n_prior), rows)
    base = _walk_rows(2, 3)
    out["repair_junk"] = (
        dict(sanitize="repair", seed=3, gamma_prior=-61.0, n_prior=None),
        _junk_rows(*base))
    out["degenerate"] = (
        dict(sanitize="repair", seed=4, gamma_prior=-59.0, n_prior=2.0),
        _degenerate_rows(*base))
    return out


def _fit_record(fit):
    return {
        "x": fit.position.x,
        "y": fit.position.y,
        "n": fit.n,
        "gamma": fit.gamma,
        "epsilon": fit.epsilon,
        "residuals": [float(r) for r in fit.residuals],
        "position_std": fit.position_std,
        "cov_status": fit.cov_status,
        "solver": fit.solver,
        "n_candidates": fit.n_candidates,
    }


def run_stream(make, options, rows):
    """Feed ``rows`` in chunks through ``make(**options)``; the fits after
    each chunk plus the n-weighted signal totals of the stream, read twice:
    from the ``obs.counts()`` counter view and from the raw event records."""
    obs.reset()
    backend = make(**options)
    p, q, rss = rows
    bounds = np.linspace(0, len(p), CHUNKS + 1).astype(int)
    fits, taken = [], []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        taken.append(backend.observe(p[lo:hi], q[lo:hi], rss[lo:hi]))
        fits.append(_fit_record(backend.solve()))
    counts = obs.counts()
    signals = {
        label: {"counter": counts.get(e, 0),
                "events": sum(ev.fields.get("n", 1) for ev in obs.tail()
                              if ev.name == e)}
        for label, e in SIGNALS
    }
    return {"taken": taken, "fits": fits, "signals": signals}


def record(make):
    return {name: run_stream(make, options, rows)
            for name, (options, rows) in streams().items()}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


@pytest.fixture(scope="module")
def replay():
    return record(ParticleBackend)


@pytest.fixture(autouse=True)
def clean_obs():
    obs.reset()
    yield
    obs.reset()


def test_fixture_covers_every_stream(golden):
    assert set(golden) == set(streams())


@pytest.mark.parametrize("name", sorted(
    [f"walk{i}_seed{s}_{m}" for i, s, _ in WALKS for m in ("strict", "repair")]
    + ["repair_junk", "degenerate"]))
def test_stream_reproduces_fixture_bit_for_bit(golden, replay, name):
    # JSON floats round-trip exactly, so == is bitwise equality here.
    assert json.loads(json.dumps(replay[name])) == golden[name]


def test_every_signal_total_equals_its_event_count(replay):
    for name, result in replay.items():
        for counter, totals in result["signals"].items():
            assert totals["counter"] == totals["events"], (name, counter)


def test_fixture_exercises_skip_degenerate_and_resample(golden):
    """The fixture is only a guard if the streams reach every branch."""
    def total(name, counter):
        return golden[name]["signals"][counter]["counter"]

    assert total("repair_junk", "solver.particle_skipped") > 0
    assert total("degenerate", "solver.particle_degenerate") == 1
    assert all(total(name, "solver.particle_resamples") > 0
               for name in golden)


if __name__ == "__main__":
    streams_out = record(ParticleBackend)
    GOLDEN_PATH.write_text("{\n" + ",\n".join(
        f"{json.dumps(name)}: {json.dumps(result)}"
        for name, result in streams_out.items()) + "\n}\n")
    print(f"wrote {GOLDEN_PATH}")
