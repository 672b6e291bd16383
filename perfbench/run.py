"""End-to-end LocBLE benchmark: one workload per invocation.

Run from the repository root::

    python3 perfbench/run.py --workload table1 --seed 1 --seconds 30 --trace 0

Workloads are ``table1``, ``gateway_durable`` and ``fleet`` (see
``perfbench/workloads.py``); ``BENCHMARK.json`` gates the first two, and
``fleet`` is kept for diagnosis because its figures swing too far from seed
to seed to gate on. The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0``
the metrics are the end-to-end ones, measured untraced; with ``--trace 1``
the same untraced run is followed by a traced replay of identical inputs, and
the metrics are the per-layer ones (self time per wrapped call, counts, queue
waits, trace coverage and overhead). The exit code is 0 when a result was
printed; 2 when the program under test is missing.
"""

import os

# One BLAS/OpenMP thread: set before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent

#: Set-up is timed this many times per run; ``setup_s`` is the median.
SETUP_REPEATS = 5
#: A stream or table1 median error above this fails the correctness check.
ERROR_P50_LIMIT_M = 6.0
#: Iterations of the host calibration loop (about 50 ms on a quiet core).
CALIB_ITERATIONS = 300_000

END_TO_END_UNITS = {
    "setup_s": "s",
    "fixes_per_s": "1/s",
    "fix_latency_mean_ms": "ms",
    "fix_latency_p90_ms": "ms",
    "error_p50_m": "m",
}


def calibrate() -> float:
    """Milliseconds for a fixed pure-Python loop (host speed right now)."""
    start = time.perf_counter()
    acc = 0
    for i in range(CALIB_ITERATIONS):
        acc += i * i % 7
    return (time.perf_counter() - start) * 1e3


def percentile(values, q: float) -> float:
    import numpy as np

    return float(np.percentile(values, q)) if len(values) else math.nan


def per_layer_metrics(out, traced, tracer, calib_ms):
    """Every per-layer metric, from the traced replay and the untraced run."""
    from perfbench.layers import span_metrics

    metrics = span_metrics(tracer)
    counts = tracer.counts
    warm_requests = counts.get("estimator.warm_requests", 0)
    metrics.update({
        "estimator.fit_batch.requests":
            counts.get("estimator.fit_batch.requests", 0),
        "estimator.cold_fits": counts.get("estimator.cold_fits", 0),
        "estimator.warm_fits": counts.get("estimator.warm_fits", 0),
        "estimator.warm_hit_ratio": (
            counts.get("estimator.warm_hits", 0) / warm_requests
            if warm_requests else 0.0),
        "durability.save.bytes": counts.get("durability.save.bytes", 0),
        "gateway.retry_ratio": (
            out.counts.get("gateway.retries", 0)
            / out.counts["gateway.frames"]
            if out.counts.get("gateway.frames") else 0.0),
        "gateway.refusals": out.counts.get("gateway.refusals", 0),
        "queue.wait_p50_ms": percentile(out.wait_ms, 50) if out.wait_ms
        else 0.0,
        "queue.wait_p99_ms": percentile(out.wait_ms, 99) if out.wait_ms
        else 0.0,
        "queue.backlog_max_s": out.backlog_max_s,
        "host.calib_ms": calib_ms,
        "trace.coverage": tracer.total_self_s() / traced.processing_s,
        "trace.overhead": (
            (traced.processing_s / max(traced.fixes, 1))
            / (out.processing_s / max(out.fixes, 1)) - 1.0),
        "shed_share": out.shed / out.offered if out.offered else 0.0,
        "failed_share": (out.failed + len(out.untyped)) / out.attempted,
        # Unbounded here, with their sample counts: the p99 and error p90
        # have too few samples beyond them per run, and a stream's median
        # fix latency jumps between tick kinds (with or without a
        # checkpoint, more or fewer due solves) from seed to seed.
        "fix_latency_p50_ms": percentile(out.latency_ms, 50),
        "fix_latency_p99_ms": percentile(out.latency_ms, 99),
        "fix_latency.samples": len(out.latency_ms),
        "error_p90_m": percentile(out.errors_m, 90),
        "error.samples": len(out.errors_m),
    })
    return metrics


def end_to_end_metrics(out, setup_times):
    return {
        "setup_s": statistics.median(setup_times),
        "fixes_per_s": out.fixes / out.processing_s,
        "fix_latency_mean_ms": statistics.fmean(out.latency_ms),
        "fix_latency_p90_ms": percentile(out.latency_ms, 90),
        "error_p50_m": percentile(out.errors_m, 50),
    }


def run(workload_name: str, seed: int, seconds: float, trace: bool,
        workdir: str) -> dict:
    from perfbench.layers import install
    from perfbench.tracer import Tracer
    from perfbench.workloads import WORKLOADS

    calib = [calibrate()]
    workload = WORKLOADS[workload_name](seed, seconds, workdir)
    setup_times = []
    for _ in range(SETUP_REPEATS):
        if workload.system is not None:
            workload.dispose(workload.system)
        start = time.perf_counter()
        workload.setup()
        setup_times.append(time.perf_counter() - start)

    out = workload.run(workload.system)
    checks = workload.check(out)
    calib.append(calibrate())

    errors_ok = bool(out.errors_m) and all(
        math.isfinite(e) for e in out.errors_m)
    checks["errors_finite"] = errors_ok
    checks["error_p50_plausible"] = (
        errors_ok and percentile(out.errors_m, 50) < ERROR_P50_LIMIT_M)
    checks["no_untyped_errors"] = not out.untyped

    if trace:
        tracer = Tracer()
        install(tracer)
        try:
            traced = workload.run(workload.build(), tracer)
        finally:
            tracer.uninstall()
        checks["traced_run_reproduces"] = (
            traced.digests == out.digests
            and traced.errors_m == out.errors_m and not traced.untyped)
        metrics = per_layer_metrics(out, traced, tracer,
                                    statistics.median(calib))
    else:
        metrics = end_to_end_metrics(out, setup_times)

    for line in sorted(f"{k}={v}" for k, v in checks.items()):
        print(f"check {line}")
    for message in out.untyped:
        print(f"untyped error: {message}")
    print(f"fix latency samples: {len(out.latency_ms)}; "
          f"error samples: {len(out.errors_m)}; "
          f"processing: {out.processing_s:.3f} s")

    return {
        "correct": all(checks.values()),
        "attempted": int(out.attempted),
        "failed": int(out.failed + len(out.untyped)),
        "metrics": {
            name: {"value": float(value),
                   "unit": END_TO_END_UNITS.get(name, _layer_unit(name))}
            for name, value in metrics.items()
        },
    }


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_m"):
        return "m"
    if name.endswith(".bytes"):
        return "bytes"
    if name.endswith(("_ratio", "_share", ".coverage", ".overhead")):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("table1", "fleet", "gateway_durable"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: the LocBLE sources are missing ({ROOT / 'src'})",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=str(ROOT))
    try:
        result = run(args.workload, args.seed, args.seconds,
                     bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
