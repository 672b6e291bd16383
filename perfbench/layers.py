"""Which public functions the traced run wraps, and the layer each belongs to.

Span names are ``<layer>.<fn>``; the traced run reports ``.calls`` and
``.self_s`` for each, plus per-layer totals and the counts the observers
below record.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from repro.core import estimator as estimator_module
from repro.core import pipeline as pipeline_module
from repro.core.anf import AdaptiveNoiseFilter
from repro.core.estimator import EllipticalEstimator, FitResult
from repro.core.pipeline import LocBLE
from repro.core.solvers import ParticleBackend
from repro.core.tracking import BeaconTracker
from repro.durability import CheckpointStore, FleetSupervisor
from repro.fleet import TrackingFleet
from repro.gateway import FrameDecoder, IngestionGateway, TraceWriter
from repro.motion.deadreckoning import MotionTracker
from repro.service import service as service_module
from repro.service.service import TrackingService
from repro.service.session import TrackingSession

from perfbench.tracer import Tracer

#: ``gateway.send_phase`` is the benchmark's own span around the clients'
#: per-tick send phase (an event-loop run, not one program function).
SEND_PHASE = "gateway.send_phase"


def _observe_fit(tracer: Tracer):
    def observe(args: tuple, kwargs: dict, result: Any) -> None:
        warm_request = kwargs.get("warm") is not None
        _count_fit(tracer, result, warm_request)
    return observe


def _observe_fit_batch(tracer: Tracer):
    def observe(args: tuple, kwargs: dict, results: Any) -> None:
        requests = list(args[0] if args else kwargs["requests"])
        tracer.add("estimator.fit_batch.requests", len(requests))
        for req, res in zip(requests, results):
            _count_fit(tracer, res, req.warm is not None)
    return observe


def _count_fit(tracer: Tracer, result: Any, warm_request: bool) -> None:
    if warm_request:
        tracer.add("estimator.warm_requests")
    if not isinstance(result, FitResult):
        return
    if result.warm_started:
        tracer.add("estimator.warm_fits")
        if warm_request:
            tracer.add("estimator.warm_hits")
    else:
        tracer.add("estimator.cold_fits")


def _observe_save(tracer: Tracer):
    def observe(args: tuple, kwargs: dict, info: Any) -> None:
        tracer.add("durability.save.bytes", info.n_bytes)
    return observe


def _spans(tracer: Tracer) -> List[Tuple[Any, str, str, Any]]:
    """``(owner, attribute, span name, observer)`` for every wrapped call."""
    fit_batch = _observe_fit_batch(tracer)
    return [
        (EllipticalEstimator, "fit", "estimator.fit", _observe_fit(tracer)),
        (estimator_module, "fit_batch", "estimator.fit_batch", fit_batch),
        (service_module, "fit_batch", "estimator.fit_batch", fit_batch),
        (ParticleBackend, "observe", "solvers.observe", None),
        (ParticleBackend, "solve", "solvers.solve", None),
        (MotionTracker, "track", "motion.track", None),
        (AdaptiveNoiseFilter, "apply", "anf.apply", None),
        (pipeline_module, "sanitize_trace", "robustness.sanitize_trace", None),
        (LocBLE, "prepare_estimate", "pipeline.prepare_estimate", None),
        (LocBLE, "estimate", "pipeline.estimate", None),
        (LocBLE, "complete_estimate", "pipeline.complete_estimate", None),
        (TrackingService, "tick_batch", "service.tick_batch", None),
        (TrackingSession, "begin_step", "service.begin_step", None),
        (TrackingSession, "resolve_solve", "service.resolve_solve", None),
        (TrackingSession, "finish_step", "service.finish_step", None),
        (BeaconTracker, "update", "tracking.update", None),
        (TrackingFleet, "ingest_scans", "fleet.ingest_scans", None),
        (TrackingFleet, "ingest_imu", "fleet.ingest_imu", None),
        (TrackingFleet, "tick", "fleet.tick", None),
        (FleetSupervisor, "tick", "fleet.supervisor_tick", None),
        (FrameDecoder, "feed", "gateway.feed", None),
        (IngestionGateway, "tick", "gateway.tick", None),
        (TraceWriter, "record_tick", "gateway.trace_write", None),
        (CheckpointStore, "save", "durability.save", _observe_save(tracer)),
        (FleetSupervisor, "checkpoint_now", "durability.checkpoint_now",
         None),
        (TrackingFleet, "checkpoint", "durability.fleet_checkpoint", None),
    ]


def install(tracer: Tracer) -> None:
    """Wrap every traced function; undo with ``tracer.uninstall()``."""
    for owner, attr, name, observe in _spans(tracer):
        tracer.wrap(owner, attr, name, observe)
    tracer.calls.setdefault(SEND_PHASE, 0)
    tracer.self_s.setdefault(SEND_PHASE, 0.0)


def span_names() -> List[str]:
    names = sorted({name for _o, _a, name, _ob in _spans(Tracer())}
                   | {SEND_PHASE})
    return names


def layer_names() -> List[str]:
    return sorted({name.split(".", 1)[0] for name in span_names()})


def span_metrics(tracer: Tracer) -> Dict[str, float]:
    """Calls and self time per span, and self time per layer."""
    out: Dict[str, float] = {}
    layers: Dict[str, float] = {layer: 0.0 for layer in layer_names()}
    for name in span_names():
        self_s = tracer.self_s.get(name, 0.0)
        out[f"{name}.calls"] = tracer.calls.get(name, 0)
        out[f"{name}.self_s"] = self_s
        layers[name.split(".", 1)[0]] += self_s
    for layer, self_s in layers.items():
        out[f"{layer}.self_s"] = self_s
    return out
