"""Gateway soak acceptance: the hostile matrix, end to end.

Marked ``gateway`` (excluded from tier-1): these drive real asyncio
concurrency for seconds at a time. The acceptance criteria: the full
transport fault matrix completes with zero untyped exceptions, every
refusal/repair shows up as an n-weighted obs event matching the gateway's
local counter, and a recorded trace replays through gateway→fleet with a
bit-identical snapshot stream.
"""

from __future__ import annotations

import pytest

from repro import obs
from repro.fleet import FleetConfig
from repro.gateway import (
    GatewayConfig,
    GatewaySoakConfig,
    GatewaySoakResult,
    run_gateway_soak,
)
from repro.obs.report import load_events, summarize_events
from repro.service import ServiceConfig
from repro.sim.faults import TransportFaultModel
from repro.sim.load import LoadConfig

pytestmark = pytest.mark.gateway

#: Every fault dimension on at once — the full hostile matrix.
FULL_MATRIX = TransportFaultModel(
    drop_rate=0.10, duplicate_rate=0.10, reorder_rate=0.10,
    corrupt_rate=0.05, truncate_rate=0.05, disconnect_rate=0.05,
    stall_rate=0.05, stall_s=0.02,
)


def soak_config(tmp_path=None, **kw) -> GatewaySoakConfig:
    base = dict(
        load=LoadConfig(duration_s=12.0, n_beacons=6, template_beacons=3,
                        rate_hz=4.0, seed=7),
        transport=FULL_MATRIX,
        gateway=GatewayConfig(client_timeout_s=1.0),
        fleet=FleetConfig(n_shards=2,
                          service=ServiceConfig(max_sessions=16)),
        n_clients=3,
        seed=1,
        ack_timeout_s=0.1,
    )
    if tmp_path is not None:
        base["record_path"] = str(tmp_path / "soak.trace")
    base.update(kw)
    return GatewaySoakConfig(**base)


def test_full_matrix_soak_passes_with_replay(tmp_path):
    log = obs.add_sink(obs.JsonLinesSink(tmp_path / "events.jsonl"))
    before = obs.counts()
    try:
        result = run_gateway_soak(soak_config(tmp_path))
    finally:
        obs.remove_sink(log)
        log.close()
    after = obs.counts()
    assert result.passed, result.summary()
    # The report sums each record's n, as the counter view does.
    records, _ = load_events(log.path)
    by_name = summarize_events(records)["by_name"]
    for name in ("gateway.sample_rejected", "gateway.sample_late"):
        assert (by_name.get(name, 0)
                == after.get(name, 0) - before.get(name, 0)), name
    assert result.untyped_errors == 0 and result.errors == []
    assert result.parity_failures == []
    # The matrix must actually have exercised its paths.
    counters = result.gateway_counters
    assert counters.get("frame_duplicate", 0) > 0
    assert (counters.get("frame_malformed", 0)
            + counters.get("frame_truncated", 0)) > 0
    assert result.fleet_sessions > 0
    assert result.delivered_samples > 0
    # Record→replay bit-identity, checked tick by tick.
    assert result.replay_result is not None
    assert result.replay_result.identical
    assert result.replay_result.ticks == result.ticks
    # No client abandoned a frame: at-least-once held under the matrix.
    for stats in result.client_stats.values():
        assert stats["gave_up"] == 0


def test_same_seed_same_committed_stream(tmp_path):
    """Two live runs under the same seeded matrix commit identical ticks.

    Concurrency may interleave differently wall-clock-wise, but per-beacon
    ownership is single-client and ordered, so the *committed* per-tick
    batches — and therefore the snapshot digests — must agree exactly.
    """
    a = run_gateway_soak(soak_config())
    b = run_gateway_soak(soak_config())
    assert a.passed and b.passed
    assert a.tick_digests == b.tick_digests


def test_slow_loris_matrix_expels_and_recovers(tmp_path):
    config = soak_config(
        tmp_path,
        transport=TransportFaultModel(stall_rate=0.3, stall_s=0.3),
        gateway=GatewayConfig(client_timeout_s=0.1),
        load=LoadConfig(duration_s=8.0, n_beacons=4, template_beacons=2,
                        rate_hz=3.0, seed=7),
    )
    result = run_gateway_soak(config)
    assert result.passed, result.summary()
    assert result.gateway_counters.get("client_timeout", 0) > 0
    assert result.replay_result is not None
    assert result.replay_result.identical


def test_backpressure_sheds_visibly_not_silently(tmp_path):
    config = soak_config(
        tmp_path,
        transport=TransportFaultModel(),  # clean wire: isolate shedding
        gateway=GatewayConfig(client_timeout_s=1.0, scan_queue=8),
        load=LoadConfig(duration_s=8.0, n_beacons=4, template_beacons=2,
                        rate_hz=20.0, seed=7),
    )
    result = run_gateway_soak(config)
    assert result.untyped_errors == 0
    assert result.queue_shed > 0  # capacity pressure really bit
    # Shed work is visible: queue counters survived into the report and
    # the replay of what *was* committed is still bit-identical.
    assert result.replay_result is not None
    assert result.replay_result.identical


def test_result_summary_is_json_safe(tmp_path):
    import json

    result = run_gateway_soak(soak_config(
        tmp_path,
        load=LoadConfig(duration_s=4.0, n_beacons=3, template_beacons=2,
                        rate_hz=3.0, seed=7),
    ))
    assert isinstance(result, GatewaySoakResult)
    json.dumps(result.summary())


def test_live_run_longer_than_its_trace_fails(tmp_path, monkeypatch):
    """The live digest stream is compared with the trace tick by tick; a
    live tick missing from the trace is a divergence, not a pass."""
    import repro.gateway.soak as gateway_soak

    read_trace = gateway_soak.read_trace

    def drop_last_tick(path, **kw):
        meta, records = read_trace(path, **kw)
        return meta, records[:-1]

    monkeypatch.setattr(gateway_soak, "read_trace", drop_last_tick)
    result = run_gateway_soak(soak_config(
        tmp_path, transport=TransportFaultModel(),
        load=LoadConfig(duration_s=4.0, n_beacons=3, template_beacons=2,
                        rate_hz=3.0, seed=7),
    ))
    assert result.replay_result is not None
    assert result.replay_result.identical  # replay() read the whole trace
    assert result.divergence_t == 4.0      # the live run's last tick
    assert result.replay_identical is False and not result.passed
    assert result.summary()["divergence_t"] == 4.0


def test_a_tick_that_raises_fails_even_when_typed(monkeypatch):
    """A raising gateway tick is recorded (typed here) and the run goes on,
    but a tick that committed nothing still fails the soak."""
    from repro.errors import ConfigurationError
    from repro.gateway import IngestionGateway

    tick = IngestionGateway.tick

    def flaky(self, t):
        if t == 2.0:
            raise ConfigurationError("scripted")
        return tick(self, t)

    monkeypatch.setattr(IngestionGateway, "tick", flaky)
    result = run_gateway_soak(soak_config(
        transport=TransportFaultModel(),
        load=LoadConfig(duration_s=4.0, n_beacons=3, template_beacons=2,
                        rate_hz=3.0, seed=7),
    ))
    assert result.errors == ["ConfigurationError: scripted"]
    assert result.untyped_errors == 0
    assert result.ticks == 4 and result.tick_digests[1] is None
    assert not result.passed
