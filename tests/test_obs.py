"""Tests for the structured observability layer (:mod:`repro.obs`).

Covers the event log core, the three sinks, nesting spans, per-fix
provenance records, the report renderer — and the telemetry invariant: over
a sim soak, a gateway soak and a chaos cycle, a run-scoped JSON-lines log
accounts for exactly the run's ``obs.counts()`` delta, which in turn equals
each harness's own local counters.
"""

import json

import numpy as np
import pytest

from repro import obs
from repro.obs import (
    CountingSink,
    Event,
    EventLog,
    FixProvenance,
    JsonLinesSink,
    RingBufferSink,
)
from repro.obs.report import (
    format_summary,
    load_events,
    main as report_main,
    summarize_events,
)
from repro.obs.spans import span_context


@pytest.fixture(autouse=True)
def clean_obs():
    """Isolate every test from the process-global log and ring."""
    obs.reset()
    yield
    obs.reset()


class TestEvent:
    def _event(self, **fields):
        return Event(seq=3, t_mono=1.5, wall=1700000000.0, severity="warning",
                     component="estimator", name="cov_fallback",
                     trace="t00000001", fields=fields)

    def test_as_dict_flattens_fields(self):
        d = self._event(status="capped", cond=2.5e14).as_dict()
        assert d["event"] == "cov_fallback"
        assert d["severity"] == "warning"
        assert d["trace"] == "t00000001"
        assert d["status"] == "capped"
        assert d["cond"] == 2.5e14

    def test_to_json_is_one_parseable_line(self):
        line = self._event(k=1).to_json()
        assert "\n" not in line
        assert json.loads(line)["k"] == 1

    def test_numpy_scalars_become_plain_numbers(self):
        d = self._event(std=np.float64(25.0), n=np.int64(7)).as_dict()
        assert d["std"] == 25.0 and isinstance(d["std"], float)
        assert d["n"] == 7 and isinstance(d["n"], int)

    def test_unserialisable_degrades_to_repr_not_crash(self):
        line = self._event(obj=object()).to_json()
        assert "object object" in json.loads(line)["obj"]


class TestEventLog:
    def test_emit_returns_event_and_numbers_monotonically(self):
        log = EventLog()
        a = log.emit("first")
        b = log.emit("second")
        assert a.name == "first" and b.seq > a.seq

    def test_disabled_log_emits_nothing(self):
        log = EventLog()
        sink = log.add_sink(CountingSink())
        log.disable()
        assert log.emit("quiet") is None
        log.enable()
        log.emit("loud")
        assert sink.by_name == {"loud": 1}

    def test_unknown_severity_coerced_to_info(self):
        assert EventLog().emit("e", severity="catastrophic").severity == "info"

    def test_raising_sink_is_detached_not_fatal(self):
        class Broken:
            def write(self, event):
                raise IOError("disk gone")

        log = EventLog()
        broken = log.add_sink(Broken())
        good = log.add_sink(CountingSink())
        event = log.emit("survives")
        assert event is not None
        assert broken not in log.sinks()
        assert log.dropped_sinks == 1
        log.emit("still-works")
        assert good.count("survives") == 1 and good.count("still-works") == 1

    def test_counting_sink_is_n_weighted(self):
        log = EventLog()
        sink = log.add_sink(CountingSink())
        log.emit("shed", n=40)
        log.emit("shed")
        for odd in (True, 2.5, "7", None):
            log.emit("odd", n=odd)  # not an int: counts as 1
        assert sink.counts() == {"shed": 41, "odd": 4}

    def test_default_counts_survive_ring_eviction_until_reset(self):
        # The default ring is bounded; the counter view counts every event
        # since the last reset.
        flood = obs.ring.capacity + 5
        for _ in range(flood):
            obs.emit("flood")
        obs.emit("batch", n=3)
        assert len(obs.ring) < flood
        assert obs.counts() == {"flood": flood, "batch": 3}
        obs.reset()
        assert obs.counts() == {}

    def test_trace_ids_are_unique(self):
        log = EventLog()
        ids = {log.next_trace_id() for _ in range(50)}
        assert len(ids) == 50


class TestRingBufferSink:
    def test_bounded_eviction_keeps_newest(self):
        log = EventLog()
        ring = log.add_sink(RingBufferSink(capacity=3))
        for i in range(5):
            log.emit(f"e{i}")
        assert [e.name for e in ring.tail()] == ["e2", "e3", "e4"]
        assert ring.total == 5

    def test_drain_empties_the_ring(self):
        log = EventLog()
        ring = log.add_sink(RingBufferSink())
        log.emit("a")
        log.emit("a")
        assert [e.name for e in ring.drain()] == ["a", "a"]
        assert len(ring) == 0

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            RingBufferSink(capacity=0)


class TestJsonLinesSink:
    def test_writes_parseable_lines(self, tmp_path):
        path = tmp_path / "events.jsonl"
        log = EventLog()
        with JsonLinesSink(path) as sink:
            log.add_sink(sink)
            log.emit("a", component="x", k=1)
            log.emit("b", component="x", k=2)
        records = [json.loads(line)
                   for line in path.read_text().splitlines()]
        assert [r["event"] for r in records] == ["a", "b"]
        assert sink.written == 2

    def test_close_is_idempotent_and_no_events_means_no_file(self, tmp_path):
        sink = JsonLinesSink(tmp_path / "never.jsonl")
        sink.close()
        sink.close()
        assert not (tmp_path / "never.jsonl").exists()


class TestSpans:
    def test_events_inside_span_inherit_its_trace(self):
        with obs.span("outer", component="test"):
            inner = obs.emit("leaf")
        closing = obs.tail()[-1]
        assert closing.name == "span"
        assert inner.trace == closing.trace is not None

    def test_nested_spans_share_trace_and_report_depth(self):
        with obs.span("outer") as sp_out:
            with obs.span("inner") as sp_in:
                assert sp_in.trace_id == sp_out.trace_id
        inner_ev, outer_ev = obs.tail()[-2:]
        assert inner_ev.fields["span"] == "inner"
        assert inner_ev.fields["depth"] == 1
        assert outer_ev.fields["depth"] == 0

    def test_duration_recorded_into_timings(self):
        with obs.span("timed.op"):
            pass
        closing = obs.tail()[-1]
        stats = obs.timings()["timed.op"]
        assert stats["count"] == 1
        assert stats["total_s"] == closing.fields["duration_s"]

    def test_timings_match_report_aggregation(self, tmp_path):
        """The in-process view and ``obs report`` share one aggregation."""
        path = tmp_path / "ev.jsonl"
        sink = obs.add_sink(JsonLinesSink(path))
        for _ in range(3):
            with obs.span("a"):
                with obs.span("b"):
                    pass
        with pytest.raises(KeyError):
            with obs.span("a"):
                raise KeyError("x")
        sink.close()
        records, _ = load_events(path)
        reported = summarize_events(records)["spans"]
        timings = obs.timings()
        assert set(reported) == set(timings) == {"a", "b"}
        for name, stats in timings.items():
            assert {k: reported[name][k] for k in stats} == pytest.approx(stats)
        assert reported["a"]["errors"] == 1 and reported["b"]["errors"] == 0

    def test_span_decorator_mints_fresh_trace_per_call(self):
        @obs.span("leaf.op")
        def op():
            return obs.current_trace_id()

        first, second = op(), op()
        assert first is not None and first != second
        with obs.span("outer") as sp:
            assert op() == sp.trace_id

    def test_annotate_lands_on_closing_event(self):
        with obs.span("solve") as sp:
            sp.annotate(confidence=0.93)
        assert obs.tail()[-1].fields["confidence"] == 0.93

    def test_exception_propagates_and_span_reports_error(self):
        with pytest.raises(ValueError):
            with obs.span("doomed"):
                raise ValueError("boom")
        closing = obs.tail()[-1]
        assert closing.severity == "warning"
        assert closing.fields["status"] == "error"
        assert closing.fields["error"] == "ValueError"


class TestFixProvenance:
    def test_defaults_are_the_empty_solve(self):
        prov = FixProvenance()
        assert prov.solver == "none" and not prov.cov_fallback

    @pytest.mark.parametrize("status,expected", [
        ("ok", False), ("none", False),
        ("capped", True), ("rank-deficient", True), ("error", True),
    ])
    def test_cov_fallback_property(self, status, expected):
        assert FixProvenance(cov_status=status).cov_fallback is expected

    def test_with_stream_enriches_without_mutating(self):
        base = FixProvenance(solver="gauss-newton", confidence=0.9)
        full = base.with_stream(beacon_id="b0", stream_t=12.0, buffered=40,
                                shed=2, degraded=False)
        assert base.beacon_id is None
        assert full.beacon_id == "b0" and full.solver == "gauss-newton"

    def test_to_fields_omits_nones_and_is_json_safe(self):
        fields = FixProvenance(cov_status="capped").to_fields()
        assert "cov_cond" not in fields and "beacon_id" not in fields
        assert fields["cov_fallback"] is True
        json.dumps(fields)


class TestReport:
    def _write_log(self, path):
        log = EventLog()
        with JsonLinesSink(path) as sink:
            log.add_sink(sink)
            with span_context(log, "session.solve"):
                log.emit("fix.provenance", component="service",
                         confidence=0.9, cov_fallback=True, env_restarts=1,
                         degraded=False)
            log.emit("buffer.shed", severity="warning", component="service")

    def test_summarize_counts_spans_and_provenance(self, tmp_path):
        path = tmp_path / "ev.jsonl"
        self._write_log(path)
        records, malformed = load_events(path)
        assert malformed == 0
        summary = summarize_events(records)
        assert summary["n_events"] == 3
        assert summary["by_name"]["fix.provenance"] == 1
        assert summary["spans"]["session.solve"]["count"] == 1
        assert summary["provenance"]["fixes"] == 1
        assert summary["provenance"]["cov_fallbacks"] == 1
        assert summary["provenance"]["env_restarts"] == 1

    def test_malformed_lines_counted_never_fatal(self, tmp_path):
        path = tmp_path / "ev.jsonl"
        self._write_log(path)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("{truncated by a cra\n")
            fh.write("[1, 2, 3]\n")
        records, malformed = load_events(path)
        assert len(records) == 3 and malformed == 2

    def test_format_summary_renders_all_sections(self, tmp_path):
        path = tmp_path / "ev.jsonl"
        self._write_log(path)
        records, malformed = load_events(path)
        text = format_summary(summarize_events(records), tail=records[-2:],
                              malformed=malformed)
        assert "events by name" in text
        assert "fix provenance" in text
        assert "spans" in text
        assert "last 2 events" in text

    def test_main_exit_codes(self, tmp_path, capsys):
        assert report_main([str(tmp_path / "missing.jsonl")]) == 2
        assert report_main([]) == 2
        path = tmp_path / "ev.jsonl"
        self._write_log(path)
        assert report_main([str(path), "--tail", "1"]) == 0
        out = capsys.readouterr().out
        assert "repro obs event-log report" in out


class TestSoakEventCrossCheck:
    """Every accepted fix leaves exactly one provenance record on disk."""

    @pytest.fixture(scope="class")
    def result(self, tmp_path_factory):
        from repro.sim.faults import FaultModel
        from repro.sim.soak import SoakConfig, run_soak

        path = tmp_path_factory.mktemp("soak") / "events.jsonl"
        return run_soak(SoakConfig(
            duration_s=30.0,
            seed=7,
            fault=FaultModel(loss_rate=0.1),
            events_jsonl=str(path),
        ))

    def test_runs_clean(self, result):
        assert result.untyped_errors == 0
        assert result.events.get("fix.provenance", 0) > 0

    def test_jsonl_log_accounts_for_every_event(self, result):
        records, malformed = load_events(result.events_jsonl)
        assert malformed == 0
        assert summarize_events(records)["by_name"] == result.events
        prov = [r for r in records if r["event"] == "fix.provenance"]
        assert len(prov) == result.events["fix.provenance"]
        assert len(prov) == result.counters["fixes_accepted"]
        for r in prov:
            assert r["beacon_id"] == "b0"
            assert "cov_fallback" in r and "confidence" in r


class _SpanCollector:
    """Keeps every ``span`` event it is handed (the ring may evict)."""

    def __init__(self):
        self.spans = []

    def write(self, event):
        if event.name == "span":
            self.spans.append(event)


def test_every_solve_gets_its_own_trace_id():
    """No enclosing span may fold two solves into one correlation id."""
    from repro.core.pipeline import LocBLE
    from repro.sim.faults import FaultModel
    from repro.sim.simulator import BeaconSpec, Simulator
    from repro.sim.soak import SoakConfig, run_soak
    from repro.world.scenarios import scenario
    from repro.world.trajectory import l_shape

    collector = obs.add_sink(_SpanCollector())
    result = run_soak(SoakConfig(
        duration_s=30.0, seed=7, n_beacons=2, checkpoint_t=15.0,
        fault=FaultModel(loss_rate=0.1)))
    assert result.untyped_errors == 0 and result.checkpoint_equal
    sc = scenario(1)
    for seed in range(3):
        sim = Simulator(sc.floorplan, np.random.default_rng(seed))
        walk = l_shape(sc.observer_start, sc.observer_heading_rad,
                       leg1=2.8, leg2=2.2)
        rec = sim.simulate(walk, [BeaconSpec("b", position=sc.beacon_position)])
        LocBLE().estimate(rec.rssi_traces["b"], rec.observer_imu.trace)
    obs.remove_sink(collector)

    for name, at_least in (("session.solve", 10), ("estimator.solve", 3)):
        traces = [e.trace for e in collector.spans
                  if e.fields["span"] == name]
        assert len(traces) >= at_least, name
        assert len(set(traces)) == len(traces), name


def _sim_soak(monkeypatch):
    """A faulted sim soak; its local counters are the sessions' dicts."""
    from repro.sim.faults import FaultModel
    from repro.sim.soak import SoakConfig, run_soak

    result = run_soak(SoakConfig(
        duration_s=30.0, seed=7, fault=FaultModel(loss_rate=0.1)))
    assert result.untyped_errors == 0
    c = result.counters
    local = {
        "fix.provenance": c.get("fixes_accepted", 0),
        "session.solve_skipped": c.get("solves_skipped_nodata", 0),
        "session.solve_shed": c.get("solves_shed", 0),
        "session.solve_degenerate": c.get("solves_degenerate", 0),
        "session.solve_transient": c.get("solves_transient_failures", 0),
        "session.track_dropped": c.get("tracks_dropped", 0),
        "ingest.duplicate": c.get("ingest_duplicate", 0),
        "ingest.reordered": c.get("ingest_reordered", 0),
    }
    assert local["fix.provenance"] > 0
    return result.events, local, ()


def _gateway_soak(monkeypatch):
    """The hostile transport matrix through the gateway; its local
    counters are ``gateway.counters``."""
    from repro.fleet import FleetConfig
    from repro.gateway import GatewayConfig, GatewaySoakConfig, run_gateway_soak
    from repro.sim.faults import TransportFaultModel
    from repro.sim.load import LoadConfig

    result = run_gateway_soak(GatewaySoakConfig(
        load=LoadConfig(duration_s=8.0, n_beacons=4, template_beacons=2,
                        rate_hz=4.0, seed=7),
        transport=TransportFaultModel(
            drop_rate=0.1, duplicate_rate=0.1, reorder_rate=0.1,
            corrupt_rate=0.05, truncate_rate=0.05, disconnect_rate=0.05),
        # One beacon over the edge cap: its refusals carry n > 1.
        gateway=GatewayConfig(client_timeout_s=1.0, max_beacons=3),
        fleet=FleetConfig(n_shards=2),
        n_clients=2, seed=1, ack_timeout_s=0.1,
    ))
    assert result.passed, result.summary()
    local = {f"gateway.{k}": v for k, v in result.gateway_counters.items()}
    assert local["gateway.admission_refused"] > 1
    return result.event_volumes, local, ("gateway.",)


def _chaos_cycle(monkeypatch):
    """Kill, tear, bit-flip and recover; the local counters are the sums
    of every gateway, supervisor and store the cycle built, plus one
    ``supervisor.recovered`` per recovery."""
    from repro.durability import (
        ChaosConfig,
        CheckpointStore,
        FleetSupervisor,
        run_chaos,
    )
    from repro.gateway import IngestionGateway

    built = []
    for cls in (IngestionGateway, FleetSupervisor, CheckpointStore):
        def init(self, *args, _original=cls.__init__, **kwargs):
            _original(self, *args, **kwargs)
            built.append(self)
        monkeypatch.setattr(cls, "__init__", init)

    result = run_chaos(ChaosConfig(
        seed=0, ticks=24, n_beacons=6, kills=1, shard_crashes=1,
        checkpoint_every=4, durability="flush"))
    assert result.passed, result.to_dict()
    prefix = {IngestionGateway: "gateway.", FleetSupervisor: "supervisor.",
              CheckpointStore: "durability."}
    local = {"supervisor.recovered": len(result.recoveries)}
    for obj in built:
        for name, n in obj.counters.items():
            key = prefix[type(obj)] + name
            local[key] = local.get(key, 0) + n
    return None, local, ("gateway.", "durability.", "supervisor.")


class TestTelemetryInvariant:
    """Counters are a view over events, so parity holds by construction.

    For each harness: the n-weighted volume per event name in a run-scoped
    JSON-lines log (as ``obs report`` sums it) equals the run's
    ``obs.counts()`` delta, and that delta equals the harness's own local
    counters — exactly, over whole event families where the harness owns
    the family.
    """

    @pytest.mark.parametrize("harness", [
        pytest.param(_sim_soak, id="sim_soak"),
        pytest.param(_gateway_soak, id="gateway_soak",
                     marks=pytest.mark.gateway),
        pytest.param(_chaos_cycle, id="chaos_cycle",
                     marks=pytest.mark.chaos),
    ])
    def test_event_log_volume_equals_counts(self, harness, tmp_path,
                                            monkeypatch):
        path = tmp_path / "run.jsonl"
        sink = obs.add_sink(JsonLinesSink(path))
        before = obs.counts()
        try:
            run_scoped, local, families = harness(monkeypatch)
        finally:
            obs.remove_sink(sink)
            sink.close()
        after = obs.counts()
        delta = {name: after[name] - before.get(name, 0) for name in after
                 if after[name] != before.get(name, 0)}

        records, malformed = load_events(path)
        assert malformed == 0
        assert summarize_events(records)["by_name"] == delta
        if run_scoped is not None:
            assert run_scoped == delta
        for name, n in local.items():
            assert delta.get(name, 0) == n, name
        owned = {name for name in delta if name.startswith(families)}
        assert owned <= set(local), owned - set(local)
