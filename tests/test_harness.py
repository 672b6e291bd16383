"""The shared harness skeleton (:mod:`repro.sim.harness`) and the four
harness CLIs that run on it.

The `soak` and `fleet` CLI runs are tier-1 (tiny configs, a few seconds);
`gateway` and `chaos` sit behind their markers like the rest of those
suites.
"""

import pytest

from repro import obs
from repro.cli import main
from repro.errors import ConfigurationError, DataQualityError, EstimationError
from repro.sim.harness import Run, first_divergence, observed

GATEWAY_ALLOWED = (DataQualityError, ConfigurationError)


class TestRunLedger:
    @pytest.mark.parametrize("exc, default_typed, gateway_typed", [
        (DataQualityError("bad row"), True, True),
        (ConfigurationError("bad knob"), True, True),
        # A ReproError outside the gateway's narrower allowed set.
        (EstimationError("no fit"), True, False),
        (ValueError("boom"), False, False),
    ])
    def test_typed_vs_untyped(self, exc, default_typed, gateway_typed):
        default, gateway = Run("soak"), Run("gateway", GATEWAY_ALLOWED)
        default.catch(exc)
        gateway.catch(exc)
        assert default.untyped_errors == (0 if default_typed else 1)
        assert gateway.untyped_errors == (0 if gateway_typed else 1)
        assert default.errors == (f"{type(exc).__name__}: {exc}",)

    def test_fail_records_an_untyped_error(self):
        run = Run("chaos")
        run.fail("shards still failed")
        assert run.errors == ("shards still failed",)
        assert run.untyped_errors == 1

    def test_each_error_is_one_harness_error_event(self):
        collector = obs.add_sink(obs.RingBufferSink(capacity=64))
        try:
            run = Run("fleet")
            run.catch(DataQualityError("late"), t=3.0)
            run.fail("task died", t=4.0)
        finally:
            obs.remove_sink(collector)
        events = [e for e in collector.tail() if e.name == "harness.error"]
        assert [(e.severity, e.fields) for e in events] == [
            ("warning", {"harness": "fleet", "t": 3.0,
                         "error": "DataQualityError: late", "typed": True}),
            ("error", {"harness": "fleet", "t": 4.0,
                       "error": "task died", "typed": False}),
        ]

    def test_raising_tick_records_digest_none_and_continues(self):
        run = Run("soak")

        def step(t):
            if t == 2.0:
                raise RuntimeError("scripted")
            return {}

        assert run.tick(1.0, step) == {}
        assert run.tick(2.0, step) is None
        assert run.tick(3.0, step) == {}
        assert [t for t, _ in run.digests] == [1.0, 2.0, 3.0]
        assert run.digests[1][1] is None
        assert run.digests[0][1] is not None
        assert len(run.tick_wall) == 2
        assert run.errors == ("RuntimeError: scripted",)
        assert run.untyped_errors == 1

    def test_tick_passes_the_batch_to_the_step(self):
        run = Run("soak")
        seen = []
        run.tick(5.0, lambda t, a, b: seen.append((t, a, b)) or {}, "x", "y")
        assert seen == [(5.0, "x", "y")]

    def test_fork_shares_the_ledger_not_the_recorder(self):
        run = Run("soak")
        child = run.fork()
        child.tick(1.0, lambda t: {})
        child.catch(ValueError("x"))
        assert run.digests == [] and run.untyped_errors == 1


class TestFirstDivergence:
    def test_identical_streams(self):
        a = [(1.0, "x"), (2.0, "y")]
        assert first_divergence(a, list(a)) is None
        assert first_divergence([], []) is None

    def test_first_differing_tick(self):
        a = [(1.0, "x"), (2.0, "y"), (3.0, "z")]
        b = [(1.0, "x"), (2.0, "Y"), (3.0, "Z")]
        assert first_divergence(a, b) == 2.0

    def test_length_mismatch_is_a_divergence(self):
        a = [(1.0, "x"), (2.0, "y"), (3.0, "z")]
        assert first_divergence(a, a[:2]) == 3.0
        assert first_divergence(a[:1], a) == 2.0
        assert first_divergence([], a) == 1.0


def test_observed_scopes_its_sinks(tmp_path):
    path = tmp_path / "run.jsonl"
    with observed(str(path)) as sink:
        obs.emit("harness.test_event", n=3)
    obs.emit("harness.test_event")
    assert sink.counts() == {"harness.test_event": 3}
    assert path.read_text().count("harness.test_event") == 1


# -- the harness CLIs ---------------------------------------------------------


def _cli(capsys, *argv):
    rc = main(list(argv))
    return rc, capsys.readouterr().out


class TestSoakCli:
    ARGV = ("soak", "--duration", "20", "--beacons", "1",
            "--checkpoint-t", "10")

    def test_passes(self, capsys):
        rc, out = _cli(capsys, *self.ARGV)
        assert rc == 0
        assert "checkpoint: t=10s -> bit-identical resume" in out
        assert "errors    : 0 (0 untyped)" in out

    def test_untyped_error_fails(self, capsys, monkeypatch):
        from repro.service import TrackingService

        tick_batch = TrackingService.tick_batch

        def flaky(self, t):
            if t == 5.0:
                raise RuntimeError("scripted")
            return tick_batch(self, t)

        monkeypatch.setattr(TrackingService, "tick_batch", flaky)
        rc, out = _cli(capsys, *self.ARGV)
        assert rc == 1
        assert "errors    : 1 (1 untyped)" in out
        assert "  ! RuntimeError: scripted" in out


class TestFleetCli:
    ARGV = ("fleet", "--shards", "2", "--beacons", "4", "--duration", "6",
            "--migrate-at", "3")

    def test_passes(self, capsys):
        rc, out = _cli(capsys, *self.ARGV)
        assert rc == 0
        assert "migrated  : " in out
        assert "errors    : 0 (0 untyped)" in out

    def test_typed_error_passes_untyped_fails(self, capsys, monkeypatch):
        from repro.fleet import TrackingFleet

        tick = TrackingFleet.tick
        raised = {}

        def flaky(self, t):
            if t in raised:
                raise raised[t]
            return tick(self, t)

        monkeypatch.setattr(TrackingFleet, "tick", flaky)
        raised[2.0] = DataQualityError("refused")
        rc, out = _cli(capsys, *self.ARGV)
        assert rc == 0 and "errors    : 1 (0 untyped)" in out
        raised[4.0] = KeyError("leak")
        rc, out = _cli(capsys, *self.ARGV)
        assert rc == 1 and "errors    : 2 (1 untyped)" in out


@pytest.mark.gateway
def test_gateway_cli_record_then_replay(capsys, tmp_path):
    trace = str(tmp_path / "gw.trace")
    rc, out = _cli(capsys, "gateway", "--duration", "6", "--beacons", "3",
                   "--clients", "2", "--rate", "3", "--drop", "0.1",
                   "--dup", "0.1", "--record", trace)
    assert rc == 0
    assert "errors    : 0 (0 untyped)" in out
    assert "replay    : bit-identical snapshot stream" in out
    assert "verdict   : PASS" in out
    rc, out = _cli(capsys, "gateway", "--replay", trace)
    assert rc == 0
    assert "verdict   : bit-identical snapshot stream" in out


@pytest.mark.chaos
def test_chaos_cli_counts_restarts_across_kills(capsys, tmp_path):
    # The shard crash (tick 7) happens in the process that is later
    # killed (tick 19); its restart still counts.
    rc, out = _cli(capsys, "chaos", "--seed", "1", "--ticks", "24",
                   "--beacons", "6", "--kills", "1", "--shard-crashes", "1",
                   "--checkpoint-every", "4", "--durability", "flush",
                   "--workdir", str(tmp_path))
    assert rc == 0
    assert out.startswith("chaos: PASS\n")
    assert "kills at ticks [19]; shard crashes [[7, 0]]" in out
    assert "shard restarts: 1\n" in out
    assert "  untyped errors: 0\n" in out
