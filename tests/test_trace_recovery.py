"""Torn-tail trace recovery and the writer's durability/seal contract.

The trace a crashed process leaves behind — unsealed, possibly one torn
final line — is the incident artifact point-in-time recovery depends on,
so its semantics get their own suite: strict mode must refuse it with a
message pointing at the tolerant mode, the tolerant mode must forgive
*exactly* one torn tail line and nothing else, and the writer must never
forge an ``end`` seal over an in-flight exception.
"""

import json

import pytest

from repro.errors import ConfigurationError, DataQualityError
from repro.gateway import (
    IngestionGateway,
    TraceWriter,
    read_trace,
    recover_trace,
    replay,
    snapshot_digest,
    trace_meta,
)
from repro.gateway.gateway import GatewayConfig
from repro.obs.sinks import JsonLinesSink
from repro.obs.events import Event
from repro.types import ImuSample, RssiSample


def _scan(t, beacon="b1"):
    return RssiSample(t, -60.0, beacon, 37)


def _imu(t):
    return ImuSample(t, 0.5, 0.0, 0.0)


def _record_run(path, ticks=4, seal=True, durability="flush",
                legacy_fleet_meta=None):
    """A small real gateway run recorded to ``path``; returns the digests.

    ``legacy_fleet_meta`` adds keys to the header's ``fleet`` block, as a
    trace written by an older version carries them.
    """
    gw = IngestionGateway(GatewayConfig())
    meta = trace_meta(gw)
    meta["fleet"].update(legacy_fleet_meta or {})
    writer = TraceWriter(str(path), meta=meta, durability=durability)
    gw.tap = writer
    digests = []
    for k in range(ticks):
        t = float(k + 1)
        gw.enqueue_scans([_scan(t - 0.5), _scan(t - 0.2)])
        gw.enqueue_imu([_imu(t - 0.3)])
        digests.append(snapshot_digest(gw.tick(t)))
    if seal:
        writer.close()
    else:
        writer.abort()
    return digests


class TestWriterSealContract:
    def test_durability_policy_is_validated(self, tmp_path):
        with pytest.raises(ConfigurationError):
            TraceWriter(str(tmp_path / "t.trace"), durability="psync")

    def test_clean_context_exit_seals(self, tmp_path):
        path = tmp_path / "t.trace"
        with TraceWriter(str(path)) as writer:
            writer.record_tick(1.0, [], [], {})
        last = json.loads(path.read_text().splitlines()[-1])
        assert last["kind"] == "end" and last["ticks"] == 1
        meta, ticks, recovery = recover_trace(str(path))
        assert recovery.clean and recovery.sealed

    def test_exception_exit_never_writes_end(self, tmp_path):
        path = tmp_path / "t.trace"
        with pytest.raises(RuntimeError):
            with TraceWriter(str(path)) as writer:
                writer.record_tick(1.0, [], [], {})
                raise RuntimeError("mid-run death")
        kinds = [json.loads(line)["kind"]
                 for line in path.read_text().splitlines()]
        assert "end" not in kinds
        # The honest artifact: strict read refuses, tolerant read works.
        with pytest.raises(DataQualityError):
            read_trace(str(path))
        _, ticks = read_trace(str(path), allow_unsealed=True)
        assert len(ticks) == 1

    def test_fsync_durability_writes_identical_records(self, tmp_path):
        a, b = tmp_path / "flush.trace", tmp_path / "fsync.trace"
        _record_run(a, durability="flush")
        _record_run(b, durability="fsync")
        assert a.read_text() == b.read_text()


class TestStrictDefault:
    def test_unsealed_refusal_points_at_allow_unsealed(self, tmp_path):
        path = tmp_path / "t.trace"
        _record_run(path, seal=False)
        with pytest.raises(DataQualityError, match="allow_unsealed=True"):
            read_trace(str(path))

    def test_torn_tail_refusal_points_at_allow_unsealed(self, tmp_path):
        path = tmp_path / "t.trace"
        _record_run(path, seal=False)
        data = path.read_bytes()
        path.write_bytes(data[:-7])  # tear the final record
        with pytest.raises(DataQualityError, match="allow_unsealed=True"):
            read_trace(str(path))


class TestTornTailRecovery:
    def test_truncated_tail_drops_exactly_one_line(self, tmp_path):
        path = tmp_path / "t.trace"
        _record_run(path, ticks=4, seal=False)
        body = path.read_bytes().rstrip(b"\n")
        path.write_bytes(body[:-9])
        meta, ticks, recovery = recover_trace(str(path))
        assert len(ticks) == 3
        assert not recovery.sealed and not recovery.clean
        assert recovery.torn_line == 5  # header + 4 ticks, last one torn
        assert "hash" in recovery.torn_reason or \
               "JSON" in recovery.torn_reason

    def test_partial_appended_record_is_forgiven(self, tmp_path):
        path = tmp_path / "t.trace"
        _record_run(path, ticks=3, seal=False)
        with open(path, "ab") as fh:
            fh.write(b'{"kind":"tick","t":99')  # the write that died
        meta, ticks, recovery = recover_trace(str(path))
        assert len(ticks) == 3 and recovery.torn_line is not None

    def test_mid_file_corruption_refused_in_both_modes(self, tmp_path):
        path = tmp_path / "t.trace"
        _record_run(path, ticks=4, seal=False)
        lines = path.read_text().splitlines()
        lines[2] = lines[2].replace("-60.0", "-99.0", 1)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataQualityError):
            read_trace(str(path))
        with pytest.raises(DataQualityError):
            recover_trace(str(path))

    def test_two_torn_lines_are_refused(self, tmp_path):
        # Only the single write a crash can tear is forgiven; a file
        # whose last two lines are broken is corruption, not a crash.
        path = tmp_path / "t.trace"
        _record_run(path, ticks=4, seal=False)
        lines = path.read_text().splitlines()
        lines[-2] = lines[-2][:-5]
        lines[-1] = lines[-1][:-5]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataQualityError):
            recover_trace(str(path))

    def test_sealed_trace_reads_identically_in_both_modes(self, tmp_path):
        path = tmp_path / "t.trace"
        _record_run(path, seal=True)
        strict = read_trace(str(path))
        tolerant = read_trace(str(path), allow_unsealed=True)
        assert strict == tolerant

    def test_replay_allow_unsealed_replays_verified_prefix(self, tmp_path):
        path = tmp_path / "t.trace"
        digests = _record_run(path, ticks=4, seal=False)
        body = path.read_bytes().rstrip(b"\n")
        path.write_bytes(body[:-9])
        with pytest.raises(DataQualityError):
            replay(str(path))
        result = replay(str(path), allow_unsealed=True)
        assert result.identical and result.ticks == 3
        assert digests[:3]  # the prefix the replay just re-verified


class TestLegacyTraceMeta:
    def test_new_headers_omit_batch_ticks(self):
        assert "batch_ticks" not in trace_meta(
            IngestionGateway(GatewayConfig()))["fleet"]

    @pytest.mark.parametrize("legacy", [True, False])
    def test_legacy_batch_ticks_key_replays_identically(self, tmp_path,
                                                        legacy):
        path = tmp_path / "legacy.trace"
        digests = _record_run(path, ticks=6,
                              legacy_fleet_meta={"batch_ticks": legacy})
        meta, _ticks = read_trace(str(path))
        assert meta["fleet"]["batch_ticks"] is legacy
        result = replay(str(path))
        assert result.ticks == len(digests) == 6
        assert result.mismatches == []


class TestJsonLinesSinkDurability:
    def test_policy_validated(self, tmp_path):
        with pytest.raises(ValueError):
            JsonLinesSink(tmp_path / "e.jsonl", durability="psync")

    def test_fsync_policy_writes_events(self, tmp_path):
        path = tmp_path / "e.jsonl"
        with JsonLinesSink(path, durability="fsync") as sink:
            sink.write(Event(seq=1, t_mono=0.0, wall=0.0, name="x",
                             severity="info", component="test"))
            assert sink.written == 1
        assert json.loads(path.read_text())["event"] == "x"
