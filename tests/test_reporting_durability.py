"""Durable ingestion: WAL codec, snapshot compaction, crash recovery."""

import os
import struct

import pytest

from repro.chaos.faults import FaultPlan, active_plan
from repro.crypto import RSAKeyPair
from repro.errors import DurabilityError, WireError
from repro.reporting import (
    AggregatedVerdict,
    DetectionReport,
    ReportServer,
    SubmitStatus,
    TakedownPolicy,
    sign_report,
)
from repro.reporting.durability import (
    decode_record,
    decode_snapshot,
    encode_epoch_record,
    encode_register_record,
    encode_report_record,
    encode_snapshot,
    encode_takedown_record,
)

ORIGINAL = "aa" * 20
PIRATE = "bb" * 20

#: On-disk bytes of the pinned scenario in ``TestOnDiskBytes`` (shard
#: WAL, meta WAL, snapshot file).  Any change here breaks existing data
#: dirs and mixed-version replication.
WAL_HEX = (
    "0000005fe2b4a5500100000447616d6501000447616d65000462303031000264"
    "3100286262626262626262626262626262626262626262626262626262626262"
    "6262626262626262626262000a7075626c69635f6b6579402900000000000000"
    "0000000000004d0000005fdffbfbea0100000447616d6501000447616d650004"
    "6230303100026432002862626262626262626262626262626262626262626262"
    "626262626262626262626262626262626262000a7075626c69635f6b6579402a"
    "000000000000000000000000004e"
)
META_HEX = (
    "0000003168b1aded03000447616d650028616161616161616161616161616161"
    "6161616161616161616161616161616161616161616161616100000039007f94"
    "cd02000447616d65002862626262626262626262626262626262626262626262"
    "626262626262626262626262626262626262402900000000000000000009cce2"
    "7534040000000000000001"
)
SNAPSHOT_HEX = (
    "52534e5002402a00000000000000000000000000000000000000000001000100"
    "0447616d65002861616161616161616161616161616161616161616161616161"
    "6161616161616161616161616161610100286262626262626262626262626262"
    "6262626262626262626262626262626262626262626262626262402900000000"
    "000000010000000200026431000000000000004d00026432000000000000004e"
    "000000010000005701000447616d650004623030310002643200286262626262"
    "6262626262626262626262626262626262626262626262626262626262626262"
    "626262000a7075626c69635f6b6579402a000000000000000000000000004e00"
    "0100286262626262626262626262626262626262626262626262626262626262"
    "62626262626262626262620000000140290000000000000002643113a93faa"
)


@pytest.fixture(scope="module")
def attest_key():
    return RSAKeyPair.generate(seed=41)


def make_signed(attest_key, device="dev-1", key=PIRATE, ts=0.0, nonce=1, app="Game"):
    return sign_report(
        DetectionReport(
            app_name=app,
            bomb_id="b001",
            device_id=device,
            observed_key_hex=key,
            timestamp=ts,
            nonce=nonce,
        ),
        attest_key,
    )


def make_server(data_dir=None, **kwargs):
    kwargs.setdefault("shards", 4)
    server = ReportServer(data_dir=data_dir, **kwargs)
    if "Game" not in server.apps:
        server.register_app("Game", ORIGINAL)
    return server


def counter(server, name):
    return server.metrics.counter(name).value


class TestRecordCodec:
    def test_report_record_roundtrips(self):
        report = DetectionReport(
            app_name="Game", bomb_id="b007", device_id="dev-9",
            observed_key_hex=PIRATE, timestamp=12.5, nonce=77,
        )
        payload = encode_report_record("Game", report)
        assert payload[1] == 0  # reserved byte
        assert decode_record(payload) == ("report", "Game", report)
        # The reserved byte is ignored on read: records journaled with
        # it set (older data dirs) replay as ordinary reports.
        flagged = payload[:1] + b"\x01" + payload[2:]
        assert decode_record(flagged) == ("report", "Game", report)

    def test_takedown_and_register_records_roundtrip(self):
        assert decode_record(encode_takedown_record("Game", PIRATE, 42.0)) == (
            "takedown", "Game", PIRATE, 42.0
        )
        assert decode_record(encode_register_record("Game", ORIGINAL)) == (
            "register", "Game", ORIGINAL
        )

    def test_garbage_records_raise(self):
        with pytest.raises(WireError):
            decode_record(b"")
        with pytest.raises(WireError):
            decode_record(b"\xff rest")
        with pytest.raises(WireError):
            decode_record(encode_takedown_record("Game", PIRATE, 1.0)[:-3])


class TestOnDiskBytes:
    def test_wal_and_snapshot_bytes_pinned(self, attest_key, tmp_path):
        """The journal and snapshot formats are frozen: existing data
        dirs must stay readable and replicas must agree byte for byte."""
        data_dir = tmp_path / "state"
        server = ReportServer(
            data_dir=str(data_dir), shards=1,
            policy=TakedownPolicy(distinct_devices=1),
        )
        server.register_app("Game", ORIGINAL)
        server.submit(make_signed(attest_key, device="d1", ts=12.5, nonce=77))
        server.process()
        assert server.verdict("Game")[0] is AggregatedVerdict.TAKEDOWN
        server.bump_epoch()
        # Left in the queue, so the snapshot carries a report body too.
        server.submit(make_signed(attest_key, device="d2", ts=13.0, nonce=78))
        wal = (data_dir / "wal-000.log").read_bytes()
        meta = (data_dir / "wal-meta.log").read_bytes()
        server.close()
        snapshot = (data_dir / "snapshot.bin").read_bytes()
        assert wal.hex() == WAL_HEX
        assert meta.hex() == META_HEX
        assert snapshot.hex() == SNAPSHOT_HEX


class TestSnapshotCodec:
    def test_live_server_state_roundtrips(self, attest_key):
        server = make_server()
        for i in range(6):
            server.submit(make_signed(attest_key, device=f"d{i}", ts=float(i),
                                      nonce=100 + i))
        server.process()
        server.verdict("Game")
        state = server._snapshot_state()
        assert decode_snapshot(encode_snapshot(state)) == state

    def test_corrupt_snapshot_payload_raises(self):
        server = make_server()
        payload = encode_snapshot(server._snapshot_state())
        with pytest.raises(WireError):
            decode_snapshot(payload[:-2])
        with pytest.raises(WireError):
            decode_snapshot(b"\x99" + payload[1:])


class TestCrashRecover:
    def test_recovered_state_matches_and_dedup_survives(self, attest_key, tmp_path):
        data_dir = str(tmp_path / "state")
        server = make_server(data_dir)
        signed = [
            make_signed(attest_key, device=f"d{i}", ts=float(i), nonce=500 + i)
            for i in range(5)
        ]
        for s in signed:
            assert server.submit(s) is SubmitStatus.ACCEPTED
        server.process()
        expected = server.verdicts()
        server.crash()

        recovered = ReportServer.recover(data_dir, shards=4)
        assert counter(recovered, "wal.replayed") >= 5
        recovered.process()
        assert recovered.verdicts() == expected
        # Dedup state survived the kill: pre-crash accepted reports are
        # duplicates, not fresh evidence.
        for s in signed:
            assert recovered.submit(s) is SubmitStatus.DUPLICATE
        recovered.close()

    def test_recover_missing_dir_raises(self, tmp_path):
        with pytest.raises(DurabilityError):
            ReportServer.recover(str(tmp_path / "never-existed"))

    def test_shard_count_mismatch_raises(self, attest_key, tmp_path):
        data_dir = str(tmp_path / "state")
        server = make_server(data_dir, snapshot_every=1)
        server.submit(make_signed(attest_key, device="d1", nonce=1))
        server.close()  # compacts: the snapshot records 4 shards
        with pytest.raises(DurabilityError):
            ReportServer.recover(data_dir, shards=2)

    def test_takedown_survives_without_double_count(self, attest_key, tmp_path):
        data_dir = str(tmp_path / "state")
        server = make_server(data_dir)
        for i in range(3):
            server.submit(make_signed(attest_key, device=f"d{i}", ts=float(i),
                                      nonce=i + 1))
        server.process()
        assert server.verdict("Game")[0] is AggregatedVerdict.TAKEDOWN
        assert counter(server, "reporting.takedowns") == 1
        server.crash()

        recovered = ReportServer.recover(data_dir, shards=4)
        recovered.process()
        verdict, offender = recovered.verdict("Game")
        assert verdict is AggregatedVerdict.TAKEDOWN and offender == PIRATE
        # The journaled transition replayed; the counter must not re-fire.
        assert counter(recovered, "reporting.takedowns") == 0
        recovered.close()



class TestCrashAtEveryOffset:
    def test_interrupted_run_equals_uninterrupted(self, attest_key, tmp_path):
        """Satellite 4: crash at offset k, recover, finish -- the final
        verdicts and accepted set must match the uninterrupted run."""
        n = 12
        stream = [
            make_signed(attest_key, device=f"d{i % 5}", ts=float(i),
                        nonce=900 + i)
            for i in range(n)
        ]

        baseline = make_server()
        base_status = [baseline.submit(s) for s in stream]
        baseline.process()
        expected = baseline.verdicts()
        accepted = [
            s for s, status in zip(stream, base_status)
            if status is SubmitStatus.ACCEPTED
        ]

        for k in (1, 4, 7, n - 1):
            data_dir = str(tmp_path / f"crash-{k}")
            server = make_server(data_dir, snapshot_every=4)
            durable_status = [server.submit(s) for s in stream[:k]]
            server.process()
            server.crash()

            recovered = ReportServer.recover(data_dir, shards=4,
                                             snapshot_every=4)
            durable_status.extend(recovered.submit(s) for s in stream[k:])
            recovered.process()
            assert recovered.verdicts() == expected, f"crash at {k}"
            assert durable_status == base_status, f"crash at {k}"
            for s in accepted:
                assert recovered.submit(s) is SubmitStatus.DUPLICATE
            recovered.close()


class TestTornAndCorruptWal:
    def test_torn_tail_recovers_and_stays_appendable(self, attest_key, tmp_path):
        data_dir = str(tmp_path / "state")
        server = make_server(data_dir)
        server.submit(make_signed(attest_key, device="d1", nonce=1))
        server.submit(make_signed(attest_key, device="d2", nonce=2))
        server.crash()
        # The dying process got partway through an (unacked) append.
        wal = next(
            os.path.join(data_dir, name)
            for name in sorted(os.listdir(data_dir))
            if name.startswith("wal-") and os.path.getsize(
                os.path.join(data_dir, name))
        )
        with open(wal, "ab") as fh:
            fh.write(struct.pack(">II", 64, 0xDEADBEEF) + b"\x00" * 10)

        recovered = ReportServer.recover(data_dir, shards=4)
        assert counter(recovered, "recovery.torn_records") == 1
        assert counter(recovered, "wal.replayed") >= 2
        # The torn bytes were truncated away; the log keeps working.
        assert recovered.submit(
            make_signed(attest_key, device="d3", nonce=3)
        ) is SubmitStatus.ACCEPTED
        recovered.crash()
        again = ReportServer.recover(data_dir, shards=4)
        assert counter(again, "recovery.torn_records") == 0
        assert counter(again, "wal.replayed") >= 3
        again.close()

    def test_bit_flip_mid_wal_stops_that_file_cleanly(self, attest_key, tmp_path):
        data_dir = str(tmp_path / "state")
        server = make_server(data_dir, shards=1)
        for i in range(4):
            server.submit(make_signed(attest_key, device=f"d{i}", nonce=i + 1))
        server.crash()
        wal = os.path.join(data_dir, "wal-000.log")
        size = os.path.getsize(wal)
        with open(wal, "r+b") as fh:
            fh.seek(size // 2)
            byte = fh.read(1)
            fh.seek(size // 2)
            fh.write(bytes([byte[0] ^ 0x40]))

        recovered = ReportServer.recover(data_dir, shards=1)
        # Rot is detected, counted, and replay keeps the intact prefix.
        assert counter(recovered, "recovery.torn_records") == 1
        assert 0 < counter(recovered, "wal.replayed") < 4
        recovered.close()


class TestCompaction:
    def test_snapshot_truncates_wal_and_recovers_alone(self, attest_key, tmp_path):
        data_dir = str(tmp_path / "state")
        server = make_server(data_dir, snapshot_every=3)
        # The registration is append #1; the second report is append #3
        # and trips the compaction threshold.
        for i in range(2):
            server.submit(make_signed(attest_key, device=f"d{i}", ts=float(i),
                                      nonce=i + 1))
        assert counter(server, "snapshot.compactions") == 1
        server.process()
        expected = server.verdicts()
        server.crash()
        assert all(
            os.path.getsize(os.path.join(data_dir, name)) == 0
            for name in os.listdir(data_dir)
            if name.startswith("wal-")
        )

        recovered = ReportServer.recover(data_dir, shards=4, snapshot_every=3)
        assert counter(recovered, "snapshot.loads") == 1
        assert counter(recovered, "wal.replayed") == 0
        recovered.process()
        assert recovered.verdicts() == expected
        recovered.close()

    def test_close_compacts(self, attest_key, tmp_path):
        data_dir = str(tmp_path / "state")
        server = make_server(data_dir)
        server.submit(make_signed(attest_key, device="d1", nonce=1))
        server.close()
        assert os.path.exists(os.path.join(data_dir, "snapshot.bin"))


class TestFaultPoints:
    def test_wal_append_failure_drops_then_retry_succeeds(self, attest_key, tmp_path):
        data_dir = str(tmp_path / "state")
        server = make_server(data_dir)
        signed = make_signed(attest_key, device="d1", nonce=1)
        plan = FaultPlan(seed=3).arm("wal.append", "raise", max_fires=1)
        with active_plan(plan):
            assert server.submit(signed) is SubmitStatus.DROPPED
        assert counter(server, "reporting.wal_failed") == 1
        assert counter(server, "wal.failures") == 1
        # Nothing was acked, no nonce was remembered: the client's
        # retry must not be misread as a duplicate.
        assert server.submit(signed) is SubmitStatus.ACCEPTED
        server.close()

    def test_snapshot_write_fault_keeps_wal(self, attest_key, tmp_path):
        data_dir = str(tmp_path / "state")
        server = make_server(data_dir, snapshot_every=2)
        plan = FaultPlan(seed=3).arm("snapshot.write", "flip", magnitude=4)
        with active_plan(plan):
            for i in range(2):
                server.submit(make_signed(attest_key, device=f"d{i}",
                                          nonce=i + 1))
        # The corrupted snapshot failed its verify-read-back; the WALs
        # were NOT truncated, so recovery still sees every report.  (A
        # failed compaction retries at the next append, so the failure
        # counter keeps climbing while the fault stays armed.)
        assert counter(server, "snapshot.failures") >= 1
        assert counter(server, "snapshot.compactions") == 0
        server.process()
        expected = server.verdicts()
        server.crash()

        recovered = ReportServer.recover(data_dir, shards=4)
        assert counter(recovered, "wal.replayed") >= 2
        recovered.process()
        assert recovered.verdicts() == expected
        recovered.close()


class TestEpochPersistence:
    def test_epoch_record_roundtrips(self):
        for epoch in (0, 1, 7, 2**63):
            assert decode_record(encode_epoch_record(epoch)) == ("epoch", epoch)

    def test_epoch_record_truncated_raises(self):
        payload = encode_epoch_record(5)
        with pytest.raises(WireError):
            decode_record(payload[:-1])
        with pytest.raises(WireError):
            decode_record(payload + b"x")

    def test_snapshot_v2_carries_epoch(self, attest_key):
        server = make_server()
        server.submit(make_signed(attest_key))
        server.process()
        server.bump_epoch()
        server.bump_epoch()
        state = server._snapshot_state()
        assert state["epoch"] == 2
        assert decode_snapshot(encode_snapshot(state)) == state

    def test_v1_snapshot_rejected_as_unsupported(self):
        # A pre-epoch (version 1) snapshot is the v2 payload minus the
        # 8-byte epoch, with the version byte rolled back.
        server = make_server()
        payload = bytearray(encode_snapshot(server._snapshot_state()))
        assert payload[0] == 2
        # v2 layout: version | >d clock | >Q reserved | >Q epoch | apps
        v1 = bytes([1]) + bytes(payload[1:17]) + bytes(payload[25:])
        with pytest.raises(WireError, match="unsupported snapshot version"):
            decode_snapshot(v1)

    def test_bump_epoch_survives_crash_recovery(self, attest_key, tmp_path):
        data_dir = str(tmp_path / "state")
        server = make_server(data_dir)
        server.submit(make_signed(attest_key))
        server.process()
        assert server.bump_epoch() == 1
        assert server.bump_epoch() == 2
        server.crash()
        recovered = ReportServer.recover(data_dir, shards=4)
        assert recovered.epoch == 2
        # And a recovered server keeps bumping monotonically.
        assert recovered.bump_epoch() == 3
        recovered.close()

    def test_epoch_survives_snapshot_compaction(self, attest_key, tmp_path):
        data_dir = str(tmp_path / "state")
        server = make_server(data_dir, snapshot_every=2)
        server.bump_epoch()
        for i in range(8):  # force compactions past the epoch record
            server.submit(make_signed(attest_key, device=f"d{i}", nonce=50 + i))
        server.process()
        server.close()
        recovered = ReportServer.recover(data_dir, shards=4)
        assert recovered.epoch == 1
        recovered.close()
