"""Ingestion service: dedup, replay, sliding window, backpressure, bounds."""

import dataclasses

import pytest

from repro.crypto import RSAKeyPair
from repro.errors import ReportingError
from repro.reporting import (
    AggregatedVerdict,
    DetectionReport,
    ReportServer,
    SubmitStatus,
    TakedownPolicy,
    encode_report,
    report_to_json,
    sign_report,
)

ORIGINAL = "aa" * 20
PIRATE = "bb" * 20


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


def make_server(**kwargs):
    server = ReportServer(**kwargs)
    server.register_app("Game", ORIGINAL)
    return server


class TestSubmitValidation:
    def test_accepts_signed_binary_and_json(self, attest_key):
        server = make_server()
        a = make_signed(attest_key, device="d1", nonce=1)
        b = make_signed(attest_key, device="d2", nonce=2)
        c = make_signed(attest_key, device="d3", nonce=3)
        assert server.submit(a) is SubmitStatus.ACCEPTED
        assert server.submit(encode_report(b)) is SubmitStatus.ACCEPTED
        assert server.submit(report_to_json(c)) is SubmitStatus.ACCEPTED
        assert server.metrics.counter("reporting.accepted").value == 3

    def test_forged_signature_rejected_and_counted(self, attest_key):
        server = make_server()
        signed = make_signed(attest_key)
        forged = dataclasses.replace(signed, signature=signed.signature ^ 1)
        assert server.submit(forged) is SubmitStatus.BAD_SIGNATURE
        assert server.metrics.counter("reporting.rejected_forged").value == 1
        assert server.verdict("Game")[0] is AggregatedVerdict.CLEAN

    def test_malformed_inputs_counted(self):
        server = make_server()
        assert server.submit(b"not a frame") is SubmitStatus.MALFORMED
        assert server.submit("{bad json") is SubmitStatus.MALFORMED
        assert server.submit(12345) is SubmitStatus.MALFORMED
        assert server.metrics.counter("reporting.rejected_malformed").value == 3

    def test_unknown_app_rejected(self, attest_key):
        server = make_server()
        status = server.submit(make_signed(attest_key, app="NotMine"))
        assert status is SubmitStatus.UNKNOWN_APP
        assert server.metrics.counter("reporting.unknown_app").value == 1
        assert server.metrics.counter("reporting.received").value == 1

    def test_duplicate_nonce_dropped(self, attest_key):
        server = make_server()
        signed = make_signed(attest_key, device="d1", nonce=77)
        assert server.submit(signed) is SubmitStatus.ACCEPTED
        assert server.submit(signed) is SubmitStatus.DUPLICATE
        # Same nonce from a different device is a different report.
        other = make_signed(attest_key, device="d2", nonce=77)
        assert server.submit(other) is SubmitStatus.ACCEPTED
        assert server.metrics.counter("reporting.duplicates_dropped").value == 1

    def test_stale_report_replayed(self, attest_key):
        server = make_server(max_report_age=100.0)
        fresh = make_signed(attest_key, device="d1", ts=500.0, nonce=1)
        assert server.submit(fresh) is SubmitStatus.ACCEPTED  # clock -> 500
        stale = make_signed(attest_key, device="d2", ts=300.0, nonce=2)
        assert server.submit(stale) is SubmitStatus.REPLAYED
        assert server.metrics.counter("reporting.rejected_replayed").value == 1

    def test_nonce_outside_64_bits_is_malformed(self, attest_key):
        # The signature covers the nonce modulo 2**64, so an aliased
        # nonce carries a valid signature: it must not pass dedup.
        server = make_server()
        signed = make_signed(attest_key, device="d1", nonce=5)
        line = report_to_json(signed)
        statuses = [server.submit(line), server.submit(line)]
        for alias in (5 + 2**64, 5 - 2**64):
            statuses.append(server.submit(line.replace('"nonce": 5', f'"nonce": {alias}')))
            aliased = dataclasses.replace(
                signed, report=dataclasses.replace(signed.report, nonce=alias)
            )
            assert aliased.verify()
            statuses.append(server.submit(aliased))
        assert statuses == [
            SubmitStatus.ACCEPTED, SubmitStatus.DUPLICATE,
            SubmitStatus.MALFORMED, SubmitStatus.MALFORMED,
            SubmitStatus.MALFORMED, SubmitStatus.MALFORMED,
        ]
        assert server.metrics.counter("reporting.accepted").value == 1
        assert server.metrics.counter("reporting.rejected_malformed").value == 4

    @pytest.mark.parametrize("ts", [float("inf"), float("-inf")])
    def test_infinite_timestamp_is_malformed(self, attest_key, ts):
        server = make_server()
        signed = make_signed(attest_key, device="d1", ts=ts)
        for item in (signed, encode_report(signed), report_to_json(signed)):
            assert server.submit(item) is SubmitStatus.MALFORMED
        assert server.clock == 0.0
        # The clock is not pinned: a later honest report still lands.
        later = make_signed(attest_key, device="d2", ts=10.0, nonce=2)
        assert server.submit(later) is SubmitStatus.ACCEPTED

    def test_nan_timestamp_is_malformed(self, attest_key):
        server = make_server()
        signed = make_signed(attest_key, device="d1", ts=float("nan"))
        for item in (signed, encode_report(signed), report_to_json(signed)):
            assert server.submit(item) is SubmitStatus.MALFORMED
        assert server.metrics.counter("reporting.rejected_malformed").value == 3
        assert server.metrics.counter("reporting.accepted").value == 0


class TestBackpressure:
    def test_full_queue_drops_and_counts(self, attest_key):
        server = make_server(shards=1, queue_capacity=2)
        for i in range(2):
            status = server.submit(make_signed(attest_key, device=f"d{i}", nonce=i))
            assert status is SubmitStatus.ACCEPTED
        overflow = make_signed(attest_key, device="d9", nonce=9)
        assert server.submit(overflow) is SubmitStatus.DROPPED
        assert server.metrics.counter("reporting.dropped_backpressure").value == 1
        assert server.queue_depth() == 2

    def test_dropped_report_can_retry_after_drain(self, attest_key):
        # A backpressure drop must NOT record the nonce, or the client's
        # retry would be misclassified as a duplicate.
        server = make_server(shards=1, queue_capacity=1)
        assert server.submit(make_signed(attest_key, device="d1", nonce=1)) \
            is SubmitStatus.ACCEPTED
        retry = make_signed(attest_key, device="d2", nonce=2)
        assert server.submit(retry) is SubmitStatus.DROPPED
        server.process()
        assert server.submit(retry) is SubmitStatus.ACCEPTED


class TestSlidingWindow:
    def _policy(self, **kw):
        base = dict(distinct_devices=3, window_seconds=100.0)
        base.update(kw)
        return TakedownPolicy(**base)

    def test_distinct_devices_within_window_take_down(self, attest_key):
        server = make_server(policy=self._policy())
        for i, ts in enumerate((0.0, 10.0, 20.0)):
            server.submit(make_signed(attest_key, device=f"d{i}", ts=ts, nonce=i))
        server.process()
        verdict, key = server.verdict("Game")
        assert verdict is AggregatedVerdict.TAKEDOWN
        assert key == PIRATE

    def test_one_noisy_device_votes_once(self, attest_key):
        server = make_server(policy=self._policy())
        for nonce in range(10):
            server.submit(make_signed(attest_key, device="d1", nonce=nonce))
        server.process()
        assert server.verdict("Game")[0] is AggregatedVerdict.SUSPECT

    def test_old_sightings_age_out(self, attest_key):
        server = make_server(policy=self._policy(), max_report_age=10_000.0)
        server.submit(make_signed(attest_key, device="d1", ts=0.0, nonce=1))
        server.submit(make_signed(attest_key, device="d2", ts=10.0, nonce=2))
        # The third arrives long after the first two left the window.
        server.submit(make_signed(attest_key, device="d3", ts=500.0, nonce=3))
        server.process()
        assert server.verdict("Game")[0] is AggregatedVerdict.SUSPECT
        # Two more inside the live window complete the quorum.
        server.submit(make_signed(attest_key, device="d4", ts=510.0, nonce=4))
        server.submit(make_signed(attest_key, device="d5", ts=520.0, nonce=5))
        server.process()
        assert server.verdict("Game")[0] is AggregatedVerdict.TAKEDOWN

    def test_counts_sum_across_shards(self, attest_key):
        server = make_server(shards=8, policy=self._policy())
        for i in range(3):
            server.submit(make_signed(attest_key, device=f"device-{i}", nonce=i))
        server.process()
        assert server.verdict("Game")[0] is AggregatedVerdict.TAKEDOWN

    def test_original_key_reports_ignored(self, attest_key):
        server = make_server(policy=self._policy(distinct_devices=1))
        server.submit(make_signed(attest_key, device="d1", key=ORIGINAL, nonce=1))
        server.process()
        assert server.verdict("Game")[0] is AggregatedVerdict.CLEAN
        assert server.metrics.counter("reporting.original_key_reports").value == 1

    def test_key_case_is_not_evidence(self, attest_key):
        # Fingerprints are hex: the developer's own key in uppercase is
        # still the original, and a pirate key counts once per device
        # whatever its case.
        server = make_server(policy=self._policy())
        for i in range(3):
            server.submit(make_signed(attest_key, device=f"d{i}",
                                      key=ORIGINAL.upper(), nonce=i))
        server.process()
        assert server.verdict("Game") == (AggregatedVerdict.CLEAN, "")
        assert server.metrics.counter("reporting.original_key_reports").value == 3
        for i, key in enumerate((PIRATE, PIRATE.upper(), PIRATE.upper())):
            server.submit(make_signed(attest_key, device=f"p{i}", key=key, nonce=i))
        server.process()
        assert server.verdict("Game") == (AggregatedVerdict.TAKEDOWN, PIRATE)

    def test_tie_breaks_deterministically(self, attest_key):
        server = make_server(policy=self._policy(distinct_devices=5))
        low, high = "bb" * 20, "cc" * 20
        server.submit(make_signed(attest_key, device="d1", key=high, nonce=1))
        server.submit(make_signed(attest_key, device="d2", key=low, nonce=2))
        server.process()
        # Equal distinct-device counts: lexicographically greatest wins,
        # regardless of insertion order.
        assert server.verdict("Game") == (AggregatedVerdict.SUSPECT, high)

    def test_takedown_latency_recorded_once(self, attest_key):
        server = make_server(policy=self._policy())
        for i in range(3):
            server.submit(make_signed(attest_key, device=f"d{i}", ts=float(i), nonce=i))
        server.process()
        server.verdict("Game")
        server.verdict("Game")
        hist = server.metrics.histogram("reporting.takedown_latency_seconds")
        assert hist.count == 1
        assert server.metrics.counter("reporting.takedowns").value == 1

    def test_takedown_latency_measured_from_surviving_window(self, attest_key):
        """Pruned sightings must not anchor the latency: the window's
        ``first_ts`` follows the entries that actually survive."""
        server = make_server(shards=1, policy=self._policy(),
                             max_report_age=10_000.0)
        server.submit(make_signed(attest_key, device="d1", ts=0.0, nonce=1))
        server.submit(make_signed(attest_key, device="d2", ts=10.0, nonce=2))
        # These three form the quorum long after d1/d2 aged out.
        server.submit(make_signed(attest_key, device="d3", ts=500.0, nonce=3))
        server.submit(make_signed(attest_key, device="d4", ts=510.0, nonce=4))
        server.submit(make_signed(attest_key, device="d5", ts=520.0, nonce=5))
        server.process()
        assert server.verdict("Game")[0] is AggregatedVerdict.TAKEDOWN
        hist = server.metrics.histogram("reporting.takedown_latency_seconds")
        # 520 - 500, the surviving window -- not 520 - 0, the all-time
        # minimum a stale first_ts would report.
        assert hist.total == 20.0

    def test_empty_windows_dropped_from_tracked_keys(self, attest_key):
        server = make_server(shards=1, policy=self._policy())
        server.submit(make_signed(attest_key, device="d1", ts=0.0,
                                  key="cc" * 20, nonce=1))
        server.process()
        shard = server._apps["Game"].shards[0]
        assert "cc" * 20 in shard.windows
        # A fresh sighting of another key moves the clock far past the
        # first key's window; its now-empty window must free its
        # max_tracked_keys slot rather than squat on it.
        server.submit(make_signed(attest_key, device="d2", ts=500.0, nonce=2))
        server.process()
        evicted_before = server.metrics.counter("reporting.evicted_keys").value
        server.verdict("Game")
        assert "cc" * 20 not in shard.windows
        assert PIRATE in shard.windows
        assert (
            server.metrics.counter("reporting.evicted_keys").value
            == evicted_before + 1
        )


class TestBoundedState:
    def test_tracked_keys_capped_with_eviction_accounting(self, attest_key):
        policy = TakedownPolicy(max_tracked_keys=4)
        server = make_server(shards=1, policy=policy)
        for i in range(10):
            key = f"{i:02d}" * 20
            server.submit(make_signed(attest_key, device=f"d{i}", key=key, nonce=i))
        server.process()
        shard = server._apps["Game"].shards[0]
        assert len(shard.windows) <= 4
        assert server.metrics.counter("reporting.evicted_keys").value == 6

    def test_tracked_state_bounded_by_shard_caps(self, attest_key):
        policy = TakedownPolicy(max_tracked_devices=8, max_tracked_keys=2)
        server = make_server(shards=2, dedup_window=16, policy=policy)
        for i in range(200):
            server.submit(make_signed(attest_key, device=f"d{i}", nonce=i))
            server.process()
        per_shard = 16 + 2 * (1 + 8)  # dedup window + keys * (key + entries)
        assert server.tracked_state_size() <= server.shard_count * per_shard

    def test_needs_at_least_one_shard(self):
        with pytest.raises(ReportingError):
            ReportServer(shards=0)

    def test_unknown_app_verdict_raises(self):
        with pytest.raises(ReportingError):
            make_server().verdict("Nope")
