"""Self-healing cluster: heartbeats, supervised failover, fencing."""

import threading
import time

import pytest

from repro.chaos.faults import FaultPlan, active_plan
from repro.crypto import RSAKeyPair
from repro.errors import FaultInjected, ReportingError, TransportError
from repro.reporting import (
    DetectionReport,
    FleetConfig,
    OutcomeModel,
    ReportClient,
    ReportServer,
    SubmitStatus,
    TakedownPolicy,
    run_fleet,
    sign_report,
)
from repro.reporting.net import (
    ClusterSupervisor,
    HealthStatus,
    ReplicaFollower,
    ServiceHandle,
    TcpTransport,
    probe_health,
    send_fence,
)

ORIGINAL = "aa" * 20
PIRATE = "bb" * 20
APP = "Game"


@pytest.fixture(scope="module")
def attest_key():
    return RSAKeyPair.generate(seed=4747)


def make_signed(attest_key, i, ts=10.0, key=PIRATE, app=APP):
    return sign_report(
        DetectionReport(
            app_name=app,
            bomb_id=f"b{i:03d}",
            device_id=f"dev-{i:04d}",
            observed_key_hex=key,
            timestamp=ts,
            nonce=1000 + i,
        ),
        attest_key,
    )


class Cluster:
    """One durable leader + ingest service + warm-standby follower."""

    def __init__(self, tmp_path, shards=4, heartbeat_interval=0.05):
        self.server_kwargs = dict(
            shards=shards, policy=TakedownPolicy(distinct_devices=3)
        )
        self.leader = ReportServer(
            data_dir=str(tmp_path / "leader"), **self.server_kwargs
        )
        self.leader.register_app(APP, ORIGINAL)
        self.handle = ServiceHandle.start(
            self.leader,
            replication_port=0,
            heartbeat_interval=heartbeat_interval,
        )
        self.endpoint = self.handle.address
        self.follower = ReplicaFollower(
            str(tmp_path / "replica"),
            self.handle.replication_address,
            expect_shards=shards,
        ).start()
        assert self.follower.wait_applied(1, timeout=10)

    def supervisor(self, **kwargs):
        kwargs.setdefault("server_kwargs", self.server_kwargs)
        kwargs.setdefault("probe_timeout", 0.5)
        return ClusterSupervisor(self.endpoint, [self.follower], **kwargs)

    def accept(self, attest_key, indices):
        transport = TcpTransport([self.endpoint])
        accepted = []
        for i in indices:
            signed = make_signed(attest_key, i)
            assert transport(signed) is SubmitStatus.ACCEPTED
            accepted.append(signed)
        transport.close()
        assert self.follower.wait_applied(1 + len(accepted), timeout=10)
        return accepted

    def kill_leader(self):
        self.handle.kill()
        self.leader.crash()

    def shutdown(self, supervisor=None):
        if supervisor is not None:
            supervisor.shutdown()
            if supervisor.promoted_server is not None:
                supervisor.promoted_server.close()
        self.follower.stop()
        try:
            self.handle.stop()
        except ReportingError:
            pass


# ---------------------------------------------------------------------------
# The supervision protocol, tick by tick
# ---------------------------------------------------------------------------


class TestSupervisorProtocol:
    def test_healthy_leader_never_fails_over(self, tmp_path, attest_key):
        cluster = Cluster(tmp_path)
        supervisor = cluster.supervisor(miss_threshold=2)
        try:
            for _ in range(5):
                assert supervisor.tick() is False
            assert supervisor.failovers == 0
            assert supervisor.misses == 0
            assert supervisor.heartbeats_seen == 5
            assert supervisor.last_health.role == "leader"
            assert supervisor.endpoint() == cluster.endpoint
        finally:
            cluster.shutdown(supervisor)

    def test_single_miss_does_not_promote(self, tmp_path):
        cluster = Cluster(tmp_path)
        supervisor = cluster.supervisor(miss_threshold=3)
        try:
            with active_plan(
                FaultPlan(seed=1).arm(
                    "net.heartbeat_loss", "raise", max_fires=2
                )
            ):
                assert supervisor.tick() is False
                assert supervisor.tick() is False
                assert supervisor.misses == 2
                # The next probe gets through: suspicion resets.
                assert supervisor.tick() is False
            assert supervisor.misses == 0
            assert supervisor.failovers == 0
        finally:
            cluster.shutdown(supervisor)

    def test_dead_leader_promotes_at_threshold(self, tmp_path, attest_key):
        cluster = Cluster(tmp_path)
        accepted = cluster.accept(attest_key, range(4))
        cluster.kill_leader()
        supervisor = cluster.supervisor(miss_threshold=3)
        try:
            outcomes = [supervisor.tick() for _ in range(3)]
            assert outcomes == [False, False, True]
            assert supervisor.failovers == 1
            event = supervisor.event
            assert event.epoch == 1
            assert event.follower_applied == 1 + len(accepted)
            assert supervisor.promoted_server.epoch == 1
            assert supervisor.endpoint() == supervisor.promoted_handle.address
            # The promoted dedup window remembers every pre-kill report.
            transport = TcpTransport([supervisor.endpoint()])
            for signed in accepted:
                assert transport(signed) is SubmitStatus.DUPLICATE
            assert transport(make_signed(attest_key, 9)) is SubmitStatus.ACCEPTED
            transport.close()
        finally:
            cluster.shutdown(supervisor)

    def test_supervisor_crash_resets_suspicion(self, tmp_path):
        cluster = Cluster(tmp_path)
        cluster.kill_leader()
        supervisor = cluster.supervisor(miss_threshold=2)
        try:
            plan = FaultPlan(seed=2).arm(
                "net.supervisor_crash", "raise", max_fires=1
            )
            with active_plan(plan):
                assert supervisor.tick() is False  # crash: no probe made
                assert supervisor.crashes == 1
                assert supervisor.misses == 0
                assert supervisor.tick() is False  # miss 1
                assert supervisor.misses == 1
                assert supervisor.tick() is True   # miss 2 -> failover
            assert supervisor.failovers == 1
        finally:
            cluster.shutdown(supervisor)

    def test_promotes_most_caught_up_follower(self, tmp_path, attest_key):
        cluster = Cluster(tmp_path)
        cluster.accept(attest_key, range(3))
        # A second follower that stopped early: it bootstrapped but
        # never applied the stream, so it must lose the election.
        stale = ReplicaFollower(
            str(tmp_path / "stale"),
            cluster.handle.replication_address,
            expect_shards=4,
        ).start()
        assert stale.wait_applied(1, timeout=10)
        stale.stop()
        cluster.kill_leader()
        supervisor = ClusterSupervisor(
            cluster.endpoint,
            [stale, cluster.follower],
            server_kwargs=cluster.server_kwargs,
            miss_threshold=1,
            probe_timeout=0.5,
        )
        try:
            assert supervisor.tick() is True
            assert supervisor.event.follower_applied == 4
            transport = TcpTransport([supervisor.endpoint()])
            assert transport(make_signed(attest_key, 0)) is SubmitStatus.DUPLICATE
            transport.close()
        finally:
            cluster.shutdown(supervisor)

    def test_threaded_run_promotes_without_ticking_by_hand(
        self, tmp_path, attest_key
    ):
        cluster = Cluster(tmp_path)
        cluster.accept(attest_key, range(3))
        cluster.kill_leader()
        supervisor = cluster.supervisor(miss_threshold=2, interval=0.02)
        supervisor.start()
        try:
            deadline = time.monotonic() + 20
            while supervisor.failovers == 0:
                assert supervisor.error is None, supervisor.error
                assert time.monotonic() < deadline, "never promoted"
                time.sleep(0.01)
            assert supervisor.promoted_server.epoch == 1
        finally:
            cluster.shutdown(supervisor)


# ---------------------------------------------------------------------------
# Fencing: the stale leader is harmless after promotion
# ---------------------------------------------------------------------------


class TestFencing:
    def test_partitioned_leader_is_fenced_and_redirects(
        self, tmp_path, attest_key
    ):
        cluster = Cluster(tmp_path)
        cluster.accept(attest_key, range(3))
        supervisor = cluster.supervisor(miss_threshold=2)
        try:
            # The leader is alive but the supervisor cannot see it.
            with active_plan(
                FaultPlan(seed=3).arm("net.heartbeat_loss", "raise")
            ):
                assert supervisor.tick() is False
                assert supervisor.tick() is True
            assert supervisor.fenced
            assert supervisor.fences_acked == 1
            old_accepted = cluster.handle.call(
                lambda s: int(s.metrics.counter("reporting.accepted").value)
            )
            # A client still pointed at the old leader is redirected and
            # lands on the promoted one within the same call.
            transport = TcpTransport([cluster.endpoint])
            assert transport(make_signed(attest_key, 7)) is SubmitStatus.ACCEPTED
            assert transport.redirects == 1
            assert transport.last_epoch == supervisor.promoted_server.epoch
            transport.close()
            # The fenced leader accepted nothing after the promotion.
            assert cluster.handle.call(
                lambda s: int(s.metrics.counter("reporting.accepted").value)
            ) == old_accepted
            health = probe_health(cluster.endpoint)
            assert health.role == "fenced"
            assert health.epoch == supervisor.promoted_server.epoch
        finally:
            cluster.shutdown(supervisor)

    def test_dropped_fence_is_retried_until_acked(self, tmp_path, attest_key):
        cluster = Cluster(tmp_path)
        cluster.accept(attest_key, range(3))
        supervisor = cluster.supervisor(miss_threshold=1)
        try:
            plan = (
                FaultPlan(seed=4)
                .arm("net.heartbeat_loss", "raise")
                .arm("net.stale_leader", "raise", max_fires=1)
            )
            with active_plan(plan):
                assert supervisor.tick() is True   # fence eaten at the node
                assert not supervisor.fenced
                assert supervisor.tick() is False  # re-fence lands
            assert supervisor.fenced
            assert supervisor.fences_sent == 2
            assert supervisor.fences_acked == 1
        finally:
            cluster.shutdown(supervisor)

    def test_stale_fence_cannot_demote_a_newer_epoch(self, tmp_path):
        cluster = Cluster(tmp_path)
        try:
            assert send_fence(cluster.endpoint, 5, "127.0.0.1:1111") is True
            # A delayed fence from an older failover bounces off.
            assert send_fence(cluster.endpoint, 2, "127.0.0.1:2222") is False
            health = probe_health(cluster.endpoint)
            assert health.epoch == 5
            assert health.endpoint == "127.0.0.1:1111"
        finally:
            cluster.shutdown()


# ---------------------------------------------------------------------------
# Client-side failover
# ---------------------------------------------------------------------------


class TestClientFailover:
    def test_endpoint_list_rotates_past_dead_nodes(self, tmp_path, attest_key):
        cluster = Cluster(tmp_path)
        try:
            dead = ("127.0.0.1", 1)  # reserved port: connection refused
            transport = TcpTransport([dead, cluster.endpoint])
            # First call fails over to the live endpoint on retry.
            with pytest.raises(TransportError):
                transport(make_signed(attest_key, 0))
            assert transport(make_signed(attest_key, 0)) is SubmitStatus.ACCEPTED
            transport.close()
        finally:
            cluster.shutdown()

    def test_callable_endpoint_follows_supervisor(self, tmp_path, attest_key):
        cluster = Cluster(tmp_path)
        cluster.accept(attest_key, range(2))
        cluster.kill_leader()
        supervisor = cluster.supervisor(miss_threshold=1)
        try:
            assert supervisor.tick() is True
            transport = TcpTransport(supervisor.endpoint)
            assert transport(make_signed(attest_key, 5)) is SubmitStatus.ACCEPTED
            transport.close()
        finally:
            cluster.shutdown(supervisor)

    def test_spooled_backlog_drains_through_redirect_exactly_once(
        self, tmp_path, attest_key
    ):
        """Regression: a spooled client re-routed by NOT_LEADER must not
        double-deliver any (device, nonce) pair."""
        cluster = Cluster(tmp_path)
        target = {"addr": ("127.0.0.1", 1)}  # dead while spooling
        transport = TcpTransport(lambda: target["addr"])
        client = ReportClient(
            transport,
            attest_key,
            device_id="dev-spool",
            max_attempts=2,
            base_backoff=0.0,
        )
        supervisor = cluster.supervisor(miss_threshold=1)
        try:
            backlog = []
            for i in range(6):
                assert client.report(
                    app_name=APP, bomb_id=f"b{i:03d}",
                    observed_key_hex=PIRATE, timestamp=10.0 + i,
                    device_id=f"dev-{i:04d}",
                ) is None
                backlog.append(client.last_signed)
            assert client.spooled == 6
            # Fail over while the backlog sits on flash; the old leader
            # survives, fenced, so the drain goes *through* a redirect.
            with active_plan(
                FaultPlan(seed=5).arm("net.heartbeat_loss", "raise")
            ):
                assert supervisor.tick() is True
            assert supervisor.fenced
            target["addr"] = cluster.endpoint  # client still knows the OLD leader
            assert client.flush() == 6
            assert client.spooled == 0
            accepted = supervisor.promoted_handle.call(
                lambda s: int(s.metrics.counter("reporting.accepted").value)
            )
            duplicates = supervisor.promoted_handle.call(
                lambda s: int(
                    s.metrics.counter("reporting.duplicates_dropped").value
                )
            )
            assert (accepted, duplicates) == (6, 0)
            # Only the first drained report paid a redirect; the learned
            # endpoint carried the rest straight to the new leader.
            assert transport.redirects == 1
            # Re-delivering the same signed reports is pure dedup.
            resend = TcpTransport(supervisor.endpoint)
            for signed in backlog:
                assert resend(signed) is SubmitStatus.DUPLICATE
            resend.close()
            transport.close()
        finally:
            cluster.shutdown(supervisor)


# ---------------------------------------------------------------------------
# ServiceHandle lifecycle (satellite: idempotent stop/kill)
# ---------------------------------------------------------------------------


class TestServiceHandleLifecycle:
    def make_handle(self):
        server = ReportServer(shards=2)
        server.register_app(APP, ORIGINAL)
        return ServiceHandle.start(server)

    def test_stop_is_idempotent(self):
        handle = self.make_handle()
        handle.stop()
        handle.stop()  # second stop: no-op, no raise
        handle.kill()  # kill after stop: no-op, no raise

    def test_kill_then_stop_is_safe(self):
        handle = self.make_handle()
        handle.kill()
        handle.kill()
        handle.stop()

    def test_call_after_stop_raises_reporting_error(self):
        handle = self.make_handle()
        handle.stop()
        with pytest.raises(ReportingError):
            handle.call(lambda s: s.queue_depth())

    def test_concurrent_stops_from_threads(self):
        handle = self.make_handle()
        errors = []

        def stopper():
            try:
                handle.stop()
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=stopper) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(20)
        assert errors == []

    def test_in_flight_call_during_kill_raises_not_hangs(self):
        handle = self.make_handle()
        started = threading.Event()
        outcome = {}

        def slow(server):
            started.set()
            time.sleep(1.0)
            return "done"

        def caller():
            try:
                outcome["result"] = handle.call(slow, timeout=30)
            except ReportingError as exc:
                outcome["error"] = exc

        thread = threading.Thread(target=caller)
        thread.start()
        assert started.wait(10)
        handle.kill()
        thread.join(30)
        assert not thread.is_alive()
        # Either the call squeaked through before the loop died or it
        # surfaced as a clean ReportingError -- never a hang or crash.
        assert "result" in outcome or "error" in outcome


# ---------------------------------------------------------------------------
# ReplicaFollower.wait_applied: condition variable, not a busy-poll
# ---------------------------------------------------------------------------


class TestWaitApplied:
    def test_wakes_promptly_on_apply(self, tmp_path, attest_key):
        cluster = Cluster(tmp_path)
        try:
            transport = TcpTransport([cluster.endpoint])
            woke = {}

            def waiter():
                woke["ok"] = cluster.follower.wait_applied(3, timeout=20)

            thread = threading.Thread(target=waiter)
            thread.start()
            for i in range(2):
                assert transport(make_signed(attest_key, i)) is SubmitStatus.ACCEPTED
            transport.close()
            thread.join(30)
            assert woke["ok"] is True
            assert cluster.follower.applied >= 3
        finally:
            cluster.shutdown()

    def test_timeout_returns_false(self, tmp_path):
        cluster = Cluster(tmp_path)
        try:
            started = time.monotonic()
            assert cluster.follower.wait_applied(10_000, timeout=0.2) is False
            assert time.monotonic() - started < 5.0
        finally:
            cluster.shutdown()

    def test_stop_wakes_waiters(self, tmp_path):
        cluster = Cluster(tmp_path)
        try:
            woke = {}

            def waiter():
                woke["ok"] = cluster.follower.wait_applied(10_000, timeout=30)

            thread = threading.Thread(target=waiter)
            thread.start()
            time.sleep(0.1)
            cluster.follower.stop()
            thread.join(10)
            assert not thread.is_alive(), "stop() left wait_applied hanging"
            assert woke["ok"] is False
        finally:
            cluster.shutdown()

    def test_heartbeats_do_not_count_as_applies(self, tmp_path):
        cluster = Cluster(tmp_path, heartbeat_interval=0.02)
        try:
            deadline = time.monotonic() + 20
            while cluster.follower.heartbeats < 3:
                assert time.monotonic() < deadline, "no heartbeats arrived"
                time.sleep(0.01)
            # Only the bootstrap snapshot counts; heartbeats are telemetry.
            assert cluster.follower.applied == 1
            health = cluster.follower.health()
            assert health.role == "follower"
        finally:
            cluster.shutdown()


# ---------------------------------------------------------------------------
# The chaos matrix and the supervised fleet, end to end
# ---------------------------------------------------------------------------


class TestFailoverChaosSmoke:
    def test_matrix_holds_and_replays(self, tmp_path):
        from repro.chaos import FailoverChaosConfig, run_failover_chaos

        config = FailoverChaosConfig(
            seed=23,
            reports=12,
            kill_offsets=(5,),
            scenarios=("sigkill", "partition", "stale_leader"),
            data_dir=str(tmp_path / "trials"),
        )
        report = run_failover_chaos(config)
        assert report.ok, report.violations
        assert len(report.trials) == 3
        for trial in report.trials:
            assert trial.epoch == 1
            assert trial.verdict == "takedown"
            assert trial.duplicates_after == trial.accepted_before
        assert run_failover_chaos(config).digest() == report.digest()
        # Pinned: a refactor of the matrix must not move a single bit.
        assert report.digest() == "596ad3d027e05830e1ab2c3e1204aeaecbb3c2b1"


class TestSupervisedFleet:
    def test_fleet_heals_itself_mid_run(self, tmp_path):
        model = OutcomeModel(
            report_rate=0.01, observed_key_hex=PIRATE,
            bad_experience_rate=0.05,
        )
        config = FleetConfig(
            devices=3000, batch_size=1000, shards=4, seed=11,
            target_reports=60, transport="tcp",
            data_dir=str(tmp_path / "leader"),
            replica_dir=str(tmp_path / "replica"),
            failover_after_batch=1, supervised=True,
        )
        result = run_fleet(APP, ORIGINAL, model, config)
        assert result.recoveries == 1
        assert result.failover_epoch == 1
        assert result.verdict.value == "takedown"
        assert result.statuses.get("accepted", 0) > 0

    def test_supervised_requires_failover_batch(self):
        model = OutcomeModel(
            report_rate=0.0, observed_key_hex="", bad_experience_rate=0.0
        )
        with pytest.raises(ReportingError, match="supervised"):
            run_fleet(
                APP, ORIGINAL, model,
                FleetConfig(devices=10, batch_size=10, supervised=True),
            )
