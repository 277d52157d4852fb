"""Kill-the-leader chaos: automatic failover under seeded failures.

The ``repro chaos --failover`` driver.  Where :mod:`.crash` kills a
*single* durable server and recovers it in place, this matrix kills (or
partitions) the **leader of a replicated cluster** mid-stream and lets
the :class:`~repro.reporting.net.supervisor.ClusterSupervisor` heal it
-- zero manual ``--promote`` anywhere.  Every trial runs real sockets:
an ingest :class:`ServiceHandle`, a WAL-shipping
:class:`ReplicaFollower`, a tick-driven supervisor, and
:class:`TcpTransport` clients that must re-route themselves.

Scenarios (all over the same pirated report stream):

``sigkill``           the leader dies outright (``kill()`` + ``crash()``)
``partition``         the leader *survives* but the supervisor's probes
                      are chaos-eaten (``net.heartbeat_loss``) -- the
                      promoted epoch must fence the live stale leader
``slow_link``         leader dies; clients drain through ``net.slow_link``
                      latency skew on the way to the new leader
``stale_leader``      partition, plus the first fence is dropped at the
                      old leader (``net.stale_leader``) -- the
                      supervisor must re-fence until it sticks
``supervisor_crash``  leader dies and the supervisor itself crashes
                      twice mid-tick (``net.supervisor_crash``),
                      resetting its suspicion -- failover still happens

Invariants, asserted per trial:

* exactly one **automatic** promotion (the trial never calls promote);
* the promoted epoch strictly exceeds the old leader's;
* every report acked before the kill answers ``DUPLICATE`` on the new
  leader (the dedup window survived the failover);
* the union of accepted ``(device, nonce)`` pairs across the failover
  equals an uninterrupted baseline -- nothing lost, nothing doubled;
* a fenced stale leader accepts **zero** post-promotion writes, and
  every client that reaches it is redirected (and lands) on the new
  leader within the same delivery attempt;
* the post-failover verdict (and offender key) is bit-equal to the
  uninterrupted baseline's, with exactly one takedown.

Timings are real (sockets, threads) and excluded from the replay
digest; every *count* in the digest is a pure function of the seed.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass
from functools import cached_property
from typing import List, Optional, Set, Tuple

from repro.chaos.crash import (
    _APP,
    _ORIGINAL_KEY,
    _PIRATE_KEY,
    _POLICY,
    check_exactly_once,
    resubmit_accepted,
    signed_stream,
    submit_with_double_send,
)
from repro.chaos.faults import FaultPlan, active_plan
from repro.chaos.matrix import MatrixReport, run_in_trial_dirs
from repro.reporting.net.replication import ReplicaFollower
from repro.reporting.net.service import ServiceHandle
from repro.reporting.net.supervisor import ClusterSupervisor
from repro.reporting.net.transport import TcpTransport
from repro.reporting.server import ReportServer, SubmitStatus
from repro.reporting.wire import SignedReport

FAILOVER_SCENARIOS = (
    "sigkill",
    "partition",
    "slow_link",
    "stale_leader",
    "supervisor_crash",
)

#: Scenarios whose old leader survives the failure (and must be fenced).
_LIVE_LEADER = ("partition", "stale_leader")

_SHARDS = 4
#: ``snapshot_every`` keeps compaction out of the counts.
_SERVER_KWARGS = dict(shards=_SHARDS, policy=_POLICY, snapshot_every=4096)
_MISS_THRESHOLD = 3
#: Hard cap on supervisor ticks per phase (a hung trial is a bug).
_MAX_TICKS = 64


@dataclass
class FailoverChaosConfig:
    """Shape of one kill-the-leader run."""

    seed: int = 17
    reports: int = 30
    #: Stream offsets to kill at; empty derives an early and a late one.
    kill_offsets: Tuple[int, ...] = ()
    scenarios: Tuple[str, ...] = FAILOVER_SCENARIOS
    #: Parent directory for per-trial data dirs (None = a temp dir that
    #: is removed afterwards).
    data_dir: Optional[str] = None

    def offsets(self) -> Tuple[int, ...]:
        if self.kill_offsets:
            return tuple(self.kill_offsets)
        n = self.reports
        return tuple(sorted({max(1, n // 3), max(2, n - 5)}))


@dataclass
class FailoverTrialRecord:
    """What one kill-the-leader trial did and found."""

    scenario: str
    kill_offset: int
    accepted_before: int
    accepted_after: int
    duplicates_after: int
    ticks_to_failover: int
    supervisor_crashes: int
    fences_sent: int
    fences_acked: int
    stale_not_leader: int
    redirects: int
    epoch: int
    takedowns: int
    verdict: str
    offender: str
    violations: Tuple[str, ...]


def _summary_lines(report: MatrixReport) -> List[str]:
    trials = report.trials
    promoted = sum(1 for r in trials if r.epoch >= 1)
    return [
        f"promotions: {promoted} automatic, 0 manual; epochs "
        f"reached: {sorted({r.epoch for r in trials})}",
        f"fences: {sum(r.fences_sent for r in trials)} sent, "
        f"{sum(r.fences_acked for r in trials)} acked; stale "
        f"leaders answered NOT_LEADER "
        f"{sum(r.stale_not_leader for r in trials)} time(s)",
    ]


def _count(handle: ServiceHandle, name: str) -> int:
    """A counter of the server ``handle`` serves, read on its loop."""
    return handle.call(lambda s: int(s.metrics.counter(name).value))


class FailoverChaosRunner:
    """Owns the deterministic stream; runs one cluster trial at a time."""

    def __init__(self, config: FailoverChaosConfig) -> None:
        self.config = config

    # -- deterministic inputs ----------------------------------------------

    @cached_property
    def stream(self) -> List[SignedReport]:
        """The fixed, pre-signed pirated report stream."""
        seed = self.config.seed
        return signed_stream(
            f"{seed}:failover", seed * 91 + 3, self.config.reports,
            _PIRATE_KEY,
        )

    @cached_property
    def baseline(self) -> tuple:
        """Uninterrupted in-memory run: (verdict, offender, accepted)."""
        server = ReportServer(**_SERVER_KWARGS)
        server.register_app(_APP, _ORIGINAL_KEY)
        accepted: Set[Tuple[str, int]] = set()
        for signed in self.stream:
            if server.submit(signed) is SubmitStatus.ACCEPTED:
                accepted.add((signed.report.device_id, signed.report.nonce))
        server.process()
        verdict, offender = server.verdict(_APP)
        return (verdict, offender, frozenset(accepted))

    # -- one trial ----------------------------------------------------------

    def _plan_for(self, scenario: str) -> FaultPlan:
        plan = FaultPlan(seed=self.config.seed)
        if scenario in _LIVE_LEADER:
            plan.arm("net.heartbeat_loss", "raise")
        if scenario == "stale_leader":
            plan.arm("net.stale_leader", "raise", max_fires=1)
        if scenario == "supervisor_crash":
            plan.arm("net.supervisor_crash", "raise", max_fires=2)
        if scenario == "slow_link":
            plan.arm("net.slow_link", "latency", magnitude=1)
        return plan

    def run_trial(
        self, scenario: str, kill_offset: int, trial_dir: str
    ) -> FailoverTrialRecord:
        config = self.config
        prefix = (
            f"[replay: --seed {config.seed}, {scenario}, kill@{kill_offset}]"
        )
        violations: List[str] = []
        stream = self.stream
        # The uninterrupted run's verdict, offender and accepted set,
        # and exactly one takedown.
        expected = (*self.baseline, 1)

        # -- the cluster: leader + warm-standby follower -------------------
        leader = ReportServer(
            data_dir=os.path.join(trial_dir, "leader"), **_SERVER_KWARGS
        )
        leader.register_app(_APP, _ORIGINAL_KEY)
        handle = ServiceHandle.start(
            leader, replication_port=0, heartbeat_interval=0.05
        )
        follower = ReplicaFollower(
            os.path.join(trial_dir, "replica"),
            handle.replication_address,
            expect_shards=_SHARDS,
        ).start()
        if not follower.wait_applied(1, timeout=10):
            violations.append(f"{prefix} follower never bootstrapped")

        # -- pre-kill traffic ----------------------------------------------
        leader_endpoint = handle.address  # survives the kill below
        transport = TcpTransport([leader_endpoint])
        accepted_before: Set[Tuple[str, int]] = set()
        for i in range(kill_offset):
            submit_with_double_send(
                transport, stream, i, accepted_before, violations, prefix
            )
        transport.close()
        # Catch-up barrier: the matrix asserts *lossless* failover, so
        # the follower must hold every acked record before the kill
        # (bootstrap snapshot counts as the first apply).
        if not follower.wait_applied(1 + len(accepted_before), timeout=10):
            violations.append(
                f"{prefix} follower never caught up to "
                f"{len(accepted_before)} acked records"
            )

        # -- the failure + the supervised recovery -------------------------
        leader_alive = scenario in _LIVE_LEADER
        if not leader_alive:
            handle.kill()
            leader.crash()
        supervisor = ClusterSupervisor(
            leader_endpoint,
            [follower],
            server_kwargs=_SERVER_KWARGS,
            miss_threshold=_MISS_THRESHOLD,
            probe_timeout=0.5,
        )
        plan = self._plan_for(scenario)
        ticks = 0
        with active_plan(plan):
            while supervisor.failovers == 0 and ticks < _MAX_TICKS:
                supervisor.tick()
                ticks += 1
            refence = 0
            while leader_alive and not supervisor.fenced and (
                refence < _MAX_TICKS
            ):
                supervisor.tick()
                refence += 1
        if supervisor.failovers != 1:
            violations.append(
                f"{prefix} no automatic promotion after {ticks} ticks"
            )
            record = FailoverTrialRecord(
                scenario=scenario, kill_offset=kill_offset,
                accepted_before=len(accepted_before), accepted_after=0,
                duplicates_after=0, ticks_to_failover=ticks,
                supervisor_crashes=supervisor.crashes,
                fences_sent=supervisor.fences_sent,
                fences_acked=supervisor.fences_acked,
                stale_not_leader=0, redirects=0, epoch=0, takedowns=0,
                verdict="none", offender="", violations=tuple(violations),
            )
            if leader_alive:
                handle.stop()
            return record
        promoted = supervisor.promoted_server
        promoted_handle = supervisor.promoted_handle
        if promoted.epoch <= leader.epoch:
            violations.append(
                f"{prefix} promoted epoch {promoted.epoch} does not exceed "
                f"the old leader's {leader.epoch}"
            )
        if leader_alive and not supervisor.fenced:
            violations.append(f"{prefix} live stale leader was never fenced")

        # -- exactly-once across the failover ------------------------------
        resend = TcpTransport([promoted_handle.address])
        duplicates_after = resubmit_accepted(
            resend, stream[:kill_offset], accepted_before,
            violations, prefix, "pre-kill", "on the new leader",
        )
        resend.close()

        # -- drain the rest; stale-leader scenarios drain *through* the
        # old endpoint so the NOT_LEADER redirect path carries real load.
        stale_accepted_floor = 0
        if leader_alive:
            stale_accepted_floor = _count(handle, "reporting.accepted")
            drain = TcpTransport([leader_endpoint])
        else:
            drain = TcpTransport([promoted_handle.address])
        accepted_after: Set[Tuple[str, int]] = set()
        for i in range(kill_offset, config.reports):
            signed = stream[i]
            status = drain(signed)
            pair = (signed.report.device_id, signed.report.nonce)
            if status is SubmitStatus.ACCEPTED:
                if pair in accepted_before or pair in accepted_after:
                    violations.append(
                        f"{prefix} (device, nonce) {pair} accepted twice "
                        f"across the failover"
                    )
                accepted_after.add(pair)
            else:
                violations.append(
                    f"{prefix} post-failover report {i} answered "
                    f"{status.value}, expected accepted"
                )
        redirects = drain.redirects
        drain.close()

        stale_not_leader = 0
        if leader_alive:
            stale_accepted = _count(handle, "reporting.accepted")
            if stale_accepted != stale_accepted_floor:
                violations.append(
                    f"{prefix} fenced stale leader accepted "
                    f"{stale_accepted - stale_accepted_floor} "
                    f"post-promotion write(s)"
                )
            stale_not_leader = _count(handle, "reporting.net.not_leader")
            if redirects < 1 or stale_not_leader < 1:
                violations.append(
                    f"{prefix} drain through the stale leader never hit "
                    f"the NOT_LEADER redirect path"
                )
            handle.stop()

        # -- convergence ----------------------------------------------------
        verdict, offender = promoted_handle.call(
            lambda s: (s.process(), s.verdict(_APP))[1]
        )
        takedowns = _count(promoted_handle, "reporting.takedowns")
        check_exactly_once(
            violations, prefix, "failover",
            (verdict, offender, accepted_before | accepted_after, takedowns),
            expected,
        )
        epoch = promoted.epoch
        supervisor.shutdown()
        promoted.close()

        return FailoverTrialRecord(
            scenario=scenario,
            kill_offset=kill_offset,
            accepted_before=len(accepted_before),
            accepted_after=len(accepted_after),
            duplicates_after=duplicates_after,
            ticks_to_failover=ticks,
            supervisor_crashes=supervisor.crashes,
            fences_sent=supervisor.fences_sent,
            fences_acked=supervisor.fences_acked,
            stale_not_leader=stale_not_leader,
            redirects=redirects,
            epoch=epoch,
            takedowns=takedowns,
            verdict=verdict.value,
            offender=offender,
            violations=tuple(violations),
        )

    # -- the whole matrix ---------------------------------------------------

    def run(self) -> MatrixReport:
        config = self.config
        return run_in_trial_dirs(
            MatrixReport("failover", config.seed, _summary_lines),
            config.data_dir, "repro-failover-",
            itertools.product(config.scenarios, config.offsets()),
            self.run_trial,
        )


def run_failover_chaos(config: FailoverChaosConfig) -> MatrixReport:
    """Run the kill-the-leader matrix, return the report."""
    return FailoverChaosRunner(config).run()
