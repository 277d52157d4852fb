"""Kill-and-recover chaos: crash the durable report server mid-ingest.

The ``repro chaos --crash-restart`` driver.  Where :mod:`.harness`
stresses the *device* side (bomb containment, spool recovery), this
module stresses the *backend's* durability story: a
:class:`~repro.reporting.server.ReportServer` journaling to a WAL is
killed at a seeded offset into a deterministic report stream, recovered
from disk, and driven to completion.  The invariants are exactly-once
semantics across the crash:

* the recovered run's final verdicts equal an uninterrupted in-memory
  run over the same stream -- byte-identical offender key included;
* every report acked ``ACCEPTED`` before the crash answers
  ``DUPLICATE`` when resubmitted after recovery (dedup state survived);
* the union of accepted ``(device, nonce)`` pairs across the crash
  equals the uninterrupted run's set -- nothing lost, nothing doubled;
* a takedown happens exactly once per pirated stream even when the
  crash lands after the transition (the journal replays it, the counter
  does not re-fire);
* a torn final WAL record (a partial append from the dying process) is
  detected, counted in ``recovery.torn_records``, and discarded without
  touching any acked report.

Every trial is a pure function of ``(seed, scenario, crash_offset)``,
so the report's digest replays bit for bit.

The signed stream, the double-sending submit and the exactly-once
checks are shared with the failover matrix (:mod:`.failover`).
"""

from __future__ import annotations

import itertools
import os
import random
import struct
from dataclasses import dataclass
from functools import cached_property
from typing import (
    Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple,
)

from repro.chaos.matrix import MatrixReport, run_in_trial_dirs
from repro.crypto import RSAKeyPair
from repro.reporting.server import ReportServer, SubmitStatus, TakedownPolicy
from repro.reporting.wire import DetectionReport, SignedReport, sign_report

#: The two stream flavours: genuine devices cite the developer's own
#: key (no takedown may ever fire); pirated devices cite a foreign key
#: (exactly one takedown must fire, crash or no crash).
CRASH_SCENARIOS = ("genuine", "pirated")

_APP = "CrashApp"
_ORIGINAL_KEY = "aa" * 20
_PIRATE_KEY = "bb" * 20

_POLICY = TakedownPolicy(distinct_devices=3, window_seconds=3600.0)
_SHARDS = 4
#: Every report ``i`` with ``i % _DUPLICATE_EVERY == 2`` is followed by a
#: deliberate client double-send of report ``i - 1``.
_DUPLICATE_EVERY = 5
#: Drain + verdict cadence during ingest.
_PROCESS_EVERY = 7


def signed_stream(
    label: str, key_seed: int, reports: int, observed_key_hex: str
) -> List[SignedReport]:
    """A fixed, pre-signed report stream: nonces drawn from ``label``,
    devices rotated so several reports share one device."""
    rng = random.Random(label)
    key = RSAKeyPair.generate(seed=key_seed)
    devices = max(3, reports // 3)
    return [
        sign_report(
            DetectionReport(
                app_name=_APP,
                bomb_id=f"b{i % 4:02d}",
                device_id=f"dev-{i % devices:04d}",
                observed_key_hex=observed_key_hex,
                timestamp=float(i),
                nonce=rng.getrandbits(32),
            ),
            key,
        )
        for i in range(reports)
    ]


def submit_with_double_send(
    submit: Callable[[SignedReport], SubmitStatus],
    stream: Sequence[SignedReport],
    i: int,
    accepted: Set[Tuple[str, int]],
    violations: List[str],
    prefix: str,
) -> None:
    """Submit ``stream[i]`` and record its ``(device, nonce)`` pair if
    accepted; on the double-send cadence resubmit ``stream[i - 1]``.
    Neither may ever be counted twice."""
    signed = stream[i]
    status = submit(signed)
    pair = (signed.report.device_id, signed.report.nonce)
    if status is SubmitStatus.ACCEPTED:
        if pair in accepted:
            violations.append(
                f"{prefix} (device, nonce) {pair} accepted twice"
            )
        accepted.add(pair)
    if i % _DUPLICATE_EVERY == 2:
        # A retrying client double-sends the previous report.
        if submit(stream[i - 1]) is SubmitStatus.ACCEPTED:
            violations.append(
                f"{prefix} double-send of report {i - 1} accepted"
            )


def resubmit_accepted(
    submit: Callable[[SignedReport], SubmitStatus],
    reports: Iterable[SignedReport],
    accepted: Set[Tuple[str, int]],
    violations: List[str],
    prefix: str,
    before: str,
    after: str,
) -> int:
    """Resubmit every report of ``reports`` whose ``(device, nonce)``
    was accepted ``before`` the failure; each must answer DUPLICATE
    ``after`` it, because the dedup window survived.  Returns how many
    did."""
    duplicates = 0
    for signed in reports:
        if (signed.report.device_id, signed.report.nonce) not in accepted:
            continue
        status = submit(signed)
        if status is SubmitStatus.DUPLICATE:
            duplicates += 1
        else:
            violations.append(
                f"{prefix} {before} accepted report "
                f"(device={signed.report.device_id}) came back "
                f"{status.value} {after}, expected duplicate"
            )
    return duplicates


def check_exactly_once(
    violations: List[str], prefix: str, across: str,
    observed: tuple, expected: tuple,
) -> None:
    """Compare ``(verdict, offender, accepted pairs, takedowns)`` after
    the ``across`` event (``crash``, ``failover``) with ``expected``, the
    uninterrupted run's."""
    verdict, offender, accepted, takedowns = observed
    want_verdict, want_offender, want_accepted, want_takedowns = expected
    if accepted != want_accepted:
        lost = len(want_accepted - accepted)
        extra = len(accepted - want_accepted)
        violations.append(
            f"{prefix} accepted set diverged from uninterrupted run "
            f"({lost} lost, {extra} extra)"
        )
    if (verdict, offender) != (want_verdict, want_offender):
        violations.append(
            f"{prefix} verdict {verdict.value}/{offender[:16]} differs "
            f"from uninterrupted run "
            f"{want_verdict.value}/{want_offender[:16]}"
        )
    if takedowns != want_takedowns:
        violations.append(
            f"{prefix} {takedowns} takedowns across the {across}, "
            f"expected exactly {want_takedowns}"
        )


@dataclass
class CrashRestartConfig:
    """Shape of one kill-and-recover run."""

    seed: int = 11
    reports: int = 48
    #: Stream offsets to crash at; empty derives three spread across the
    #: stream (early / middle / late) from ``reports``.
    crash_offsets: Tuple[int, ...] = ()
    snapshot_every: int = 16     # appends between snapshot compactions
    #: Parent directory for per-trial data dirs (None = a temp dir that
    #: is removed afterwards).
    data_dir: Optional[str] = None

    def offsets(self) -> Tuple[int, ...]:
        if self.crash_offsets:
            return tuple(self.crash_offsets)
        n = self.reports
        return tuple(sorted({max(1, n // 5), n // 2, max(1, n - 3)}))


@dataclass
class CrashTrialRecord:
    """What one kill-and-recover trial did and found."""

    scenario: str
    crash_offset: int
    accepted_before: int
    accepted_after: int
    wal_replayed: int
    torn_records: int
    snapshot_loaded: bool
    takedowns: int
    verdict: str
    offender: str
    violations: Tuple[str, ...]


def _summary_lines(report: MatrixReport) -> List[str]:
    trials = report.trials
    return [
        f"WAL records replayed: {sum(r.wal_replayed for r in trials)}; "
        f"torn tails recovered: {sum(r.torn_records for r in trials)}; "
        f"snapshot restores: {sum(1 for r in trials if r.snapshot_loaded)}",
    ]


class CrashRestartRunner:
    """Owns the deterministic streams; runs one trial at a time."""

    def __init__(self, config: CrashRestartConfig) -> None:
        self.config = config

    # -- deterministic inputs ----------------------------------------------

    @cached_property
    def streams(self) -> Dict[str, List[SignedReport]]:
        """The fixed, pre-signed report stream of each scenario."""
        seed = self.config.seed
        return {
            scenario: signed_stream(
                f"{seed}:{scenario}", seed * 77 + 1, self.config.reports,
                _PIRATE_KEY if scenario == "pirated" else _ORIGINAL_KEY,
            )
            for scenario in CRASH_SCENARIOS
        }

    def _make_server(self, data_dir: Optional[str] = None) -> ReportServer:
        server = ReportServer(
            shards=_SHARDS, policy=_POLICY,
            data_dir=data_dir, snapshot_every=self.config.snapshot_every,
        )
        server.register_app(_APP, _ORIGINAL_KEY)
        return server

    def _ingest(
        self,
        server: ReportServer,
        stream: Sequence[SignedReport],
        start: int,
        end: int,
        accepted: Set[Tuple[str, int]],
        violations: List[str],
        prefix: str,
    ) -> None:
        """Drive ``stream[start:end]`` with the fixed duplicate/process
        cadence, recording accepted ``(device, nonce)`` pairs."""
        for i in range(start, end):
            submit_with_double_send(
                server.submit, stream, i, accepted, violations, prefix
            )
            if i % _PROCESS_EVERY == _PROCESS_EVERY - 1:
                server.process()
                server.verdict(_APP)
        server.process()

    @cached_property
    def baselines(self) -> Dict[str, tuple]:
        """Each scenario's uninterrupted in-memory run: (verdict,
        offender, accepted, violations)."""
        baselines = {}
        for scenario, stream in self.streams.items():
            server = self._make_server()
            accepted: Set[Tuple[str, int]] = set()
            scratch: List[str] = []
            self._ingest(
                server, stream, 0, self.config.reports,
                accepted, scratch, "[baseline]",
            )
            verdict, offender = server.verdict(_APP)
            baselines[scenario] = (
                verdict, offender, frozenset(accepted), tuple(scratch),
            )
        return baselines

    # -- one trial ----------------------------------------------------------

    def run_trial(
        self, scenario: str, crash_offset: int, data_dir: str
    ) -> CrashTrialRecord:
        config = self.config
        prefix = (
            f"[replay: --seed {config.seed}, {scenario}, "
            f"crash@{crash_offset}]"
        )
        violations: List[str] = []
        stream = self.streams[scenario]
        expected_verdict, expected_offender, expected_accepted, base_errs = (
            self.baselines[scenario]
        )
        violations.extend(base_errs)

        server = self._make_server(data_dir)
        accepted_before: Set[Tuple[str, int]] = set()
        self._ingest(
            server, stream, 0, crash_offset,
            accepted_before, violations, prefix,
        )
        takedowns_before = int(
            server.metrics.counter("reporting.takedowns").value
        )

        # -- kill: no compaction, no flush; WAL appends were unbuffered.
        server.crash()
        # The dying process got partway through an (unacked) append: a
        # plausible length, a bogus crc, a fraction of the payload.
        with open(os.path.join(data_dir, "wal-000.log"), "ab") as fh:
            fh.write(struct.pack(">II", 64, 0xDEADBEEF) + b"\x00" * 10)

        recovered = ReportServer.recover(
            data_dir, shards=_SHARDS, policy=_POLICY,
            snapshot_every=config.snapshot_every,
        )
        torn = int(recovered.metrics.counter("recovery.torn_records").value)
        if torn != 1:
            violations.append(
                f"{prefix} recovery counted {torn} torn records, expected 1"
            )
        wal_replayed = int(recovered.metrics.counter("wal.replayed").value)
        snapshot_loaded = (
            recovered.metrics.counter("snapshot.loads").value > 0
        )

        # Exactly-once across the crash: every pre-crash accepted report
        # must be a DUPLICATE now -- the dedup window survived the kill.
        recovered.process()
        resubmit_accepted(
            recovered.submit, stream[:crash_offset], accepted_before,
            violations, prefix, "pre-crash", "after recovery",
        )

        accepted_after: Set[Tuple[str, int]] = set()
        self._ingest(
            recovered, stream, crash_offset, config.reports,
            accepted_after, violations, prefix,
        )
        doubled = accepted_before & accepted_after
        if doubled:
            violations.append(
                f"{prefix} {len(doubled)} reports accepted on both sides "
                f"of the crash"
            )
        verdict, offender = recovered.verdict(_APP)
        takedowns = takedowns_before + int(
            recovered.metrics.counter("reporting.takedowns").value
        )
        check_exactly_once(
            violations, prefix, "crash",
            (verdict, offender, accepted_before | accepted_after, takedowns),
            (
                expected_verdict, expected_offender, expected_accepted,
                1 if scenario == "pirated" else 0,
            ),
        )
        recovered.close()

        return CrashTrialRecord(
            scenario=scenario,
            crash_offset=crash_offset,
            accepted_before=len(accepted_before),
            accepted_after=len(accepted_after),
            wal_replayed=wal_replayed,
            torn_records=torn,
            snapshot_loaded=snapshot_loaded,
            takedowns=takedowns,
            verdict=verdict.value,
            offender=offender,
            violations=tuple(violations),
        )

    # -- the whole matrix ---------------------------------------------------

    def run(self) -> MatrixReport:
        config = self.config
        return run_in_trial_dirs(
            MatrixReport("crash-restart", config.seed, _summary_lines),
            config.data_dir, "repro-crash-",
            itertools.product(CRASH_SCENARIOS, config.offsets()),
            self.run_trial,
        )


def run_crash_restart(config: CrashRestartConfig) -> MatrixReport:
    """Run the kill-and-recover matrix, return the report."""
    return CrashRestartRunner(config).run()
