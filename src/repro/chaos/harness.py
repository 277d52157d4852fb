"""The ``repro chaos`` driver: a seeded fault matrix over the pipeline.

One :func:`run_chaos` call builds an app, protects it, repackages it,
and then plays both builds under a rotating fault matrix, checking the
containment invariants after every trial:

``genuine``   the *transparency* scenario: the genuine protected app
              plays with faults armed on the bomb path (KDF, AES,
              deserialize, classload, payload budget).  The host's
              observable output must equal the unprotected run -- or
              differ only because a *woven* bomb's body was lost to a
              contained failure (``payload_error``/``payload_skipped``
              recorded); and a genuine app must never detect.
``pirated``   the *detection* scenario: the repackaged app plays with
              faults on report transport and the client spool.  Intact
              bombs must still detect (matching the fault-free
              baseline), the server must never double-count a
              (device, nonce), a resubmitted accepted report must come
              back DUPLICATE, and the spool must drain once the faults
              clear.
``hostile``   the *hostile framework* scenario: random framework
              syscall failures and clock skew.  Whatever breaks, only
              the library's own error taxonomy may escape the VM.

Every trial runs under one :class:`~repro.chaos.faults.FaultPlan`
derived from ``(seed, trial)``; the report's
:meth:`~repro.chaos.matrix.MatrixReport.digest` is a pure function of
the seed, so re-running the same seed must reproduce it bit for bit
(``verify_replay``).
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Optional, Tuple

from repro.chaos.faults import FaultPlan, active_plan
from repro.chaos.matrix import MatrixReport
from repro.core import BombDroid, BombDroidConfig
from repro.corpus import build_app
from repro.crypto import RSAKeyPair
from repro.errors import TransportError
from repro.fuzzing.generators import DynodroidGenerator
from repro.repack import repackage
from repro.reporting.client import ReportClient
from repro.reporting.server import ReportServer, SubmitStatus
from repro.vm.containment import ContainmentPolicy
from repro.vm.device import DevicePopulation
from repro.vm.sessions import PlayOutcome, PlaySession

SCENARIOS = ("genuine", "pirated", "hostile")

_APP_NAME = "ChaosApp"
_CATEGORY = "Game"
#: Consecutive payload failures before containment quarantines a bomb.
_BREAKER_K = 3
_ALPHA = 0.3

#: Fault sites on the bomb-firing path (transparency scenario), with the
#: injector mode each one gets.
_BOMB_PATH_FAULTS: Tuple[Tuple[str, str, int], ...] = (
    ("crypto.kdf.derive", "raise", 1),
    ("crypto.aes.decrypt", "flip", 3),
    ("crypto.aes.decrypt", "truncate", 1),
    ("dex.deserialize", "flip", 2),
    ("dex.deserialize", "truncate", 1),
    ("vm.classload", "raise", 1),
    ("vm.budget", "clamp", 40),
)


@dataclass
class ChaosConfig:
    """Shape of one chaos run."""

    seed: int = 7
    trials: int = 25
    scale: float = 0.4
    events: int = 600
    devices: int = 2            # distinct pirate devices rotated across trials
    strict: bool = False        # ContainmentPolicy.strict (debugging)
    profiling_events: int = 300
    mesh: bool = False          # protect with the bomb mesh armed


@dataclass
class TrialRecord:
    """What one trial did and found."""

    trial: int
    scenario: str
    armed: Tuple[str, ...]
    fault_fires: int
    fault_log: Tuple
    crashes: int
    errors: Tuple[str, ...]
    payload_errors: int
    quarantines: int
    detected: bool
    accepted: int
    degraded: bool
    violations: Tuple[str, ...]


def _summary_lines(report: MatrixReport) -> List[str]:
    trials = report.trials
    return [
        f"faults fired: {sum(r.fault_fires for r in trials)}",
        f"bombs injected: {report.header['bombs_injected']}; baseline "
        "transparency: "
        + ("OK" if report.header["baseline_transparent"] else "VIOLATED"),
        f"contained payload errors: "
        f"{sum(r.payload_errors for r in trials)}; quarantines: "
        f"{sum(r.quarantines for r in trials)}; degraded trials: "
        f"{sum(1 for r in trials if r.degraded)}",
    ]


def _check_non_taxonomy(violations: List[str], prefix: str, session) -> None:
    non_taxonomy = [e for e in session.errors if e.startswith("NON_TAXONOMY")]
    if non_taxonomy:
        violations.append(
            f"{prefix} non-taxonomy error escaped the VM: {non_taxonomy}"
        )


def _check_undetected(violations: List[str], prefix: str, session) -> None:
    if session.detections:
        violations.append(f"{prefix} genuine app detected repackaging")


def _record(
    trial: int, scenario: str, plan: FaultPlan, session: PlayOutcome,
    violations: List[str], **overrides,
) -> TrialRecord:
    """A trial record from the plan and session; ``overrides`` carries
    the fields a scenario measures its own way."""
    observed = dict(
        armed=plan.armed_sites(),
        fault_fires=plan.fires(),
        fault_log=plan.log_signature(),
        crashes=len(session.errors),
        errors=tuple(session.errors),
        payload_errors=session.bombs.count("payload_error"),
        quarantines=session.bombs.count("quarantined"),
        detected=bool(session.detections),
        accepted=0,
        degraded=False,
    )
    observed.update(overrides)
    return TrialRecord(
        trial=trial, scenario=scenario, violations=tuple(violations),
        **observed,
    )


class ChaosRunner:
    """Owns the app corpus and baselines; runs one trial at a time."""

    def __init__(self, config: ChaosConfig) -> None:
        self.config = config
        bundle = build_app(
            _APP_NAME, category=_CATEGORY,
            seed=config.seed, scale=config.scale,
        )
        self.bundle = bundle
        protect_config = BombDroidConfig(
            seed=config.seed,
            profiling_events=config.profiling_events,
            alpha=_ALPHA,
            mesh=config.mesh,
        )
        self.protected, self.instrumentation = BombDroid(protect_config).protect(
            bundle.apk, bundle.developer_key
        )
        self.pirated = repackage(
            self.protected, RSAKeyPair.generate(seed=config.seed * 100 + 666)
        )
        self.original_key_hex = self.protected.cert.fingerprint_hex()
        self.woven_bombs = {
            bomb.bomb_id for bomb in self.instrumentation.bombs if bomb.woven
        }
        #: One fixed event script, generated from the original app (the
        #: handlers survive protection/repackaging), reused by every run
        #: so outputs are comparable.
        self.events = list(
            DynodroidGenerator(bundle.dex, seed=config.seed).stream(config.events)
        )
        self._pirated_baseline: Dict[int, bool] = {}

    # -- building blocks ----------------------------------------------------

    def _device(self, index: int):
        """A fresh device with the deterministic profile for ``index``."""
        return DevicePopulation(seed=self.config.seed * 31 + index).sample()

    def _play(self, apk, device, client=None) -> PlayOutcome:
        """Boot and drive the fixed event script; crashes reopen the
        app.  An error outside the library's taxonomy is recorded as
        invariant material and also reopens the app."""
        session = PlaySession(
            apk.dex(), device, package=apk.install_view(),
            seed=self.config.seed, restart=True,
            report_client=client,
            containment=ContainmentPolicy(
                max_consecutive_failures=_BREAKER_K, strict=self.config.strict
            ),
        )
        for event in self.events:
            try:
                session.step(event)
            except Exception as exc:  # non-taxonomy: invariant material
                session.errors.append(f"NON_TAXONOMY:{type(exc).__name__}")
                session.reopen()
        return session.outcome()

    @staticmethod
    def _snapshot(session: PlayOutcome) -> tuple:
        return (session.logs, session.ui_effects, session.reports)

    @cached_property
    def unprotected_snapshot(self) -> tuple:
        return self._snapshot(self._play(self.bundle.apk, self._device(0)))

    def baseline_transparent(self) -> bool:
        """Fault-free transparency: protected == unprotected output."""
        session = self._play(self.protected, self._device(0))
        return (
            self._snapshot(session) == self.unprotected_snapshot
            and not session.errors
            and not session.detections
        )

    def pirated_detects_baseline(self, device_index: int) -> bool:
        if device_index not in self._pirated_baseline:
            session, *_ = self._pirated_run(device_index, plan=None)
            self._pirated_baseline[device_index] = (
                session.bombs.count("detected") > 0
            )
        return self._pirated_baseline[device_index]

    # -- scenarios ----------------------------------------------------------

    def run_trial(self, trial: int) -> TrialRecord:
        scenario = SCENARIOS[trial % len(SCENARIOS)]
        plan = self._plan_for(trial, scenario)
        if scenario == "genuine":
            return self._trial_genuine(trial, plan)
        if scenario == "pirated":
            return self._trial_pirated(trial, plan)
        return self._trial_hostile(trial, plan)

    def _plan_for(self, trial: int, scenario: str) -> FaultPlan:
        rng = random.Random(f"{self.config.seed}:plan:{trial}")
        plan = FaultPlan(seed=self.config.seed * 1000 + trial)
        if scenario == "genuine":
            for site, mode, magnitude in rng.sample(
                list(_BOMB_PATH_FAULTS), k=rng.randint(1, 3)
            ):
                plan.arm(
                    site, mode,
                    probability=rng.choice((0.5, 0.8, 1.0)),
                    magnitude=magnitude,
                )
        elif scenario == "pirated":
            plan.arm(
                "report.transport", "raise",
                probability=rng.choice((0.5, 0.8, 1.0)),
                exc=TransportError,
            )
            plan.arm("client.spool", "flip", probability=0.5, magnitude=2)
        else:  # hostile framework
            plan.arm("vm.framework", "raise", probability=0.02)
            plan.arm("vm.clock", "latency", probability=0.3, magnitude=5)
        return plan

    def _trial_genuine(self, trial: int, plan: FaultPlan) -> TrialRecord:
        violations: List[str] = []
        with active_plan(plan):
            session = self._play(self.protected, self._device(0))
        bombs = session.bombs
        degraded = self._snapshot(session) != self.unprotected_snapshot

        prefix = self._prefix(trial, "genuine")
        _check_non_taxonomy(violations, prefix, session)
        # Strict containment re-raises; crashes are the point there, so
        # only the taxonomy invariant applies.
        if not self.config.strict:
            if session.errors:
                violations.append(
                    f"{prefix} host crashed under contained faults: "
                    f"{session.errors}"
                )
            if degraded:
                woven_failed = any(
                    bomb_id in self.woven_bombs
                    and (
                        kinds.get("payload_error") or kinds.get("payload_skipped")
                    )
                    for bomb_id, kinds in bombs.counts.items()
                )
                if not woven_failed:
                    violations.append(
                        f"{prefix} host output changed without a woven "
                        "bomb failure (transparency broken)"
                    )
        _check_undetected(violations, prefix, session)
        if bombs.count("mesh_tripped"):
            violations.append(
                f"{prefix} mesh guard tripped on a genuine app (peers and "
                "pins are all intact; contained faults must not look like "
                "tampering)"
            )
        for bomb_id, kinds in bombs.counts.items():
            q = kinds.get("quarantined", 0)
            if q and kinds.get("payload_error", 0) < _BREAKER_K * q:
                violations.append(
                    f"{prefix} bomb {bomb_id} quarantined after fewer than "
                    f"{_BREAKER_K} consecutive failures"
                )
        return _record(
            trial, "genuine", plan, session, violations,
            payload_errors=(
                bombs.count("payload_error") + bombs.count("payload_skipped")
            ),
            degraded=degraded,
        )

    def _pirated_run(self, device_index: int, plan: Optional[FaultPlan]):
        """One pirated play session with a live report pipeline."""
        server = ReportServer(shards=2)
        server.register_app(self.bundle.name, self.original_key_hex)
        #: Acceptances per (device, nonce), in first-acceptance order.
        accepted_pairs: Counter = Counter()
        accepted_signed: List = []

        def transport(signed):
            status = server.submit(signed)
            if status is SubmitStatus.ACCEPTED:
                report = signed.report
                accepted_pairs[report.device_id, report.nonce] += 1
                accepted_signed.append(signed)
            return status

        client = ReportClient(
            transport,
            RSAKeyPair.generate(seed=self.config.seed * 100 + device_index),
            device_id=f"chaos-dev-{device_index}",
            seed=self.config.seed * 100 + device_index,
        )
        device = self._device(1 + device_index)
        if plan is None:
            session = self._play(self.pirated, device, client=client)
        else:
            with active_plan(plan):
                session = self._play(self.pirated, device, client=client)
                client.flush()  # exercise spool reads under fault
        return session, server, client, accepted_pairs, accepted_signed

    def _trial_pirated(self, trial: int, plan: FaultPlan) -> TrialRecord:
        violations: List[str] = []
        device_index = trial % self.config.devices
        session, server, client, accepted_pairs, accepted_signed = (
            self._pirated_run(device_index, plan)
        )
        prefix = self._prefix(trial, "pirated")

        detected = session.bombs.count("detected") > 0
        if self.pirated_detects_baseline(device_index) and not detected:
            violations.append(
                f"{prefix} intact bombs failed to detect under "
                "reporting-layer faults"
            )
        # The faults are gone now; the spool must drain completely.
        client.flush()
        if client.spooled:
            violations.append(
                f"{prefix} spool failed to recover: {client.spooled} stuck"
            )
        # No double counting: each (device, nonce) accepted at most once.
        double = {k: n for k, n in accepted_pairs.items() if n > 1}
        if double:
            violations.append(f"{prefix} server double-counted: {double}")
        if accepted_signed:
            status = server.submit(accepted_signed[0])
            if status is not SubmitStatus.DUPLICATE:
                violations.append(
                    f"{prefix} resubmitted report came back {status.value}, "
                    "expected duplicate"
                )
        _check_non_taxonomy(violations, prefix, session)
        return _record(
            trial, "pirated", plan, session, violations,
            detected=detected, accepted=len(accepted_pairs),
        )

    def _trial_hostile(self, trial: int, plan: FaultPlan) -> TrialRecord:
        violations: List[str] = []
        with active_plan(plan):
            session = self._play(self.protected, self._device(0))
        prefix = self._prefix(trial, "hostile")
        _check_non_taxonomy(violations, prefix, session)
        _check_undetected(violations, prefix, session)
        if session.bombs.count("mesh_tripped"):
            violations.append(
                f"{prefix} mesh guard tripped on a genuine app under a "
                "hostile framework"
            )
        return _record(trial, "hostile", plan, session, violations)

    def _prefix(self, trial: int, scenario: str) -> str:
        return f"[replay: --seed {self.config.seed}, trial {trial}, {scenario}]"

    # -- the whole matrix ---------------------------------------------------

    def run(self) -> MatrixReport:
        transparent = self.baseline_transparent()
        report = MatrixReport(
            "chaos", self.config.seed, _summary_lines,
            header={
                "baseline_transparent": transparent,
                "bombs_injected": len(self.instrumentation.bombs),
            },
        )
        if not transparent:
            report.violations.append(
                f"[replay: --seed {self.config.seed}, baseline] protected "
                "app output differs from unprotected with no faults armed"
            )
        for trial in range(self.config.trials):
            report.add(self.run_trial(trial))
        return report


def run_chaos(config: ChaosConfig) -> MatrixReport:
    """Build the corpus, run the matrix, return the report."""
    return ChaosRunner(config).run()
