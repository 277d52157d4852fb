"""API-interception (vtable-hijack) attack and the code-scan counter.

Section 4.1: "it is indeed possible to intercept calls to getPublicKey
through vtable hijacking; scanning can be used to check the integrity
of the vtable or the function body."

The scenario: suppose the attacker ships a modification that makes the
identity APIs lie -- ``getPublicKey`` and the manifest digests return
the *original* developer's values.  (On non-jailbroken user devices the
paper's threat model rules this out; this attack explores the
hypothetical where it works.)  Public-key and digest bombs are then
blind.  Code-snippet-scanning bombs are not: they hash the loaded
method bodies, and the attacker's actual code edits (the adware they
inserted, the hooks themselves) still show.

``VTableHijackAttack`` tampers with a cleartext (hot) method, runs the
app under a *perfectly spoofed* package identity, and reports which
detection methods still fire.  Sessions are driven through
:class:`~repro.fuzzing.session.FuzzSession` (Dynodroid with coverage
feedback -- the attacker's best exerciser), and mesh content pins count
as a surviving channel: a meshed bomb that trips on the tampered hot
method defeats the hijack even though the identity APIs never blinked.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.apk.package import Apk
from repro.attacks.base import AttackResult
from repro.core.config import DetectionMethod
from repro.core.stats import InstrumentationReport
from repro.dex import instructions as ins
from repro.fuzzing.generators import DynodroidGenerator
from repro.fuzzing.session import FuzzSession
from repro.vm.device import DevicePopulation
from repro.vm.events import Event


class VTableHijackAttack:
    """Spoof the identity APIs, tamper with cleartext code, observe."""

    def __init__(self, seed: int = 0, sessions: int = 6, events: int = 600) -> None:
        self._seed = seed
        self._sessions = sessions
        self._events = events

    def run(
        self,
        protected: Apk,
        report: InstrumentationReport,
        tamper_method: Optional[str] = None,
    ) -> AttackResult:
        """Tamper with ``tamper_method`` (default: a hot method), spoof
        the package identity, and fuzz; returns which bombs still fired.
        """
        dex = protected.dex()
        target = tamper_method or (report.hot_methods[0] if report.hot_methods else None)
        if target is None:
            raise ValueError("no method available to tamper with")
        method = dex.get_method(target)
        # The attacker's edit: an exfiltration beacon in a hot path.
        patch_reg = method.grow_registers(1)
        method.instructions.insert(0, ins.invoke(None, "android.log.i", (patch_reg,)))
        method.instructions.insert(0, ins.const(patch_reg, "ad-sdk-init"))
        method.invalidate()
        method.validate()

        # Perfect identity spoof: the runtime's package view is the
        # ORIGINAL one -- getPublicKey and manifest digests answer as if
        # nothing happened.  Only the loaded code itself differs.
        spoofed_package = protected.install_view()

        detections: List[str] = []
        mesh_tripped: Set[str] = set()
        population = DevicePopulation(seed=self._seed)
        for index in range(self._sessions):
            session = FuzzSession(
                dex,
                DynodroidGenerator(dex, seed=self._seed * 100 + index),
                population.sample(),
                package=spoofed_package,
                seed=self._seed * 100 + index,
            )
            bombs = session.run_for(self._events * Event.DURATION).bombs
            detections.extend(sorted(bombs.bombs_with("detected")))
            mesh_tripped |= bombs.bombs_with("mesh_tripped")

        by_method: Dict[str, int] = {}
        for bomb_id in detections:
            try:
                bomb = report.bomb_by_id(bomb_id)
            except KeyError:
                continue
            key = bomb.detection.value if bomb.detection else "?"
            by_method[key] = by_method.get(key, 0) + 1

        scan_fired = by_method.get(DetectionMethod.CODE_SCAN.value, 0) > 0
        identity_fired = (
            by_method.get(DetectionMethod.PUBLIC_KEY.value, 0)
            + by_method.get(DetectionMethod.CODE_DIGEST.value, 0)
        ) > 0
        mesh_caught = bool(mesh_tripped)
        if scan_fired and mesh_caught:
            notes = (
                "code scanning and mesh content pins both caught the "
                "tamper despite a perfect identity spoof"
            )
        elif scan_fired:
            notes = (
                "code scanning detected the tamper despite a perfect "
                "identity spoof"
            )
        elif mesh_caught:
            notes = (
                "mesh content pins tripped on the tampered hot method "
                "despite a perfect identity spoof"
            )
        else:
            notes = "no scan bombs reached; identity spoof held"
        return AttackResult(
            attack="vtable_hijack",
            # The hijack succeeds only if NO detection channel survives
            # -- neither a detection proper nor a mesh content pin.
            defeated_defense=not detections and not mesh_caught,
            bombs_found=[],
            bombs_exposed=sorted(set(detections) | mesh_tripped),
            details={
                "tampered_method": target,
                "detections_by_method": by_method,
                "identity_spoof_held": not identity_fired,
                "code_scan_caught_it": scan_fired,
                "mesh_trips": len(mesh_tripped),
            },
            notes=notes,
        )
