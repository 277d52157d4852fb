"""Workload ``protect``: one developer protects the eight named apps.

Closed loop, one client: for each app, ``BombDroid(config).protect(apk,
key, strict=True)`` and then ``repackage`` with a pirate key.  One op is
one app; a pass is all eight.  A ``VerificationError`` from the strict
gate is a failed op that carries its rule names -- the app is neither
dropped nor re-seeded.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass
from typing import Dict, List, Tuple

from common import Digest, Measurement, WorkDir, median

NAME = "protect"


@dataclass
class App:
    name: str
    apk: object
    key: object


@dataclass
class State:
    apps: List[App]
    config: object
    pirate_key: object
    #: name -> (protected apk, report) from the first pass, for checks.
    outputs: Dict[str, Tuple[object, object]]
    #: name -> rule names of the strict-gate failure.
    failures: Dict[str, List[str]]


def setup(seed: int, work: WorkDir) -> State:
    from repro import BombDroidConfig, build_named_app
    from repro.corpus import NAMED_APPS
    from repro.crypto import RSAKeyPair

    apps = []
    for spec in NAMED_APPS:
        bundle = build_named_app(spec.name)
        apps.append(App(spec.name, bundle.apk, bundle.developer_key))
    return State(
        apps=apps,
        config=BombDroidConfig(seed=seed),
        pirate_key=RSAKeyPair.generate(seed=seed * 7919 + 13),
        outputs={},
        failures={},
    )


def run_pass(state: State, m: Measurement) -> None:
    from repro import BombDroid, repackage
    from repro.apk.io import apk_to_bytes
    from repro.errors import VerificationError

    digest = Digest()
    for app in state.apps:
        m.attempted += 1
        start = time.perf_counter()
        try:
            result = BombDroid(state.config).protect(app.apk, app.key, strict=True)
        except VerificationError as exc:
            m.sample(f"app:{app.name}", time.perf_counter() - start)
            m.failed += 1
            rules = sorted({d.rule for d in exc.diagnostics})
            state.failures[app.name] = rules
            digest.add(app.name, "VerificationError", rules)
            continue
        pirated = repackage(result.apk, state.pirate_key)
        m.sample(f"app:{app.name}", time.perf_counter() - start)
        for stage, seconds in result.timings.items():
            m.count(f"core.stage.{stage}.s", seconds)
        m.count("core.bombs", len(result.report.bombs))
        m.count("core.protected")
        m.count("core.size_increase_sum_pct", 100.0 * result.report.size_increase)
        digest.add(
            app.name,
            hashlib.sha256(apk_to_bytes(result.apk)).hexdigest(),
            hashlib.sha256(apk_to_bytes(pirated)).hexdigest(),
        )
        state.outputs.setdefault(app.name, (result.apk, result.report))
    m.passes += 1
    m.same_digest(digest.hexdigest())


def check(state: State, m: Measurement) -> None:
    """Every app that passed the gate lints clean; failures name a rule."""
    from repro.lint import errors, run_lint

    for name, (apk, report) in state.outputs.items():
        found = errors(run_lint(apk.dex(), report=report))
        m.check(not found, f"{name}: {len(found)} lint errors after the strict gate")
    for name, rules in state.failures.items():
        m.check(bool(rules), f"{name}: VerificationError without a rule name")


def end_to_end(m: Measurement) -> Tuple[Dict[str, float], List[str]]:
    per_app = {
        name[len("app:"):]: median(values)
        for name, values in m.samples.items() if name.startswith("app:")
    }
    protect_s = sum(per_app.values())
    all_ops = [v for name, vs in m.samples.items() if name.startswith("app:") for v in vs]
    slowest = max(per_app, key=per_app.get)
    metrics = {
        "ops_per_s": len(per_app) / protect_s,
        "op_p50_ms": median(all_ops) * 1e3,
        "op_tail_ms": per_app[slowest] * 1e3,
        "pass_s": protect_s,
    }
    lines = [f"protect_s = {protect_s:.4f} s  (sum of per-app medians; "
             f"{len(all_ops)} ops over {m.passes} pass(es))"]
    for name, seconds in per_app.items():
        lines.append(f"  {name:<14} {seconds:.4f} s")
    lines.append(f"slowest app: {slowest}")
    return metrics, lines
