"""Golden observables of every play-session entry point.

Each test plays a small, seeded workload through one public entry point
and pins a SHA-1 over what it observed: bomb lifecycle counts, cost
units, clocks, crash and wasted-event counts, reports, detections,
attack verdicts.  Any change to how sessions boot, dispatch, restart
after a crash or collect results shows up here as a digest mismatch,
so refactors of the session machinery must leave every value below
untouched.
"""

from __future__ import annotations

import pytest

from repro.apk.io import save_apk
from repro.attacks import (
    AdaptiveStripperAttack,
    DebuggerAttack,
    DeletionAttack,
    FuzzingAttack,
    HumanAnalystAttack,
    InstrumentationAttack,
    VTableHijackAttack,
)
from repro.chaos.harness import ChaosConfig, run_chaos
from repro.cli import main
from repro.core import SSNConfig, SSNProtector
from repro.crypto import sha1_hex
from repro.userside import population_trigger_fraction, simulate_first_triggers
from repro.vm.device import DevicePopulation
from repro.vm.sessions import SessionEngine


def _canon(value):
    """A repr-stable form: dicts and sets sorted, sequences as tuples."""
    if isinstance(value, dict):
        return tuple(sorted((repr(k), _canon(v)) for k, v in value.items()))
    if isinstance(value, (set, frozenset)):
        return tuple(sorted(repr(item) for item in value))
    if isinstance(value, (list, tuple)):
        return tuple(_canon(item) for item in value)
    return value


def _digest(value) -> str:
    return sha1_hex(repr(_canon(value)).encode("utf-8"))


def _outcome_fields(outcome):
    return (
        outcome.index, outcome.seed, outcome.events, outcome.wasted,
        outcome.crashes, outcome.instructions, outcome.cost, outcome.reports,
        outcome.detections, outcome.alerts, outcome.bomb_counts, outcome.clock,
    )


def _attack_fields(result):
    return (
        result.attack, result.defeated_defense, result.bombs_found,
        result.bombs_disabled, result.bombs_exposed, result.app_corrupted,
        result.details, result.notes,
    )


@pytest.fixture(scope="module")
def real_bomb_ids(protection_report):
    return sorted(bomb.bomb_id for bomb in protection_report.real_bombs())


def test_session_engine_play(protected_apk, pirated_apk):
    observed = [
        _outcome_fields(outcome)
        for apk in (protected_apk, pirated_apk)
        for outcome in SessionEngine(apk, seed=2, events=120).play(3)
    ]
    assert _digest(observed) == "55a7bd1a422725867b23dce431ab1b2d42989357"


@pytest.mark.parametrize("fuzzer", ["monkey", "dynodroid"])
def test_fuzzing_attack_run_one(pirated_apk, real_bomb_ids, fuzzer):
    # A user-population device on which this pirated build crashes:
    # the restart path, the carried clock and (for monkey) wasted
    # events all feed the pinned values.
    attack = FuzzingAttack(
        duration_seconds=240.0, seed=1, device=DevicePopulation(seed=1).sample()
    )
    outcome = attack.run_one(pirated_apk, fuzzer, real_bomb_ids)
    observed = (
        outcome.fuzzer, outcome.outer_satisfied, outcome.fully_triggered,
        outcome.total_bombs, outcome.events_played, outcome.coverage,
        outcome.trigger_curve,
    )
    assert _digest(observed) == {
        "monkey": "492983b5d0ce7339d60fa2cbf8a0a708c46f7928",
        "dynodroid": "1b14dd4ef94bab984887987b36f8fdb03f5ea1c3",
    }[fuzzer]


def test_first_triggers_and_population_fraction(pirated_apk, real_bomb_ids):
    stats = simulate_first_triggers(
        pirated_apk, "Game", runs=4, timeout_seconds=600, population_seed=1
    )
    fraction = population_trigger_fraction(
        pirated_apk, set(real_bomb_ids), users=3, session_seconds=300,
        population_seed=1,
    )
    observed = (stats.times, stats.failures, fraction)
    assert _digest(observed) == "e003a7a8b5a3fe054f275a7610e3f4034ba71e6a"


def test_chaos_digest():
    report = run_chaos(ChaosConfig(
        seed=11, trials=3, events=200, scale=0.3, devices=2,
        profiling_events=200,
    ))
    assert {record.scenario for record in report.trials} == {
        "genuine", "pirated", "hostile",
    }
    assert report.digest() == "a14c439a1a2e886f96326e4745fd7813b6a854de"


def test_deletion_and_adaptive_strip(protected_apk, attacker_key, small_apk):
    deletion = DeletionAttack(differential_events=200, seed=4).run(
        protected_apk, attacker_key, original=small_apk
    )
    adaptive = AdaptiveStripperAttack(
        differential_events=200, seed=4, detection_sessions=2,
        detection_events=150,
    ).run(protected_apk, attacker_key, original=small_apk)
    observed = (_attack_fields(deletion), _attack_fields(adaptive))
    assert _digest(observed) == "204e9942621aada04866f92a0e19be533a06fd3b"


def test_dynamic_attacks(small_apk, protected_apk, pirated_apk, protection,
                         attacker_key, developer_key):
    key_hex = developer_key.public.fingerprint().hex()
    total = len(protection.report.real_bombs())
    ssn_apk, _ = SSNProtector(SSNConfig(seed=4)).protect(small_apk, developer_key)
    observed = (
        _attack_fields(InstrumentationAttack(seed=3).run_against_bombdroid(
            protected_apk, attacker_key, key_hex
        )),
        _attack_fields(InstrumentationAttack(seed=3).run_against_ssn(
            ssn_apk, attacker_key, key_hex
        )),
        _attack_fields(DebuggerAttack(seed=2, session_seconds=300).run(
            pirated_apk, total_bombs=total
        )),
        _attack_fields(HumanAnalystAttack(
            seed=3, total_hours=0.05, session_minutes=1.5
        ).run(pirated_apk, total_bombs=total)),
        _attack_fields(VTableHijackAttack(seed=5, sessions=2, events=300).run(
            protected_apk, protection.report
        )),
    )
    assert _digest(observed) == "2cbc96ac878a2b3c6c0b90d1f98e39687a921a06"


def test_cli_simulate_stdout(pirated_apk, tmp_path, capsys):
    path = str(tmp_path / "pirated.rapk")
    save_apk(pirated_apk, path)
    assert main([
        "simulate", "--in", path, "--devices", "3", "--events", "150",
        "--seed", "0",
    ]) == 0
    assert _digest(capsys.readouterr().out) == (
        "f54d9ff9e27307f4ea8f1b29fa6bd7b1d070037d"
    )
