"""The full paper story as one integration test per act."""

import math

import pytest

from repro import BombDroid, BombDroidConfig, build_named_app, repackage
from repro.attacks import FuzzingAttack, SymbolicAttack
from repro.crypto import RSAKeyPair
from repro.fuzzing import DynodroidGenerator
from repro.reporting import AggregatedVerdict, ReportClient, ReportServer, TakedownPolicy
from repro.vm import DevicePopulation, PlaySession, Runtime


@pytest.fixture(scope="module")
def story():
    """Build -> protect -> pirate, once for the whole module."""
    bundle = build_named_app("Angulo", scale=0.5)
    config = BombDroidConfig(seed=13, profiling_events=600)
    result = BombDroid(config).protect(bundle.apk, bundle.developer_key)
    attacker = RSAKeyPair.generate(seed=1313)
    pirated = repackage(result.apk, attacker)
    return bundle, result.apk, result.report, attacker, pirated


def test_act1_protection_preserves_the_app(story):
    bundle, protected, report, _, _ = story
    assert report.total_injected >= 5
    runtime = Runtime(protected.dex(), package=protected.install_view(), seed=2)
    runtime.boot()
    for event in DynodroidGenerator(protected.dex(), seed=2).stream(400):
        runtime.dispatch(event)
    assert not runtime.detections


def test_act1b_clean_and_protected_apps_lint_clean(story):
    from repro.lint import errors, format_report, run_lint

    bundle, protected, report, _, _ = story
    original = run_lint(bundle.apk.dex())
    assert not errors(original), format_report(original)
    diagnostics = run_lint(protected.dex(), report=report)
    assert not errors(diagnostics), format_report(diagnostics)


def test_act2_attacker_analysis_stalls(story):
    bundle, protected, report, _, _ = story
    symbolic = SymbolicAttack(max_paths=32, max_steps=1500).run(protected)
    assert not symbolic.defeated_defense
    assert symbolic.details["hash_walls"] > 0

    fuzz = FuzzingAttack(duration_seconds=600, seed=3)
    outcome = fuzz.run_one(
        protected, "dynodroid", [b.bomb_id for b in report.real_bombs()]
    )
    # Some outer conditions fire in the lab; full double triggers are rare.
    assert outcome.fully_triggered_rate < 0.5


def test_act3_users_catch_the_pirate(story):
    bundle, _, report, attacker, pirated = story
    # Device clocks are days apart: freshness and the window are unbounded.
    server = ReportServer(
        shards=2,
        max_report_age=math.inf,
        policy=TakedownPolicy(distinct_devices=1, window_seconds=math.inf),
    )
    server.register_app(bundle.name, bundle.developer_key.public.fingerprint().hex())
    attestation = RSAKeyPair.generate(seed=41)
    population = DevicePopulation(seed=4)
    detections = 0
    for index in range(8):
        device = population.sample()
        client = ReportClient(
            lambda signed: server.submit(signed), attestation, device.label, seed=index
        )
        outcome = PlaySession(
            pirated.dex(), device, package=pirated.install_view(),
            seed=index, report_client=client,
        ).play(DynodroidGenerator(pirated.dex(), seed=index).stream(1500))
        detections += bool(outcome.detections)
    assert detections >= 2
    server.process()
    verdict, key = server.verdict(bundle.name)
    if verdict is not AggregatedVerdict.CLEAN:
        assert key == attacker.public.fingerprint().hex()
