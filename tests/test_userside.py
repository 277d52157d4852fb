"""User-side simulation, and device reports reaching a verdict."""

import math

import pytest

from repro.crypto import RSAKeyPair
from repro.reporting import (
    AggregatedVerdict,
    ReportClient,
    ReportServer,
    TakedownPolicy,
    format_report_text,
)
from repro.userside import FirstTriggerStats, Market, simulate_first_triggers
from repro.vm import DevicePopulation, PlaySession

ORIGINAL = "aa" * 20


@pytest.fixture(scope="module")
def attestation():
    return RSAKeyPair.generate(seed=41)


def make_server(original=ORIGINAL, threshold=3):
    """A developer backend that counts every report it ever accepts
    (device clocks are days apart, so freshness is unbounded)."""
    server = ReportServer(
        shards=2,
        max_report_age=math.inf,
        policy=TakedownPolicy(distinct_devices=threshold, window_seconds=math.inf),
    )
    server.register_app("Game", original)
    return server


def client_for(server, attestation, device_id, seed=0):
    return ReportClient(
        lambda signed: server.submit(signed), attestation, device_id, seed=seed
    )


def report_text(key, bomb="b001"):
    return format_report_text("Game", bomb) + key


def verdict_after(server):
    server.process()
    return server.verdict("Game")


class TestFirstTrigger:
    def test_pirated_app_triggers_quickly(self, pirated_apk):
        stats = simulate_first_triggers(
            pirated_apk, "Game", runs=6, timeout_seconds=1800, population_seed=3
        )
        assert stats.runs == 6
        assert len(stats.times) >= 4          # most users trigger a bomb
        assert stats.min_time < 600           # within minutes

    def test_stats_accessors(self):
        stats = FirstTriggerStats(app="X", times=[5.0, 15.0], failures=1)
        assert stats.min_time == 5.0
        assert stats.max_time == 15.0
        assert stats.avg_time == 10.0
        assert stats.success_ratio == "2/3"

    def test_session_restart_preserves_history(self, pirated_apk):
        device = DevicePopulation(seed=5).sample()
        session = PlaySession(
            pirated_apk.dex(), device, package=pirated_apk.install_view(),
            seed=5, restart=True,
        )
        first = session.runtime
        session.runtime.bombs.record("fake", "inner_met")
        session.reopen()
        assert session.runtime is not first
        assert "fake" in session.runtime.bombs.bombs_with("inner_met")


class TestAggregation:
    """Signed device reports through ``ReportClient -> ReportServer``."""

    def _send(self, server, attestation, *keys):
        """Each key is reported by its own device."""
        for index, key in enumerate(keys):
            client_for(server, attestation, f"dev-{index}").send_text(report_text(key))

    def test_clean_when_no_reports(self):
        verdict, key = verdict_after(make_server())
        assert verdict is AggregatedVerdict.CLEAN
        assert key == ""

    def test_reports_of_original_key_ignored(self, attestation):
        server = make_server(threshold=1)
        self._send(server, attestation, ORIGINAL)
        assert verdict_after(server)[0] is AggregatedVerdict.CLEAN

    def test_suspect_below_threshold(self, attestation):
        server = make_server()
        self._send(server, attestation, "bb" * 20)
        assert verdict_after(server) == (AggregatedVerdict.SUSPECT, "bb" * 20)

    def test_takedown_at_threshold(self, attestation):
        server = make_server()
        self._send(server, attestation, *["bb" * 20] * 3)
        assert verdict_after(server) == (AggregatedVerdict.TAKEDOWN, "bb" * 20)
        # Three reports from one session are one device's vote.
        server = make_server()
        client = client_for(server, attestation, "dev-0")
        for bomb in ("b001", "b002", "b003"):
            client.send_text(report_text("bb" * 20, bomb))
        assert server.metrics.counter("reporting.accepted").value == 3
        assert verdict_after(server) == (AggregatedVerdict.SUSPECT, "bb" * 20)

    def test_majority_key_wins(self, attestation):
        server = make_server()
        self._send(server, attestation, "cc" * 20, *["bb" * 20] * 4)
        assert verdict_after(server) == (AggregatedVerdict.TAKEDOWN, "bb" * 20)

    def test_tie_breaks_on_key_not_insertion_order(self, attestation):
        # Equal device counts: the lexicographically greatest fingerprint
        # wins, whichever order the reports arrived in.
        for first, second in (("bb" * 20, "cc" * 20), ("cc" * 20, "bb" * 20)):
            server = make_server()
            self._send(server, attestation, first, second)
            assert verdict_after(server)[1] == "cc" * 20

    def test_free_text_mentioning_key_equals_not_derailed(self, attestation):
        # Free text is a log line, not a report, even when it names a
        # fingerprint: nothing is sent and the verdict stays CLEAN.
        server = make_server(threshold=1)
        client = client_for(server, attestation, "dev-0")
        status = client.send_text(
            f"user note: my api key=deadbeef and then key={'bb' * 20} showed up"
        )
        assert status is None
        assert server.metrics.counter("reporting.received").value == 0
        assert verdict_after(server)[0] is AggregatedVerdict.CLEAN

    def test_free_text_without_fingerprint_is_noise(self, attestation):
        server = make_server(threshold=1)
        client_for(server, attestation, "dev-0").send_text("crash log: cache key=beef expired")
        assert verdict_after(server)[0] is AggregatedVerdict.CLEAN

    def test_structured_wire_prefix_parses(self, attestation):
        server = make_server()
        for i in range(3):
            client = client_for(server, attestation, f"dev-{i}")
            client.send_text(f"repackaged:v1:app=Game:bomb=b{i}:key={'dd' * 20}")
        assert verdict_after(server) == (AggregatedVerdict.TAKEDOWN, "dd" * 20)

    def test_ratings_drop_with_bad_experience(self, pirated_apk):
        market = Market(seed=1)
        listing = market.publish("Game", pirated_apk)
        population = DevicePopulation(seed=5)
        hit = PlaySession(
            pirated_apk.dex(), population.sample(),
            package=pirated_apk.install_view(), seed=1,
        )
        hit.runtime.detections.append("b001")  # a session that hit a bomb
        clean = PlaySession(
            pirated_apk.dex(), population.sample(),
            package=pirated_apk.install_view(), seed=2,
        )
        for outcome in (hit.outcome(), clean.outcome()):
            market.rate(listing, 1 if outcome.bad_experience else 5)
        assert listing.rating_count == 2
        assert listing.average_rating == 3.0

    def test_end_to_end_aggregation(
        self, pirated_apk, attacker_key, developer_key, attestation
    ):
        """Diverse users play the pirated app; REPORT responses flow to
        the developer, who reaches a takedown verdict naming the
        attacker's key."""
        from repro.fuzzing import DynodroidGenerator

        server = make_server(developer_key.public.fingerprint().hex(), threshold=2)
        market = Market(seed=9)
        listing = market.publish("Game", pirated_apk)
        population = DevicePopulation(seed=9)
        any_detection = False
        for index in range(10):
            device = population.sample()
            outcome = PlaySession(
                pirated_apk.dex(), device, package=pirated_apk.install_view(),
                seed=index,
                report_client=client_for(server, attestation, device.label, index),
            ).play(DynodroidGenerator(pirated_apk.dex(), seed=index).stream(400))
            any_detection = any_detection or bool(outcome.detections)
            market.rate(listing, 1 if outcome.bad_experience else 5)
        verdict, key = verdict_after(server)
        if verdict is not AggregatedVerdict.CLEAN:
            # Reports can only ever name the attacker's key.
            assert key == attacker_key.public.fingerprint().hex()
        if any_detection:
            assert listing.average_rating < 5.0
