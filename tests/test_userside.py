"""User-side simulation and aggregation."""

import pytest

from repro.userside import (
    AggregatedVerdict,
    DetectionAggregator,
    FirstTriggerStats,
    simulate_first_triggers,
)
from repro.vm import DevicePopulation, PlaySession, Runtime


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
    def _aggregator(self):
        return DetectionAggregator(
            app_name="Game", original_key_hex="aa" * 20, report_threshold=3
        )

    def test_clean_when_no_reports(self):
        verdict, key = self._aggregator().verdict()
        assert verdict is AggregatedVerdict.CLEAN

    def test_reports_of_original_key_ignored(self):
        agg = self._aggregator()
        agg.ingest_report(f"repackaged:Game:b001:key={'aa' * 20}")
        assert agg.verdict()[0] is AggregatedVerdict.CLEAN

    def test_suspect_below_threshold(self):
        agg = self._aggregator()
        agg.ingest_report(f"repackaged:Game:b001:key={'bb' * 20}")
        verdict, key = agg.verdict()
        assert verdict is AggregatedVerdict.SUSPECT
        assert key == "bb" * 20

    def test_takedown_at_threshold(self):
        agg = self._aggregator()
        for _ in range(3):
            agg.ingest_report(f"repackaged:Game:b001:key={'bb' * 20}")
        verdict, key = agg.verdict()
        assert verdict is AggregatedVerdict.TAKEDOWN
        assert key == "bb" * 20

    def test_majority_key_wins(self):
        agg = self._aggregator()
        agg.ingest_report(f"r:key={'cc' * 20}")
        for _ in range(4):
            agg.ingest_report(f"r:key={'bb' * 20}")
        assert agg.verdict()[1] == "bb" * 20

    def test_tie_breaks_on_key_not_insertion_order(self):
        # Equal counts: the lexicographically greatest fingerprint wins,
        # whichever order the reports arrived in.
        for first, second in (("bb" * 20, "cc" * 20), ("cc" * 20, "bb" * 20)):
            agg = self._aggregator()
            agg.ingest_report(f"r:key={first}")
            agg.ingest_report(f"r:key={second}")
            assert agg.verdict()[1] == "cc" * 20

    def test_free_text_mentioning_key_equals_not_derailed(self):
        # The old rsplit("key=", 1) would have extracted "deadbeef and"
        # from this and missed the real fingerprint entirely.
        agg = self._aggregator()
        agg.ingest_report(
            f"user note: my api key=deadbeef and then key={'bb' * 20} showed up"
        )
        verdict, key = agg.verdict()
        assert verdict is AggregatedVerdict.SUSPECT
        assert key == "bb" * 20

    def test_free_text_without_fingerprint_is_noise(self):
        agg = self._aggregator()
        agg.ingest_report("crash log: cache key=beef expired")
        assert agg.verdict()[0] is AggregatedVerdict.CLEAN

    def test_structured_wire_prefix_parses(self):
        agg = self._aggregator()
        for i in range(3):
            agg.ingest_report(f"repackaged:v1:app=Game:bomb=b{i}:key={'dd' * 20}")
        assert agg.verdict() == (AggregatedVerdict.TAKEDOWN, "dd" * 20)

    def test_ratings_drop_with_bad_experience(self, pirated_apk):
        agg = self._aggregator()
        runtime = Runtime(
            pirated_apk.dex(),
            package=pirated_apk.install_view(),
            seed=1,
        )
        runtime.detections.append("b001")  # a session that hit a bomb
        agg.ingest_session(runtime)
        clean_runtime = Runtime(
            pirated_apk.dex(), package=pirated_apk.install_view(), seed=2
        )
        agg.ingest_session(clean_runtime)
        assert agg.ratings == [1, 5]
        assert agg.average_rating == 3.0

    def test_end_to_end_aggregation(self, pirated_apk, attacker_key, developer_key):
        """Diverse users play the pirated app; REPORT responses flow to
        the developer, who reaches a takedown verdict naming the
        attacker's key."""
        from repro.errors import VMError
        from repro.fuzzing import DynodroidGenerator

        agg = DetectionAggregator(
            app_name="Game",
            original_key_hex=developer_key.public.fingerprint().hex(),
            report_threshold=2,
        )
        population = DevicePopulation(seed=9)
        any_detection = False
        for index in range(10):
            runtime = Runtime(
                pirated_apk.dex(),
                device=population.sample(),
                package=pirated_apk.install_view(),
                seed=index,
            )
            try:
                runtime.boot()
            except VMError:
                pass
            for event in DynodroidGenerator(pirated_apk.dex(), seed=index).stream(400):
                try:
                    runtime.dispatch(event)
                except VMError:
                    pass
            any_detection = any_detection or bool(runtime.detections)
            agg.ingest_session(runtime)
        verdict, key = agg.verdict()
        if verdict is not AggregatedVerdict.CLEAN:
            # Reports can only ever name the attacker's key.
            assert key == attacker_key.public.fingerprint().hex()
        if any_detection:
            assert agg.average_rating < 5.0
