"""The market model: ratings gate downloads, takedowns propagate."""

import pytest

from repro.crypto import RSAKeyPair
from repro.reporting import (
    AggregatedVerdict,
    DetectionReport,
    ReportServer,
    TakedownPolicy,
    sign_report,
)
from repro.userside import Market


@pytest.fixture()
def market():
    return Market(seed=5)


@pytest.fixture(scope="module")
def attestation():
    return RSAKeyPair.generate(seed=41)


def server_with_reports(developer_key, attestation, threshold, keys):
    """A developer backend holding one signed report per key, each from
    its own device."""
    server = ReportServer(shards=2, policy=TakedownPolicy(distinct_devices=threshold))
    server.register_app("Game", developer_key.public.fingerprint().hex())
    for index, key in enumerate(keys):
        report = DetectionReport(
            app_name="Game", bomb_id=f"b{index:03d}", device_id=f"d{index}",
            observed_key_hex=key, nonce=index,
        )
        server.submit(sign_report(report, attestation))
    server.process()
    return server


def test_publish_and_download(market, small_apk):
    listing = market.publish("Game", small_apk)
    installs = sum(
        1 for i in range(60) if market.download(f"user-{i}", listing) is not None
    )
    # Neutral 3-star default: roughly half the visitors install.
    assert 15 <= installs <= 55
    assert listing.downloads == installs


def test_bad_ratings_depress_downloads(market, small_apk, pirated_apk):
    good = market.publish("Game", small_apk)
    bad = market.publish("Game (free!)", pirated_apk)
    for _ in range(30):
        market.rate(good, 5)
        market.rate(bad, 1)
    good_installs = sum(
        1 for i in range(100) if market.download(f"g{i}", good) is not None
    )
    bad_installs = sum(
        1 for i in range(100) if market.download(f"b{i}", bad) is not None
    )
    assert good_installs > bad_installs * 2


def test_rating_bounds(market, small_apk):
    listing = market.publish("Game", small_apk)
    with pytest.raises(ValueError):
        market.rate(listing, 6)


def test_takedown_removes_remotely(
    market, small_apk, pirated_apk, attacker_key, developer_key, attestation
):
    pirated_listing = market.publish("Game (free!)", pirated_apk)
    for index in range(40):
        market.download(f"victim-{index}", pirated_listing)
    installed_before = market.active_installs(pirated_listing)
    assert installed_before > 0

    offender = attacker_key.public.fingerprint().hex()
    server = server_with_reports(developer_key, attestation, 2, [offender] * 2)
    assert server.verdict("Game") == (AggregatedVerdict.TAKEDOWN, offender)

    pulled = market.process_server_takedowns(server)
    assert pulled == [pirated_listing]
    assert pirated_listing.taken_down
    # Remote Application Removal: every install wiped.
    assert market.active_installs(pirated_listing) == 0
    # And nobody can download it anymore.
    assert market.download("late-user", pirated_listing) is None


def test_takedown_needs_matching_listing(market, small_apk, developer_key, attestation):
    server = server_with_reports(developer_key, attestation, 1, ["cc" * 20])
    assert server.verdict("Game")[0] is AggregatedVerdict.TAKEDOWN
    assert market.process_server_takedowns(server) == []


def test_suspect_verdict_takes_no_action(
    market, pirated_apk, attacker_key, developer_key, attestation
):
    listing = market.publish("Game (free!)", pirated_apk)
    offender = attacker_key.public.fingerprint().hex()
    server = server_with_reports(developer_key, attestation, 5, [offender])
    assert server.verdict("Game")[0] is AggregatedVerdict.SUSPECT
    assert market.process_server_takedowns(server) == []
    assert not listing.taken_down


def test_summary_readable(market, small_apk):
    market.publish("Game", small_apk)
    assert "downloads" in market.summary()


def test_downloads_reproducible_with_explicit_rng(small_apk):
    import random

    def run(seed):
        market = Market(seed=999)  # market's own seed must not matter
        listing = market.publish("Game", small_apk)
        rng = random.Random(seed)
        per_record = [
            market.download(f"u{i}", listing, rng=rng) is not None
            for i in range(20)
        ]
        bulk = market.download_batch(listing, 1_000, rng=rng)
        return per_record, bulk

    assert run(7) == run(7)
    assert run(7) != run(8)


def test_download_batch_counts_and_gates(market, small_apk):
    import random

    listing = market.publish("Game", small_apk)
    installed = market.download_batch(listing, 10_000, rng=random.Random(1))
    # Neutral 3-star rating: ~55% proceed.
    assert 4_500 <= installed <= 6_500
    assert listing.downloads == installed
    assert market.active_installs(listing) == installed
    listing.taken_down = True
    assert market.download_batch(listing, 100, rng=random.Random(1)) == 0


def test_rate_batch_matches_individual_ratings(market, small_apk):
    listing = market.publish("Game", small_apk)
    market.rate_batch(listing, 1, 30)
    market.rate_batch(listing, 5, 10)
    assert listing.rating_count == 40
    assert listing.average_rating == pytest.approx(2.0)
    with pytest.raises(ValueError):
        market.rate_batch(listing, 9, 1)
    with pytest.raises(ValueError):
        market.rate_batch(listing, 3, -1)


def test_server_takedown_pulls_listing(
    market, pirated_apk, attacker_key, developer_key, attestation
):
    listing = market.publish("Game (free!)", pirated_apk)
    market.download_batch(listing, 500)
    offender = attacker_key.public.fingerprint().hex()
    server = server_with_reports(developer_key, attestation, 2, [offender] * 2)
    pulled = market.process_server_takedowns(server)
    assert pulled == [listing]
    assert listing.taken_down
    assert market.active_installs(listing) == 0  # bulk installs wiped too
