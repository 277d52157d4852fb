#!/usr/bin/env python3
"""Developer-side piracy investigation.

The paper's intro scenario: a dishonest developer unpacks your app,
swaps the author info, injects adware and resells it.  This example
shows the decentralized detection pipeline from the *honest developer's*
desk: users' devices detect the repackaging, each device signs its
REPORT and sends it to the developer's ``ReportServer``, and the
server's verdict -- enough *different* devices naming one foreign key
-- identifies the pirate's signing key, which the market acts on.

Run:  python examples/piracy_investigation.py
"""

import math

from repro import BombDroid, BombDroidConfig, build_named_app, repackage
from repro.core.config import DetectionMethod, ResponseKind
from repro.crypto import RSAKeyPair
from repro.fuzzing import DynodroidGenerator
from repro.repack import RepackOptions
from repro.reporting import AggregatedVerdict, ReportClient, ReportServer, TakedownPolicy
from repro.userside import Market
from repro.vm import DevicePopulation, PlaySession


def main() -> None:
    bundle = build_named_app("Calendar")
    config = BombDroidConfig(
        seed=11,
        profiling_events=1500,
        # Bias responses toward REPORT so evidence reaches the developer.
        responses=(ResponseKind.REPORT, ResponseKind.WARN, ResponseKind.CRASH),
        detection_methods=(DetectionMethod.PUBLIC_KEY, DetectionMethod.CODE_DIGEST),
    )
    protected, report = BombDroid(config).protect(bundle.apk, bundle.developer_key)
    print(f"shipped {bundle.name} with {report.total_injected} bombs")

    # Two different pirates repackage the app independently and list
    # their copies on the market.
    pirate_a = RSAKeyPair.generate(seed=901)
    pirate_b = RSAKeyPair.generate(seed=902)
    pirated_a = repackage(protected, pirate_a, RepackOptions(new_author="free-apps-4u"))
    pirated_b = repackage(protected, pirate_b, RepackOptions(new_author="apkmirror-clone"))
    market = Market(seed=5)
    listing_a = market.publish(f"{bundle.name} (free-apps-4u)", pirated_a)
    listing_b = market.publish(f"{bundle.name} (apkmirror-clone)", pirated_b)

    # The developer's backend.  Device clocks are independent simulated
    # clocks (days apart), so freshness and the window are unbounded: the
    # verdict depends only on which devices reported which key.
    server = ReportServer(
        shards=2,
        max_report_age=math.inf,
        policy=TakedownPolicy(distinct_devices=3, window_seconds=math.inf),
    )
    server.register_app(bundle.name, bundle.developer_key.public.fingerprint().hex())
    # Devices share a batch attestation key, as real devices do.
    attestation = RSAKeyPair.generate(seed=77)

    # Users download from different shady sources.
    population = DevicePopulation(seed=5)
    sessions = 0
    for index in range(16):
        pirated, listing = (pirated_a, listing_a) if index % 3 else (pirated_b, listing_b)
        device = population.sample()
        client = ReportClient(
            lambda signed: server.submit(signed), attestation, device.label, seed=index
        )
        outcome = PlaySession(
            pirated.dex(), device,
            package=pirated.install_view(), seed=index, report_client=client,
        ).play(DynodroidGenerator(pirated.dex(), seed=index).stream(700))
        market.rate(listing, 1 if outcome.bad_experience else 5)
        sessions += 1

    server.process()
    accepted = int(server.metrics.counter("reporting.accepted").value)
    received = int(server.metrics.counter("reporting.received").value)
    print(f"\nplayed {sessions} user sessions:")
    print(f"  store ratings: {listing_a.average_rating:.1f} (A), "
          f"{listing_b.average_rating:.1f} (B) / 5.0")
    print(f"  signed reports accepted: {accepted} of {received}")
    verdict, offender = server.verdict(bundle.name)
    print(f"  verdict: {verdict.value}")
    if verdict is AggregatedVerdict.TAKEDOWN:
        owner = "pirate A" if offender == pirate_a.public.fingerprint().hex() else "pirate B"
        print(f"  takedown request against key {offender[:20]}... ({owner})")
    for pulled in market.process_server_takedowns(server):
        print(f"  market pulled {pulled.app_name!r}")


if __name__ == "__main__":
    main()
