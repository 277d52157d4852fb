#!/usr/bin/env python3
"""Developer-side piracy investigation.

The paper's intro scenario: a dishonest developer unpacks your app,
swaps the author info, injects adware and resells it.  This example
shows the decentralized detection pipeline from the *honest developer's*
desk: users' devices detect the repackaging, REPORT responses flow
home, and the aggregated evidence identifies the pirate's signing key
-- the artifact you attach to a market takedown request.

Run:  python examples/piracy_investigation.py
"""

from repro import BombDroid, BombDroidConfig, build_named_app, repackage
from repro.core.config import DetectionMethod, ResponseKind
from repro.crypto import RSAKeyPair
from repro.fuzzing import DynodroidGenerator
from repro.repack import RepackOptions
from repro.userside import AggregatedVerdict, DetectionAggregator
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

    # Two different pirates repackage the app independently.
    pirate_a = RSAKeyPair.generate(seed=901)
    pirate_b = RSAKeyPair.generate(seed=902)
    pirated_a = repackage(protected, pirate_a, RepackOptions(new_author="free-apps-4u"))
    pirated_b = repackage(protected, pirate_b, RepackOptions(new_author="apkmirror-clone"))

    aggregator = DetectionAggregator(
        app_name=bundle.name,
        original_key_hex=bundle.developer_key.public.fingerprint().hex(),
        report_threshold=3,
    )

    # Users download from different shady sources.
    population = DevicePopulation(seed=5)
    sessions = 0
    for index in range(16):
        pirated = pirated_a if index % 3 else pirated_b
        outcome = PlaySession(
            pirated.dex(), population.sample(),
            package=pirated.install_view(), seed=index,
        ).play(DynodroidGenerator(pirated.dex(), seed=index).stream(700))
        aggregator.ingest_session(outcome)
        sessions += 1

    print(f"\naggregated {sessions} user sessions:")
    print(f"  store rating: {aggregator.average_rating:.1f} / 5.0")
    print(f"  reports received: {len(aggregator.reports)}")
    verdict, offender = aggregator.verdict()
    print(f"  verdict: {verdict.value}")
    if verdict is AggregatedVerdict.TAKEDOWN:
        owner = "pirate A" if offender == pirate_a.public.fingerprint().hex() else "pirate B"
        print(f"  takedown request against key {offender[:20]}... ({owner})")


if __name__ == "__main__":
    main()
