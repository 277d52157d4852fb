"""Aggregating detection across the user base (Sections 1 and 4.2).

Individual detections become collective action through three channels:

* **ratings** -- crashes and warnings drive bad reviews, deterring
  further downloads;
* **developer reports** -- the REPORT response sends the repackaged
  app's key fingerprint home, letting the developer request a takedown;
* **remote removal** -- once a market pulls the app, the effect
  propagates to every device.

Since the ``repro.reporting`` subsystem exists, this module is a thin
compatibility adapter: :class:`DetectionAggregator` keeps the original
string-ingestion API (used by the small-scale examples and tests) but
parses reports with the structured wire parser and counts them through
a single-shard :class:`~repro.reporting.server.ReportServer` with an
infinite takedown window -- the same dedup/threshold machinery the
fleet-scale backend runs, minus the signature layer (this channel is
authenticated out of band).  For anything bigger than a handful of
sessions, use :class:`repro.reporting.ReportServer` directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Tuple

from repro.reporting.server import ReportServer, TakedownPolicy
from repro.reporting.verdicts import AggregatedVerdict
from repro.reporting.wire import parse_report_text

__all__ = ["AggregatedVerdict", "DetectionAggregator"]


@dataclass
class DetectionAggregator:
    """Developer-side collector of user-device reports.

    ``report_threshold`` reports naming the *same* foreign key
    fingerprint justify a takedown request; a single report can be a
    fluke (user with a tampered build), many identical ones cannot.
    """

    app_name: str
    original_key_hex: str
    report_threshold: int = 3

    reports: List[str] = field(default_factory=list)
    ratings: List[int] = field(default_factory=list)

    def __post_init__(self) -> None:
        # One logical shard, no time horizon: the legacy semantics are
        # "count reports forever", which is the degenerate case of the
        # sliding-window policy.
        self._server = ReportServer(
            shards=1,
            policy=TakedownPolicy(
                distinct_devices=self.report_threshold,
                window_seconds=math.inf,
            ),
        )
        self._server.register_app(self.app_name, self.original_key_hex)

    def ingest_report(self, report: str) -> None:
        """Parse one ``android.net.report`` message from a device.

        Structured ``repackaged:v1:`` messages are parsed field-wise;
        legacy free-form strings go through the tolerant path (free
        text containing ``key=`` no longer derails extraction).
        """
        self.reports.append(report)
        fields = parse_report_text(report)
        key = fields.get("key")
        if key and key.lower() != self.original_key_hex.lower():
            self._server.ingest_trusted(
                self.app_name,
                # The string channel carries no device identity; each
                # report votes as its own device, preserving the legacy
                # count-based threshold.
                device_id=f"legacy-{len(self.reports)}",
                observed_key_hex=key,
                bomb_id=fields.get("bomb", ""),
            )
            self._server.process()

    def ingest_session(self, runtime) -> None:
        """Pull reports and synthesize a rating from one user session
        (a :class:`~repro.vm.sessions.PlayOutcome` or a bare Runtime).

        A session that saw crashes/alerts rates the app 1-2 stars; a
        clean session rates 4-5.  (The paper: "the bad rating of a
        repackaged app due to the poor user experience will discourage
        other users".)
        """
        for report in runtime.reports:
            self.ingest_report(report)
        bad_experience = bool(runtime.detections) or any(
            kind == "alert" for kind, _ in runtime.ui_effects
        )
        self.ratings.append(1 if bad_experience else 5)

    @property
    def average_rating(self) -> float:
        return sum(self.ratings) / len(self.ratings) if self.ratings else 0.0

    def verdict(self) -> Tuple[AggregatedVerdict, str]:
        """The developer's decision and the offending key (if any).

        Deterministic: the key with the most reports wins; equal counts
        break toward the lexicographically greatest fingerprint (never
        dict insertion order).
        """
        return self._server.verdict(self.app_name)
