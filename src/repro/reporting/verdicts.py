"""The developer's aggregated decision states.

:meth:`repro.reporting.ReportServer.verdict` is the one producer; the
enum lives in its own module so the market and the fleet driver can
name the states without importing the server.
"""

from __future__ import annotations

import enum


class AggregatedVerdict(enum.Enum):
    CLEAN = "clean"
    SUSPECT = "suspect"          # a few reports; below action threshold
    TAKEDOWN = "takedown"        # enough evidence for a market request
