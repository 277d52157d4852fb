"""User-side simulation: the decentralized half of the scheme.

The defense's power comes from difference D1/D2: thousands of diverse
devices playing every corner of the app.  This package simulates that
population -- play sessions on sampled devices (Table 3's time-to-first
-trigger) -- and the app market of Section 4.2 (ratings, downloads,
takedowns, remote removal).  Developer reports reach a verdict through
one path: a :class:`repro.reporting.ReportClient` per device, signing
into a :class:`repro.reporting.ReportServer`, whose takedown candidates
:meth:`Market.process_server_takedowns` acts on.
"""

from repro.userside.simulation import (
    FirstTriggerStats,
    simulate_first_triggers,
    population_trigger_fraction,
)
from repro.userside.market import Market, Listing, InstallRecord

__all__ = [
    "FirstTriggerStats",
    "simulate_first_triggers",
    "population_trigger_fraction",
    "Market",
    "Listing",
    "InstallRecord",
]
