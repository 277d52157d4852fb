"""User-side simulation: the decentralized half of the scheme.

The defense's power comes from difference D1/D2: thousands of diverse
devices playing every corner of the app.  This package simulates that
population -- play sessions on sampled devices (Table 3's time-to-first
-trigger), and the aggregation channel (ratings, developer reports,
market takedown) of Section 4.2.
"""

from repro.userside.simulation import (
    FirstTriggerStats,
    simulate_first_triggers,
    population_trigger_fraction,
)
from repro.userside.aggregation import DetectionAggregator, AggregatedVerdict
from repro.userside.market import Market, Listing, InstallRecord

__all__ = [
    "FirstTriggerStats",
    "simulate_first_triggers",
    "population_trigger_fraction",
    "DetectionAggregator",
    "AggregatedVerdict",
    "Market",
    "Listing",
    "InstallRecord",
]
