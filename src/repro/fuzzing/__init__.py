"""Event-stream fuzzers: Monkey, PUMA, AndroidHooker, Dynodroid.

These serve two masters, exactly as in the paper:

* BombDroid itself uses a Dynodroid-style driver for hot-method and
  field-entropy profiling (Section 7.1);
* the attacker uses all four as blackbox-fuzzing attacks (Table 4,
  Figure 5).

Each generator produces :class:`repro.vm.events.Event` streams with a
distinct selection strategy; :class:`FuzzSession` plays a stream
against an installed app for a simulated duration, restarting on
crashes, and reports coverage plus bomb statistics.
"""

from repro.fuzzing.generators import (
    EventGenerator,
    MonkeyGenerator,
    PumaGenerator,
    AndroidHookerGenerator,
    DynodroidGenerator,
    GENERATORS,
)
from repro.fuzzing.session import FuzzSession

__all__ = [
    "EventGenerator",
    "MonkeyGenerator",
    "PumaGenerator",
    "AndroidHookerGenerator",
    "DynodroidGenerator",
    "GENERATORS",
    "FuzzSession",
]
