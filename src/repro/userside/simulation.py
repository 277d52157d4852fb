"""User play sessions and the Table 3 experiment.

Each user is a :class:`~repro.vm.sessions.PlaySession` on one sampled
device playing the (repackaged) app, reopening it after every crash.
``simulate_first_triggers`` repeats the paper's
Section 8.2 protocol: play until the first bomb *fully* triggers
(outer + inner conditions), record the elapsed time, fifty runs per
app with varied device configurations, 60-minute timeout.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Set

from repro.apk.package import Apk
from repro.fuzzing.generators import DynodroidGenerator
from repro.vm.device import DevicePopulation
from repro.vm.sessions import PlaySession


def _user_session(apk: Apk, device, seed: int) -> PlaySession:
    """A user who reopens the app after every crash (state resets, the
    clock does not) -- how Section 8.2's testers measured time."""
    return PlaySession(
        apk.dex(), device, package=apk.install_view(), seed=seed, restart=True
    )


def _play_until_detection(
    session: PlaySession, timeout_seconds: float
) -> Optional[float]:
    """Play; return elapsed seconds at the first full bomb trigger
    (``inner_met``), or None on timeout.  A crash of a process that
    detected repackaging *was* the response and ends the run."""
    events = DynodroidGenerator(session.dex, seed=session.seed).events()
    while session.elapsed < timeout_seconds:
        if session.step(next(events)) is not None and session.outcome().detections:
            return session.elapsed
        if session.runtime.bombs.first_time_of("inner_met") is not None:
            return session.elapsed
    return None


@dataclass
class FirstTriggerStats:
    """Table 3 row: time to trigger the first bomb."""

    app: str
    times: List[float] = field(default_factory=list)
    failures: int = 0

    @property
    def runs(self) -> int:
        return len(self.times) + self.failures

    @property
    def min_time(self) -> float:
        return min(self.times) if self.times else float("nan")

    @property
    def max_time(self) -> float:
        return max(self.times) if self.times else float("nan")

    @property
    def avg_time(self) -> float:
        return sum(self.times) / len(self.times) if self.times else float("nan")

    @property
    def success_ratio(self) -> str:
        return f"{len(self.times)}/{self.runs}"


def simulate_first_triggers(
    apk: Apk,
    app_name: str,
    runs: int = 50,
    timeout_seconds: float = 3600.0,
    population_seed: int = 0,
) -> FirstTriggerStats:
    """The Section 8.2 protocol for one app."""
    population = DevicePopulation(seed=population_seed)
    stats = FirstTriggerStats(app=app_name)
    for run in range(runs):
        session = _user_session(
            apk, population.sample(), seed=population_seed * 1000 + run
        )
        elapsed = _play_until_detection(session, timeout_seconds)
        if elapsed is None:
            stats.failures += 1
        else:
            stats.times.append(elapsed)
    return stats


def population_trigger_fraction(
    apk: Apk,
    real_bomb_ids: Set[str],
    users: int = 30,
    session_seconds: float = 900.0,
    population_seed: int = 0,
) -> float:
    """Fraction of bombs triggered by a whole user population.

    Backs the Section 5 claim: "given a large number of diverse users
    ... most of the logic bombs will be triggered on the user side."
    """
    population = DevicePopulation(seed=population_seed)
    triggered: Set[str] = set()
    for user in range(users):
        session = _user_session(
            apk, population.sample(), seed=population_seed * 7000 + user
        )
        events = DynodroidGenerator(session.dex, seed=session.seed).events()
        while session.elapsed < session_seconds:
            session.step(next(events))
        triggered |= session.runtime.bombs.bombs_with("inner_met") & real_bomb_ids
    return len(triggered) / len(real_bomb_ids) if real_bomb_ids else 0.0
