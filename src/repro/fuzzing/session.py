"""Fuzzing sessions: play a generator against an installed app.

A fuzzing harness restarts the app after every crash (state is reset,
the clock is not) and judges by the union of everything any run
triggered -- the ``restart=True`` policy of
:class:`repro.vm.sessions.PlaySession`.  On top of it a
:class:`FuzzSession` feeds coverage back to the generator, samples the
fully-triggered-bomb curve, and measures instruction coverage.
"""

from __future__ import annotations

from typing import List, Optional

from repro.dex.model import DexFile
from repro.fuzzing.generators import EventGenerator
from repro.vm.device import DeviceProfile
from repro.vm.interpreter import CoverageTracer
from repro.vm.runtime import InstalledPackage
from repro.vm.sessions import PlayOutcome, PlaySession

#: Instructions each fuzzed event (and each boot) may interpret.
EVENT_BUDGET = 200_000


class FuzzSession:
    """Drives one app on one device with one generator."""

    def __init__(
        self,
        dex: DexFile,
        generator: EventGenerator,
        device: DeviceProfile,
        package: Optional[InstalledPackage] = None,
        seed: int = 0,
    ) -> None:
        self._dex = dex
        self._generator = generator
        self._coverage = CoverageTracer()
        self._session = PlaySession(
            dex, device, package=package, seed=seed, restart=True,
            default_budget=EVENT_BUDGET, tracers=[self._coverage],
        )
        #: fraction of the app's instructions executed (set by run_for)
        self.coverage = 0.0
        #: sampled (elapsed_seconds, cumulative_fully_triggered) curve
        self.trigger_curve: List[tuple] = []

    def run_for(
        self,
        duration_seconds: float,
        sample_every: float = 60.0,
        on_sample=None,
    ) -> PlayOutcome:
        """Inject events until ``duration_seconds`` of simulated time pass.

        ``on_sample(runtime, elapsed)`` is called every ``sample_every``
        simulated seconds -- the field-entropy profiler hooks in here.
        """
        session = self._session
        visited = self._coverage.visited
        next_sample = sample_every
        iterator = self._generator.events()
        while session.elapsed < duration_seconds:
            event = next(iterator)
            before = len(visited)
            session.step(event)
            self._generator.notify_coverage(event, len(visited) - before)
            elapsed = session.elapsed
            if elapsed >= next_sample:
                triggered = session.runtime.bombs.bombs_with("inner_met")
                self.trigger_curve.append((elapsed, len(triggered)))
                if on_sample is not None:
                    on_sample(session.runtime, elapsed)
                next_sample += sample_every
        self.coverage = self._coverage.instruction_coverage_of(self._dex)
        return session.outcome()
