"""Execution sessions and the one play-session driver.

:class:`ExecutionContext`
    One execution scope: a budget, optional extra tracers, an optional
    containment-policy override.  Created by ``Runtime.session(...)``.
    Works as a context manager (tracers/policy attach on entry, detach
    on exit) and offers measured entry points -- :meth:`invoke`,
    :meth:`run`, :meth:`dispatch` -- that return a
    :class:`SessionResult` instead of a bare value.

:class:`SessionResult`
    Return value plus the things callers previously re-derived by
    diffing runtime state: instructions consumed, cost units, budget
    remaining, and the bomb-registry events ("trips") recorded during
    the call.

:class:`PlaySession`
    The only code that boots an app, feeds it an event stream and
    handles its crashes.  One user's app on one device: a crash either
    reopens the app (``restart=True``) or play continues in the same
    process.  :class:`PlayOutcome` is what the whole session observed.

:class:`SessionEngine`
    Batches of seeded Dynodroid play sessions over one decoded app --
    the calibration protocol behind ``OutcomeModel.calibrate``, opt-in
    real-session fleets and ``repro simulate``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.chaos.faults import fault_point
from repro.errors import MethodNotFound, ReproError
from repro.vm.events import Event, handler_name_for

if TYPE_CHECKING:
    from repro.vm.runtime import BombRegistry

#: Distinguishes "no policy override" from "override with None"
#: (= legacy crash-through semantics) in ExecutionContext.
_UNSET = object()


@dataclass(frozen=True)
class SessionResult:
    """What one measured execution did."""

    value: object              #: the method's return value
    instructions: int          #: instructions interpreted during the call
    cost: int                  #: cost units accrued (Table 5 metric)
    remaining: int             #: budget left in the context afterwards
    trips: tuple               #: BombEvents recorded during the call

    def trip_kinds(self) -> Tuple[str, ...]:
        return tuple(event.kind for event in self.trips)


class ExecutionContext:
    """One execution scope: budget cell + tracers + policy override.

    The budget is still a shared mutable cell under the hood (nested
    frames and payload sub-budgets charge the same counter, exactly as
    before) but callers never see the list -- they read
    :attr:`consumed` / :attr:`remaining` and get per-call numbers from
    :class:`SessionResult`.

    Entering the context (``with`` or any measured call) registers the
    context's tracers with the runtime and, when a ``policy`` override
    was given, swaps the runtime's containment policy and gives it a
    fresh circuit breaker; exiting restores both.  Entry is reentrant,
    so nesting measured calls inside a ``with`` block attaches once.
    """

    __slots__ = (
        "runtime", "budget", "_initial", "_tracers", "_policy",
        "_entered", "_saved",
    )

    def __init__(self, runtime, budget: Optional[int] = None, tracers=(), policy=_UNSET):
        self.runtime = runtime
        cell = [budget if budget is not None else runtime.default_budget]
        self.budget = cell
        self._initial = cell[0]
        self._tracers = tuple(tracers)
        self._policy = policy
        self._entered = 0
        self._saved = None

    @classmethod
    def adopt(cls, runtime, cell: List[int]) -> "ExecutionContext":
        """Wrap an existing mutable budget cell (a payload sub-budget).

        The cell is shared, not copied: decrements made through the
        context remain visible to whoever owns the list.
        """
        ctx = cls.__new__(cls)
        ctx.runtime = runtime
        ctx.budget = cell
        ctx._initial = cell[0]
        ctx._tracers = ()
        ctx._policy = _UNSET
        ctx._entered = 0
        ctx._saved = None
        return ctx

    # -- budget accounting ------------------------------------------------

    @property
    def consumed(self) -> int:
        """Instructions charged to this context so far.

        The interpreter decrements before the exhaustion check, so the
        cell rests at -1 after a BudgetExhausted; clamping makes
        ``consumed`` equal the instructions actually interpreted.
        """
        return self._initial - max(self.budget[0], 0)

    @property
    def remaining(self) -> int:
        return max(self.budget[0], 0)

    # -- attach / detach --------------------------------------------------

    def __enter__(self) -> "ExecutionContext":
        if self._entered == 0:
            self._attach()
        self._entered += 1
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._entered -= 1
        if self._entered == 0:
            self._detach()
        return False

    def _attach(self) -> None:
        runtime = self.runtime
        for tracer in self._tracers:
            runtime.add_tracer(tracer)
        if self._policy is not _UNSET:
            from repro.vm.containment import CircuitBreaker

            policy = self._policy
            self._saved = (runtime.containment, runtime.breaker)
            runtime.containment = policy
            runtime.breaker = CircuitBreaker(
                policy.max_consecutive_failures if policy else 0
            )

    def _detach(self) -> None:
        runtime = self.runtime
        for tracer in self._tracers:
            runtime.remove_tracer(tracer)
        if self._saved is not None:
            runtime.containment, runtime.breaker = self._saved
            self._saved = None

    # -- measured entry points --------------------------------------------

    def _measure(self, fn) -> SessionResult:
        runtime = self.runtime
        with self:
            cost_before = runtime.cost_units
            consumed_before = self.consumed
            events_before = len(runtime.bombs.events)
            value = fn()
            return SessionResult(
                value=value,
                instructions=self.consumed - consumed_before,
                cost=runtime.cost_units - cost_before,
                remaining=self.remaining,
                trips=tuple(runtime.bombs.events[events_before:]),
            )

    def run(self, method, args=()) -> SessionResult:
        """Execute a :class:`DexMethod` under this context's budget."""
        runtime = self.runtime
        return self._measure(
            lambda: runtime.interpreter.execute(method, list(args), self)
        )

    def invoke(self, qualified_name: str, args=()) -> SessionResult:
        """Invoke a loaded method by name (the session-API entry point)."""
        runtime = self.runtime
        method = runtime.find_method(qualified_name)
        if method is None:
            raise MethodNotFound(qualified_name)

        def go():
            tracer = runtime.tracer
            if tracer is not None:
                tracer.on_invoke(qualified_name, list(args))
            return runtime.interpreter.execute(method, list(args), self)

        return self._measure(go)

    def dispatch(self, event: Event) -> SessionResult:
        """Deliver one UI event to its handler, advancing the clock."""
        runtime = self.runtime
        handler = f"{event.target_class}.{handler_name_for(event.kind)}"
        if runtime.find_method(handler) is None:
            raise MethodNotFound(handler)
        fault_point("vm.clock", device=runtime.device)
        runtime.device.advance(Event.DURATION)
        return self.invoke(handler, list(event.args))

    def boot(self) -> List[SessionResult]:
        """Run every class's zero-arg ``main`` entry (app start)."""
        runtime = self.runtime
        results = []
        with self:
            for name in sorted(runtime._methods):
                if name.endswith(".main") and runtime._methods[name].params == 0:
                    results.append(self.invoke(name))
        return results


# ---------------------------------------------------------------------------
# Play sessions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PlayOutcome:
    """Everything one play session observed, across every app process
    it started."""

    seed: int                  #: runtime/generator seed the session used
    events: int                #: UI events delivered (incl. wasted/crashed)
    wasted: int                #: events with no handler in the app
    crashes: int               #: events whose dispatch raised a library error
    instructions: int          #: instructions the event stream interpreted
    cost: int                  #: cost units accrued (Table 5 metric)
    reports: Tuple[str, ...]   #: developer reports the app emitted
    detections: Tuple[str, ...]  #: bomb ids that recorded ``detected``
    logs: Tuple[str, ...] = ()
    ui_effects: Tuple[tuple, ...] = ()
    #: type names of every library error caught, boot crashes included
    errors: Tuple[str, ...] = ()
    bomb_counts: Dict[str, Dict[str, int]] = field(default_factory=dict)
    clock: float = 0.0         #: device clock at session end
    index: int = 0             #: session index within a SessionEngine batch
    #: the bomb registry, merged across restarts
    bombs: Optional["BombRegistry"] = field(default=None, compare=False, repr=False)

    @property
    def events_played(self) -> int:
        """Events that reached a handler (crashed ones included)."""
        return self.events - self.wasted

    @property
    def alerts(self) -> int:
        """Count of ``alert`` UI effects (the bad-experience signal)."""
        return sum(1 for kind, _ in self.ui_effects if kind == "alert")

    @property
    def reported(self) -> bool:
        return bool(self.reports)

    @property
    def bad_experience(self) -> bool:
        return bool(self.detections) or self.alerts > 0


class PlaySession:
    """One user's app on one device, over a whole event stream.

    The app boots when the session opens.  :meth:`step` delivers one
    event; it charges each event its own budget (the runtime's
    ``default_budget``) and follows three fixed rules:

    * an event with no handler is *wasted*: counted, and the device
      clock still advances by :data:`Event.DURATION`;
    * a :class:`~repro.errors.ReproError` is a crash, recorded by type
      name.  With ``restart=True`` the app is reopened: a fresh
      :class:`Runtime` (all process state reset) boots on the same
      device, so the clock and the bomb registry carry over.  Otherwise
      play continues in the same process;
    * anything outside the error taxonomy propagates -- a library bug
      fails loudly.

    Every process shares the one decoded ``dex`` and ``package`` (code
    is immutable under execution, and the installed package does not
    change between restarts).  Observables (logs, UI effects, reports,
    detections, cost) are collected across restarts; :meth:`outcome`
    returns them.  Every
    other keyword argument configures each :class:`Runtime` the session
    starts (``tracers``, ``report_client``, ``containment``,
    ``default_budget``, ``engine``...).
    """

    def __init__(
        self, dex, device, *, package=None, seed: int = 0,
        restart: bool = False, **runtime_options,
    ) -> None:
        self.dex = dex
        self.device = device
        self.package = package
        self.seed = seed
        self.restart = restart
        self._options = runtime_options
        self.started = device.clock
        self.events = self.wasted = self.crashes = self.instructions = 0
        self.errors: List[str] = []
        # Observables of processes that already ended (restart policy).
        self._logs: List[str] = []
        self._ui_effects: List[tuple] = []
        self._reports: List[str] = []
        self._detections: List[str] = []
        self._cost = 0
        self.runtime = None
        self.reopen()

    @property
    def elapsed(self) -> float:
        """Device time since the session opened."""
        return self.device.clock - self.started

    def reopen(self) -> None:
        """Start a fresh app process and boot it; the device (and so
        its clock) and the bomb registry carry over."""
        from repro.vm.runtime import Runtime

        previous = self.runtime
        runtime = Runtime(
            self.dex, device=self.device, package=self.package,
            seed=self.seed, **self._options,
        )
        if previous is not None:
            self._logs += previous.logs
            self._ui_effects += previous.ui_effects
            self._reports += previous.reports
            self._detections += previous.detections
            self._cost += previous.cost_units
            runtime.bombs.merge_from(previous.bombs)
        self.runtime = runtime
        try:
            runtime.session().boot()
        except ReproError as exc:
            self.errors.append(type(exc).__name__)

    def step(self, event: Event) -> Optional[ReproError]:
        """Deliver one event; returns the library error it crashed
        with (after reopening the app under ``restart``), else None."""
        self.events += 1
        ctx = self.runtime.session()
        error = None
        try:
            ctx.dispatch(event)
        except MethodNotFound:
            self.wasted += 1
            self.device.advance(Event.DURATION)
        except ReproError as exc:
            error = exc
        self.instructions += ctx.consumed
        if error is not None:
            self.crashes += 1
            self.errors.append(type(error).__name__)
            if self.restart:
                self.reopen()
        return error

    def play(self, events) -> PlayOutcome:
        """Deliver every event in ``events``; returns :meth:`outcome`."""
        for event in events:
            self.step(event)
        return self.outcome()

    def outcome(self) -> PlayOutcome:
        runtime = self.runtime
        return PlayOutcome(
            seed=self.seed,
            events=self.events,
            wasted=self.wasted,
            crashes=self.crashes,
            instructions=self.instructions,
            cost=self._cost + runtime.cost_units,
            reports=tuple(self._reports + runtime.reports),
            detections=tuple(self._detections + runtime.detections),
            logs=tuple(self._logs + runtime.logs),
            ui_effects=tuple(self._ui_effects + runtime.ui_effects),
            errors=tuple(self.errors),
            bomb_counts={k: dict(v) for k, v in runtime.bombs.counts.items()},
            clock=self.device.clock,
            bombs=runtime.bombs,
        )


class SessionEngine:
    """Drives batches of seeded Dynodroid play sessions.

    One engine holds the decoded app (dex + install view) so per-session
    cost is just a fresh :class:`Runtime` over shared method objects --
    whose compiled bodies (``method._compiled``) are shared too, which
    is what makes thousands of sessions per second possible.

    Session ``index`` is seeded ``seed * 100 + index`` (runtime and
    event stream) and plays in one process: crashes are counted but do
    not end the session.
    """

    def __init__(
        self, apk=None, *, dex=None, package=None, seed: int = 0, events: int = 350,
    ) -> None:
        if dex is None:
            if apk is None:
                raise ValueError("SessionEngine needs an apk or a dex")
            dex = apk.dex()
        if package is None and apk is not None:
            package = apk.install_view()
        self.dex = dex
        self.package = package
        self.seed = seed
        self.events = events

    def play_one(self, index: int) -> PlayOutcome:
        """One session on the first sample of a population seeded
        ``seed * 100 + index`` -- a deterministic per-session device,
        independent of every other session (fleet-style use)."""
        from repro.vm.device import DevicePopulation

        device = DevicePopulation(seed=self.seed * 100 + index).sample()
        return self._play(index, device, self.events)

    def play(self, sessions: int, events: Optional[int] = None) -> List[PlayOutcome]:
        """Run ``sessions`` sessions on devices drawn *in order* from one
        population seeded with the engine seed (the calibration draw)."""
        from repro.vm.device import DevicePopulation

        population = DevicePopulation(seed=self.seed)
        count = self.events if events is None else events
        return [
            self._play(index, population.sample(), count)
            for index in range(sessions)
        ]

    def _play(self, index: int, device, events: int) -> PlayOutcome:
        from repro.fuzzing.generators import DynodroidGenerator

        seed = self.seed * 100 + index
        session = PlaySession(self.dex, device, package=self.package, seed=seed)
        outcome = session.play(DynodroidGenerator(self.dex, seed=seed).stream(events))
        return replace(outcome, index=index)
