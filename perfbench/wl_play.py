"""Workload ``play``: a sampled device population plays genuine and
pirated copies whose bombs report to the developer backend.

Closed loop, one device at a time (a UI thread dispatches the next event
only after the last one returns).  One op is one session: decode the
installed dex, start a ``Runtime`` on a sampled device, boot, then feed a
pre-generated Dynodroid event stream.  ``runtime.report_client`` sends
REPORT responses as DRPT frames (``encode_report``) into an in-process
durable ``ReportServer``; after each app's sessions the backend runs
``process()`` and ``verdicts()``.  A pass is every session of every app.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass
from typing import Dict, List, Tuple

from common import Digest, Measurement, WorkDir, median, percentile, tail_percentile

NAME = "play"

#: Apps whose copies the population plays.
APPS = ("AndroFish", "SWJournal", "Calendar")
#: Sessions per app, each on its own device.  Six pirated sessions put
#: the expected number of detecting devices (vm.detect_ratio, 0.6 in a
#: traced run) near the takedown threshold of three, so across seeds
#: the verdicts fall on both sides of it and the TAKEDOWN-iff check
#: sees both.  Two genuine sessions per app are the false-positive
#: check on two devices; the repository measures no piracy share, so
#: the 3:1 ratio is an assumption, not a model of a market.
PIRATED_SESSIONS = 6
GENUINE_SESSIONS = 2
EVENTS = 300           # per session
#: Protection profiling events, as every existing bench protects.
PROFILING_EVENTS = 1500
#: The apps' protection is part of the workload definition, like the
#: apps themselves: bomb placement decides how often events decrypt a
#: payload, and with three apps a per-seed placement would swing the
#: totals far more than the device population does.  The seed varies
#: the population -- devices, event streams, keys.
PROTECTION_SEED = 17
#: Batch attestation keys shared by the device population.
ATTESTATION_KEYS = 4
#: Event percentile that ``op_tail_ms`` reports.  About one event in
#: seven decrypts a payload (~8 ms); the p99 sits where the slowest
#: payloads make the distribution steep, and read 10.5 ms in quiet and
#: 15 ms in noisy minutes of the same host for the same seed.  The p95
#: is within the decrypting events too, so it is gated and the p99 printed.
GATED_TAIL = 95.0


@dataclass
class Session:
    kind: str            # "genuine" | "pirated"
    apk: object
    package: object
    device: object       # DeviceProfile template; copied per session
    events: list
    seed: int
    attestation: object


@dataclass
class AppPlan:
    name: str
    original_key: str
    pirate_key: str
    sessions: List[Session]


@dataclass
class State:
    plans: List[AppPlan]
    work: WorkDir


def setup(seed: int, work: WorkDir) -> State:
    from repro import BombDroid, BombDroidConfig, build_named_app, repackage
    from repro.crypto import RSAKeyPair
    from repro.fuzzing import DynodroidGenerator
    from repro.vm import DevicePopulation

    population = DevicePopulation(seed=seed)
    keys = [RSAKeyPair.generate(seed=seed * 101 + i) for i in range(ATTESTATION_KEYS)]
    plans = []
    index = 0
    for app_index, name in enumerate(APPS):
        bundle = build_named_app(name)
        protected, _report = BombDroid(
            BombDroidConfig(seed=PROTECTION_SEED, profiling_events=PROFILING_EVENTS)
        ).protect(bundle.apk, bundle.developer_key)
        pirate = RSAKeyPair.generate(seed=seed * 7919 + app_index)
        pirated = repackage(protected, pirate)
        copies = {"genuine": protected, "pirated": pirated}
        streams = {
            kind: (apk.install_view(), apk.dex()) for kind, apk in copies.items()
        }
        sessions = []
        for kind in ["pirated"] * PIRATED_SESSIONS + ["genuine"] * GENUINE_SESSIONS:
            package, dex = streams[kind]
            session_seed = seed * 1000 + index
            sessions.append(Session(
                kind=kind,
                apk=copies[kind],
                package=package,
                device=population.sample(),
                events=DynodroidGenerator(dex, seed=session_seed).stream(EVENTS),
                seed=session_seed,
                attestation=keys[index % ATTESTATION_KEYS],
            ))
            index += 1
        plans.append(AppPlan(
            name=name,
            original_key=protected.cert.fingerprint_hex(),
            pirate_key=pirated.cert.fingerprint_hex(),
            sessions=sessions,
        ))
    return State(plans=plans, work=work)


def _backend(state: State, plan: AppPlan, pass_index: int):
    """A durable backend per app and pass.

    Device clocks in the population are independent simulated clocks
    (days apart), so freshness and the sliding window are unbounded
    here: the verdict then depends only on which devices reported.
    """
    from repro.reporting import ReportServer, TakedownPolicy

    inf = float("inf")
    server = ReportServer(
        shards=4,
        max_report_age=inf,
        policy=TakedownPolicy(distinct_devices=3, window_seconds=inf),
        data_dir=state.work.sub("play", f"{pass_index}-{plan.name}"),
    )
    server.register_app(plan.name, plan.original_key)
    return server


def run_pass(state: State, m: Measurement) -> None:
    from repro.errors import MethodNotFound, VMError
    from repro.reporting import ReportClient, wire
    from repro.reporting.verdicts import AggregatedVerdict
    from repro.vm import Runtime

    digest = Digest()
    clock = time.perf_counter
    pass_start = clock()
    for plan in state.plans:
        server = _backend(state, plan, m.passes)
        statuses: List[str] = []

        def transport(signed, _server=server, _statuses=statuses):
            status = _server.submit(wire.encode_report(signed))
            _statuses.append(status.value)
            return status

        reporters = set()
        for session in plan.sessions:
            m.attempted += 1
            device = session.device.copy()
            client = ReportClient(
                transport, session.attestation, device.label, seed=session.seed
            )
            sent_before = len(statuses)
            start = clock()
            runtime = Runtime(
                session.apk.dex(), device=device, package=session.package,
                seed=session.seed, report_client=client,
            )
            crashes = instructions = 0
            boot = runtime.session()
            try:
                boot.boot()
            except VMError:
                crashes += 1
            instructions += boot.consumed
            for event in session.events:
                ctx = runtime.session()
                began = clock()
                try:
                    ctx.dispatch(event)
                except MethodNotFound:
                    pass
                except VMError:
                    crashes += 1
                m.sample("event", clock() - began)
                instructions += ctx.consumed
            m.sample("session", clock() - start)

            kinds = tuple(event.kind for event in runtime.bombs.events)
            sent = statuses[sent_before:]
            keys = _reported_keys(runtime)
            digest.add(plan.name, session.kind, device.label, kinds,
                       runtime.cost_units, instructions, crashes,
                       tuple(runtime.detections), tuple(sent))
            for kind in ("outer_satisfied", "inner_met", "detected",
                         "responded", "payload_error"):
                m.count(f"vm.bombs.{kind}", runtime.bombs.count(kind))
            m.count("vm.instructions", instructions)
            m.count("vm.cost_units", runtime.cost_units)
            m.count("client.retries", client.retries)
            m.count("client.spooled", client.spooled)
            if session.kind == "genuine":
                ok = m.check(not runtime.detections and not keys - {plan.original_key},
                             f"{plan.name}: genuine session {device.label} detected "
                             f"{len(runtime.detections)} / reported keys {sorted(keys)}")
            else:
                m.count("play.pirated_sessions")
                m.count("play.pirated_detected", bool(runtime.detections))
                ok = m.check(keys <= {plan.pirate_key},
                             f"{plan.name}: pirated session reported {sorted(keys)}")
                if "accepted" in sent:
                    ok = m.check(bool(runtime.detections),
                                 f"{plan.name}: {device.label} reported without a detection") and ok
                    reporters.add(device.label)
            if not ok:
                m.failed += 1
            # A session is an app process on its device, and nothing of
            # it outlives it: its cyclic garbage must not pile up into
            # the next session's memory.
            runtime = client = boot = ctx = None
            gc.collect()

        server.process()
        verdict, offender = server.verdicts()[plan.name]
        server.close()
        state.work.remove("play", f"{m.passes}-{plan.name}")
        expected = (AggregatedVerdict.TAKEDOWN if len(reporters) >= 3 else
                    AggregatedVerdict.SUSPECT if reporters else AggregatedVerdict.CLEAN)
        m.check(verdict is expected and offender in ("", plan.pirate_key),
                f"{plan.name}: verdict {verdict.value} on {offender[:8]} with "
                f"{len(reporters)} reporting devices")
        m.count(f"play.verdict.{plan.name}.{verdict.value}")
        digest.add(plan.name, verdict.value, offender, sorted(reporters))
    m.sample("pass", clock() - pass_start)
    m.passes += 1
    m.same_digest(digest.hexdigest())


def _reported_keys(runtime) -> set:
    """Key fingerprints named by the app's REPORT messages."""
    from repro.reporting.wire import parse_report_text

    return {fields["key"] for fields in map(parse_report_text, runtime.reports)
            if "key" in fields}


def check(state: State, m: Measurement) -> None:
    """The output checks run inside each pass."""


def end_to_end(m: Measurement) -> Tuple[Dict[str, float], List[str]]:
    events = m.samples["event"]
    sessions = m.samples["session"]
    # The percentile is fixed by one pass's events, so it does not
    # change with the number of passes a run completes.
    q = tail_percentile(len(events) // m.passes)
    sessions_per_s = len(sessions) / sum(sessions)
    p50 = median(events)
    gated = percentile(events, GATED_TAIL)
    tail = percentile(events, q)
    metrics = {
        "ops_per_s": sessions_per_s,
        "op_p50_ms": p50 * 1e3,
        "op_tail_ms": gated * 1e3,
        "pass_s": median(m.samples["pass"]),
    }
    verdicts = sorted(k[len("play.verdict."):] for k in m.counts if k.startswith("play.verdict."))
    lines = [
        "apps are protected non-strict (BombDroidConfig(profiling_events="
        f"{PROFILING_EVENTS})), as every existing bench protects them",
        f"sessions_per_s = {sessions_per_s:.4f} 1/s  ({len(sessions)} sessions)",
        f"event_p50_us = {p50 * 1e6:.2f} us  ({len(events)} events)",
        f"event_p{GATED_TAIL:g}_us = {gated * 1e6:.2f} us",
        f"event_p{q:g}_us = {tail * 1e6:.2f} us  "
        f"({len(events) - round(len(events) * q / 100)} events beyond it)",
        f"verdicts per pass: {', '.join(verdicts)}",
    ]
    return metrics, lines
