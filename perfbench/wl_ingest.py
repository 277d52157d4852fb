"""Workload ``ingest``: the developer backend ingests, journals and
recovers a report stream.  No VM and no AES.

The server is ``python -m repro serve-reports --listen 127.0.0.1:0
--data-dir ...`` in its own process with the WAL on; this process is the
only client, over at most two connections, so client and server never
share one interpreter lock (they do share the one CPU ``run.py`` pins
the benchmark to).  All DRPT frames are signed in setup.  One round,
repeated on a fresh server until the run's time is up:

(a) open loop, one connection: ``PHASE_A_FRAMES`` reports offered at
    ``OFFERED_RATE`` per second on a fixed schedule, each timed from its
    *scheduled* send time; the run reports the median over windows of
    ``WINDOW_REPORTS`` reports of each window's p50 and p90.  The
    sender's lag behind the schedule is reported, and a p99 lag above
    ``LAG_BOUND_MS`` marks the run invalid;
(b) pipelined burst over two connections: ``PHASE_B_FRAMES`` reports,
    for throughput, pooled over the run's bursts, and for how long a
    report in such a backlog waits for its status (``BURST_TAIL``);
(c) SIGKILL the server, then ``ReportServer.recover``, ``process()`` and
    ``verdicts()`` here -- a complete recovery, since a recovered server
    answers CLEAN until ``process()`` drains the replayed queues -- timed
    ``RECOVERIES`` times, each on a copy of the crashed data directory.

Frame mix, per fresh report unless stated.  Where the repository has a
model of the traffic, the mix follows it; the rest are assumptions:

- each fresh report comes from its own device, as in the fleet model
  (``repro.reporting.fleet``: one report per reporting device);
- ``DUPLICATE_RATE`` exact resends and ``FORGE_RATE`` copies with one
  signature bit flipped: 2% each, the rates of the README's fleet run
  (``repro fleet ... --duplicate-rate 0.02 --forge-rate 0.02``);
- one stale resend (timestamp older than the server's freshness window)
  per ``STALE_EVERY`` frames: the fleet's ``replay_stale`` resends one
  per batch, and a batch of ``FleetConfig``'s defaults holds 1250
  reports (25,000 target reports over 20 batches of 50,000 devices);
- assumption: ``ORIGINAL_SHARE`` of fresh reports name the original
  key.  Neither the fleet model nor the ``play`` workload produces any
  (a genuine copy never detects); the class is in the mix because the
  server takes a separate path for it, at the fleet's rare-class rate;
- assumption: the other fresh reports name one of three pirate keys
  with weights ``PIRATE_WEIGHTS``.  The fleet and ``play`` streams name
  one pirate key per app; several repackagers of one app make the
  verdict choose among keys, and one dominant key makes the expected
  verdict unambiguous.

Resends and forged and stale frames are derived from already-signed
frames, never signed again.  Every frame's status must equal the class
it was generated as.

``OFFERED_RATE`` is about a fourteenth of the phase (b) capacity
measured on a two-vCPU virtual machine with the benchmark pinned to one
CPU (8.3k reports/s); each run prints the ratio to its own burst rate.
At that load the one-CPU sender keeps its schedule (its p99 lag stays
in single milliseconds) and a report's latency is its service path, not
a queue.

Ingest has no gated latency tail.  The open-loop p90 and p99 are
printed, but on a shared two-vCPU host they follow hypervisor steal:
over five seeds in one hour the window-median p90 read 0.75 to 3.0 ms,
and even the p75 0.61 to 0.96 ms.  ``op_tail_ms`` is ``backlog_p90``,
the p90 of a burst report's wait for its status; the burst is
pipelined, so that is about 0.9 of the burst's wall time and moves with
``ops_per_s``, not independently of it.
"""

from __future__ import annotations

import bisect
import gc
import math
import os
import random
import shutil
import signal
import socket
import subprocess
import sys
import threading
import time
import zlib
from dataclasses import dataclass
from typing import Dict, List, Tuple

from common import Digest, Measurement, WorkDir, median, percentile, tail_percentile

NAME = "ingest"

APP = "Game"
OFFERED_RATE = 600.0      # reports/s in phase (a), below capacity
PHASE_A_FRAMES = 1200
PHASE_B_FRAMES = 4000
CONNECTIONS = 2
DUPLICATE_RATE = 0.02
FORGE_RATE = 0.02
STALE_EVERY = 1250
ORIGINAL_SHARE = 0.02
PIRATE_WEIGHTS = (0.7, 0.2, 0.1)
#: Sender lag (p99, ms) above which a phase (a) run is invalid: the
#: generator could not hold the schedule (60 reports behind at the
#: offered rate).  Host scheduling stalls of 10-20 ms stay below it.
LAG_BOUND_MS = 100.0
#: Phase (a) tail percentile printed besides the p99.
WINDOW_TAIL = 90.0
#: Consecutive phase (a) reports per window (20 beyond the p90).
WINDOW_REPORTS = 200
#: ``op_tail_ms`` is this percentile of the time a burst report waits
#: for its status: how long a backlog of reports (devices flushing their
#: spools after an outage) takes to be acknowledged.
BURST_TAIL = 90.0
#: The server's options, mirrored by recovery and the traced replay.
SHARDS = 8
MAX_AGE = 900.0
WINDOW = 3600.0
THRESHOLD = 3
#: Above one round's WAL records, so phase (c) replays the whole WAL.
SNAPSHOT_EVERY = 8192
#: Complete recoveries timed per round, each on a copy of the crash state.
RECOVERIES = 5
PROCESS_EVERY = 1024
#: Virtual seconds between report timestamps.  Phase (a) spans more
#: than MAX_AGE, so its early frames are stale by the end of the round;
#: phase (b) spans less, so two connections racing each other can never
#: make a fresh frame stale.
TS_STEP_A = 2.0
TS_STEP_B = 0.1
T0 = 1_000_000.0
#: Frames the service may read ahead of the one it is processing on one
#: connection: it reads 64 KiB at a time (about 260 frames) and finishes
#: a read before the next, so shards reorder only within one read.
READ_AHEAD = 300
#: Resends pick among this many most recent fresh frames, which stay
#: within MAX_AGE of the server clock even READ_AHEAD frames later.
RECENT = 50

ACCEPTED, DUPLICATE, BAD_SIGNATURE, REPLAYED = (
    "accepted", "duplicate", "bad_signature", "replayed")


@dataclass
class Frame:
    blob: bytes
    expected: str
    conn: int
    device: str
    ts: float


@dataclass
class State:
    original_key: str
    expected_key: str
    phase_a: List[Frame]
    phase_b: List[Frame]
    accepted: int
    root: str
    work: WorkDir


def _fingerprint(rng: random.Random) -> str:
    return "%040x" % rng.getrandbits(160)


def setup(seed: int, work: WorkDir) -> State:
    from repro.crypto import RSAKeyPair
    from repro.reporting import DetectionReport, encode_report, sign_report

    rng = random.Random(seed)
    original = _fingerprint(rng)
    pirates = [_fingerprint(rng) for _ in range(3)]
    keys = [RSAKeyPair.generate(seed=seed * 31 + i) for i in range(4)]
    signed_frames: List[Frame] = []   # every fresh frame, in timestamp order
    signed_ts: List[float] = []
    reporters: Dict[str, set] = {}    # pirate key -> devices it was accepted from

    def fresh(ts: float, conn_of) -> Frame:
        device = f"dev-{seed}-{len(signed_frames):05d}"
        key = original if rng.random() < ORIGINAL_SHARE else rng.choices(pirates, PIRATE_WEIGHTS)[0]
        signed = sign_report(DetectionReport(
            app_name=APP, bomb_id=f"b{rng.randrange(40):03d}", device_id=device,
            observed_key_hex=key, timestamp=ts, nonce=rng.getrandbits(64),
        ), rng.choice(keys))
        if key != original:
            reporters.setdefault(key, set()).add(device)
        frame = Frame(encode_report(signed), ACCEPTED, conn_of(device), device, ts)
        signed_frames.append(frame)
        signed_ts.append(ts)
        return frame

    def resend(source: Frame, expected: str) -> Frame:
        return Frame(source.blob, expected, source.conn, source.device, source.ts)

    def forge(source: Frame) -> Frame:
        blob = bytearray(source.blob)
        blob[-1 - rng.randrange(16)] ^= 1 << rng.randrange(8)  # a signature byte
        return Frame(bytes(blob), BAD_SIGNATURE, source.conn, source.device, source.ts)

    def build(count, offset, step, base_ts, conn_of, stale_before) -> List[Frame]:
        """``count`` frames; ``offset`` frames of the round precede them."""
        frames: List[Frame] = []
        first = len(signed_frames)
        for k in range(count):
            ts = base_ts + k * step
            recent = signed_frames[max(first, len(signed_frames) - RECENT):]
            stale = bisect.bisect_left(signed_ts, stale_before(ts))
            roll = rng.random()
            if (offset + k + 1) % STALE_EVERY == 0 and stale:
                frames.append(resend(signed_frames[rng.randrange(stale)], REPLAYED))
            elif roll < DUPLICATE_RATE and recent:
                frames.append(resend(rng.choice(recent), DUPLICATE))
            elif roll < DUPLICATE_RATE + FORGE_RATE and recent:
                frames.append(forge(rng.choice(recent)))
            else:
                frames.append(fresh(ts, conn_of))
        return frames

    # Phase (a), one connection: when frame k is processed the server
    # clock is at least the timestamp READ_AHEAD frames earlier, so a
    # resend is stale if it is older than that by more than MAX_AGE.
    phase_a = build(
        PHASE_A_FRAMES, 0, TS_STEP_A, T0, lambda device: 0,
        lambda ts: ts - READ_AHEAD * TS_STEP_A - MAX_AGE - TS_STEP_A,
    )
    # Phase (b) starts once phase (a) is acked.  A device always uses
    # the same connection, so a resend follows its original on one
    # ordered stream.
    clock_b = T0 + (PHASE_A_FRAMES - 1) * TS_STEP_A
    phase_b = build(
        PHASE_B_FRAMES, PHASE_A_FRAMES, TS_STEP_B, clock_b + TS_STEP_A,
        lambda device: zlib.crc32(device.encode()) % CONNECTIONS,
        lambda ts: clock_b - MAX_AGE - 100.0,
    )
    counts = {key: len(devices) for key, devices in reporters.items()}
    expected_key = max(counts, key=lambda key: (counts[key], key))
    accepted = sum(1 for f in phase_a + phase_b if f.expected == ACCEPTED)
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    return State(original, expected_key, phase_a, phase_b, accepted, root, work)


# -- the server process -------------------------------------------------------


def _start_server(state: State, data_dir: str) -> Tuple[subprocess.Popen, Tuple[str, int]]:
    env = dict(os.environ)
    src = os.path.join(state.root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve-reports", "--app", APP,
         "--key-hex", state.original_key, "--listen", "127.0.0.1:0",
         "--data-dir", data_dir, "--shards", str(SHARDS),
         "--threshold", str(THRESHOLD), "--window", str(WINDOW),
         "--max-age", str(MAX_AGE), "--snapshot-every", str(SNAPSHOT_EVERY),
         "--process-every", str(PROCESS_EVERY)],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, stdin=subprocess.DEVNULL,
        text=True, cwd=state.root, env=env,
    )
    try:
        for line in proc.stdout:
            if line.startswith("listening on "):
                host, port = line.split()[-1].rsplit(":", 1)
                return proc, (host, int(port))
    except BaseException:
        _kill(proc)
        raise
    _kill(proc)
    raise RuntimeError("serve-reports exited before listening")


def _kill(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.send_signal(signal.SIGKILL)
    proc.wait(timeout=30)
    if proc.stdout is not None:
        proc.stdout.close()


# -- phases -------------------------------------------------------------------


def _open_loop(address, frames: List[Frame], rate: float):
    """Send on a fixed schedule; read statuses on a second thread.

    Returns (statuses, latency from scheduled send, sender lag)."""
    from repro.reporting.net.framing import decode_status

    count = len(frames)
    statuses: List[str] = []
    received: List[float] = []
    sock = socket.create_connection(address, timeout=30)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    failure: List[BaseException] = []

    def receive() -> None:
        try:
            while len(statuses) < count:
                data = sock.recv(65536)
                now = time.perf_counter()
                if not data:
                    raise ConnectionError("server closed mid-phase")
                for byte in data:
                    statuses.append(decode_status(byte).value)
                    received.append(now)
        except BaseException as exc:  # reported by the sender thread
            failure.append(exc)

    reader = threading.Thread(target=receive, name="perfbench-open-loop")
    reader.start()
    lag: List[float] = []
    clock = time.perf_counter
    start = clock() + 0.005
    # A collector pause in the generator would show as server latency.
    gc.disable()
    try:
        for index, frame in enumerate(frames):
            due = start + index / rate
            now = clock()
            if due > now:
                time.sleep(due - now)
                now = clock()
            lag.append(now - due)
            sock.sendall(frame.blob)
            if failure:
                break
    finally:
        gc.enable()
        reader.join(timeout=60)
        sock.close()
    if failure:
        raise failure[0]
    if reader.is_alive() or len(statuses) != count:
        raise RuntimeError("open-loop receiver did not finish")
    latency = [received[i] - (start + i / rate) for i in range(count)]
    return statuses, latency, lag


def _burst(address, frames: List[Frame]) -> Tuple[List[str], float, List[float]]:
    """Pipeline each connection's frames; statuses in frame order.

    Each connection writes all its frames, then reads the statuses in
    bulk, so the generator spends little time per report and the burst
    rate is the server's, not the client's.  Also returns, per report,
    the time from the burst's start until its status arrived.
    """
    from repro.reporting.net.framing import decode_status

    lanes = [[i for i, f in enumerate(frames) if f.conn == c] for c in range(CONNECTIONS)]
    payloads = [b"".join(frames[i].blob for i in lane) for lane in lanes]
    results: List[bytearray] = [bytearray() for _ in lanes]
    arrivals: List[List[Tuple[float, int]]] = [[] for _ in lanes]
    errors: List[BaseException] = []

    def send(lane: int) -> None:
        try:
            with socket.create_connection(address, timeout=60) as sock:
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                sock.sendall(payloads[lane])
                received = results[lane]
                while len(received) < len(lanes[lane]):
                    data = sock.recv(65536)
                    if not data:
                        raise ConnectionError("server closed mid-burst")
                    received.extend(data)
                    arrivals[lane].append((time.perf_counter(), len(received)))
        except BaseException as exc:  # re-raised below
            errors.append(exc)

    helpers = [threading.Thread(target=send, args=(lane,), name="perfbench-burst")
               for lane in range(1, len(lanes))]
    gc.disable()  # as in the open loop: no generator pauses
    try:
        start = time.perf_counter()
        for helper in helpers:
            helper.start()
        send(0)
        for helper in helpers:
            helper.join(timeout=120)
        wall = time.perf_counter() - start
    finally:
        gc.enable()
    if errors:
        raise errors[0]
    if any(helper.is_alive() for helper in helpers):
        raise RuntimeError("burst sender did not finish")
    statuses: List[str] = [""] * len(frames)
    for lane, positions in enumerate(lanes):
        for position, byte in zip(positions, results[lane]):
            statuses[position] = decode_status(byte).value
    acked: List[float] = []
    for lane in arrivals:
        done = 0
        for when, total in lane:
            acked.extend([when - start] * (total - done))
            done = total
    return statuses, wall, acked


def _server_options():
    from repro.reporting import TakedownPolicy

    return dict(
        shards=SHARDS, max_report_age=MAX_AGE, snapshot_every=SNAPSHOT_EVERY,
        policy=TakedownPolicy(distinct_devices=THRESHOLD, window_seconds=WINDOW),
    )


def _recover(data_dir: str):
    """Phase (c): a complete recovery -- recover, process, verdicts."""
    from repro.reporting import ReportServer

    start = time.perf_counter()
    server = ReportServer.recover(data_dir, **_server_options())
    server.process()
    verdict, key = server.verdicts()[APP]
    elapsed = time.perf_counter() - start
    replayed = server.metrics.snapshot().get("wal.replayed", 0)
    server.crash()  # close the logs without compacting
    return elapsed, verdict.value, key, replayed


def _check_statuses(m: Measurement, frames: List[Frame], statuses: List[str], phase: str) -> None:
    wrong = [i for i, (f, s) in enumerate(zip(frames, statuses)) if f.expected != s]
    m.failed += len(wrong)
    for i in wrong[:3]:
        m.check(False, f"phase {phase} frame {i}: {statuses[i]} != expected {frames[i].expected}")
    for status in statuses:
        m.count(f"ingest.status.{status}")


def run_pass(state: State, m: Measurement) -> None:
    round_dir = state.work.sub("ingest", f"round-{m.passes}")
    proc, address = _start_server(state, round_dir)
    try:
        statuses_a, latency, lag = _open_loop(address, state.phase_a, OFFERED_RATE)
        statuses_b, burst_wall, acked = _burst(address, state.phase_b)
    finally:
        _kill(proc)  # phase (c) begins with the crash
    # Each recovery runs on its own copy of the crashed state: recovery
    # journals the takedown transition, so a second one would differ.
    recoveries = []
    for copy in range(RECOVERIES):
        copy_dir = os.path.join(state.work.path, "ingest", f"recover-{copy}")
        shutil.copytree(round_dir, copy_dir)
        recoveries.append(_recover(copy_dir))
        state.work.remove("ingest", f"recover-{copy}")
    state.work.remove("ingest", f"round-{m.passes}")

    m.attempted += len(state.phase_a) + len(state.phase_b)
    _check_statuses(m, state.phase_a, statuses_a, "a")
    _check_statuses(m, state.phase_b, statuses_b, "b")
    for value in latency:
        m.sample("report", value)
    for value in lag:
        m.sample("lag", value)
    # Host stalls come in bursts that spoil some stretches of a round and
    # not others, so the run reports the median over short windows.
    for start in range(0, len(latency) - WINDOW_REPORTS + 1, WINDOW_REPORTS):
        window = latency[start:start + WINDOW_REPORTS]
        m.sample("window_p50", median(window))
        m.sample("window_tail", percentile(window, WINDOW_TAIL))
    m.sample("round_p99", percentile(latency, tail_percentile(len(latency))))
    m.sample("burst_s", burst_wall)
    m.sample("burst_p90", percentile(acked, BURST_TAIL))
    for recover_s, verdict, key, replayed in recoveries:
        m.sample("recover", recover_s)
        m.check(verdict == "takedown" and key == state.expected_key,
                f"verdict after recovery {verdict} on {key[:8]}, expected takedown "
                f"on {state.expected_key[:8]} (the verdict the acked reports imply)")
        # The WAL holds every accepted report plus the registration record.
        m.check(replayed == state.accepted + 1,
                f"recovery replayed {replayed} WAL records, expected {state.accepted + 1}")
    m.count("wal.replayed_records", replayed)
    digest = Digest()
    digest.add(statuses_a, statuses_b, verdict, key)
    m.passes += 1
    m.same_digest(digest.hexdigest())


@dataclass
class _Replay:
    digest: str
    walls: Dict[str, float]                 # phase -> seconds
    spans: Dict[str, Tuple[int, int]]       # phase -> range of tracer spans
    over_1ms: int
    wal_failures: int


def _replay_once(state: State, m: Measurement, tracer) -> _Replay:
    """One round in this process: phases (a), (b) and (c), back to back."""
    from repro.reporting import ReportServer
    from repro.reporting.net import ServiceHandle, TcpTransport

    spans = tracer.spans if tracer is not None else []
    walls: Dict[str, float] = {}
    ranges: Dict[str, Tuple[int, int]] = {}
    clock = time.perf_counter

    def timed(phase: str, run):
        first, start = len(spans), clock()
        result = run()
        walls[phase], ranges[phase] = clock() - start, (first, len(spans))
        return result

    data_dir = state.work.sub("ingest", "replay")
    server = ReportServer(data_dir=data_dir, **_server_options())
    server.register_app(APP, state.original_key)
    handle = ServiceHandle.start(server, process_every=PROCESS_EVERY)
    try:
        transport = TcpTransport(handle.address, timeout=60)
        try:
            statuses_a = timed("a", lambda: [
                transport.send_many([f.blob])[0].value for f in state.phase_a])
        finally:
            transport.close()
        # The histogram's p99 sits at bucket resolution; the count of
        # reports above the 1 ms bound is exact.
        over_1ms = handle.call(lambda s: _frames_over(
            s.metrics.histogram("reporting.net.ingest_seconds"), 0.001))
        statuses_b, _wall, _acked = timed("b", lambda: _burst(handle.address, state.phase_b))
        snapshot = handle.call(lambda s: s.metrics.snapshot())
        before, before_key = handle.call(lambda s: (s.process(), s.verdicts()[APP])[1])
    finally:
        handle.kill()
        server.crash()
    _elapsed, verdict, key, _replayed = timed("c", lambda: _recover(data_dir))
    state.work.remove("ingest", "replay")

    wrong = sum(f.expected != s for f, s in zip(state.phase_a + state.phase_b,
                                                 statuses_a + statuses_b))
    m.check(wrong == 0, f"in-process replay: {wrong} frames differ from their class")
    m.check(snapshot.get("wal.appends") == state.accepted + 1,
            f"wal.appends {snapshot.get('wal.appends')} != accepted "
            f"{state.accepted} + 1 registration")
    m.check((verdict, key) == (before.value, before_key),
            f"in-process replay: verdict {verdict} on {key[:8]} after recovery, "
            f"{before.value} on {before_key[:8]} before the crash")
    digest = Digest()
    digest.add(statuses_a, statuses_b, verdict, key)
    return _Replay(digest.hexdigest(), walls, ranges, over_1ms,
                   snapshot.get("wal.failures", 0))


def replay(state: State, m: Measurement):
    """Traced run only: the server-side layers, measured in this process.

    The server of the measured rounds is another process, out of the
    tracer's reach.  So one round is replayed here, untraced and then
    traced: the same frames through an in-process ``ReportServer`` with
    the service's options behind an ``IngestService``, then a crash and
    a complete recovery.  Phase (a) sends one frame at a time
    (``TcpTransport.send_many`` of one frame), so the service's
    ``reporting.net.ingest_seconds`` histogram holds one service time
    per report; phase (b) is the same burst.  Returns the traced
    replay's ``layers.Profile``: busy and self times are shares of
    phase (b), the burst that ``ops_per_s`` measures, except
    ``net.client_wait`` (phase (a), where the client waits for each
    status) and ``wal.recover`` and ``server.verdict`` (phase (c), what
    ``pass_s`` measures);
    the overhead compares the traced replay with the untraced one, so
    it covers the server as well as the client.
    """
    from layers import Profile, install
    from spans import Tracer

    # The first in-process round also pays for first use (imports, the
    # service's setup, cold caches); it is run once and not counted.
    _replay_once(state, m, None)
    plain = _replay_once(state, m, None)
    tracer = Tracer()
    install(tracer)
    try:
        traced = _replay_once(state, m, tracer)
    finally:
        tracer.uninstall()
    for run in (plain, traced):
        m.check(run.digest == m.digest,
                f"in-process replay digest {run.digest} != measured rounds {m.digest}")
    wall = sum(traced.walls.values())
    overhead_pct = 100.0 * (wall / sum(plain.walls.values()) - 1.0)
    phase = {name: (tracer.spans[first:last], traced.walls[name])
             for name, (first, last) in traced.spans.items()}
    counts = dict(m.counts)
    counts["wal.failures"] = traced.wal_failures
    counts["net.server_ingest_over_1ms"] = traced.over_1ms
    return Profile(tracer, counts, wall, overhead_pct, share_of={
        "*": phase["b"], "net.client_wait": phase["a"],
        "wal.recover": phase["c"], "server.verdict": phase["c"],
    }, phases={"a": phase["a"], "b": phase["b"]})


def _frames_over(histogram, seconds: float) -> int:
    bounds = histogram.bounds + (math.inf,)
    return sum(n for bound, n in zip(bounds, histogram.bucket_counts) if bound > seconds)


def check(state: State, m: Measurement) -> None:
    lag = m.samples.get("lag", [])
    if lag:
        p99 = percentile(lag, 99) * 1e3
        m.check(p99 <= LAG_BOUND_MS,
                f"open-loop sender ran {p99:.2f} ms late at p99 (bound {LAG_BOUND_MS} ms): "
                "run invalid")


def end_to_end(m: Measurement) -> Tuple[Dict[str, float], List[str]]:
    reports = m.samples["report"]
    q = tail_percentile(PHASE_A_FRAMES)
    p50 = median(m.samples["window_p50"])
    tail = median(m.samples["window_tail"])
    backlog = median(m.samples["burst_p90"])
    # Pooled over the bursts: one burst lasts about half a second, and
    # single-burst rates varied by a third within one run.
    rate = PHASE_B_FRAMES * len(m.samples["burst_s"]) / sum(m.samples["burst_s"])
    recover_s = median(m.samples["recover"])
    lag = m.samples["lag"]
    metrics = {
        "ops_per_s": rate,
        "op_p50_ms": p50 * 1e3,
        "op_tail_ms": backlog * 1e3,
        "pass_s": recover_s,
    }
    statuses = ", ".join(
        f"{k[len('ingest.status.'):]}={int(v)}" for k, v in sorted(m.counts.items())
        if k.startswith("ingest.status."))
    rounds = m.passes

    def each(name: str, scale: float = 1.0) -> str:
        return ", ".join(f"{v * scale:.4g}" for v in m.samples[name])

    lines = [
        f"reports_per_s = {rate:.1f} 1/s  (phase b: {rounds} bursts of {PHASE_B_FRAMES} "
        f"over {CONNECTIONS} connections, pooled; each: "
        + ", ".join(f"{PHASE_B_FRAMES / s:.0f}" for s in m.samples["burst_s"]) + ")",
        f"backlog_p{BURST_TAIL:g}_ms = {backlog * 1e3:.4f} ms  (phase b: a burst report's "
        f"wait for its status, median of {rounds}: {each('burst_p90', 1e3)})",
        f"phase a: {PHASE_A_FRAMES} reports per round offered at {OFFERED_RATE:g}/s "
        f"({OFFERED_RATE / rate:.1%} of this run's burst rate); medians over {len(m.samples['window_p50'])} windows of {WINDOW_REPORTS} reports:",
        f"  report_p50_ms = {p50 * 1e3:.4f} ms  (windows {each('window_p50', 1e3)})",
        f"  report_p{WINDOW_TAIL:g}_ms = {tail * 1e3:.4f} ms  "
        f"(windows {each('window_tail', 1e3)})",
        f"  report_p{q:g}_ms = {median(m.samples['round_p99']) * 1e3:.4f} ms  "
        f"({PHASE_A_FRAMES - round(PHASE_A_FRAMES * q / 100)} beyond it per round: "
        f"{each('round_p99', 1e3)})",
        f"  all {len(reports)} reports pooled: p50 {median(reports) * 1e3:.4f} ms, "
        f"p{q:g} {percentile(reports, q) * 1e3:.4f} ms",
        f"sender lag p99 = {percentile(lag, 99) * 1e3:.4f} ms  (bound {LAG_BOUND_MS} ms)",
        f"recover_s = {recover_s:.4f} s  (recover + process + verdicts of "
        f"{int(m.counts.get('wal.replayed_records', 0) / rounds)} WAL records, median of "
        f"{RECOVERIES} per round over {rounds} rounds)",
        f"statuses: {statuses}",
    ]
    return metrics, lines
