"""Developer-side ingestion service for detection reports.

``ReportServer`` is the backend the paper implies but never builds: the
place where "thousands of user devices" (Section 4.2) deliver evidence
that a repackaged copy is circulating.  Design constraints, in order:

* **Bounded state.**  Millions of devices may report; the server must
  hold memory proportional to its *shard count*, never its device
  count.  Every structure -- ingest queues, nonce dedup windows,
  per-key sliding windows, the tracked-key set itself -- has a hard
  cap with explicit eviction/drop accounting.
* **Sharded aggregation.**  Reports are routed to one of N shards by a
  stable hash of the device id, so each device's state lives in exactly
  one shard and per-shard distinct-device counts sum to the global
  count without cross-shard coordination.
* **Adversarial inputs.**  Signatures are verified (a pirate cannot
  manufacture evidence against the *developer's* key), stale reports
  are rejected as replays, and client retries are deduplicated on
  ``(device, nonce)``.  A nonce outside ``[0, 2**64)`` or a non-finite
  timestamp is malformed: the first would alias a signed report past
  dedup, the second would pin the server clock.
* **Backpressure, not collapse.**  ``submit`` validates and enqueues;
  ``process`` drains queues into the takedown policy.  A full queue
  drops the report and says so (``SubmitStatus.DROPPED`` plus a
  counter) instead of growing without bound.
* **Durable, optionally.**  With ``data_dir`` set, accepted reports and
  takedown transitions are journaled to a per-shard write-ahead log
  *before* they mutate shard state, snapshots compact the log, and
  :meth:`ReportServer.recover` rebuilds the verdict state after a crash
  (:mod:`repro.reporting.durability`).  A report is only ever acked
  ``ACCEPTED`` once it is journaled; a failed journal write answers
  ``DROPPED`` so the client retries.

The takedown decision is a **sliding-window policy**: a takedown needs
``distinct_devices`` *different* devices naming the same foreign key
within ``window_seconds``.  That replaces the seed's bare counter
threshold -- a trickle of ancient reports no longer triggers takedowns,
and one noisy device cannot vote more than once.
"""

from __future__ import annotations

import enum
import math
import os
import zlib
from collections import OrderedDict, deque
from dataclasses import dataclass
from typing import Deque, Dict, Iterable, List, Optional, Tuple

from repro.errors import DurabilityError, ReportingError, WireError
from repro.metrics import MetricsRegistry
from repro.reporting.wire import (
    DetectionReport,
    SignedReport,
    canonical_bytes,
    decode_report,
    report_from_json,
)
from repro.reporting.verdicts import AggregatedVerdict


class SubmitStatus(enum.Enum):
    """Outcome of one ``submit`` call, mirrored in the metrics."""

    ACCEPTED = "accepted"
    DUPLICATE = "duplicate"          # (device, nonce) already seen
    REPLAYED = "replayed"            # older than the freshness window
    BAD_SIGNATURE = "bad_signature"  # forged / corrupted envelope
    MALFORMED = "malformed"          # frame does not decode
    UNKNOWN_APP = "unknown_app"      # app not registered here
    DROPPED = "dropped"              # shard queue full (backpressure)
    NOT_LEADER = "not_leader"        # fenced stale leader; follow redirect


@dataclass(frozen=True)
class TakedownPolicy:
    """Sliding-window takedown rule.

    ``distinct_devices`` different devices must name the same foreign
    key within ``window_seconds``.  The ``max_tracked_*`` caps bound
    per-shard memory; they are capacity limits, not semantics.
    """

    distinct_devices: int = 3
    window_seconds: float = 3600.0
    max_tracked_devices: int = 512   # window entries per key per shard
    max_tracked_keys: int = 64       # foreign keys tracked per shard


class _KeyWindow:
    """Sliding window of (timestamp, device) sightings of one key."""

    __slots__ = ("entries", "device_counts", "first_ts", "last_ts")

    def __init__(self) -> None:
        self.entries: Deque[Tuple[float, str]] = deque()
        self.device_counts: Dict[str, int] = {}
        self.first_ts = math.inf
        self.last_ts = -math.inf

    def add(self, ts: float, device_id: str, cap: int) -> None:
        if len(self.entries) >= cap:
            self._evict_oldest()
            self._recompute_bounds()
        self.entries.append((ts, device_id))
        self.device_counts[device_id] = self.device_counts.get(device_id, 0) + 1
        if ts < self.first_ts:
            self.first_ts = ts
        if ts > self.last_ts:
            self.last_ts = ts

    def prune(self, now: float, window_seconds: float) -> None:
        if math.isinf(window_seconds):
            return
        horizon = now - window_seconds
        dropped = False
        while self.entries and self.entries[0][0] < horizon:
            self._evict_oldest()
            dropped = True
        if dropped:
            self._recompute_bounds()

    def _evict_oldest(self) -> None:
        _, device_id = self.entries.popleft()
        remaining = self.device_counts[device_id] - 1
        if remaining:
            self.device_counts[device_id] = remaining
        else:
            del self.device_counts[device_id]

    def _recompute_bounds(self) -> None:
        # first/last must describe the *surviving* window, not the
        # all-time extremes -- takedown latency is measured from
        # first_ts, and an evicted ancient sighting must not stretch it.
        if self.entries:
            self.first_ts = min(ts for ts, _ in self.entries)
            self.last_ts = max(ts for ts, _ in self.entries)
        else:
            self.first_ts = math.inf
            self.last_ts = -math.inf

    def distinct_devices(self) -> int:
        return len(self.device_counts)

    def size(self) -> int:
        return len(self.entries)


class _Shard:
    """One shard: ingest queue, dedup window, per-key sliding windows."""

    __slots__ = ("queue", "nonce_order", "nonce_set", "windows")

    def __init__(self) -> None:
        self.queue: Deque[DetectionReport] = deque()
        self.nonce_order: Deque[Tuple[str, int]] = deque()
        self.nonce_set: set = set()
        # key -> window, in last-touched order for bounded eviction.
        self.windows: "OrderedDict[str, _KeyWindow]" = OrderedDict()

    def seen(self, device_id: str, nonce: int) -> bool:
        return (device_id, nonce) in self.nonce_set

    def remember(self, device_id: str, nonce: int, cap: int) -> None:
        token = (device_id, nonce)
        if len(self.nonce_order) >= cap:
            self.nonce_set.discard(self.nonce_order.popleft())
        self.nonce_order.append(token)
        self.nonce_set.add(token)

    def window_for(self, key: str, cap_keys: int) -> Tuple[_KeyWindow, bool]:
        """(window, evicted_one) -- creates and bounds the key set."""
        window = self.windows.get(key)
        evicted = False
        if window is None:
            if len(self.windows) >= cap_keys:
                self.windows.popitem(last=False)
                evicted = True
            window = self.windows[key] = _KeyWindow()
        else:
            self.windows.move_to_end(key)
        return window, evicted

    def tracked_size(self) -> int:
        return (
            len(self.queue)
            + len(self.nonce_set)
            + len(self.windows)
            + sum(w.size() for w in self.windows.values())
        )


class _AppState:
    """Per-registered-app ingestion state."""

    __slots__ = ("name", "original_key_hex", "shards", "takedown_key", "takedown_ts")

    def __init__(self, name: str, original_key_hex: str, shard_count: int) -> None:
        self.name = name
        self.original_key_hex = original_key_hex.lower()
        self.shards = [_Shard() for _ in range(shard_count)]
        self.takedown_key: Optional[str] = None
        self.takedown_ts: Optional[float] = None


def _admissible(report: DetectionReport) -> bool:
    """The signature covers the nonce only modulo 2**64 and the
    timestamp drives the server clock: an out-of-range nonce would alias
    an accepted report past dedup, and an infinite or NaN timestamp
    would pin the clock and age out every later report."""
    return 0 <= report.nonce < 1 << 64 and math.isfinite(report.timestamp)


class ReportServer:
    """Sharded, bounded ingestion service for signed detection reports."""

    def __init__(
        self,
        shards: int = 8,
        queue_capacity: int = 4096,
        dedup_window: int = 4096,
        max_report_age: float = 900.0,
        policy: Optional[TakedownPolicy] = None,
        metrics: Optional[MetricsRegistry] = None,
        data_dir: Optional[str] = None,
        snapshot_every: int = 1024,
        fsync: bool = False,
    ) -> None:
        if shards < 1:
            raise ReportingError("need at least one shard")
        self.shard_count = shards
        self.queue_capacity = queue_capacity
        self.dedup_window = dedup_window
        self.max_report_age = max_report_age
        self.policy = policy or TakedownPolicy()
        self.metrics = metrics or MetricsRegistry()
        self.clock = 0.0
        self._apps: Dict[str, _AppState] = {}
        #: Leadership generation.  Monotonic across crashes (journaled to
        #: the meta WAL, carried by snapshots) -- a promoted follower bumps
        #: it so a fenced stale leader is recognisable by its lower epoch.
        self.epoch = 0
        self._durability = None
        if data_dir is not None:
            from repro.reporting.durability import DurabilityLog

            self._durability = DurabilityLog(
                data_dir, shards, self.metrics,
                snapshot_every=snapshot_every, fsync=fsync,
            )
            self._recover_existing()
            self._durability.open()

    @classmethod
    def recover(cls, data_dir: str, **kwargs) -> "ReportServer":
        """Rebuild a server from its durable state after a crash.

        Loads the last verified snapshot, replays the WALs (tolerating a
        torn tail), and reopens the logs for append.  ``kwargs`` must
        match the crashed server's configuration -- in particular
        ``shards``, which the snapshot validates.
        """
        if not os.path.isdir(data_dir):
            raise DurabilityError(f"no durable state at {data_dir!r}")
        return cls(data_dir=data_dir, **kwargs)

    def close(self) -> None:
        """Graceful shutdown: compact into a snapshot and close the logs."""
        if self._durability is not None:
            self._durability.compact(self)
            self._durability.close()

    def crash(self) -> None:
        """Abandon the durable logs with no compaction (kill simulation).

        WAL appends are unbuffered, so everything acked before this call
        survives on disk; anything else is the crash's business.
        """
        if self._durability is not None:
            self._durability.close()

    def bump_epoch(self) -> int:
        """Advance the leadership epoch (journaled before it takes effect).

        Called on promotion: the new leader's epoch strictly exceeds every
        epoch the old leader ever served, so fencing decisions reduce to
        an integer comparison.
        """
        next_epoch = self.epoch + 1
        if self._durability is not None:
            self._durability.append_epoch(next_epoch)
        self.epoch = next_epoch
        return next_epoch

    # -- registration -------------------------------------------------------

    def register_app(self, app_name: str, original_key_hex: str) -> None:
        """Register an app the developer operates this backend for."""
        if app_name in self._apps:
            raise ReportingError(f"app {app_name!r} already registered")
        if self._durability is not None:
            self._durability.append_register(app_name, original_key_hex)
        self._apps[app_name] = _AppState(
            app_name, original_key_hex, self.shard_count
        )

    @property
    def apps(self) -> Iterable[str]:
        return self._apps.keys()

    # -- ingestion ----------------------------------------------------------

    def submit(self, item) -> SubmitStatus:
        """Validate and enqueue one report.

        Accepts a :class:`SignedReport`, binary frame bytes, or a JSON
        line.  Validation order: decode, admission (a nonce in
        ``[0, 2**64)`` and a finite timestamp), app lookup, signature,
        freshness, dedup, queue capacity.
        """
        self.metrics.counter("reporting.received").inc()
        try:
            if isinstance(item, (bytes, bytearray)):
                item = decode_report(item)
            elif isinstance(item, str):
                item = report_from_json(item)
        except WireError:
            item = None
        if not isinstance(item, SignedReport) or not _admissible(item.report):
            return self._reject("reporting.rejected_malformed", SubmitStatus.MALFORMED)
        app = self._apps.get(item.report.app_name)
        if app is None:
            return self._reject("reporting.unknown_app", SubmitStatus.UNKNOWN_APP)
        if not item.verify():
            return self._reject("reporting.rejected_forged", SubmitStatus.BAD_SIGNATURE)
        return self._admit(app, item.report)

    def _admit(self, app: _AppState, report: DetectionReport) -> SubmitStatus:
        if report.timestamp < self.clock - self.max_report_age:
            return self._reject("reporting.rejected_replayed", SubmitStatus.REPLAYED)
        if report.timestamp > self.clock:
            self.clock = report.timestamp
        shard_index = self._shard_index(report.device_id)
        shard = app.shards[shard_index]
        if shard.seen(report.device_id, report.nonce):
            return self._reject("reporting.duplicates_dropped", SubmitStatus.DUPLICATE)
        if len(shard.queue) >= self.queue_capacity:
            return self._reject("reporting.dropped_backpressure", SubmitStatus.DROPPED)
        if self._durability is not None:
            # Journal before mutating shard state: ACCEPTED means
            # durable.  A failed append answers DROPPED (and records no
            # nonce) so the client's retry is not misread as a duplicate.
            if not self._durability.append_report(app.name, report, shard_index):
                return self._reject("reporting.wal_failed", SubmitStatus.DROPPED)
        shard.remember(report.device_id, report.nonce, self.dedup_window)
        shard.queue.append(report)
        self.metrics.counter("reporting.accepted").inc()
        self._update_gauges()
        if self._durability is not None:
            self._durability.maybe_compact(self)
        return SubmitStatus.ACCEPTED

    def _reject(self, counter: str, status: SubmitStatus) -> SubmitStatus:
        self.metrics.counter(counter).inc()
        return status

    def _shard_index(self, device_id: str) -> int:
        # zlib.crc32 is stable across processes (str hash is salted).
        return zlib.crc32(device_id.encode("utf-8")) % self.shard_count

    def shard_for(self, device_id: str) -> int:
        """The shard owning ``device_id`` (the TCP acceptor routes by it)."""
        return self._shard_index(device_id)

    # -- processing ---------------------------------------------------------

    def process(self, limit: Optional[int] = None) -> int:
        """Drain shard queues into the sliding-window policy.

        Returns the number of reports applied.  ``limit`` caps the total
        across all shards (for incremental draining under load).
        """
        processed = 0
        policy = self.policy
        for app in self._apps.values():
            for shard in app.shards:
                while shard.queue:
                    if limit is not None and processed >= limit:
                        self._update_gauges()
                        return processed
                    report = shard.queue.popleft()
                    processed += 1
                    # Fingerprints are hex: case carries no meaning, and
                    # the original key was lowercased at registration.
                    key = report.observed_key_hex.lower()
                    if key == app.original_key_hex:
                        self.metrics.counter("reporting.original_key_reports").inc()
                        continue
                    window, evicted = shard.window_for(key, policy.max_tracked_keys)
                    if evicted:
                        self.metrics.counter("reporting.evicted_keys").inc()
                    window.add(
                        report.timestamp, report.device_id, policy.max_tracked_devices
                    )
        self.metrics.counter("reporting.processed").inc(processed)
        self._update_gauges()
        return processed

    # -- verdicts -----------------------------------------------------------

    def verdict(self, app_name: str) -> Tuple[AggregatedVerdict, str]:
        """The developer's decision for one app, and the offending key.

        Ties between foreign keys with equal distinct-device counts are
        broken deterministically: highest count first, then
        lexicographically greatest fingerprint.
        """
        app = self._apps.get(app_name)
        if app is None:
            raise ReportingError(f"unknown app {app_name!r}")
        counts: Dict[str, int] = {}
        first_ts: Dict[str, float] = {}
        for shard in app.shards:
            dead: List[str] = []
            for key, window in shard.windows.items():
                window.prune(self.clock, self.policy.window_seconds)
                distinct = window.distinct_devices()
                if not distinct:
                    # A window that pruned to empty must not keep
                    # occupying a max_tracked_keys slot -- dead keys
                    # would evict live ones.
                    dead.append(key)
                    continue
                counts[key] = counts.get(key, 0) + distinct
                ts = first_ts.get(key, math.inf)
                if window.first_ts < ts:
                    first_ts[key] = window.first_ts
            for key in dead:
                del shard.windows[key]
            if dead:
                self.metrics.counter("reporting.evicted_keys").inc(len(dead))
        if not counts:
            return AggregatedVerdict.CLEAN, ""
        best_key = max(counts, key=lambda key: (counts[key], key))
        if counts[best_key] >= self.policy.distinct_devices:
            if app.takedown_key is None:
                if self._durability is not None:
                    # Journal the transition before committing it, so a
                    # crash right here replays into the same takedown
                    # rather than a second one.
                    self._durability.append_takedown(
                        app.name, best_key, self.clock
                    )
                app.takedown_key = best_key
                app.takedown_ts = self.clock
                latency = max(0.0, self.clock - first_ts[best_key])
                self.metrics.counter("reporting.takedowns").inc()
                self.metrics.histogram(
                    "reporting.takedown_latency_seconds"
                ).observe(latency)
            return AggregatedVerdict.TAKEDOWN, best_key
        return AggregatedVerdict.SUSPECT, best_key

    def verdicts(self) -> Dict[str, Tuple[AggregatedVerdict, str]]:
        return {name: self.verdict(name) for name in self._apps}

    def takedown_candidates(self) -> List[Tuple[str, str]]:
        """(app, offending key) pairs whose verdict is TAKEDOWN."""
        out = []
        for name in self._apps:
            verdict, key = self.verdict(name)
            if verdict is AggregatedVerdict.TAKEDOWN:
                out.append((name, key))
        return out

    # -- durability ---------------------------------------------------------

    def _snapshot_state(self) -> dict:
        """Plain-data view of the durable state (snapshot payload)."""
        return {
            "clock": self.clock,
            "epoch": self.epoch,
            "apps": [
                {
                    "name": app.name,
                    "key": app.original_key_hex,
                    "takedown_key": app.takedown_key,
                    "takedown_ts": app.takedown_ts,
                    "shards": [
                        {
                            "nonces": list(shard.nonce_order),
                            "queue": [
                                canonical_bytes(report) for report in shard.queue
                            ],
                            "windows": [
                                (key, list(window.entries))
                                for key, window in shard.windows.items()
                            ],
                        }
                        for shard in app.shards
                    ],
                }
                for app in self._apps.values()
            ],
        }

    def _restore_state(self, state: dict) -> None:
        """Inverse of :meth:`_snapshot_state` (crash recovery)."""
        from repro.reporting.durability import decode_report_body

        self.clock = state["clock"]
        self.epoch = state.get("epoch", 0)
        for app_state in state["apps"]:
            if len(app_state["shards"]) != self.shard_count:
                raise DurabilityError(
                    f"snapshot has {len(app_state['shards'])} shards, "
                    f"server configured for {self.shard_count}"
                )
            app = _AppState(
                app_state["name"], app_state["key"], self.shard_count
            )
            app.takedown_key = app_state["takedown_key"]
            app.takedown_ts = app_state["takedown_ts"]
            for shard, shard_state in zip(app.shards, app_state["shards"]):
                for device, nonce in shard_state["nonces"]:
                    token = (device, nonce)
                    shard.nonce_order.append(token)
                    shard.nonce_set.add(token)
                for body in shard_state["queue"]:
                    shard.queue.append(decode_report_body(body))
                for key, entries in shard_state["windows"]:
                    window = _KeyWindow()
                    for ts, device in entries:
                        window.add(ts, device, self.policy.max_tracked_devices)
                    shard.windows[key] = window
            self._apps[app.name] = app

    def _recover_existing(self) -> None:
        """Snapshot + WAL replay into a freshly constructed server."""
        snapshot = self._durability.load_snapshot()
        if snapshot is not None:
            self._restore_state(snapshot)
        for record in self._durability.replay():
            kind = record[0]
            if kind == "register":
                _, name, key = record
                # Idempotent: the snapshot (or an earlier replay of the
                # same record after a crash mid-compaction) may already
                # hold the app.
                if name not in self._apps:
                    self._apps[name] = _AppState(name, key, self.shard_count)
            elif kind == "takedown":
                _, name, key, ts = record
                app = self._apps.get(name)
                if app is not None and app.takedown_key is None:
                    app.takedown_key = key
                    app.takedown_ts = ts
            elif kind == "epoch":
                _, epoch = record
                if epoch > self.epoch:
                    self.epoch = epoch
            else:  # report
                _, name, report = record
                app = self._apps.get(name)
                if app is None:
                    self.metrics.counter("recovery.skipped_records").inc()
                    continue
                if report.timestamp > self.clock:
                    self.clock = report.timestamp
                shard = app.shards[self._shard_index(report.device_id)]
                if shard.seen(report.device_id, report.nonce):
                    continue  # already in the snapshot: replay is idempotent
                shard.remember(report.device_id, report.nonce, self.dedup_window)
                shard.queue.append(report)
        self._update_gauges()

    # -- observability ------------------------------------------------------

    def tracked_state_size(self) -> int:
        """Entries held across all bounded structures (the O(shards) claim)."""
        return sum(
            shard.tracked_size()
            for app in self._apps.values()
            for shard in app.shards
        )

    def queue_depth(self) -> int:
        return sum(
            len(shard.queue)
            for app in self._apps.values()
            for shard in app.shards
        )

    def _update_gauges(self) -> None:
        self.metrics.gauge("reporting.queue_depth").set(self.queue_depth())
        self.metrics.gauge("reporting.tracked_state").set(self.tracked_state_size())
