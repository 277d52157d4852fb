"""Durable ingestion state: per-shard WAL + snapshot recovery.

The decentralized takedown story only works if the backend that
accumulates "thousands of user devices" worth of evidence survives to
act on it.  :class:`~repro.reporting.server.ReportServer` keeps all of
its bounded state in memory; this module makes that state survive a
process crash:

* **Write-ahead log.**  Every accepted report and every takedown
  transition is journaled *before* it mutates server state.  Reports go
  to one WAL file per shard (same ``crc32(device_id)`` routing as the
  in-memory shards), registrations and takedowns to a meta WAL, so
  replay order within a shard matches acceptance order and cross-shard
  order never mattered in the first place.
* **Record framing.**  ``>I length | >I crc32(payload) | payload`` --
  length-prefixed and checksummed, so replay detects both a torn tail
  (the record being written when the process died) and bit rot.  A bad
  record stops that file's replay, is counted in
  ``recovery.torn_records``, and the file is truncated back to the last
  good byte so the log stays appendable.
* **Snapshot compaction.**  Every ``snapshot_every`` appends the whole
  durable state (dedup windows, queues, sliding windows, takedown
  markers) is serialized, crc-guarded, written to a temp file,
  *verified by re-reading*, atomically renamed over the previous
  snapshot, and only then are the WALs truncated.  A snapshot that
  fails verification (``snapshot.write`` fault, disk error) aborts the
  compaction and keeps the WAL -- durability never regresses.
* **Recovery.**  ``ReportServer.recover(data_dir)`` loads the snapshot
  (ignoring a corrupt one: the WAL behind it is the fallback), replays
  the meta WAL then each shard WAL, and reopens the logs for append.
  Replay is idempotent -- a crash between snapshot rename and WAL
  truncation merely replays records whose ``(device, nonce)`` the
  snapshot already remembers.

What is deliberately *not* persisted: metrics (observability restarts
from zero), backpressure-dropped and rejected reports (never acked, the
client retries), and fleet-driver simulation state.

Fault points: ``wal.append`` (corrupts or fails a record write),
``wal.fsync`` (fails the sync barrier), ``snapshot.write`` (corrupts or
fails the snapshot payload).  All three degrade gracefully: a failed
append rejects the report as ``DROPPED`` (retryable, never acked-then-
lost), a failed snapshot keeps the WAL.
"""

from __future__ import annotations

import os
import struct
import zlib
from typing import Iterator, List, Optional, Tuple

from repro.chaos.faults import fault_point
from repro.errors import DurabilityError, ReproError, WireError
from repro.metrics import MetricsRegistry
from repro.reporting.wire import (
    DetectionReport,
    _decode_body,
    _pack_str,
    _unpack_str,
    canonical_bytes,
)

#: WAL record types.
RECORD_REPORT = 1
RECORD_TAKEDOWN = 2
RECORD_REGISTER = 3
RECORD_EPOCH = 4

#: Snapshot file framing.  Version 2 carries the leadership epoch;
#: version-1 images (pre-supervision) are rejected as unsupported.
SNAPSHOT_MAGIC = b"RSNP"
SNAPSHOT_VERSION = 2
SNAPSHOT_NAME = "snapshot.bin"

#: ``>I length | >I crc32`` record header.
_HEADER = struct.Struct(">II")

#: Snapshot payload head: version, clock, 8 reserved bytes (written 0,
#: ignored on read), epoch, app count.
_SNAPSHOT_HEAD = struct.Struct(">BdQQH")


# ---------------------------------------------------------------------------
# Record codec
# ---------------------------------------------------------------------------


def encode_report_record(app_name: str, report: DetectionReport) -> bytes:
    """Journal payload for one accepted report.

    The byte after the record type is reserved (written 0, ignored on
    read); data dirs that set it still replay.
    """
    return b"".join(
        (
            struct.pack(">BB", RECORD_REPORT, 0),
            _pack_str(app_name),
            canonical_bytes(report),
        )
    )


def encode_takedown_record(app_name: str, key_hex: str, ts: float) -> bytes:
    """Journal payload for one takedown transition."""
    return b"".join(
        (
            struct.pack(">B", RECORD_TAKEDOWN),
            _pack_str(app_name),
            _pack_str(key_hex),
            struct.pack(">d", ts),
        )
    )


def encode_register_record(app_name: str, original_key_hex: str) -> bytes:
    """Journal payload for one app registration."""
    return b"".join(
        (
            struct.pack(">B", RECORD_REGISTER),
            _pack_str(app_name),
            _pack_str(original_key_hex),
        )
    )


def encode_epoch_record(epoch: int) -> bytes:
    """Journal payload for one leadership-epoch bump (meta WAL)."""
    return struct.pack(">BQ", RECORD_EPOCH, epoch & 0xFFFFFFFFFFFFFFFF)


def decode_record(payload: bytes) -> Tuple:
    """Inverse of the ``encode_*_record`` family.

    Returns one of ``("report", app, report)``,
    ``("takedown", app, key, ts)``, ``("register", app, key)``,
    ``("epoch", epoch)``.
    """
    if not payload:
        raise WireError("empty WAL record")
    kind = payload[0]
    if kind == RECORD_REPORT:
        if len(payload) < 2:
            raise WireError("truncated WAL report record")
        app_name, offset = _unpack_str(payload, 2)
        return ("report", app_name, _decode_body(payload[offset:]))
    if kind == RECORD_TAKEDOWN:
        app_name, offset = _unpack_str(payload, 1)
        key_hex, offset = _unpack_str(payload, offset)
        if offset + 8 != len(payload):
            raise WireError("malformed WAL takedown record")
        (ts,) = struct.unpack_from(">d", payload, offset)
        return ("takedown", app_name, key_hex, ts)
    if kind == RECORD_REGISTER:
        app_name, offset = _unpack_str(payload, 1)
        key_hex, offset = _unpack_str(payload, offset)
        if offset != len(payload):
            raise WireError("malformed WAL register record")
        return ("register", app_name, key_hex)
    if kind == RECORD_EPOCH:
        if len(payload) != 9:
            raise WireError("malformed WAL epoch record")
        (epoch,) = struct.unpack_from(">Q", payload, 1)
        return ("epoch", epoch)
    raise WireError(f"unknown WAL record type {kind}")


def decode_report_body(body: bytes) -> DetectionReport:
    """Decode a canonical report body (snapshot queue entries)."""
    return _decode_body(body)


# ---------------------------------------------------------------------------
# Snapshot codec
# ---------------------------------------------------------------------------
#
# The snapshot payload is a plain nested structure the server produces
# (``ReportServer._snapshot_state``) and consumes
# (``ReportServer._restore_state``)::
#
#     {"clock": float, "epoch": int, "apps": [
#         {"name": str, "key": str,
#          "takedown_key": Optional[str], "takedown_ts": Optional[float],
#          "shards": [
#              {"nonces": [(device, nonce), ...],
#               "queue": [canonical report bytes, ...],
#               "windows": [(key, [(ts, device), ...]), ...]}]}]}


def encode_snapshot(state: dict) -> bytes:
    """Deterministic binary serialization of the durable server state."""
    parts: List[bytes] = [
        _SNAPSHOT_HEAD.pack(
            SNAPSHOT_VERSION, state["clock"], 0, state.get("epoch", 0),
            len(state["apps"]),
        )
    ]
    for app in state["apps"]:
        parts.append(_pack_str(app["name"]))
        parts.append(_pack_str(app["key"]))
        if app["takedown_key"] is None:
            parts.append(struct.pack(">B", 0))
        else:
            parts.append(struct.pack(">B", 1))
            parts.append(_pack_str(app["takedown_key"]))
            parts.append(struct.pack(">d", app["takedown_ts"] or 0.0))
        parts.append(struct.pack(">H", len(app["shards"])))
        for shard in app["shards"]:
            parts.append(struct.pack(">I", len(shard["nonces"])))
            for device, nonce in shard["nonces"]:
                parts.append(_pack_str(device))
                parts.append(struct.pack(">Q", nonce & 0xFFFFFFFFFFFFFFFF))
            parts.append(struct.pack(">I", len(shard["queue"])))
            for body in shard["queue"]:
                parts.append(struct.pack(">I", len(body)))
                parts.append(body)
            parts.append(struct.pack(">H", len(shard["windows"])))
            for key, entries in shard["windows"]:
                parts.append(_pack_str(key))
                parts.append(struct.pack(">I", len(entries)))
                for ts, device in entries:
                    parts.append(struct.pack(">d", ts))
                    parts.append(_pack_str(device))
    return b"".join(parts)


def decode_snapshot(payload: bytes) -> dict:
    """Inverse of :func:`encode_snapshot`; raises :class:`WireError`."""
    try:
        return _decode_snapshot(payload)
    except (struct.error, IndexError) as exc:
        raise WireError(f"malformed snapshot: {exc}") from None


def _decode_snapshot(payload: bytes) -> dict:
    if not payload or payload[0] != SNAPSHOT_VERSION:
        raise WireError("unsupported snapshot version")
    _, clock, _, epoch, napps = _SNAPSHOT_HEAD.unpack_from(payload)
    offset = _SNAPSHOT_HEAD.size
    apps = []
    for _ in range(napps):
        name, offset = _unpack_str(payload, offset)
        key, offset = _unpack_str(payload, offset)
        has_takedown = payload[offset]
        offset += 1
        takedown_key: Optional[str] = None
        takedown_ts: Optional[float] = None
        if has_takedown:
            takedown_key, offset = _unpack_str(payload, offset)
            (takedown_ts,) = struct.unpack_from(">d", payload, offset)
            offset += 8
        (nshards,) = struct.unpack_from(">H", payload, offset)
        offset += 2
        shards = []
        for _ in range(nshards):
            (n_nonces,) = struct.unpack_from(">I", payload, offset)
            offset += 4
            nonces = []
            for _ in range(n_nonces):
                device, offset = _unpack_str(payload, offset)
                (nonce,) = struct.unpack_from(">Q", payload, offset)
                offset += 8
                nonces.append((device, nonce))
            (n_queue,) = struct.unpack_from(">I", payload, offset)
            offset += 4
            queue = []
            for _ in range(n_queue):
                (body_len,) = struct.unpack_from(">I", payload, offset)
                offset += 4
                body = payload[offset : offset + body_len]
                if len(body) != body_len:
                    raise WireError("truncated snapshot queue entry")
                offset += body_len
                queue.append(body)
            (n_windows,) = struct.unpack_from(">H", payload, offset)
            offset += 2
            windows = []
            for _ in range(n_windows):
                wkey, offset = _unpack_str(payload, offset)
                (n_entries,) = struct.unpack_from(">I", payload, offset)
                offset += 4
                entries = []
                for _ in range(n_entries):
                    (ts,) = struct.unpack_from(">d", payload, offset)
                    offset += 8
                    device, offset = _unpack_str(payload, offset)
                    entries.append((ts, device))
                windows.append((wkey, entries))
            shards.append({"nonces": nonces, "queue": queue, "windows": windows})
        apps.append(
            {
                "name": name,
                "key": key,
                "takedown_key": takedown_key,
                "takedown_ts": takedown_ts,
                "shards": shards,
            }
        )
    if offset != len(payload):
        raise WireError("trailing bytes after snapshot payload")
    return {
        "clock": clock,
        "epoch": epoch,
        "apps": apps,
    }


# ---------------------------------------------------------------------------
# The durability log
# ---------------------------------------------------------------------------


class _WalFile:
    """One append-only, unbuffered WAL file.

    Unbuffered so that every acked append is visible to the OS -- a
    process kill (the chaos crash model) loses nothing that was acked.
    ``fsync`` is the separate, optional power-loss barrier.
    """

    __slots__ = ("path", "_handle")

    def __init__(self, path: str) -> None:
        self.path = path
        self._handle = open(path, "ab", buffering=0)

    def append(self, payload: bytes) -> bytes:
        record = _HEADER.pack(len(payload), zlib.crc32(payload)) + payload
        # The fault point may corrupt the record as written (bit rot on
        # the way to flash) or raise (write failure).  The *clean* record
        # is returned for observers (replication ships what the server
        # journaled, not what local bit rot mangled).
        self._handle.write(fault_point("wal.append", record))
        return record

    def sync(self) -> None:
        fault_point("wal.fsync")
        os.fsync(self._handle.fileno())

    def truncate(self) -> None:
        os.ftruncate(self._handle.fileno(), 0)

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.close()


class DurabilityLog:
    """Owns the data directory of one :class:`ReportServer`.

    Layout: ``wal-meta.log`` (registrations, takedowns),
    ``wal-000.log .. wal-NNN.log`` (accepted reports, one per shard),
    ``snapshot.bin`` (last verified compaction).
    """

    def __init__(
        self,
        data_dir: str,
        shard_count: int,
        metrics: MetricsRegistry,
        *,
        snapshot_every: int = 1024,
        fsync: bool = False,
    ) -> None:
        if shard_count < 1:
            raise DurabilityError("need at least one shard")
        os.makedirs(data_dir, exist_ok=True)
        self.data_dir = data_dir
        self.shard_count = shard_count
        self.metrics = metrics
        self.snapshot_every = snapshot_every
        self.fsync = fsync
        self._appends_since_snapshot = 0
        self._meta: Optional[_WalFile] = None
        self._shards: List[Optional[_WalFile]] = [None] * shard_count
        self._observers: List = []

    def add_observer(self, observer) -> None:
        """Subscribe to durable events (the WAL is the replication log).

        ``observer(event, index, payload)`` fires *after* the bytes are
        durable: ``("record", shard_index_or_-1_for_meta, record)`` for
        every successful append, ``("snapshot", -1, file_image)`` after
        every successful compaction.
        """
        self._observers.append(observer)

    # -- paths --------------------------------------------------------------

    def _meta_path(self) -> str:
        return os.path.join(self.data_dir, "wal-meta.log")

    def _shard_path(self, index: int) -> str:
        return os.path.join(self.data_dir, f"wal-{index:03d}.log")

    def snapshot_path(self) -> str:
        return os.path.join(self.data_dir, SNAPSHOT_NAME)

    # -- lifecycle ----------------------------------------------------------

    def open(self) -> None:
        """Open (and create) every WAL for append."""
        if self._meta is None:
            self._meta = _WalFile(self._meta_path())
        for index in range(self.shard_count):
            if self._shards[index] is None:
                self._shards[index] = _WalFile(self._shard_path(index))

    def close(self) -> None:
        if self._meta is not None:
            self._meta.close()
            self._meta = None
        for index, wal in enumerate(self._shards):
            if wal is not None:
                wal.close()
                self._shards[index] = None

    # -- appends ------------------------------------------------------------

    def append_report(
        self, app_name: str, report: DetectionReport, shard_index: int
    ) -> bool:
        return self._append(
            self._shards[shard_index],
            encode_report_record(app_name, report),
            shard_index,
        )

    def append_takedown(self, app_name: str, key_hex: str, ts: float) -> bool:
        return self._append(
            self._meta, encode_takedown_record(app_name, key_hex, ts), -1
        )

    def append_register(self, app_name: str, original_key_hex: str) -> bool:
        return self._append(
            self._meta, encode_register_record(app_name, original_key_hex), -1
        )

    def append_epoch(self, epoch: int) -> bool:
        return self._append(self._meta, encode_epoch_record(epoch), -1)

    def _append(
        self, wal: Optional[_WalFile], payload: bytes, index: int = -1
    ) -> bool:
        if wal is None:
            raise DurabilityError("durability log is not open")
        try:
            record = wal.append(payload)
            if self.fsync:
                wal.sync()
        except (OSError, ReproError):
            self.metrics.counter("wal.failures").inc()
            return False
        self.metrics.counter("wal.appends").inc()
        self._appends_since_snapshot += 1
        for observer in self._observers:
            observer("record", index, record)
        return True

    # -- compaction ---------------------------------------------------------

    def maybe_compact(self, server) -> bool:
        if self._appends_since_snapshot < self.snapshot_every:
            return False
        return self.compact(server)

    def compact(self, server) -> bool:
        """Snapshot the server's durable state and truncate the WALs.

        The temp file is re-read and crc-verified before the atomic
        rename; any corruption or failure aborts and keeps the WAL, so
        a bad compaction can never lose journaled records.
        """
        payload = encode_snapshot(server._snapshot_state())
        crc = zlib.crc32(payload)
        tmp_path = self.snapshot_path() + ".tmp"
        try:
            written = fault_point("snapshot.write", payload)
            with open(tmp_path, "wb") as handle:
                handle.write(SNAPSHOT_MAGIC)
                handle.write(written)
                handle.write(struct.pack(">I", crc))
                handle.flush()
                os.fsync(handle.fileno())
            if self._read_snapshot_payload(tmp_path) is None:
                raise DurabilityError("snapshot failed verification")
        except (OSError, ReproError):
            self.metrics.counter("snapshot.failures").inc()
            try:
                os.unlink(tmp_path)
            except OSError:
                pass
            return False
        os.replace(tmp_path, self.snapshot_path())
        if self._meta is not None:
            self._meta.truncate()
        for wal in self._shards:
            if wal is not None:
                wal.truncate()
        self._appends_since_snapshot = 0
        self.metrics.counter("snapshot.compactions").inc()
        # Followers mirror the compaction: a full snapshot file image
        # supersedes (and truncates) their shipped WALs.
        image = SNAPSHOT_MAGIC + payload + struct.pack(">I", crc)
        for observer in self._observers:
            observer("snapshot", -1, image)
        return True

    # -- recovery -----------------------------------------------------------

    def load_snapshot(self) -> Optional[dict]:
        """Decode the last snapshot, or None (missing / corrupt)."""
        payload = self._read_snapshot_payload(self.snapshot_path())
        if payload is None:
            return None
        try:
            state = decode_snapshot(payload)
        except WireError:
            self.metrics.counter("recovery.corrupt_snapshots").inc()
            return None
        self.metrics.counter("snapshot.loads").inc()
        return state

    def _read_snapshot_payload(self, path: str) -> Optional[bytes]:
        try:
            with open(path, "rb") as handle:
                blob = handle.read()
        except OSError:
            return None
        if len(blob) < 9 or blob[:4] != SNAPSHOT_MAGIC:
            self.metrics.counter("recovery.corrupt_snapshots").inc()
            return None
        payload, (crc,) = blob[4:-4], struct.unpack(">I", blob[-4:])
        if zlib.crc32(payload) != crc:
            self.metrics.counter("recovery.corrupt_snapshots").inc()
            return None
        return payload

    def replay(self) -> Iterator[Tuple]:
        """Yield every decoded record: meta WAL first, then each shard.

        A torn or bit-flipped record ends that file's replay, is
        counted in ``recovery.torn_records``, and the file is truncated
        back to its last intact record so future appends stay parseable.
        """
        paths = [self._meta_path()]
        paths.extend(self._shard_path(i) for i in range(self.shard_count))
        for path in paths:
            try:
                with open(path, "rb") as handle:
                    data = handle.read()
            except OSError:
                continue
            offset = 0
            while offset + _HEADER.size <= len(data):
                length, crc = _HEADER.unpack_from(data, offset)
                end = offset + _HEADER.size + length
                if end > len(data):
                    break  # torn tail: record outruns the file
                payload = data[offset + _HEADER.size : end]
                if zlib.crc32(payload) != crc:
                    break  # bit rot (or a torn header mid-file)
                try:
                    record = decode_record(payload)
                except WireError:
                    self.metrics.counter("recovery.skipped_records").inc()
                else:
                    self.metrics.counter("wal.replayed").inc()
                    yield record
                offset = end
            if offset < len(data):
                self.metrics.counter("recovery.torn_records").inc()
                with open(path, "r+b") as handle:
                    handle.truncate(offset)
