"""The asyncio TCP ingestion service (and its thread-hosted handle).

:class:`IngestService` is the networked face of
:class:`~repro.reporting.server.ReportServer`: one acceptor, a
per-connection :class:`~repro.reporting.net.framing.FrameReader`, and
one bounded queue + worker task per shard.  Design invariants:

* **The server object stays single-threaded.**  Every ``submit`` /
  ``process`` / ``verdict`` runs on the event loop (shard workers are
  tasks, not threads), so the in-process server needs no locks and the
  WAL write ordering of PR 4 is untouched.
* **Backpressure is deterministic.**  The handler enqueues *every*
  frame a read chunk completed before awaiting anything; with the
  single-threaded loop that makes "queue full -> DROPPED" a pure
  function of queue depth and arrival order, which is what lets tests
  assert exact drop accounting.  A dropped frame still answers its
  status byte (0x07), so the device client's retry/backoff semantics
  carry over unchanged.
* **ACCEPTED still means durable.**  Frames are answered only after the
  shard worker ran ``server.submit`` -- which journals before mutating
  -- so the status byte carries the same guarantee as the in-process
  return value.

Replication piggybacks on the same loop: when the server is durable and
``replication_port`` is given, a second listener streams HELLO +
bootstrap SNAPSHOT + every subsequent WAL append (via a
``DurabilityLog`` observer) to each follower, and reads cumulative-ack
messages back.  ``stop()`` drains shard queues *and* flushes follower
relay queues before closing, so a follower that sees EOF after a clean
leader shutdown holds every record the leader journaled.

:class:`ServiceHandle` hosts the service on a daemon-thread event loop
for the synchronous callers (fleet driver, tests): ``call(fn)`` runs a
function against the server *on the loop* and returns its result, which
is the only sanctioned cross-thread access to a served server.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import struct
import threading
import time
from typing import Callable, List, Optional, Tuple, TypeVar

from repro.chaos.faults import fault_point
from repro.errors import FaultInjected, ReportingError, WireError
from repro.metrics import INGEST_BUCKETS, MetricsRegistry
from repro.reporting.net.framing import (
    FENCE_MAGIC,
    HEALTH_MAGIC,
    META_WAL,
    MSG_HEARTBEAT,
    MSG_HELLO,
    MSG_RECORD,
    MSG_SNAPSHOT,
    FrameReader,
    HealthStatus,
    MessageReader,
    decode_fence,
    encode_health,
    encode_message,
    encode_redirect,
    encode_status,
    format_endpoint,
)
from repro.reporting.server import ReportServer, SubmitStatus
from repro.reporting.wire import decode_report

T = TypeVar("T")

__all__ = ["INGEST_BUCKETS", "ConnStats", "IngestService", "ServiceHandle"]


class ConnStats:
    """Per-connection tallies, kept after the connection closes."""

    __slots__ = ("conn_id", "peer", "frames", "dropped", "desync")

    def __init__(self, conn_id: int, peer: str) -> None:
        self.conn_id = conn_id
        self.peer = peer
        self.frames = 0
        self.dropped = 0
        self.desync = False

    def describe(self) -> str:
        line = f"conn {self.conn_id:03d} {self.peer}: {self.frames} frame(s)"
        if self.dropped:
            line += f", {self.dropped} dropped"
        if self.desync:
            line += ", desynchronized"
        return line


class IngestService:
    """Asyncio TCP front end for one :class:`ReportServer`."""

    def __init__(
        self,
        server: ReportServer,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        replication_host: Optional[str] = None,
        replication_port: Optional[int] = None,
        shard_queue_depth: int = 256,
        process_every: int = 512,
        read_chunk: int = 65536,
        heartbeat_interval: float = 0.5,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if shard_queue_depth < 1:
            raise ReportingError("shard_queue_depth must be >= 1")
        if replication_port is not None:
            if server._durability is None:
                raise ReportingError(
                    "replication requires a durable server (data_dir set): "
                    "the WAL is the replication log"
                )
            if server.shard_count >= META_WAL:
                raise ReportingError(
                    f"replication supports at most {META_WAL - 1} shards"
                )
        self.server = server
        self.host = host
        self.port = port
        self.replication_host = replication_host if replication_host is not None else host
        self.replication_port = replication_port
        self.shard_queue_depth = shard_queue_depth
        self.process_every = process_every
        self.read_chunk = read_chunk
        self.heartbeat_interval = heartbeat_interval
        self.metrics = metrics if metrics is not None else server.metrics
        self.conn_stats: List[ConnStats] = []

        self._queues: List[asyncio.Queue] = []
        self._workers: List[asyncio.Task] = []
        self._handler_tasks: "set[asyncio.Task]" = set()
        self._follower_queues: List[asyncio.Queue] = []
        self._relay_tasks: List[asyncio.Task] = []
        self._listener: Optional[asyncio.AbstractServer] = None
        self._repl_listener: Optional[asyncio.AbstractServer] = None
        self._heartbeat_task: Optional[asyncio.Task] = None
        self._closed = False
        self._unprocessed = 0
        self._next_conn_id = 0
        # Fencing state: once set, every write is answered NOT_LEADER
        # plus a redirect to the new leader, and never reaches the server.
        self._fenced_epoch: Optional[int] = None
        self._fenced_endpoint = ""

    # -- lifecycle ----------------------------------------------------------

    @property
    def address(self) -> Tuple[str, int]:
        """The bound ingest ``(host, port)`` (after ``start()``)."""
        if self._listener is None:
            raise ReportingError("service not started")
        return self._listener.sockets[0].getsockname()[:2]

    @property
    def replication_address(self) -> Tuple[str, int]:
        """The bound replication ``(host, port)`` (when enabled)."""
        if self._repl_listener is None:
            raise ReportingError("replication not enabled")
        return self._repl_listener.sockets[0].getsockname()[:2]

    async def start(self) -> None:
        for _ in range(self.server.shard_count):
            queue: asyncio.Queue = asyncio.Queue(maxsize=self.shard_queue_depth)
            self._queues.append(queue)
            self._workers.append(asyncio.ensure_future(self._shard_worker(queue)))
        self._listener = await asyncio.start_server(
            self._on_connection, self.host, self.port
        )
        if self.replication_port is not None:
            self._repl_listener = await asyncio.start_server(
                self._on_replica, self.replication_host, self.replication_port
            )
            self.server._durability.add_observer(self._on_wal_event)
            if self.heartbeat_interval > 0:
                self._heartbeat_task = asyncio.ensure_future(
                    self._heartbeat_loop()
                )

    async def stop(self) -> None:
        """Graceful drain: answer in-flight frames, flush followers.

        Order matters: stop accepting, let shard workers drain their
        queues, run a final ``process()``, then flush every follower
        relay queue to EOF (a follower of a *cleanly* stopped leader
        misses nothing), and only then tear down handler tasks.
        """
        if self._closed:
            return
        self._closed = True
        if self._heartbeat_task is not None:
            self._heartbeat_task.cancel()
            await asyncio.gather(self._heartbeat_task, return_exceptions=True)
        for listener in (self._listener, self._repl_listener):
            if listener is not None:
                listener.close()
                await listener.wait_closed()
        for queue in self._queues:
            await queue.put(None)
        if self._workers:
            await asyncio.gather(*self._workers, return_exceptions=True)
        self.server.process()
        for queue in self._follower_queues:
            await queue.put(None)
        if self._relay_tasks:
            await asyncio.gather(*self._relay_tasks, return_exceptions=True)
        for task in list(self._handler_tasks):
            task.cancel()
        if self._handler_tasks:
            await asyncio.gather(*self._handler_tasks, return_exceptions=True)

    def abort(self) -> None:
        """Die mid-stream: no drain, no flush, no final process.

        This is the ``net.failover`` fault and the fleet's leader-kill:
        connections break, follower streams hit EOF wherever the relay
        happened to be, and whatever only the leader knew is lost --
        exactly the failure replication must absorb.
        """
        if self._closed:
            return
        self._closed = True
        for listener in (self._listener, self._repl_listener):
            if listener is not None:
                listener.close()
        tasks = self._workers + self._relay_tasks + list(self._handler_tasks)
        if self._heartbeat_task is not None:
            tasks.append(self._heartbeat_task)
        for task in tasks:
            task.cancel()

    # -- ingest path --------------------------------------------------------

    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._handler_tasks.add(task)
            task.add_done_callback(self._handler_tasks.discard)
        peername = writer.get_extra_info("peername")
        peer = f"{peername[0]}:{peername[1]}" if peername else "?"
        stats = ConnStats(self._next_conn_id, peer)
        self._next_conn_id += 1
        self.conn_stats.append(stats)
        self.metrics.counter("reporting.net.connections").inc()
        drop_counter = self.metrics.counter(
            f"reporting.net.conn.{stats.conn_id:03d}.dropped"
        )
        frames = FrameReader()
        ingest_hist = self.metrics.histogram(
            "reporting.net.ingest_seconds", INGEST_BUCKETS
        )
        # The first four bytes select the protocol: DRPT frame ingestion
        # or the cluster-control plane (health probes, fence requests).
        # Buffering until the preamble is complete keeps the dispatch
        # correct under byte-at-a-time chunking.
        mode: Optional[str] = None
        control = bytearray()
        try:
            while not self._closed:
                data = await reader.read(self.read_chunk)
                if not data:
                    break
                if mode is None:
                    control.extend(data)
                    if len(control) < 4:
                        continue
                    head = bytes(control[:4])
                    mode = (
                        "control"
                        if head in (HEALTH_MAGIC, FENCE_MAGIC)
                        else "frames"
                    )
                    data = bytes(control)
                    del control[:]
                if mode == "control":
                    control.extend(data)
                    if not await self._serve_control(control, writer, stats):
                        break
                    continue
                started = time.perf_counter()
                try:
                    blobs = frames.feed(data)
                except WireError:
                    stats.desync = True
                    self.metrics.counter("reporting.net.desync").inc()
                    break
                # Enqueue every frame this chunk completed *before* the
                # first await: deterministic drops (see module docs).
                pending: List["asyncio.Future[SubmitStatus]"] = []
                for blob in blobs:
                    try:
                        fault_point("net.failover")
                    except FaultInjected:
                        self.metrics.counter("reporting.net.failover_faults").inc()
                        self.abort()
                        return
                    pending.append(self._route(blob, stats, drop_counter))
                for future in pending:
                    status = await future
                    ingest_hist.observe(time.perf_counter() - started)
                    stats.frames += 1
                    writer.write(encode_status(status))
                    if status is SubmitStatus.NOT_LEADER:
                        writer.write(
                            encode_redirect(
                                self._fenced_epoch or 0, self._fenced_endpoint
                            )
                        )
                await writer.drain()
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                # CancelledError: abort() tore the loop down while this
                # connection was mid-close -- the socket dies with it.
                pass

    async def _serve_control(
        self, buffer: bytearray, writer: asyncio.StreamWriter, stats: ConnStats
    ) -> bool:
        """Answer every complete control request in ``buffer``.

        Returns False when the stream is garbage and the connection
        should close; partial requests stay buffered for the next read.
        """
        while len(buffer) >= 4:
            head = bytes(buffer[:4])
            if head == HEALTH_MAGIC:
                del buffer[:4]
                payload = encode_health(self.health_status())
                writer.write(struct.pack(">H", len(payload)) + payload)
                await writer.drain()
                stats.frames += 1
                self.metrics.counter("reporting.net.health_probes").inc()
                continue
            if head == FENCE_MAGIC:
                if len(buffer) < 14:
                    return True
                (endpoint_len,) = struct.unpack_from(">H", buffer, 12)
                total = 14 + endpoint_len
                if len(buffer) < total:
                    return True
                try:
                    epoch, endpoint = decode_fence(bytes(buffer[4:total]))
                except WireError:
                    stats.desync = True
                    self.metrics.counter("reporting.net.desync").inc()
                    return False
                del buffer[:total]
                try:
                    accepted = self.fence(epoch, endpoint)
                except FaultInjected:
                    # The fence was lost in transit (net.stale_leader):
                    # the supervisor sees a refusal and re-fences later.
                    self.metrics.counter(
                        "reporting.net.stale_leader_faults"
                    ).inc()
                    accepted = False
                writer.write(b"\x01" if accepted else b"\x00")
                await writer.drain()
                stats.frames += 1
                continue
            stats.desync = True
            self.metrics.counter("reporting.net.desync").inc()
            return False
        return True

    # -- cluster control ----------------------------------------------------

    def fence(self, epoch: int, endpoint: str) -> bool:
        """Demote this node: reject writes, redirect clients to ``endpoint``.

        Monotonic: only an epoch strictly above everything this node has
        seen (its own and any earlier fence) applies -- a delayed or
        replayed fence from a *previous* failover is ignored, so fencing
        can never move leadership backwards.
        """
        fault_point("net.stale_leader")
        current = self.server.epoch
        if self._fenced_epoch is not None:
            current = max(current, self._fenced_epoch)
        if epoch <= current:
            return False
        self._fenced_epoch = epoch
        self._fenced_endpoint = endpoint
        self.metrics.counter("reporting.net.fenced").inc()
        return True

    @property
    def fenced(self) -> bool:
        return self._fenced_epoch is not None

    def health_status(self) -> HealthStatus:
        """This node's health, as answered to probes and heartbeats."""
        server = self.server
        fenced = self._fenced_epoch is not None
        wal_depth = 0
        if server._durability is not None:
            wal_depth = server._durability._appends_since_snapshot
        if fenced:
            endpoint = self._fenced_endpoint
        elif self._listener is not None:
            endpoint = format_endpoint(self.address)
        else:
            endpoint = ""
        return HealthStatus(
            epoch=self._fenced_epoch if fenced else server.epoch,
            role="fenced" if fenced else "leader",
            applied=int(server.metrics.counter("reporting.accepted").value),
            wal_depth=int(wal_depth),
            queue_depth=sum(queue.qsize() for queue in self._queues),
            dropped=int(self.metrics.counter("reporting.net.dropped").value),
            endpoint=endpoint,
        )

    async def _heartbeat_loop(self) -> None:
        """Periodic liveness beat relayed to every follower."""
        try:
            while not self._closed:
                await asyncio.sleep(self.heartbeat_interval)
                if not self._follower_queues:
                    continue
                message = encode_message(
                    MSG_HEARTBEAT, encode_health(self.health_status())
                )
                for queue in self._follower_queues:
                    queue.put_nowait(message)
        except asyncio.CancelledError:
            pass

    def _route(
        self, blob: bytes, stats: ConnStats, drop_counter
    ) -> "asyncio.Future[SubmitStatus]":
        """Queue one frame for its owning shard; never awaits."""
        loop = asyncio.get_running_loop()
        future: "asyncio.Future[SubmitStatus]" = loop.create_future()
        if self._fenced_epoch is not None:
            # A fenced node accepts nothing: the frame never reaches the
            # server, so its counters (and WAL) stay flat post-fence.
            self.metrics.counter("reporting.net.not_leader").inc()
            future.set_result(SubmitStatus.NOT_LEADER)
            return future
        try:
            signed = decode_report(blob)
        except WireError:
            # Malformed frames never reach a shard queue; submit inline
            # so the MALFORMED counters stay identical to in-process.
            future.set_result(self.server.submit(blob))
            return future
        shard = self.server.shard_for(signed.report.device_id)
        try:
            self._queues[shard].put_nowait((signed, future))
        except asyncio.QueueFull:
            stats.dropped += 1
            drop_counter.inc()
            self.metrics.counter("reporting.net.dropped").inc()
            # Mirror the in-process books: a frame that reached us but
            # could not be queued still counts as received + dropped.
            self.server.metrics.counter("reporting.received").inc()
            self.server.metrics.counter("reporting.dropped_backpressure").inc()
            future.set_result(SubmitStatus.DROPPED)
        return future

    async def _shard_worker(self, queue: asyncio.Queue) -> None:
        while True:
            item = await queue.get()
            if item is None:
                queue.task_done()
                return
            signed, future = item
            status = self.server.submit(signed)
            if not future.done():
                future.set_result(status)
            queue.task_done()
            self._unprocessed += 1
            if self._unprocessed >= self.process_every:
                self._unprocessed = 0
                self.server.process()

    # -- replication path ---------------------------------------------------

    async def _on_replica(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._handler_tasks.add(task)
            task.add_done_callback(self._handler_tasks.discard)
        from repro.reporting.net.replication import snapshot_file_bytes

        # Bootstrap synchronously (no await between snapshot render and
        # follower registration): every WAL append after this instant
        # lands in the queue, so the follower misses nothing.
        queue: asyncio.Queue = asyncio.Queue()
        queue.put_nowait(
            encode_message(MSG_HELLO, bytes((self.server.shard_count,)))
        )
        queue.put_nowait(
            encode_message(MSG_SNAPSHOT, snapshot_file_bytes(self.server))
        )
        # An immediate beat so the follower learns the leader's epoch
        # without waiting out the first heartbeat interval.
        queue.put_nowait(
            encode_message(MSG_HEARTBEAT, encode_health(self.health_status()))
        )
        self._follower_queues.append(queue)
        self.metrics.counter("reporting.net.replicas").inc()
        relay = asyncio.ensure_future(self._relay(queue, writer))
        self._relay_tasks.append(relay)
        acks = MessageReader()
        try:
            while not self._closed:
                data = await reader.read(self.read_chunk)
                if not data:
                    break
                for kind, payload in acks.feed(data):
                    if kind == b"A" and len(payload) == 8:
                        applied = int.from_bytes(payload, "big")
                        self.metrics.gauge("reporting.net.replica_acked").set(applied)
        except (ConnectionError, asyncio.CancelledError, WireError):
            pass
        finally:
            if queue in self._follower_queues:
                self._follower_queues.remove(queue)
            try:
                if not relay.done():
                    await queue.put(None)
                    await asyncio.gather(relay, return_exceptions=True)
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                # CancelledError: stop()/abort() or the loop teardown
                # cancelled this handler mid-cleanup (a cancelled gather
                # cancels the relay too); the socket dies with it.
                writer.close()

    async def _relay(self, queue: asyncio.Queue, writer: asyncio.StreamWriter) -> None:
        try:
            while True:
                message = await queue.get()
                if message is None:
                    return
                writer.write(message)
                await writer.drain()
        except (ConnectionError, asyncio.CancelledError):
            pass

    def _on_wal_event(self, event: str, index: int, payload: bytes) -> None:
        """DurabilityLog observer: relay appends/compactions verbatim."""
        if not self._follower_queues:
            return
        if event == "record":
            wal_byte = index if index >= 0 else META_WAL
            message = encode_message(MSG_RECORD, bytes((wal_byte,)) + payload)
        elif event == "snapshot":
            message = encode_message(MSG_SNAPSHOT, payload)
        else:  # pragma: no cover - future event kinds are not replicated
            return
        for queue in self._follower_queues:
            queue.put_nowait(message)


class ServiceHandle:
    """An :class:`IngestService` on its own daemon-thread event loop.

    The fleet driver and the tests are synchronous; this wrapper owns
    the loop thread and funnels all server access through ``call()``.
    """

    def __init__(self) -> None:
        self.service: Optional[IngestService] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._error: Optional[BaseException] = None
        self._stopped = False
        # Serializes stop()/kill() against each other (idempotence) --
        # a supervisor thread and the owner may both try to tear down.
        self._lifecycle = threading.Lock()

    # Start is a classmethod so the handle is never observable half-built.
    @classmethod
    def start(cls, server: ReportServer, **kwargs) -> "ServiceHandle":
        handle = cls()
        ready = threading.Event()

        def boot() -> None:
            loop = asyncio.new_event_loop()
            asyncio.set_event_loop(loop)
            handle._loop = loop
            try:
                handle.service = IngestService(server, **kwargs)
            except BaseException as exc:  # noqa: BLE001 - reported to caller
                handle._error = exc
                ready.set()
                loop.close()
                return

            async def _start() -> None:
                try:
                    await handle.service.start()
                except BaseException as exc:  # noqa: BLE001 - reported to caller
                    handle._error = exc
                finally:
                    ready.set()

            loop.create_task(_start())
            try:
                loop.run_forever()
            finally:
                tasks = asyncio.all_tasks(loop)
                for task in tasks:
                    task.cancel()
                if tasks:
                    loop.run_until_complete(
                        asyncio.gather(*tasks, return_exceptions=True)
                    )
                loop.close()

        handle._thread = threading.Thread(
            target=boot, name="repro-ingest", daemon=True
        )
        handle._thread.start()
        if not ready.wait(30):
            raise ReportingError("ingest service failed to start in time")
        if handle._error is not None:
            handle._thread_join()
            raise ReportingError(
                f"ingest service failed to start: {handle._error}"
            ) from handle._error
        return handle

    @property
    def address(self) -> Tuple[str, int]:
        return self.service.address

    @property
    def replication_address(self) -> Tuple[str, int]:
        return self.service.replication_address

    def call(self, fn: Callable[[ReportServer], T], timeout: float = 30.0) -> T:
        """Run ``fn(server)`` on the service loop; the only safe way to
        touch a served server from another thread.

        Safe against a concurrent ``stop()``/``kill()``: a call caught
        mid-flight by a teardown raises :class:`ReportingError` instead
        of hanging on a dead loop or surfacing a cancellation.
        """
        loop = self._loop
        if loop is None or self._stopped:
            raise ReportingError("service handle is not running")

        async def _invoke() -> T:
            return fn(self.service.server)

        try:
            future = asyncio.run_coroutine_threadsafe(_invoke(), loop)
        except RuntimeError:
            # The loop closed between the check and the submit.
            raise ReportingError("service handle is not running") from None
        try:
            return future.result(timeout)
        except concurrent.futures.CancelledError:
            raise ReportingError(
                "service stopped while the call was in flight"
            ) from None

    def stop(self, timeout: float = 30.0) -> None:
        """Graceful shutdown: drain, flush followers, join the thread.

        Idempotent: later ``stop()``/``kill()`` calls (from any thread)
        are no-ops once a teardown has claimed the handle.
        """
        with self._lifecycle:
            if self._stopped or self._loop is None:
                return
            self._stopped = True
        try:
            future = asyncio.run_coroutine_threadsafe(
                self.service.stop(), self._loop
            )
        except RuntimeError:
            self._thread_join(timeout)
            return
        try:
            future.result(timeout)
        finally:
            self._request_loop_stop()
            self._thread_join(timeout)

    def kill(self) -> None:
        """Abrupt death (``abort()``): the fleet's leader-kill fault.

        Idempotent and callable from a supervisor thread while another
        thread sits in ``call()`` -- the in-flight call is cancelled
        (surfacing as :class:`ReportingError`), never left hanging.
        """
        with self._lifecycle:
            if self._stopped or self._loop is None:
                return
            self._stopped = True
        try:
            self._loop.call_soon_threadsafe(self.service.abort)
        except RuntimeError:
            pass
        self._request_loop_stop()
        self._thread_join()

    def _request_loop_stop(self) -> None:
        try:
            self._loop.call_soon_threadsafe(self._loop.stop)
        except RuntimeError:
            pass  # already stopped and closed

    def _thread_join(self, timeout: float = 10.0) -> None:
        if self._thread is not None:
            self._thread.join(timeout)
