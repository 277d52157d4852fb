"""Device-side report client: sign, send, retry, spool.

The paper assumes the REPORT response "sends the repackaged app's key
fingerprint home" -- over real mobile networks, where the home server
is sometimes unreachable.  ``ReportClient`` makes that channel honest:

* every report is stamped with a fresh random **nonce**, signed with
  the device's **attestation key**, and handed to a ``transport``
  callable (the in-process :class:`~repro.reporting.server.ReportServer`
  adapter, or anything else that accepts a
  :class:`~repro.reporting.wire.SignedReport`);
* a transport that raises :class:`repro.errors.TransportError` is
  retried with **exponential backoff plus jitter** (capped attempts,
  capped delay; delays accumulate on a virtual clock -- nothing
  actually sleeps unless a ``sleep`` callable is supplied);
* past the attempt budget the signed report lands in a bounded
  **offline spool**, flushed on the next opportunity (``flush()``);
  spool overflow drops the oldest report and counts it.

**Failover is invisible here by design.**  Cluster redirects
(``NOT_LEADER`` from a fenced stale leader) are followed *inside* the
transport under its own ``redirect_budget`` -- one ``deliver()`` attempt
either lands on the current leader or raises ``TransportError``.  The
client's ``max_attempts``/backoff budget therefore only pays for real
unavailability, never for re-routing, and a spooled backlog drains
through a leader change in a single ``flush()`` pass with each report
delivered exactly once (the promoted leader's recovered dedup window
rejects anything the old leader already accepted).

The client also terminates the in-VM text channel: the runtime's
``android.net.report`` handler forwards the structured payload string
to :meth:`send_text`, which parses it into a wire report.
"""

from __future__ import annotations

import dataclasses
import random
from collections import deque
from typing import Callable, Deque, Optional

from repro.chaos.faults import fault_point
from repro.crypto.rsa import RSAKeyPair
from repro.errors import TransportError
from repro.reporting.wire import (
    DetectionReport,
    SignedReport,
    report_from_text,
    sign_report,
)

#: A transport delivers one signed report and returns the server's
#: status (opaque to the client); unreachable transports raise
#: :class:`TransportError`.
Transport = Callable[[SignedReport], object]


class ReportClient:
    """One device's (or one attestation batch's) reporting endpoint."""

    def __init__(
        self,
        transport: Transport,
        attestation_key: RSAKeyPair,
        device_id: str,
        *,
        seed: int = 0,
        max_attempts: int = 4,
        base_backoff: float = 0.5,
        max_backoff: float = 60.0,
        jitter: float = 0.5,
        spool_limit: int = 256,
        sleep: Optional[Callable[[float], None]] = None,
    ) -> None:
        if not 0.0 <= jitter <= 1.0:
            raise ValueError("jitter must be in [0, 1]")
        #: Public so callers can read transport-side failover telemetry
        #: (``transport.redirects``, ``transport.last_epoch`` on TCP).
        self.transport = transport
        self._transport = transport
        self._key = attestation_key
        self.device_id = device_id
        self._rng = random.Random(seed)
        self.max_attempts = max_attempts
        self.base_backoff = base_backoff
        self.max_backoff = max_backoff
        self.jitter = jitter
        self.spool_limit = spool_limit
        self._sleep = sleep
        self.spool: Deque[SignedReport] = deque()

        # Observability.
        self.delivered = 0
        self.retries = 0
        self.spool_dropped = 0
        self.backoff_spent = 0.0
        self.backoff_log: list = []
        self.last_signed: Optional[SignedReport] = None
        self.last_status: Optional[object] = None

    # -- sending ------------------------------------------------------------

    def report(
        self,
        *,
        app_name: str,
        bomb_id: str,
        observed_key_hex: str,
        detection_method: str = "public_key",
        timestamp: float = 0.0,
        device_id: Optional[str] = None,
    ) -> Optional[object]:
        """Sign and deliver one detection report.

        Returns the transport's status, or None when the report was
        spooled for later.  ``device_id`` overrides the client default
        (fleet drivers share a client across a batch of devices, the
        way real devices share batch attestation keys).
        """
        body = DetectionReport(
            app_name=app_name,
            bomb_id=bomb_id,
            device_id=device_id or self.device_id,
            observed_key_hex=observed_key_hex.lower(),
            detection_method=detection_method,
            timestamp=timestamp,
            nonce=self._rng.getrandbits(64),
        )
        return self.deliver(sign_report(body, self._key))

    def send_text(self, text: str, timestamp: float = 0.0) -> Optional[object]:
        """Terminate the in-VM ``android.net.report`` string channel.

        Messages that are not a ``repackaged:v1:`` report naming a key
        fingerprint (free-form logs) are ignored rather than sent.
        """
        body = report_from_text(
            text,
            device_id=self.device_id,
            timestamp=timestamp,
            nonce=self._rng.getrandbits(64),
        )
        if body is None:
            return None
        return self.deliver(sign_report(body, self._key))

    def deliver(self, signed: SignedReport) -> Optional[object]:
        """Push one signed report through retry/backoff, spooling on failure."""
        self.last_signed = signed
        self.last_status = None
        for attempt in range(self.max_attempts):
            try:
                fault_point("report.transport")
                status = self._transport(signed)
            except TransportError:
                self.retries += 1
                if attempt + 1 < self.max_attempts:
                    self._back_off(attempt)
                continue
            self.delivered += 1
            self.last_status = status
            return status
        self._spool(signed)
        return None

    def _back_off(self, attempt: int) -> None:
        delay = min(self.max_backoff, self.base_backoff * (2 ** attempt))
        if self.jitter:
            delay *= 1.0 + self.jitter * (2.0 * self._rng.random() - 1.0)
        self.backoff_spent += delay
        self.backoff_log.append(delay)
        if self._sleep is not None:
            self._sleep(delay)

    def _spool(self, signed: SignedReport) -> None:
        if len(self.spool) >= self.spool_limit:
            self.spool.popleft()
            self.spool_dropped += 1
        self.spool.append(signed)

    # -- spool --------------------------------------------------------------

    def flush(self) -> int:
        """Retry every spooled report once; returns how many got through.

        Reports that still fail return to the spool (at the back, so one
        poisoned report cannot starve the rest).
        """
        delivered = 0
        for _ in range(len(self.spool)):
            signed = self.spool.popleft()
            # Spooled reports sat on flash; a chaos plan may rot their
            # signature bytes.  The server then rejects the report
            # (BAD_SIGNATURE) -- flush still completes and the spool
            # still drains, which is the recovery invariant.
            signature = fault_point("client.spool", signed.signature)
            if signature is not signed.signature:
                signed = dataclasses.replace(signed, signature=signature)
            try:
                fault_point("report.transport")
                status = self._transport(signed)
            except TransportError:
                self.retries += 1
                self._spool(signed)
                continue
            self.delivered += 1
            self.last_status = status
            delivered += 1
        return delivered

    @property
    def spooled(self) -> int:
        return len(self.spool)
