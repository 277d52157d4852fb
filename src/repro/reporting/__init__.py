"""The decentralized detection-report pipeline (developer backend).

The paper's resilience argument is decentralized: per-device bomb
detections only matter once many user devices report the foreign
signing key back to the developer and the market acts (Sections 1,
4.2).  This package is that other half, at production shape:

``wire``     versioned, RSA-signed report envelopes (binary + JSON
             codecs, nonce + timestamp replay protection) and the
             structured text channel payload bytecode emits
``client``   device-side sender: retry, exponential backoff + jitter,
             bounded offline spool
``server``   sharded ingestion service: signature checks, dedup,
             sliding-window takedown policy, bounded queues with
             explicit backpressure accounting
``durability`` per-shard write-ahead log + snapshot compaction, so
             ``ReportServer.recover(data_dir)`` rebuilds verdict state
             after a crash (torn-tail and bit-flip tolerant replay)
``fleet``    million-device load driver in O(shards) memory, calibrated
             from real interpreter play sessions (in-process or over
             real TCP sockets via ``transport="tcp"``)
``net``      the networked face: asyncio TCP ingest service speaking
             the DRPT frames over sockets, device-side ``TcpTransport``,
             and leader->follower replication by WAL shipping with
             snapshot+replay failover
Metrics (counters / gauges / fixed-bucket histograms) live in the
repo-wide :mod:`repro.metrics`.

``repro.userside.market`` sits on top of this package (it pulls the
listings ``ReportServer.takedown_candidates`` names); the CLI surface is
``repro serve-reports`` and ``repro fleet``.
"""

from repro.reporting.client import ReportClient, Transport
from repro.reporting.durability import DurabilityLog
from repro.reporting.fleet import FleetConfig, FleetResult, OutcomeModel, run_fleet
from repro.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.reporting.server import ReportServer, SubmitStatus, TakedownPolicy
from repro.reporting.verdicts import AggregatedVerdict
from repro.reporting.wire import (
    WIRE_VERSION,
    DetectionReport,
    SignedReport,
    decode_report,
    encode_report,
    format_report_text,
    parse_report_text,
    report_from_json,
    report_from_text,
    report_to_json,
    sign_report,
)

# After the server/durability imports above: the net package layers on
# top of them (service wraps server, replication ships durability's WAL).
from repro.reporting.net import (
    FrameReader,
    IngestService,
    ReplicaFollower,
    ServiceHandle,
    TcpTransport,
)

__all__ = [
    "AggregatedVerdict",
    "Counter",
    "DetectionReport",
    "DurabilityLog",
    "FleetConfig",
    "FleetResult",
    "FrameReader",
    "Gauge",
    "Histogram",
    "IngestService",
    "MetricsRegistry",
    "OutcomeModel",
    "ReplicaFollower",
    "ReportClient",
    "ReportServer",
    "ServiceHandle",
    "SignedReport",
    "TcpTransport",
    "SubmitStatus",
    "TakedownPolicy",
    "Transport",
    "WIRE_VERSION",
    "decode_report",
    "encode_report",
    "format_report_text",
    "parse_report_text",
    "report_from_json",
    "report_from_text",
    "report_to_json",
    "run_fleet",
    "sign_report",
]
