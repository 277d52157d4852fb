"""Which layer entry points the traced run wraps, and the per-layer metrics.

``install`` wraps, for one traced stretch, the entry points named in
the table of ``run.py``; ``collect`` turns a ``Profile`` -- the tracer's
spans and counts, plus the counts the workload itself made -- into the
``per_layer`` metrics of ``BENCHMARK.json``.  Every metric is printed on every workload; one
that reads zero on a workload is a prediction ``perfbench/tests`` checks.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from spans import Tracer

#: (name, unit) of every per-layer metric, in BENCHMARK.json order.
PER_LAYER: List[Tuple[str, str]] = [
    ("crypto.aes_decrypt.calls", "count"),
    ("crypto.aes_decrypt.pct", "%"),
    ("crypto.aes_decrypt.bytes", "B"),
    ("crypto.aes_decrypt.distinct_ratio", "ratio"),
    ("crypto.aes_encrypt.calls", "count"),
    ("crypto.aes_encrypt.pct", "%"),
    ("crypto.kdf.calls", "count"),
    ("crypto.kdf.pct", "%"),
    ("crypto.rsa_sign.calls", "count"),
    ("crypto.rsa_sign.pct", "%"),
    ("crypto.rsa_verify.calls", "count"),
    ("crypto.rsa_verify.pct", "%"),
    ("dex.serialize.calls", "count"),
    ("dex.serialize.pct", "%"),
    ("dex.serialize.bytes", "B"),
    ("dex.deserialize.calls", "count"),
    ("dex.deserialize.pct", "%"),
    ("dex.deserialize.bytes", "B"),
    ("analysis.profile.pct", "%"),
    ("analysis.qc.pct", "%"),
    ("analysis.verify.pct", "%"),
    ("lint.run.pct", "%"),
    ("lint.errors", "count"),
    ("core.stage.unpack.pct", "%"),
    ("core.stage.profile.pct", "%"),
    ("core.stage.instrument.pct", "%"),
    ("core.stage.verify.pct", "%"),
    ("core.stage.package.pct", "%"),
    ("core.bombs", "count"),
    ("core.size_increase_pct", "%"),
    ("vm.runtime_init.pct", "%"),
    ("vm.boot.pct", "%"),
    ("vm.dispatch.self_pct", "%"),
    ("vm.instructions", "count"),
    ("vm.cost_units", "count"),
    ("vm.instr_per_s", "1/s"),
    ("vm.classload.calls", "count"),
    ("vm.classload.pct", "%"),
    ("vm.bombs.outer_satisfied", "count"),
    ("vm.bombs.inner_met", "count"),
    ("vm.bombs.detected", "count"),
    ("vm.bombs.responded", "count"),
    ("vm.bombs.payload_error", "count"),
    ("vm.detect_ratio", "ratio"),
    ("wire.encode.calls", "count"),
    ("wire.encode.pct", "%"),
    ("wire.decode.calls", "count"),
    ("wire.decode.pct", "%"),
    ("client.deliver.calls", "count"),
    ("client.deliver.pct", "%"),
    ("client.retries", "count"),
    ("client.spooled", "count"),
    ("server.submit.self_pct", "%"),
    ("server.process.pct", "%"),
    ("server.verdict.pct", "%"),
    ("server.status.accepted", "count"),
    ("server.status.duplicate", "count"),
    ("server.status.bad_signature", "count"),
    ("server.status.replayed", "count"),
    ("server.status.dropped", "count"),
    ("wal.append.calls", "count"),
    ("wal.append.pct", "%"),
    ("wal.append.bytes", "B"),
    ("wal.compact.calls", "count"),
    ("wal.compact.pct", "%"),
    ("wal.failures", "count"),
    ("wal.recover.pct", "%"),
    ("wal.replayed_records", "count"),
    ("net.client_wait.pct", "%"),
    ("net.server_ingest_over_1ms", "count"),
    ("trace.overhead_pct", "%"),
    ("trace.spans", "count"),
]

#: Modules whose bindings the function wrappers must see; importing
#: them first makes every ``from x import fn`` binding exist.
_MODULES = (
    "repro.analysis.profiler", "repro.analysis.qualified_conditions",
    "repro.analysis.verifier", "repro.apk.package", "repro.attacks.brute_force",
    "repro.core.bombdroid", "repro.core.instrumenter", "repro.core.naive",
    "repro.core.payloads", "repro.crypto.aes", "repro.crypto.kdf",
    "repro.crypto.rsa", "repro.dex.serializer", "repro.lint", "repro.lint.engine",
    "repro.reporting.client", "repro.reporting.durability",
    "repro.reporting.net.service", "repro.reporting.net.transport",
    "repro.reporting.server", "repro.reporting.wire", "repro.vm.framework",
    "repro.vm.runtime", "repro.vm.sessions",
)


def _aes_decrypt(tracer: Tracer, args, _result) -> None:
    cipher, ciphertext = args[0], args[1]
    tracer.count("crypto.aes_decrypt.bytes", len(ciphertext))
    # The first round key is the cipher key itself (AES key schedule).
    tracer.see("crypto.aes_decrypt", (tuple(cipher._round_keys[0]), ciphertext))


def _lint_errors(tracer: Tracer, _args, result) -> None:
    if result is not None:
        tracer.count("lint.errors", sum(1 for d in result if d.is_error))


def _submit_status(tracer: Tracer, _args, result) -> None:
    if result is not None:
        tracer.count(f"server.status.{result.value}")


def install(tracer: Tracer) -> None:
    """Wrap every layer entry point of the table in ``run.py``."""
    for name in _MODULES:
        importlib.import_module(name)
    from repro.core.bombdroid import BombDroid
    from repro.crypto.aes import AES128
    from repro.crypto.rsa import RSAKeyPair, RSAPublicKey
    from repro.reporting.client import ReportClient
    from repro.reporting.durability import DurabilityLog, _WalFile
    from repro.reporting.net.transport import TcpTransport
    from repro.reporting.server import ReportServer
    from repro.vm.runtime import Runtime
    from repro.vm.sessions import ExecutionContext

    wrap_fn, wrap = tracer.wrap_function, tracer.wrap_method
    wrap(AES128, "decrypt_cbc", "crypto.aes_decrypt", _aes_decrypt)
    wrap(AES128, "encrypt_cbc", "crypto.aes_encrypt")
    wrap_fn("repro.crypto.kdf", "derive_key", "crypto.kdf")
    wrap_fn("repro.crypto.kdf", "hash_constant", "crypto.kdf")
    wrap(RSAKeyPair, "sign", "crypto.rsa_sign")
    wrap(RSAPublicKey, "verify", "crypto.rsa_verify")
    wrap_fn("repro.dex.serializer", "serialize_dex", "dex.serialize",
            lambda t, a, r: r is not None and t.count("dex.serialize.bytes", len(r)))
    wrap_fn("repro.dex.serializer", "deserialize_dex", "dex.deserialize",
            lambda t, a, r: t.count("dex.deserialize.bytes", len(a[0])))
    wrap_fn("repro.analysis.profiler", "profile_hot_methods", "analysis.profile")
    wrap_fn("repro.analysis.qualified_conditions", "find_qualified_conditions",
            "analysis.qc")
    wrap_fn("repro.analysis.verifier", "verify_dex", "analysis.verify")
    wrap_fn("repro.lint.engine", "run_lint", "lint.run", _lint_errors)
    wrap(BombDroid, "protect", "core.protect")
    wrap(Runtime, "__init__", "vm.runtime_init")
    wrap(Runtime, "session", "vm.session")
    # The profiler drives Runtime.boot/dispatch; play sessions drive the
    # session API's boot/dispatch.  Neither calls the other.
    wrap(Runtime, "boot", "vm.boot")
    wrap(Runtime, "dispatch", "vm.dispatch")
    wrap(ExecutionContext, "boot", "vm.boot")
    wrap(ExecutionContext, "dispatch", "vm.dispatch")
    wrap(Runtime, "load_blob_method", "vm.classload")
    wrap_fn("repro.reporting.wire", "encode_report", "wire.encode")
    wrap_fn("repro.reporting.wire", "decode_report", "wire.decode")
    wrap(ReportClient, "deliver", "client.deliver")
    wrap(ReportServer, "submit", "server.submit", _submit_status)
    wrap(ReportServer, "process", "server.process")
    wrap(ReportServer, "verdict", "server.verdict")
    wrap(ReportServer, "recover", "wal.recover")
    wrap(DurabilityLog, "append_report", "wal.append")
    wrap(DurabilityLog, "compact", "wal.compact")
    # Bytes of every journaled record (reports and meta records).
    tracer.hook_method(_WalFile, "append",
                       lambda t, a, r: t.count("wal.append.bytes", len(r)))
    wrap(TcpTransport, "__call__", "net.client_wait")
    wrap(TcpTransport, "send_many", "net.client_wait")


@dataclass
class Profile:
    """What one traced stretch recorded, and what its shares are of."""

    tracer: Tracer
    #: Counts the workload made itself (bomb events, statuses, stages).
    counts: Dict[str, float]
    #: Wall time of the traced stretch.
    wall_s: float
    overhead_pct: float
    #: Span metric -> (spans, wall seconds) its busy and self shares are
    #: taken of; ``"*"`` replaces the default, every span over ``wall_s``.
    share_of: Dict[str, Tuple[list, float]] = field(default_factory=dict)
    #: Named parts of the stretch, (spans, wall seconds), for printing.
    phases: Dict[str, Tuple[list, float]] = field(default_factory=dict)


#: Span metrics whose shares ``phase_lines`` prints per phase.
PHASE_METRICS = ("crypto.rsa_verify", "wire.decode", "server.submit", "wal.append")


def phase_lines(profile: Profile) -> List[str]:
    """Busy shares of the server-side layers in each named phase."""
    lines = []
    for name, (spans, wall) in profile.phases.items():
        totals = profile.tracer.totals(spans)
        shares = ", ".join(
            f"{metric} {100.0 * totals.get(metric, {}).get('s', 0.0) / wall:.2f}%"
            for metric in PHASE_METRICS)
        lines.append(f"phase ({name}) busy shares of {wall:.3f} s: {shares}")
    return lines


def collect(profile: Profile) -> Dict[str, float]:
    """Every per-layer metric value from one traced stretch.

    Busy and self times are reported as a share of a wall time (by
    default the traced stretch's): the share bounds what speeding up
    that layer alone can save of it.
    """
    tracer = profile.tracer
    default = profile.share_of.get("*", (tracer.spans, profile.wall_s))
    totals = tracer.totals()
    counts = dict(tracer.counts)
    counts.update(profile.counts)
    base_totals: Dict[int, Dict[str, Dict[str, float]]] = {}

    def total(metric: str, field: str) -> float:
        return totals.get(metric, {}).get(field, 0)

    def share(metric: str, field: str = "s") -> float:
        spans, wall = profile.share_of.get(metric, default)
        if id(spans) not in base_totals:
            base_totals[id(spans)] = tracer.totals(spans)
        return 100.0 * base_totals[id(spans)].get(metric, {}).get(field, 0) / wall

    values: Dict[str, float] = {name: 0 for name, _ in PER_LAYER}
    for metric in (
        "crypto.aes_decrypt", "crypto.aes_encrypt", "crypto.kdf",
        "crypto.rsa_sign", "crypto.rsa_verify", "dex.serialize",
        "dex.deserialize", "vm.classload", "wire.encode", "wire.decode",
        "client.deliver", "wal.append", "wal.compact",
    ):
        values[f"{metric}.calls"] = total(metric, "calls")
        values[f"{metric}.pct"] = share(metric)
    for metric in (
        "analysis.profile", "analysis.qc", "analysis.verify", "lint.run",
        "vm.runtime_init", "vm.boot", "server.process", "server.verdict",
        "wal.recover", "net.client_wait",
    ):
        values[f"{metric}.pct"] = share(metric)
    values["vm.dispatch.self_pct"] = share("vm.dispatch", "self_s")
    values["server.submit.self_pct"] = share("server.submit", "self_s")
    calls = values["crypto.aes_decrypt.calls"]
    distinct = len(tracer.distinct.get("crypto.aes_decrypt", ()))
    values["crypto.aes_decrypt.distinct_ratio"] = distinct / calls if calls else 0
    for name in values:
        if name in counts:
            values[name] = counts[name]
    for stage in ("unpack", "profile", "instrument", "verify", "package"):
        seconds = counts.get(f"core.stage.{stage}.s", 0)
        values[f"core.stage.{stage}.pct"] = 100.0 * seconds / profile.wall_s
    protected = counts.get("core.protected", 0)
    if protected:
        values["core.size_increase_pct"] = counts["core.size_increase_sum_pct"] / protected
    pirated = counts.get("play.pirated_sessions", 0)
    if pirated:
        values["vm.detect_ratio"] = counts.get("play.pirated_detected", 0) / pirated
    dispatch_s = total("vm.dispatch", "s") + total("vm.boot", "s")
    if dispatch_s:
        values["vm.instr_per_s"] = values["vm.instructions"] / dispatch_s
    values["trace.overhead_pct"] = profile.overhead_pct
    values["trace.spans"] = len(tracer.spans)
    return values
