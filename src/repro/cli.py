"""Command-line interface.

::

    python -m repro build     --name AndroFish --out app.apk
    python -m repro protect   --in app.apk --out protected.apk --key-seed 11
    python -m repro protect-batch --corpus apps/ --out protected/ --key-seed 11 \
                              --workers 4 --cache-dir .cache/
    python -m repro inspect   --in protected.apk [--disassemble]
    python -m repro lint      --in protected.apk [--format human|json|sarif]
                              [--rules a,b]
    python -m repro detect    --in suspect.apk [--format human|json|sarif]
                              [--min-score 2.0] [--top 10]
    python -m repro repackage --in protected.apk --out pirated.apk --key-seed 666
    python -m repro simulate  --in pirated.apk --devices 10 --events 600
    python -m repro attack    --in protected.apk --attack symbolic
    python -m repro serve-reports --app Game --key-hex <fp> --reports r.jsonl \
                              [--data-dir state/]
    python -m repro serve-reports --app Game --key-hex <fp> \
                              --listen 127.0.0.1:7788 --data-dir state/ \
                              [--replication-listen 127.0.0.1:7789]
    python -m repro replica   --data-dir replica/ --leader 127.0.0.1:7789 \
                              [--promote]
    python -m repro supervise --data-dir standby/ --leader 127.0.0.1:7788 \
                              --replicate-from 127.0.0.1:7789
    python -m repro recover   --data-dir state/
    python -m repro fleet     --in pirated.apk --original protected.apk \
                              --devices 1000000 [--transport tcp]
    python -m repro chaos     --seed 7 --trials 25 [--verify-replay]
    python -m repro chaos     --crash-restart --seed 11 [--reports 48]
    python -m repro chaos     --failover --seed 17 [--reports 30]

APK files on disk are the serialized entry container (a simple binary
framing of the entries, manifest and certificate).
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from repro.apk.io import load_apk, save_apk_with_manifest
from repro.core import BombDroid, BombDroidConfig
from repro.corpus import NAMED_APPS, build_app, build_named_app
from repro.crypto import RSAKeyPair
from repro.errors import (
    ReproError,
    VerificationError,
    VMCrash,
    VMError,
)
from repro.repack import repackage

#: Exit codes, so chaos/CI scripting can distinguish failure classes.
EXIT_OK = 0
EXIT_FAILURE = 1        # generic library error / failed check
EXIT_USAGE = 2          # bad invocation (argparse also uses 2)
EXIT_VERIFICATION = 3   # a verification gate / invariant failed
EXIT_CRASH = 4          # the VM crashed


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_build(args) -> int:
    named = {spec.name for spec in NAMED_APPS}
    if args.name in named:
        bundle = build_named_app(args.name)
    else:
        bundle = build_app(args.name, category=args.category, seed=args.seed, scale=args.scale)
    save_apk_with_manifest(bundle.apk, args.out)
    print(f"built {args.name}: {bundle.dex.instruction_count()} instructions -> {args.out}")
    print(f"developer key seed: {args.seed + 7000 if args.name not in named else 'see corpus spec'}")
    return 0


def _cmd_protect(args) -> int:
    apk = load_apk(getattr(args, "in"))
    key = RSAKeyPair.generate(seed=args.key_seed)
    if apk.cert.fingerprint_hex() != key.public.fingerprint().hex():
        print("warning: --key-seed does not match the APK's signer; bombs will "
              "treat the APK's current key as genuine", file=sys.stderr)
    config = BombDroidConfig(
        seed=args.seed,
        profiling_events=args.profiling_events,
        alpha=args.alpha,
        double_trigger=not args.single_trigger,
        mute_after_detection=args.mute,
    )
    result = BombDroid(config).protect(apk, key, strict=args.strict)
    save_apk_with_manifest(result.apk, args.out)
    print(result.report.summary())
    print(f"size increase: {result.report.size_increase:+.1%} "
          f"({result.total_seconds:.2f}s) -> {args.out}")
    return 0


def _cmd_protect_batch(args) -> int:
    """Protect every ``*.rapk`` in a corpus directory, in parallel."""
    import os

    from repro.pipeline import BatchOptions, OutcomeStatus, jobs_from_dir, protect_batch

    key = RSAKeyPair.generate(seed=args.key_seed)
    jobs = jobs_from_dir(args.corpus, key)
    if not jobs:
        print(f"error: no .rapk files in {args.corpus}", file=sys.stderr)
        return EXIT_USAGE
    config = BombDroidConfig(
        seed=args.seed,
        profiling_events=args.profiling_events,
        alpha=args.alpha,
    )
    options = BatchOptions(
        workers=args.workers, cache_dir=args.cache_dir, strict=args.strict
    )
    result = protect_batch(jobs, config, options)

    os.makedirs(args.out, exist_ok=True)
    for outcome in result.outcomes:
        if outcome.ok:
            out_path = os.path.join(args.out, f"{outcome.name}.rapk")
            save_apk_with_manifest(outcome.result.apk, out_path)
            origin = "cache" if outcome.cache_hit else f"{outcome.seconds:.2f}s"
            print(f"  {outcome.name}: {outcome.result.report.total_injected} "
                  f"bomb(s) [{origin}] -> {out_path}")
        else:
            print(f"  {outcome.name}: {outcome.status.value} "
                  f"({outcome.error_type}: {outcome.error})", file=sys.stderr)
    print()
    print(result.summary())

    if result.by_status(OutcomeStatus.CRASHED):
        return EXIT_FAILURE
    if result.by_status(OutcomeStatus.VERIFICATION_FAILED):
        return EXIT_VERIFICATION
    return EXIT_OK


def _cmd_inspect(args) -> int:
    apk = load_apk(getattr(args, "in"))
    try:
        apk.verify()
        status = "signature OK"
    except ReproError as exc:
        status = f"signature INVALID ({exc})"
    dex = apk.dex()
    print(f"signer: {apk.cert.fingerprint_hex()}  [{status}]")
    print(f"classes: {len(dex.classes)}  methods: {sum(1 for _ in dex.iter_methods())}  "
          f"instructions: {dex.instruction_count()}")
    from repro.dex.opcodes import Op

    bomb_sites = sum(
        1
        for method in dex.iter_methods()
        for instr in method.instructions
        if instr.op is Op.INVOKE and instr.value == "bomb.hash"
    )
    print(f"visible bomb sites: {bomb_sites}")
    if args.disassemble:
        from repro.dex.disassembler import disassemble

        print(disassemble(dex))
    return 0


def _lint_rule_catalog():
    """rule id -> (severity, description), verifier + stealth rules."""
    from repro.analysis.verifier import VERIFIER_RULES
    from repro.lint import RULES

    catalog = dict(VERIFIER_RULES)
    for rule in RULES.values():
        catalog[rule.id] = (rule.severity, rule.description)
    return catalog


def _cmd_lint(args) -> int:
    import json

    from repro.lint import (
        RULES,
        errors,
        format_report,
        run_lint,
        sort_diagnostics,
        to_sarif,
    )
    from repro.analysis.verifier import VERIFIER_RULES

    if args.list_rules:
        for rule_id, (severity, description) in sorted(VERIFIER_RULES.items()):
            print(f"{rule_id:22} {severity.name.lower():8} verifier  {description}")
        for rule in RULES.values():
            print(
                f"{rule.id:22} {rule.severity.name.lower():8} "
                f"{rule.paper_ref:9} {rule.description}"
            )
        return 0
    if getattr(args, "in") is None:
        print("error: --in is required (or use --list-rules)", file=sys.stderr)
        return EXIT_USAGE
    apk = load_apk(getattr(args, "in"))
    rules = [r for r in args.rules.split(",") if r] if args.rules else None
    # Meshed apps ship an alias key in strings.xml; resolve their
    # aliased trigger invokes so site recovery still works from disk.
    from repro.vm.aliases import alias_table_from_resources

    aliases = alias_table_from_resources(apk.resources().strings) or None
    try:
        diagnostics = run_lint(apk.dex(), rules=rules, aliases=aliases)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return EXIT_USAGE
    fmt = "json" if args.json else args.format
    if fmt == "json":
        print(json.dumps([d.to_dict() for d in sort_diagnostics(diagnostics)], indent=2))
    elif fmt == "sarif":
        print(json.dumps(
            to_sarif(diagnostics, tool_name="repro-lint",
                     rule_catalog=_lint_rule_catalog()),
            indent=2,
        ))
    else:
        print(format_report(diagnostics))
    return 1 if errors(diagnostics) else 0


def _cmd_detect(args) -> int:
    """Run the static trigger (HSO) detector over an APK."""
    import json

    from repro.analysis.triggers import analyze_dex
    from repro.lint import to_sarif

    apk = load_apk(getattr(args, "in"))
    scan = analyze_dex(apk.dex(), min_score=args.min_score)
    findings = scan.findings[: args.top] if args.top else scan.findings
    truncated = len(scan.findings) - len(findings)

    if args.format == "json":
        payload = {
            "findings": [f.to_dict() for f in findings],
            "total_findings": len(scan.findings),
            "opaque_guards": scan.opaque_guards,
            "methods_scanned": scan.methods_scanned,
            "methods_skipped": scan.methods_skipped,
            "branches_classified": scan.branches_classified,
            "by_kind": scan.by_kind(),
            "min_score": args.min_score,
        }
        print(json.dumps(payload, indent=2))
    elif args.format == "sarif":
        catalog = {
            "hso-finding": (
                None,
                "suspicious guarded region: candidate hidden sensitive operation",
            )
        }
        print(json.dumps(
            to_sarif([f.to_diagnostic() for f in findings],
                     tool_name="repro-detect", rule_catalog=catalog),
            indent=2,
        ))
    else:
        for rank, finding in enumerate(findings, start=1):
            print(f"{rank:3}. {finding.describe()}")
        if truncated:
            print(f"     ... {truncated} lower-ranked finding(s) suppressed "
                  f"(--top {args.top})")
        if findings:
            print()
        print(f"scanned {scan.methods_scanned} method(s), classified "
              f"{scan.branches_classified} branch(es): "
              f"{len(scan.findings)} finding(s) >= score {args.min_score:g}, "
              f"{len(scan.opaque_guards)} hash-opaque guard(s) with no "
              f"localizable payload")
        if scan.opaque_guards:
            print("opaque guards (visible trigger, encrypted payload -- "
                  "nothing to localize):")
            for site in scan.opaque_guards[:10]:
                print(f"  {site}")
            if len(scan.opaque_guards) > 10:
                print(f"  ... {len(scan.opaque_guards) - 10} more")
    return EXIT_FAILURE if scan.findings else EXIT_OK


def _cmd_repackage(args) -> int:
    apk = load_apk(getattr(args, "in"))
    attacker = RSAKeyPair.generate(seed=args.key_seed)
    pirated = repackage(apk, attacker)
    save_apk_with_manifest(pirated, args.out)
    print(f"repackaged with key {attacker.public.fingerprint().hex()[:16]}... -> {args.out}")
    return 0


def _cmd_simulate(args) -> int:
    from repro.vm.sessions import SessionEngine

    apk = load_apk(getattr(args, "in"))
    engine = SessionEngine(apk, seed=args.seed, events=args.events)
    outcomes = engine.play(args.devices)
    for outcome in outcomes:
        marker = "DETECTED" if outcome.detections else "quiet"
        print(f"device {outcome.index}: {marker}  "
              f"(bombs evaluated: {len(outcome.bombs.bombs_with('evaluated'))}, "
              f"reports: {len(outcome.reports)})")
    detected = sum(1 for outcome in outcomes if outcome.detections)
    print(f"\nrepackaging detected on {detected}/{args.devices} devices")
    return 0


def _cmd_attack(args) -> int:
    from repro.attacks import (
        DeletionAttack,
        ForcedExecutionAttack,
        SlicingAttack,
        StaticTriggerDetector,
        SymbolicAttack,
        TextSearchAttack,
    )

    apk = load_apk(getattr(args, "in"))
    attacks = {
        "text": lambda: TextSearchAttack().run(apk),
        "symbolic": lambda: SymbolicAttack(max_paths=48).run(apk),
        "forced": lambda: ForcedExecutionAttack(seed=args.seed, per_method_branches=4).run(apk),
        "slicing": lambda: SlicingAttack(seed=args.seed).run(apk),
        "deletion": lambda: DeletionAttack(seed=args.seed).run(
            apk, RSAKeyPair.generate(seed=9999)
        ),
        "static": lambda: StaticTriggerDetector().run(apk),
    }
    result = attacks[args.attack]()
    print(result.summary())
    if result.notes:
        print(f"notes: {result.notes}")
    for key, value in result.details.items():
        if isinstance(value, (int, float, str, bool)):
            print(f"  {key}: {value}")
    return 0 if not result.defeated_defense else 1


def _workers_arg(value: str):
    """``--workers`` accepts an int or the literal ``auto``."""
    if value == "auto":
        return value
    try:
        return int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer or 'auto', got {value!r}"
        ) from None


def _parse_hostport(value: str):
    """``HOST:PORT`` -> ``(host, port)`` (usage error on anything else)."""
    host, sep, port = value.rpartition(":")
    if not sep or not host:
        raise argparse.ArgumentTypeError(
            f"expected HOST:PORT, got {value!r}"
        )
    try:
        return host, int(port)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected HOST:PORT with a numeric port, got {value!r}"
        ) from None


class _ShutdownRequested(Exception):
    """SIGINT/SIGTERM during file ingestion: finish cleanly, exit 0."""


def _make_emitter(data_dir, name):
    """print() that also appends to ``<data_dir>/<name>``.

    Long-running cluster processes (serve-reports, replica, supervise)
    mirror their status lines into a log under their own ``--data-dir``
    -- never into the invoking directory -- so a three-process demo
    leaves its evidence next to its WALs.
    """
    if data_dir is None:
        def emit(line: str) -> None:
            print(line, flush=True)
        return emit
    os.makedirs(data_dir, exist_ok=True)
    path = os.path.join(data_dir, name)

    def emit(line: str) -> None:
        print(line, flush=True)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(line + "\n")
    return emit


def _policy(args):
    """The takedown policy of ``--threshold`` / ``--window``."""
    from repro.reporting import TakedownPolicy

    return TakedownPolicy(distinct_devices=args.threshold, window_seconds=args.window)


def _emit_verdicts(emit, verdicts) -> None:
    """One ``verdict for APP: ...`` line per app, in name order."""
    for app_name, (verdict, offender) in sorted(verdicts.items()):
        emit(f"verdict for {app_name}: {verdict.value}"
             + (f" (key {offender})" if offender else ""))


def _cmd_serve_reports(args) -> int:
    """Ingest signed detection reports through ReportServer.

    Two sources: ``--reports`` (JSON lines from a file or stdin) or
    ``--listen HOST:PORT`` (DRPT frames over TCP).  Both finish the same
    way on SIGINT/SIGTERM: drain the queues, close the WALs behind a
    final snapshot, print the verdict, exit 0.
    """
    import signal

    from repro.reporting import ReportServer

    if args.key_hex:
        original_key = args.key_hex
    elif getattr(args, "in") is not None:
        original_key = load_apk(getattr(args, "in")).cert.fingerprint_hex()
    else:
        print("error: need --key-hex or --in (the original APK)", file=sys.stderr)
        return EXIT_USAGE
    if args.reports is None and args.listen is None:
        print("error: need --reports (JSON lines) or --listen HOST:PORT",
              file=sys.stderr)
        return EXIT_USAGE
    if args.reports is not None and args.listen is not None:
        print("error: --reports and --listen are mutually exclusive",
              file=sys.stderr)
        return EXIT_USAGE
    if args.replication_listen is not None and args.listen is None:
        print("error: --replication-listen requires --listen", file=sys.stderr)
        return EXIT_USAGE
    if args.replication_listen is not None and args.data_dir is None:
        print("error: --replication-listen requires --data-dir (the WAL is "
              "the replication log)", file=sys.stderr)
        return EXIT_USAGE

    server = ReportServer(
        shards=args.shards,
        queue_capacity=args.queue_capacity,
        max_report_age=args.max_age,
        policy=_policy(args),
        data_dir=args.data_dir,
        snapshot_every=args.snapshot_every,
    )
    if args.app not in server.apps:
        server.register_app(args.app, original_key)

    emit = _make_emitter(args.data_dir, "serve-reports.log")
    conn_stats = []
    if args.listen is not None:
        conn_stats = _serve_listen(args, server, emit)
    else:
        def _request_shutdown(signum, frame):
            raise _ShutdownRequested()

        previous = [
            signal.signal(signum, _request_shutdown)
            for signum in (signal.SIGINT, signal.SIGTERM)
        ]
        handle = sys.stdin if args.reports == "-" else open(args.reports, "r")
        try:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                server.submit(line)
                if server.queue_depth() >= args.process_every:
                    server.process()
        except _ShutdownRequested:
            emit("interrupted: draining queues, compacting the WAL...")
        finally:
            if handle is not sys.stdin:
                handle.close()
            for signum, old in zip((signal.SIGINT, signal.SIGTERM), previous):
                signal.signal(signum, old)

    server.process()
    verdict, offender = server.verdict(args.app)
    # close() compacts the WAL into a final snapshot -- an interrupted
    # run leaves the same durable state a completed one would.
    server.close()

    metrics = server.metrics.snapshot()
    tally_names = {
        "received": "reporting.received",
        "accepted": "reporting.accepted",
        "duplicate": "reporting.duplicates_dropped",
        "replayed": "reporting.rejected_replayed",
        "bad-signature": "reporting.rejected_forged",
        "malformed": "reporting.rejected_malformed",
        "unknown-app": "reporting.unknown_app",
        "dropped": "reporting.dropped_backpressure",
    }
    tallies = {
        label: metrics.get(name, 0)
        for label, name in tally_names.items()
        if metrics.get(name, 0)
    }
    emit("ingested: " + (", ".join(
        f"{k}={v}" for k, v in tallies.items()) or "nothing"))
    _emit_verdicts(emit, {args.app: (verdict, offender)})
    if conn_stats:
        print("\nconnections:")
        for stats in conn_stats:
            print(f"  {stats.describe()}")
    print("\nmetrics:")
    print(server.metrics.render())
    return 0


def _serve_listen(args, server, emit):
    """Run the asyncio ingest service until SIGINT/SIGTERM; returns the
    per-connection stats (the server is drained but left open)."""
    import asyncio
    import signal

    from repro.reporting.net import IngestService

    host, port = args.listen
    replication = args.replication_listen

    async def _run():
        service = IngestService(
            server,
            host,
            port,
            replication_host=replication[0] if replication else None,
            replication_port=replication[1] if replication else None,
            process_every=args.process_every,
        )
        await service.start()
        ihost, iport = service.address
        # Parseable by scripts (CI smoke, tests) that bind port 0.
        emit(f"listening on {ihost}:{iport}")
        if replication is not None:
            rhost, rport = service.replication_address
            emit(f"replication on {rhost}:{rport}")
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, stop.set)
            except NotImplementedError:  # pragma: no cover - non-posix
                signal.signal(signum, lambda *_: stop.set())
        await stop.wait()
        emit("shutting down: draining queues, flushing followers...")
        await service.stop()
        return service

    service = asyncio.run(_run())
    return service.conn_stats


def _cmd_replica(args) -> int:
    """Follow a leader's WAL stream; optionally promote on leader exit."""
    import signal

    from repro.reporting.net import ReplicaFollower

    emit = _make_emitter(args.data_dir, "replica.log")
    follower = ReplicaFollower(
        args.data_dir, args.leader, expect_shards=args.shards
    )

    def _request_stop(signum, frame):
        follower.stop(timeout=0)

    for signum in (signal.SIGINT, signal.SIGTERM):
        signal.signal(signum, _request_stop)

    emit(f"following {args.leader[0]}:{args.leader[1]} into {args.data_dir}")
    follower.run()  # blocks until leader EOF or a signal
    if follower.error is not None:
        print(f"error: replication failed: {follower.error}", file=sys.stderr)
        return EXIT_FAILURE
    emit(f"applied: {follower.applied} update(s) "
         f"({follower.snapshots} snapshot(s)) from the leader")

    if not args.promote:
        return 0
    if follower.shard_count is None:
        print("error: never reached the leader; nothing to promote",
              file=sys.stderr)
        return EXIT_FAILURE
    server = follower.promote(
        shards=args.shards or follower.shard_count,
        policy=_policy(args),
    )
    server.process()
    replayed = int(server.metrics.counter("wal.replayed").value)
    emit(f"promoted: {len(list(server.apps))} app(s), "
         f"{replayed} shipped WAL record(s) replayed")
    _emit_verdicts(emit, server.verdicts())
    server.close()
    return 0


def _cmd_supervise(args) -> int:
    """Warm standby plus supervisor in one process.

    Follows the leader's WAL into ``--data-dir`` while probing its
    ingest port; when ``--miss-threshold`` consecutive probes fail, the
    follower is promoted automatically (epoch bump, fence, new ingest
    service) and the promoted endpoint is printed in a parseable line::

        promoted: epoch 1 on 127.0.0.1:45123

    SIGINT/SIGTERM stop supervision gracefully: a promoted server
    drains, prints its verdicts and compacts its WAL before exit.
    """
    import signal
    import threading

    from repro.reporting.net import ClusterSupervisor, ReplicaFollower

    emit = _make_emitter(args.data_dir, "supervise.log")
    follower = ReplicaFollower(
        args.data_dir, args.replicate_from, expect_shards=args.shards
    ).start()
    emit(f"following {args.replicate_from[0]}:{args.replicate_from[1]} "
         f"into {args.data_dir}")
    if not follower.wait_applied(1, timeout=30):
        print("error: never received the leader's bootstrap snapshot"
              + (f": {follower.error}" if follower.error else ""),
              file=sys.stderr)
        follower.stop()
        return EXIT_FAILURE

    promote_host, promote_port = args.promote_listen
    supervisor = ClusterSupervisor(
        args.leader,
        [follower],
        server_kwargs=dict(
            policy=_policy(args),
            snapshot_every=args.snapshot_every,
        ),
        miss_threshold=args.miss_threshold,
        interval=args.interval,
        probe_timeout=args.probe_timeout,
        promote_host=promote_host,
        promote_port=promote_port,
    )
    stop = threading.Event()
    for signum in (signal.SIGINT, signal.SIGTERM):
        signal.signal(signum, lambda *_: stop.set())
    supervisor.start()
    emit(f"supervising {args.leader[0]}:{args.leader[1]} "
         f"(miss threshold {args.miss_threshold}, interval {args.interval}s)")

    announced = False
    while not stop.is_set():
        if supervisor.failovers and not announced:
            event = supervisor.event
            phost, pport = event.endpoint
            emit(f"promoted: epoch {event.epoch} on {phost}:{pport} "
                 f"(detected {event.detection_seconds:.2f}s, "
                 f"promoted {event.promotion_seconds:.2f}s, "
                 f"{event.follower_applied} applied)")
            announced = True
        if supervisor.error is not None:
            print(f"error: supervisor failed: {supervisor.error}",
                  file=sys.stderr)
            supervisor.stop()
            follower.stop()
            return EXIT_FAILURE
        stop.wait(0.1)

    supervisor.stop()
    if supervisor.promoted_handle is not None:
        verdicts = supervisor.promoted_handle.call(
            lambda s: (s.process(), s.verdicts())[1]
        )
        _emit_verdicts(emit, verdicts)
        supervisor.promoted_handle.stop()
        supervisor.promoted_server.close()
    else:
        follower.stop()
        emit(f"applied: {follower.applied} update(s) from the leader; "
             "no failover needed")
    return 0


def _cmd_recover(args) -> int:
    """Rebuild a ReportServer from its WAL + snapshot and show verdicts."""
    from repro.reporting import ReportServer

    server = ReportServer.recover(
        args.data_dir,
        shards=args.shards,
        policy=_policy(args),
    )
    server.process()
    replayed = int(server.metrics.counter("wal.replayed").value)
    torn = int(server.metrics.counter("recovery.torn_records").value)
    snapshots = int(server.metrics.counter("snapshot.loads").value)
    print(f"recovered from {args.data_dir}: "
          f"{len(list(server.apps))} app(s), {replayed} WAL records replayed, "
          f"{snapshots} snapshot(s) restored, {torn} torn record(s) discarded")
    _emit_verdicts(print, server.verdicts())
    server.close()
    print("\nmetrics:")
    print(server.metrics.render())
    return 0


def _cmd_fleet(args) -> int:
    """Stream a synthetic device fleet through the report pipeline."""
    from repro.reporting import (
        AggregatedVerdict,
        FleetConfig,
        OutcomeModel,
        ReportServer,
        run_fleet,
    )
    from repro.userside import Market

    apk = load_apk(getattr(args, "in"))
    if args.key_hex:
        original_key = args.key_hex
    elif args.original:
        original_key = load_apk(args.original).cert.fingerprint_hex()
    else:
        print("error: need --original (the genuine APK) or --key-hex",
              file=sys.stderr)
        return EXIT_USAGE
    app_name = args.app or apk.resources().app_name

    from repro.vm.sessions import SessionEngine

    engine = SessionEngine(apk, seed=args.seed, events=args.events)
    print(f"calibrating outcome model from {args.sessions} play sessions...")
    model = OutcomeModel.calibrate(
        apk, sessions=args.sessions, events=args.events, seed=args.seed,
        engine=engine,
    )
    print(f"  report rate {model.report_rate:.2f}, "
          f"bad-experience rate {model.bad_experience_rate:.2f}, "
          f"observed key {model.observed_key_hex[:16] or '(none)'}...")

    config = FleetConfig(
        devices=args.devices,
        batch_size=args.batch,
        shards=args.shards,
        seed=args.seed,
        target_reports=args.target_reports,
        duplicate_rate=args.duplicate_rate,
        forge_rate=args.forge_rate,
        transport_failure_rate=args.transport_failure_rate,
        transport=args.transport,
        real_sessions=args.real_sessions,
        policy=_policy(args),
    )
    server = ReportServer(shards=config.shards, policy=config.policy)
    market = Market(seed=args.seed)
    listing = market.publish(app_name, apk)
    result = run_fleet(
        app_name, original_key, model, config,
        server=server, market=market, listing=listing,
        session_engine=engine if args.real_sessions else None,
    )
    print()
    print(result.summary())
    print("\nmarket:")
    print(market.summary())
    print("\nmetrics:")
    print(server.metrics.render())
    # Exit 1 when devices observed a foreign key but the evidence never
    # reached a takedown -- the pipeline failed at its one job.
    failed = model.observed_key_hex and result.verdict is not AggregatedVerdict.TAKEDOWN
    return 1 if failed else 0


def _cmd_chaos(args) -> int:
    """Run the seeded fault matrix and check containment invariants."""
    import json

    if args.crash_restart and args.failover:
        print("error: --crash-restart and --failover are mutually exclusive",
              file=sys.stderr)
        return EXIT_USAGE
    from repro import chaos

    # The stream matrices keep their own --reports default when the flag
    # is absent.
    stream_options = {"data_dir": args.data_dir}
    if args.reports is not None:
        stream_options["reports"] = args.reports
    if args.crash_restart:
        config = chaos.CrashRestartConfig(seed=args.seed, **stream_options)
        runner = chaos.run_crash_restart
    elif args.failover:
        config = chaos.FailoverChaosConfig(seed=args.seed, **stream_options)
        runner = chaos.run_failover_chaos
    else:
        config = chaos.ChaosConfig(
            seed=args.seed,
            trials=args.trials,
            scale=args.scale,
            events=args.events,
            devices=args.devices,
            strict=args.strict,
            mesh=args.mesh,
        )
        runner = chaos.run_chaos
    report = runner(config)
    replay_ok = True
    if args.verify_replay:
        replay_ok = runner(config).digest() == report.digest()
    if args.json:
        payload = report.to_dict()
        payload["replay_verified"] = replay_ok if args.verify_replay else None
        print(json.dumps(payload, indent=2))
    else:
        print(report.summary())
        if args.verify_replay:
            print("replay: " + ("identical" if replay_ok else "DIVERGED"))
    if not replay_ok:
        print(f"error: re-running seed {args.seed} produced a different "
              "event log", file=sys.stderr)
        return EXIT_VERIFICATION
    return EXIT_OK if report.ok else EXIT_VERIFICATION


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="BombDroid reproduction toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    build = sub.add_parser("build", help="generate a synthetic app APK")
    build.add_argument("--name", required=True,
                       help="app name; one of the eight named apps or any string")
    build.add_argument("--category", default="Game")
    build.add_argument("--seed", type=int, default=0)
    build.add_argument("--scale", type=float, default=0.5)
    build.add_argument("--out", required=True)
    build.set_defaults(func=_cmd_build)

    protect = sub.add_parser("protect", help="run the BombDroid pipeline")
    protect.add_argument("--in", required=True)
    protect.add_argument("--out", required=True)
    protect.add_argument("--key-seed", type=int, required=True,
                         help="developer signing key seed")
    protect.add_argument("--seed", type=int, default=0)
    protect.add_argument("--profiling-events", type=int, default=1500)
    protect.add_argument("--alpha", type=float, default=0.25)
    protect.add_argument("--single-trigger", action="store_true")
    protect.add_argument("--mute", action="store_true",
                         help="strategic muting after first detection")
    protect.add_argument("--strict", action="store_true",
                         help="refuse to emit an app with error-severity "
                              "verifier/lint diagnostics")
    protect.set_defaults(func=_cmd_protect)

    batch = sub.add_parser(
        "protect-batch",
        help="protect a corpus directory of .rapk files in parallel",
    )
    batch.add_argument("--corpus", required=True,
                       help="directory of .rapk files to protect")
    batch.add_argument("--out", required=True,
                       help="output directory for protected .rapk files")
    batch.add_argument("--key-seed", type=int, required=True,
                       help="developer signing key seed (whole corpus)")
    batch.add_argument("--seed", type=int, default=0,
                       help="config seed; per-app randomness derives from "
                            "this mixed with each app's content digest")
    batch.add_argument("--workers", type=_workers_arg, default=1,
                       help="worker processes (1 = serial; 'auto' sizes to "
                            "the host and degrades to serial on 1 cpu)")
    batch.add_argument("--cache-dir", default=None,
                       help="content-addressed artifact cache directory")
    batch.add_argument("--profiling-events", type=int, default=1500)
    batch.add_argument("--alpha", type=float, default=0.25)
    batch.add_argument("--strict", action="store_true",
                       help="verification gate failures fail the app "
                            "(the batch itself always completes)")
    batch.set_defaults(func=_cmd_protect_batch)

    inspect = sub.add_parser("inspect", help="summarize / disassemble an APK")
    inspect.add_argument("--in", required=True)
    inspect.add_argument("--disassemble", action="store_true")
    inspect.set_defaults(func=_cmd_inspect)

    lint = sub.add_parser(
        "lint", help="bytecode verifier + bomb-stealth lint over an APK"
    )
    lint.add_argument("--in", default=None)
    lint.add_argument("--format", choices=["human", "json", "sarif"],
                      default="human", help="report format")
    lint.add_argument("--json", action="store_true",
                      help="emit diagnostics as a JSON array "
                           "(alias for --format json)")
    lint.add_argument("--rules", default=None,
                      help="comma-separated stealth rule ids (default: all)")
    lint.add_argument("--list-rules", action="store_true",
                      help="print the rule catalog and exit")
    lint.set_defaults(func=_cmd_lint)

    detect = sub.add_parser(
        "detect",
        help="static trigger analysis: rank suspicious guarded regions",
    )
    detect.add_argument("--in", required=True)
    detect.add_argument("--format", choices=["human", "json", "sarif"],
                        default="human", help="report format")
    detect.add_argument("--min-score", type=float, default=2.0,
                        help="drop findings scoring below this")
    detect.add_argument("--top", type=int, default=0,
                        help="print only the N highest-scoring findings "
                             "(0 = all)")
    detect.set_defaults(func=_cmd_detect)

    repack = sub.add_parser("repackage", help="the adversary's pipeline")
    repack.add_argument("--in", required=True)
    repack.add_argument("--out", required=True)
    repack.add_argument("--key-seed", type=int, default=666)
    repack.set_defaults(func=_cmd_repackage)

    simulate = sub.add_parser("simulate", help="play an APK on user devices")
    simulate.add_argument("--in", required=True)
    simulate.add_argument("--devices", type=int, default=10)
    simulate.add_argument("--events", type=int, default=600)
    simulate.add_argument("--seed", type=int, default=0)
    simulate.set_defaults(func=_cmd_simulate)

    attack = sub.add_parser("attack", help="run an adversary analysis")
    attack.add_argument("--in", required=True)
    attack.add_argument(
        "--attack",
        choices=["text", "symbolic", "forced", "slicing", "deletion", "static"],
        required=True,
    )
    attack.add_argument("--seed", type=int, default=0)
    attack.set_defaults(func=_cmd_attack)

    serve = sub.add_parser(
        "serve-reports",
        help="ingest signed detection reports (JSON lines) and decide takedowns",
    )
    serve.add_argument("--app", required=True, help="registered app name")
    serve.add_argument("--key-hex", default=None,
                       help="the genuine signing key fingerprint")
    serve.add_argument("--in", default=None,
                       help="original APK to read the genuine key from")
    serve.add_argument("--reports", default=None,
                       help="JSON-lines report file, or - for stdin")
    serve.add_argument("--listen", type=_parse_hostport, default=None,
                       metavar="HOST:PORT",
                       help="serve DRPT frames over TCP instead of reading "
                            "--reports (port 0 binds an ephemeral port)")
    serve.add_argument("--replication-listen", type=_parse_hostport,
                       default=None, metavar="HOST:PORT",
                       help="also stream the WAL to replica followers here "
                            "(requires --listen and --data-dir)")
    serve.add_argument("--shards", type=int, default=8)
    serve.add_argument("--threshold", type=int, default=3,
                       help="distinct devices required for a takedown")
    serve.add_argument("--window", type=float, default=3600.0,
                       help="sliding takedown window (seconds)")
    serve.add_argument("--max-age", type=float, default=900.0,
                       help="replay freshness window (seconds)")
    serve.add_argument("--queue-capacity", type=int, default=4096)
    serve.add_argument("--process-every", type=int, default=1024,
                       help="drain queues after this many pending reports")
    serve.add_argument("--data-dir", default=None,
                       help="journal accepted reports to a WAL + snapshot "
                            "in this directory (durable ingestion)")
    serve.add_argument("--snapshot-every", type=int, default=1024,
                       help="WAL appends between snapshot compactions")
    serve.set_defaults(func=_cmd_serve_reports)

    replica = sub.add_parser(
        "replica",
        help="follow a serve-reports leader's WAL stream (warm standby)",
    )
    replica.add_argument("--data-dir", required=True,
                         help="directory the shipped WAL + snapshots land in")
    replica.add_argument("--leader", type=_parse_hostport, required=True,
                         metavar="HOST:PORT",
                         help="the leader's --replication-listen address")
    replica.add_argument("--shards", type=int, default=None,
                         help="expected leader shard count (default: accept "
                              "whatever the leader announces)")
    replica.add_argument("--threshold", type=int, default=3)
    replica.add_argument("--window", type=float, default=3600.0)
    replica.add_argument("--promote", action="store_true",
                         help="when the leader goes away, recover a live "
                              "server from the followed directory and print "
                              "its verdicts (failover)")
    replica.set_defaults(func=_cmd_replica)

    supervise = sub.add_parser(
        "supervise",
        help="warm standby + supervisor: follow the leader's WAL, probe "
             "its health, promote automatically when it dies",
    )
    supervise.add_argument("--data-dir", required=True,
                           help="directory the shipped WAL + snapshots land "
                                "in (and supervise.log)")
    supervise.add_argument("--leader", type=_parse_hostport, required=True,
                           metavar="HOST:PORT",
                           help="the leader's ingest (--listen) address, "
                                "probed for health and fenced on failover")
    supervise.add_argument("--replicate-from", type=_parse_hostport,
                           required=True, metavar="HOST:PORT",
                           help="the leader's --replication-listen address")
    supervise.add_argument("--shards", type=int, default=None,
                           help="expected leader shard count (default: "
                                "accept whatever the leader announces)")
    supervise.add_argument("--threshold", type=int, default=3)
    supervise.add_argument("--window", type=float, default=3600.0)
    supervise.add_argument("--snapshot-every", type=int, default=1024)
    supervise.add_argument("--miss-threshold", type=int, default=3,
                           help="consecutive failed probes before the "
                                "leader is declared dead")
    supervise.add_argument("--interval", type=float, default=0.5,
                           help="seconds between health probes")
    supervise.add_argument("--probe-timeout", type=float, default=2.0)
    supervise.add_argument("--promote-listen", type=_parse_hostport,
                           default=("127.0.0.1", 0), metavar="HOST:PORT",
                           help="where a promoted server serves ingest "
                                "(default 127.0.0.1:0, an ephemeral port)")
    supervise.set_defaults(func=_cmd_supervise)

    recover = sub.add_parser(
        "recover",
        help="rebuild a crashed report server from its WAL + snapshot",
    )
    recover.add_argument("--data-dir", required=True,
                         help="the durable directory a previous "
                              "serve-reports --data-dir run journaled to")
    recover.add_argument("--shards", type=int, default=8,
                         help="must match the crashed server's shard count")
    recover.add_argument("--threshold", type=int, default=3)
    recover.add_argument("--window", type=float, default=3600.0)
    recover.set_defaults(func=_cmd_recover)

    fleet = sub.add_parser(
        "fleet",
        help="stream a million-device fleet through the report pipeline",
    )
    fleet.add_argument("--in", required=True, help="the (pirated) APK users run")
    fleet.add_argument("--original", default=None,
                       help="the genuine APK (source of the genuine key)")
    fleet.add_argument("--key-hex", default=None,
                       help="genuine key fingerprint (alternative to --original)")
    fleet.add_argument("--app", default=None,
                       help="app name (default: from APK resources)")
    fleet.add_argument("--devices", type=int, default=1_000_000)
    fleet.add_argument("--batch", type=int, default=50_000)
    fleet.add_argument("--shards", type=int, default=8)
    fleet.add_argument("--seed", type=int, default=0)
    fleet.add_argument("--sessions", type=int, default=5,
                       help="real play sessions for outcome calibration")
    fleet.add_argument("--events", type=int, default=350,
                       help="UI events per calibration session")
    fleet.add_argument("--target-reports", type=int, default=25_000,
                       help="sample the reporting subpopulation to this size")
    fleet.add_argument("--threshold", type=int, default=3)
    fleet.add_argument("--window", type=float, default=3600.0)
    fleet.add_argument("--duplicate-rate", type=float, default=0.01)
    fleet.add_argument("--forge-rate", type=float, default=0.0)
    fleet.add_argument("--transport-failure-rate", type=float, default=0.0)
    fleet.add_argument("--real-sessions", action="store_true",
                       help="interpret a real play session for every sampled "
                            "reporter (dispatch-table VM) instead of trusting "
                            "the calibrated outcome model")
    fleet.add_argument("--transport", choices=["inproc", "tcp"],
                       default="inproc",
                       help="report delivery: in-process calls, or real "
                            "loopback sockets through the ingest service")
    fleet.set_defaults(func=_cmd_fleet)

    chaos = sub.add_parser(
        "chaos",
        help="seeded fault-injection matrix with containment invariants",
    )
    chaos.add_argument("--seed", type=int, default=7)
    chaos.add_argument("--trials", type=int, default=25)
    chaos.add_argument("--scale", type=float, default=0.4,
                       help="generated app size factor")
    chaos.add_argument("--events", type=int, default=600,
                       help="UI events per play session")
    chaos.add_argument("--devices", type=int, default=2,
                       help="distinct pirate devices rotated across trials")
    chaos.add_argument("--strict", action="store_true",
                       help="re-raise contained failures (debugging)")
    chaos.add_argument("--mesh", action="store_true",
                       help="protect with the bomb mesh armed (cross-"
                            "referenced payloads, morphed prologues)")
    chaos.add_argument("--crash-restart", action="store_true",
                       help="run the kill-and-recover matrix against the "
                            "durable report server instead of the VM matrix")
    chaos.add_argument("--failover", action="store_true",
                       help="run the kill-the-leader matrix against the "
                            "replicated cluster: heartbeat-supervised "
                            "promotion, epoch fencing, client re-routing")
    chaos.add_argument("--reports", type=int, default=None,
                       help="stream length per crash-restart/failover trial "
                            "(default: 48 crash-restart, 30 failover)")
    chaos.add_argument("--data-dir", default=None,
                       help="parent directory for crash-restart/failover "
                            "trial state (default: a temp dir, removed "
                            "afterwards)")
    chaos.add_argument("--json", action="store_true",
                       help="emit the full report as JSON")
    chaos.add_argument("--verify-replay", action="store_true",
                       help="run the matrix twice and require identical "
                            "replay digests")
    chaos.set_defaults(func=_cmd_chaos)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except VerificationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION
    except VMError as exc:
        detail = ""
        if isinstance(exc, VMCrash) and (exc.bomb_id or exc.site):
            detail = f" (bomb={exc.bomb_id or '?'}, site={exc.site or '?'})"
        print(f"error: VM crashed: {exc}{detail}", file=sys.stderr)
        return EXIT_CRASH
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
