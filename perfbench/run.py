"""End-to-end benchmark over the paper's path: protect -> play -> ingest.

Run from the root of a checkout::

    python3 perfbench/run.py --workload {protect,play,ingest} --seed N \\
        --seconds S --trace {0,1}

All inputs are generated in setup from ``--seed``; the program receives
only those generated inputs.  Setup runs ``SETUP_REPEATS`` times and
``setup_s`` is the median.  The run then measures as many complete
passes over the workload's input set as fit in ``--seconds`` (at least
one).  Every pass over the same inputs must produce the same output
digest.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics, measured untraced.
``--trace 1`` measures untraced passes for half the time, then the same
number of passes again with every layer entry point wrapped
(``layers.py``, ``spans.py``), checks that both produce the same output
digest, and reports the per-layer metrics, with the wall-time difference
as ``trace.overhead_pct``.  ``ingest`` takes its per-layer metrics from
an in-process replay instead (``wl_ingest.replay``).

``setup_s`` is the median of the repeats; ``peak_rss_mb`` is the peak
resident memory during the measured passes (the high-water mark is reset
after setup, whose own peak is printed).

The benchmark pins itself, and so the ingest server it starts, to one
CPU (``_pin_to_one_cpu``).

Workloads (load comes from this one client process, with at most two
threads or connections):

``protect``  closed loop, one developer.  For each of the eight named
    apps (948-3370 instructions, 29-145 bombs),
    ``BombDroid(BombDroidConfig(seed)).protect(apk, key, strict=True)``
    then ``repackage`` with a pirate key; one op is one app.  Chosen
    because most of its work is analysis, lint, instrumentation, AES
    *encryption*, dex serialization and APK signing: the VM runs only
    inside the profiler and nothing is decrypted or reported, so a
    change to decryption or ingest must leave it flat.  Strict-gate
    failures (``VerificationError``) are failed ops, printed with their
    rule names; no app is dropped or re-seeded to avoid them.
``play``  closed loop, one device at a time (a UI thread dispatches the
    next event only after the last returns).  Three apps are protected
    non-strict in setup, with a fixed protection seed (``wl_play.py``
    says why), and repackaged; each pass plays 6 pirated and 2
    genuine sessions per app, 300 pre-generated Dynodroid events each,
    on sampled devices.  REPORT responses go through ``ReportClient`` and
    ``encode_report`` into an in-process durable ``ReportServer``; after
    each app's sessions the backend runs ``process()`` and
    ``verdicts()``.  Chosen as the user side: VM dispatch, trigger
    hashing, KDF, AES *decryption* and payload classload dominate, and
    per-event latency is what an app's user feels.
``ingest``  the developer backend, no VM and no AES, with
    ``repro serve-reports`` in its own process and the WAL on: (a) open
    loop at a fixed offered rate below capacity, one connection, each
    report timed from its scheduled send time; (b) a pipelined burst
    over two connections; (c) SIGKILL, then recover, process and
    verdicts.  Chosen because RSA verification, wire decode, dedup, WAL
    append and asyncio framing carry the load, and (c) reads back the
    WAL that (a) and (b) wrote.  ``wl_ingest.py`` documents the rates.

Not covered: ``repro.pipeline.batch`` fan-out and the artifact cache (a
two-core host cannot show fan-out, and a warm cache measures only the
cache).

End-to-end metrics (``--trace 0``).  Every workload reports every
metric; each generic name maps to the workload's own quantity, and the
human-readable lines above the JSON print them under their own names
with sample counts:

==============  =====  ===========================  ====================  =====================
name            unit   protect                      play                  ingest
==============  =====  ===========================  ====================  =====================
setup_s         s      build apps, keys             protect + repackage,  keys, sign frames
                                                    streams, devices
peak_rss_mb     MB     peak resident memory of the workload's processes
ops_per_s       1/s    apps per second              sessions_per_s        reports_per_s (b)
op_p50_ms       ms     median app protect time      event_p50 (dispatch)  report_p50 (a)
op_tail_ms      ms     slowest app (median)         event_p95             backlog_p90 (b)
pass_s          s      protect_s: one pass over     one pass over the     recover_s (c):
                       the eight apps               sessions + verdicts   recover+process+
                                                                          verdicts
==============  =====  ===========================  ====================  =====================

The highest percentile with at least ten samples beyond it in one pass
is printed for ``play`` (event p99) and ``ingest`` (report p99), but
neither is gated, because both moved with the host's scheduling stalls
far more than with the program (``wl_play.py``, ``wl_ingest.py``).
Play gates its event p95 instead.  Ingest's open-loop latencies are
medians over windows of 200 consecutive reports; its p90 is printed.
Ingest has no gated latency tail: its ``op_tail_ms`` is ``backlog_p90``,
how long a burst report (a device flushing its spool after an outage)
waits for its status, which in a pipelined burst is about 0.9 of the
burst's wall time and so moves with ``ops_per_s``.  For ``protect``
eight apps give too few samples for a percentile, so the tail is the
slowest app; and a run is one pass, so ``ops_per_s`` there is 8 /
``pass_s``, the same quantity gated twice.

Per-layer metrics (``--trace 1``).  Busy and self times (``.pct``) are
shares of the traced run's wall time -- the most that speeding up that
layer alone can save of it.  On ``ingest`` they are shares of the
in-process replay's phase (b), the burst that ``ops_per_s`` measures,
except ``net.client_wait`` (phase (a)) and ``wal.recover`` and
``server.verdict`` (phase (c)); the server-side shares of phases (a)
and (b) are printed.  Each row gives the entry point the tracer wraps,
the end-to-end metric it should move, and where it should read zero or
stay flat:

======================================  ==============================  =========================  ==========
metrics                                 wraps                           should move                flat on
======================================  ==============================  =========================  ==========
crypto.aes_decrypt.{calls,pct,bytes},   AES128.decrypt_cbc              ops_per_s, op_tail @ play  protect,
crypto.aes_decrypt.distinct_ratio                                                                  ingest
crypto.aes_encrypt.{calls,pct}          AES128.encrypt_cbc              pass_s @ protect           play, ingest
crypto.kdf.{calls,pct}                  derive_key, hash_constant       op_tail @ play, protect    ingest
crypto.rsa_sign.{calls,pct}             RSAKeyPair.sign                 protect (APK signing),     --
                                                                        play (device reports),
                                                                        setup_s @ ingest
crypto.rsa_verify.{calls,pct}           RSAPublicKey.verify             ingest                     protect (one
                                                                                                   install check
                                                                                                   per app)
dex.serialize.{calls,pct,bytes}         serialize_dex                   protect                    ingest
dex.deserialize.{calls,pct,bytes}       deserialize_dex                 play (classload), protect  ingest
analysis.{profile,qc,verify}.pct,       profile_hot_methods,            protect                    play, ingest
lint.run.pct, lint.errors               find_qualified_conditions,
                                        verify_dex, run_lint
core.stage.*.pct, core.bombs,           BombDroid.protect (timings)     protect                    play, ingest
core.size_increase_pct
vm.runtime_init.pct, vm.boot.pct,       Runtime(...), Runtime.session,  play; protect through      ingest
vm.dispatch.self_pct, vm.instructions,  boot and dispatch of Runtime    profiling
vm.cost_units, vm.instr_per_s,          and of its sessions,
vm.classload.{calls,pct}                Runtime.load_blob_method
vm.bombs.*, vm.detect_ratio             BombRegistry after a session    -- (behaviour counts)      all
wire.{encode,decode}.{calls,pct}        encode_report, decode_report    ingest                     protect
client.deliver.{calls,pct},             ReportClient.deliver            play (small share)         protect
client.retries, client.spooled
server.submit.self_pct,                 ReportServer.submit/process/    ingest                     protect
server.{process,verdict}.pct,           verdict
server.status.*
wal.append.{calls,pct,bytes},           DurabilityLog.append_report/    ingest                     protect
wal.compact.{calls,pct}, wal.failures,  compact, ReportServer.recover
wal.recover.pct, wal.replayed_records
net.client_wait.pct,                    TcpTransport.__call__/          op_p50 @ ingest            protect, play
net.server_ingest_over_1ms              send_many; phase (a) reports
                                        the service's ingest_seconds
                                        histogram puts above 1 ms
trace.overhead_pct, trace.spans         the traced against the untraced passes;
                                        on ingest, the two replays
======================================  ==============================  =========================  ==========

The ingest server runs in its own process, so its server-side layers
are traced by replaying one round -- the same frames, then a crash and
a recovery -- through an in-process ``ReportServer`` and
``IngestService`` with the same options, once untraced and once traced;
both replays must reproduce the measured rounds' output digest.

How the metrics interact: on ``play`` a faster decrypt or a payload
cache saves at most the ``crypto.aes_decrypt.pct`` share of wall time, and
should move ``op_tail_ms`` and ``ops_per_s`` but not ``op_p50_ms``,
because median events decrypt nothing.  A VM dispatch change moves
``play`` and, through profiling, ``protect``.  On ``ingest``, latency at
the fixed rate rises before throughput stops rising, and the
``crypto.rsa_verify.pct`` share bounds any ``ops_per_s`` gain.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

SETUP_REPEATS = 3
WORKLOADS = ("protect", "play", "ingest")

#: (name, unit) of the end-to-end metrics, in BENCHMARK.json order.
END_TO_END = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("pass_s", "s"),
]


def _load_program() -> None:
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        raise SystemExit(f"perfbench: no program sources at {src}")
    sys.path.insert(0, src)


def _pin_to_one_cpu() -> None:
    """Run the benchmark, and the processes it starts, on one CPU.

    On a shared virtual machine the CPUs are not equally quiet, and a
    run that the scheduler moved between them measured differently from
    one that stayed put.  Ingest's client and server then share that CPU
    as separate processes, and a report never waits for the hypervisor
    to wake a second, idle vCPU.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def measure(workload, state, seconds=None, passes=None):
    """Exactly ``passes`` complete passes, or as many as fit in ``seconds``.

    A pass starts only if one as long as the last would still end within
    ``seconds``; the first always runs.
    """
    from common import Measurement

    m = Measurement()
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        workload.run_pass(state, m)
        now = time.perf_counter()
        if passes is not None:
            if m.passes >= passes:
                break
        elif now - start + (now - began) > seconds:
            break
    m.wall_s = time.perf_counter() - start
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    _load_program()
    _pin_to_one_cpu()
    import layers
    import wl_ingest
    import wl_play
    import wl_protect
    from common import WorkDir, median, peak_rss_mb, reset_peak_rss
    from spans import Tracer

    workload = {"protect": wl_protect, "play": wl_play, "ingest": wl_ingest}[args.workload]
    work = WorkDir(ROOT, args.workload)
    try:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            state = None  # a repeat must not hold the last one's inputs
            gc.collect()
            start = time.perf_counter()
            state = workload.setup(args.seed, work)
            setup_times.append(time.perf_counter() - start)
        # The generated inputs live as long as the run; frozen, they are
        # not rescanned by every full collection the program triggers.
        gc.collect()
        gc.freeze()
        setup_rss_mb = peak_rss_mb()
        rss_reset = reset_peak_rss()

        if not args.trace:
            runs = [measure(workload, state, seconds=args.seconds)]
            workload.check(state, runs[0])
            values, lines = workload.end_to_end(runs[0])
            values["setup_s"] = median(setup_times)
            values["peak_rss_mb"] = peak_rss_mb()
            lines.append(f"peak resident memory: setup {setup_rss_mb:.2f} MB, measured "
                         f"passes {values['peak_rss_mb']:.2f} MB"
                         + ("" if rss_reset else " (high-water mark could not be reset: "
                            "the passes' figure includes setup)"))
            units = dict(END_TO_END)
        else:
            base = measure(workload, state, seconds=args.seconds / 2)
            tracer = Tracer()
            layers.install(tracer)
            try:
                traced = measure(workload, state, passes=base.passes)
            finally:
                tracer.uninstall()
            runs = [base, traced]
            workload.check(state, base)
            traced.check(traced.digest == base.digest,
                         f"traced digest {traced.digest} != untraced {base.digest}")
            overhead_pct = 100.0 * (traced.wall_s / base.wall_s - 1.0)
            _, lines = workload.end_to_end(base)
            lines.append(f"traced digest {traced.digest}; tracing overhead "
                         f"{overhead_pct:+.1f}% over {traced.passes} pass(es)")
            profile = layers.Profile(tracer, traced.counts, traced.wall_s, overhead_pct)
            if hasattr(workload, "replay"):
                profile = workload.replay(state, traced)
                lines.append(f"in-process replay: tracing overhead {profile.overhead_pct:+.1f}%")
                lines.extend(layers.phase_lines(profile))
            values = layers.collect(profile)
            units = dict(layers.PER_LAYER)
    finally:
        work.close()

    errors = [e for m in runs for e in m.errors]
    print(f"workload {args.workload}, seed {args.seed}: {runs[0].passes} pass(es) "
          f"in {runs[0].wall_s:.2f} s, output digest {runs[0].digest}")
    print(f"setup_s samples: {', '.join(f'{t:.4f}' for t in setup_times)}")
    for line in lines:
        print(line)
    for name, rules in sorted(getattr(state, "failures", {}).items()):
        print(f"failed op: {name}: VerificationError ({', '.join(rules)})")
    for error in errors:
        print(f"CHECK FAILED: {error}")
    for name, unit in units.items():
        print(f"{name} = {values[name]:.6g} {unit}")
    result = {
        "correct": not errors,
        "attempted": sum(m.attempted for m in runs),
        "failed": sum(m.failed for m in runs),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except SystemExit:
        raise
    except BaseException:
        traceback.print_exc()
        sys.exit(1)
