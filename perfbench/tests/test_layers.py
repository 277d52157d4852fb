"""The traced run's wrappers cover the layers, and tracing changes nothing.

Each workload runs once traced and once untraced through ``run.py``.
Every wrapper must be hit on the workload predicted heavy for it and
read zero where the prediction says the layer does not run: a function
imported under another binding than the one patched would otherwise
report zero silently.  The traced run's output digest must equal the
untraced run's.

Run from the repository root (takes about three minutes)::

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
RUN = os.path.join(ROOT, "perfbench", "run.py")
SEED = 1

#: Metrics that must read above zero on the workload.
HIT = {
    "protect": [
        "crypto.aes_encrypt.calls", "crypto.kdf.calls", "crypto.rsa_sign.calls",
        "dex.serialize.calls", "dex.deserialize.calls", "analysis.profile.pct",
        "analysis.qc.pct", "analysis.verify.pct", "lint.run.pct", "core.stage.profile.pct",
        "core.stage.instrument.pct", "core.bombs", "vm.runtime_init.pct", "vm.boot.pct",
        "vm.dispatch.self_pct",
    ],
    "play": [
        "crypto.aes_decrypt.calls", "crypto.aes_decrypt.bytes", "crypto.kdf.calls",
        "crypto.rsa_sign.calls", "crypto.rsa_verify.calls", "dex.deserialize.calls",
        "vm.runtime_init.pct", "vm.boot.pct", "vm.dispatch.self_pct", "vm.instructions",
        "vm.cost_units", "vm.instr_per_s", "vm.classload.calls",
        "vm.bombs.outer_satisfied", "wire.encode.calls", "wire.decode.calls",
        "client.deliver.calls", "server.submit.self_pct", "server.process.pct",
        "server.verdict.pct", "server.status.accepted", "wal.append.calls",
        "wal.append.bytes", "wal.compact.calls",
    ],
    "ingest": [
        "crypto.rsa_verify.calls", "wire.decode.calls", "server.submit.self_pct",
        "server.process.pct", "server.verdict.pct", "server.status.accepted",
        "server.status.duplicate", "server.status.bad_signature",
        "server.status.replayed", "wal.append.calls", "wal.append.bytes",
        "wal.recover.pct", "wal.replayed_records", "net.client_wait.pct",
    ],
}

_ANALYSIS = ["analysis.profile.pct", "analysis.qc.pct", "analysis.verify.pct", "lint.run.pct"]
_CORE = ["core.stage.profile.pct", "core.bombs"]

#: Metrics that must read zero on the workload.
ZERO = {
    "protect": [
        "crypto.aes_decrypt.calls", "wire.encode.calls", "wire.decode.calls",
        "client.deliver.calls", "server.submit.self_pct", "wal.append.calls",
        "wal.recover.pct", "net.client_wait.pct",
    ],
    "play": [
        "crypto.aes_encrypt.calls", "dex.serialize.calls", "wal.recover.pct",
        "net.client_wait.pct", "server.status.dropped", "client.spooled",
    ] + _ANALYSIS + _CORE,
    "ingest": [
        "crypto.aes_decrypt.calls", "crypto.aes_encrypt.calls", "crypto.kdf.calls",
        "dex.serialize.calls", "dex.deserialize.calls", "vm.dispatch.self_pct",
        "vm.classload.calls", "client.deliver.calls", "server.status.dropped",
        "wal.failures",
        # A round's WAL stays below the snapshot interval, so recovery
        # replays all of it and nothing compacts.
        "wal.compact.calls",
    ] + _ANALYSIS + _CORE,
}


def _run(workload: str, trace: int):
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    digest = re.search(r"output digest (\w+)", proc.stdout).group(1)
    return result, digest, proc.stdout


@pytest.fixture(scope="module", params=sorted(HIT))
def runs(request):
    workload = request.param
    return workload, _run(workload, 1), _run(workload, 0)


def test_wrappers_cover_the_layers(runs):
    workload, (traced, _, _), _ = runs
    values = {name: m["value"] for name, m in traced["metrics"].items()}
    missed = [name for name in HIT[workload] if not values[name] > 0]
    assert not missed, f"{workload}: wrappers never hit: {missed}"
    leaked = [name for name in ZERO[workload] if values[name] != 0]
    assert not leaked, f"{workload}: predicted zero but read {[(n, values[n]) for n in leaked]}"


def test_protect_verifies_one_signature_per_app(runs):
    workload, (traced, _, _), _ = runs
    if workload != "protect":
        pytest.skip("protect only")
    values = {name: m["value"] for name, m in traced["metrics"].items()}
    # The profiler installs each input app once, which checks its
    # signature; nothing else on this path verifies.
    assert values["crypto.rsa_verify.calls"] == traced["attempted"] // 2


def test_traced_digest_equals_untraced(runs):
    workload, (traced, traced_digest, stdout), (untraced, untraced_digest, _) = runs
    assert traced["correct"] and untraced["correct"], stdout
    assert re.search(r"traced digest (\w+)", stdout).group(1) == traced_digest
    assert traced_digest == untraced_digest


def test_strict_gate_failures_are_reported(runs):
    workload, _, (untraced, _, stdout) = runs
    if workload != "protect":
        assert untraced["failed"] == 0
        return
    failures = re.findall(r"failed op: (.+): VerificationError \((.+)\)", stdout)
    assert len(failures) == untraced["failed"]
    assert all(rules.strip() for _, rules in failures)
