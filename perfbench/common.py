"""Shared helpers: statistics, the run record, digests, memory, work dirs."""

from __future__ import annotations

import hashlib
import math
import os
import resource
import shutil
import statistics
from dataclasses import dataclass, field
from typing import Dict, List, Sequence

#: Minimum samples beyond a reported percentile (choosing-metrics rule:
#: report the highest percentile that has at least ten samples past it).
TAIL_MARGIN = 10


median = statistics.median


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile ``q`` in [0, 100] of ``values``."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def tail_percentile(count: int) -> float:
    """The highest of p99.9/p99/p95/p90/p50 with ``TAIL_MARGIN`` samples
    beyond it, for ``count`` samples."""
    for q in (99.9, 99.0, 95.0, 90.0):
        if count * (100.0 - q) / 100.0 >= TAIL_MARGIN:
            return q
    return 50.0


def reset_peak_rss() -> bool:
    """Reset this process's resident-memory high-water mark to its
    current size (Linux ``clear_refs``); False where that is not possible."""
    try:
        with open("/proc/self/clear_refs", "w") as handle:
            handle.write("5")
        return True
    except OSError:
        return False


def peak_rss_mb() -> float:
    """Peak resident memory of this process since ``reset_peak_rss``
    (else since it started), or of a reaped child if that is higher."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    try:
        with open("/proc/self/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    own = int(line.split()[1])
    except OSError:
        pass
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # both in KiB on Linux


class Digest:
    """Order-sensitive digest of a run's observable outputs."""

    def __init__(self) -> None:
        self._hash = hashlib.sha256()

    def add(self, *parts) -> None:
        self._hash.update(repr(parts).encode("utf-8"))
        self._hash.update(b"\x00")

    def hexdigest(self) -> str:
        return self._hash.hexdigest()[:16]


@dataclass
class Measurement:
    """What one measured stretch of a workload produced.

    ``samples`` holds raw timings by name (seconds); ``counts`` holds
    per-layer counts the workload itself observes (bomb events, statuses,
    lint errors).  ``passes`` is how many complete passes over the
    workload's input set ran; every pass must yield ``digest``.
    """

    passes: int = 0
    attempted: int = 0
    failed: int = 0
    wall_s: float = 0.0
    digest: str = ""
    samples: Dict[str, List[float]] = field(default_factory=dict)
    counts: Dict[str, float] = field(default_factory=dict)
    errors: List[str] = field(default_factory=list)

    def sample(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def check(self, ok: bool, message: str) -> bool:
        """Record a failed output check; returns ``ok``."""
        if not ok and len(self.errors) < 20:
            self.errors.append(message)
        return ok

    def same_digest(self, digest: str) -> None:
        """Every pass over the same inputs must observe the same outputs."""
        if not self.digest:
            self.digest = digest
        else:
            self.check(
                digest == self.digest,
                f"pass {self.passes} digest {digest} != first pass {self.digest}",
            )


class WorkDir:
    """A scratch directory inside the checkout, removed on exit."""

    def __init__(self, root: str, name: str) -> None:
        self.path = os.path.join(root, ".perfbench_work", f"{name}-{os.getpid()}")
        os.makedirs(self.path, exist_ok=True)

    def sub(self, *names: str) -> str:
        path = os.path.join(self.path, *names)
        os.makedirs(path, exist_ok=True)
        return path

    def remove(self, *names: str) -> None:
        shutil.rmtree(os.path.join(self.path, *names), ignore_errors=True)

    def close(self) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
        parent = os.path.dirname(self.path)
        try:
            os.rmdir(parent)
        except OSError:
            pass  # another run still uses it
