"""The skeleton every chaos matrix runs on.

A matrix (:mod:`.harness`, :mod:`.crash`, :mod:`.failover`) defines its
config, trial record, scenarios, invariants and summary lines; this
module owns the report (digest, JSON, text) and the per-trial directory
loop.  A trial record is any dataclass with ``scenario`` and
``violations`` fields.  The digest state is ``(seed, *header values,
(record keys...), (violations...))``, a record key being its field
values in declared order -- the shape each matrix hashed before the
skeleton existed.
"""

from __future__ import annotations

import os
import shutil
import tempfile
from collections import Counter
from dataclasses import dataclass, field, fields
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.crypto import sha1_hex


def _record_fields(record) -> Dict[str, object]:
    """A trial record's fields in declared order, values as they are
    (no recursive copy the way ``dataclasses.astuple`` makes one)."""
    return {f.name: getattr(record, f.name) for f in fields(record)}


@dataclass
class MatrixReport:
    """Everything one chaos matrix run observed."""

    #: Matrix name; the first word of the summary (``chaos``, ...).
    name: str
    seed: int
    #: The matrix's own summary lines, rendered between the shared
    #: header line and the replay digest.
    lines: Callable[["MatrixReport"], Iterable[str]] = field(
        repr=False, compare=False
    )
    #: Run-level facts hashed ahead of the records and serialized as
    #: top-level keys, in insertion order.
    header: Dict[str, object] = field(default_factory=dict)
    trials: List = field(default_factory=list)
    violations: List[str] = field(default_factory=list)

    def add(self, record) -> None:
        self.trials.append(record)
        self.violations.extend(record.violations)

    @property
    def ok(self) -> bool:
        return not self.violations

    def digest(self) -> str:
        """Replay fingerprint: identical seeds must produce identical
        digests, bit for bit."""
        state = (
            self.seed,
            *self.header.values(),
            tuple(tuple(_record_fields(r).values()) for r in self.trials),
            tuple(self.violations),
        )
        return sha1_hex(repr(state).encode("utf-8"))

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "ok": self.ok,
            "digest": self.digest(),
            **self.header,
            "violations": list(self.violations),
            "trials": [_record_fields(r) for r in self.trials],
        }

    def summary(self) -> str:
        by_scenario = Counter(record.scenario for record in self.trials)
        lines = [
            f"{self.name}: seed {self.seed}, {len(self.trials)} trials ("
            + ", ".join(f"{k}={v}" for k, v in sorted(by_scenario.items()))
            + ")",
            *self.lines(self),
            f"replay digest: {self.digest()}",
        ]
        if self.violations:
            lines.append(f"INVARIANT VIOLATIONS ({len(self.violations)}):")
            lines.extend(f"  {v}" for v in self.violations)
        else:
            lines.append("invariants: all held")
        return "\n".join(lines)


def run_in_trial_dirs(
    report: MatrixReport,
    data_dir: Optional[str],
    prefix: str,
    cells: Iterable[Tuple[str, int]],
    run_trial: Callable[[str, int, str], object],
) -> MatrixReport:
    """Add ``run_trial(scenario, offset, trial_dir)`` for every cell to
    ``report``.  Trial dirs live under ``data_dir``; ``None`` means a
    temp dir named ``prefix...`` that is removed afterwards."""
    root = tempfile.mkdtemp(prefix=prefix) if data_dir is None else data_dir
    try:
        for scenario, offset in cells:
            trial_dir = os.path.join(root, f"{scenario}-{offset:04d}")
            # A leftover dir from an earlier run would replay into the
            # fresh trial and break determinism.
            shutil.rmtree(trial_dir, ignore_errors=True)
            os.makedirs(trial_dir)
            report.add(run_trial(scenario, offset, trial_dir))
    finally:
        if data_dir is None:
            shutil.rmtree(root, ignore_errors=True)
    return report
