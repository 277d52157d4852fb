"""Span tracing from outside the program.

The benchmark wraps the public entry point of each layer (the table in
``run.py``) for the length of a traced pass and restores the originals
afterwards.  Each wrapped call records a span -- name, start, end, the
span that was open on the same thread when it started -- plus optional
counts made at the same boundary (bytes, distinct inputs, statuses).

Functions are patched at *every* binding: a name imported with
``from module import fn`` is a separate module attribute, so the tracer
replaces each attribute of a loaded ``repro`` module that is the
original object.  Methods are patched on their class.  A wrapper that is
never hit reads zero, and ``perfbench/tests`` asserts which wrappers
must be hit on which workload, so a missed binding shows as a failure
instead of a silent zero.

Self time is a span's duration minus the time its direct child spans
cover.  A call nested inside another call of the same metric (for
example ``hash_constant`` inside ``derive_key``) is not counted twice.
"""

from __future__ import annotations

import sys
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

#: Hook run after each wrapped call: ``hook(tracer, args, result)``;
#: ``result`` is None when the call raised.
CountHook = Callable[["Tracer", tuple, object], None]


class Tracer:
    """In-memory span recorder with reversible patches."""

    def __init__(self) -> None:
        #: [metric, start, end, parent span or None, child seconds, nested]
        self.spans: List[list] = []
        self.counts: Dict[str, float] = {}
        self.distinct: Dict[str, set] = {}
        self._local = threading.local()
        self._patches: List[Tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def _stack(self) -> Tuple[list, Dict[str, int]]:
        local = self._local
        try:
            return local.stack, local.depth
        except AttributeError:
            local.stack, local.depth = [], {}
            return local.stack, local.depth

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def see(self, name: str, key) -> None:
        """Record one input for a distinct-input ratio."""
        self.distinct.setdefault(name, set()).add(key)

    def _wrap(self, original: Callable, metric: str, hook: Optional[CountHook]):
        tracer = self
        spans = self.spans
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack, depth = tracer._stack()
            parent = stack[-1] if stack else None
            nested = depth.get(metric, 0) > 0
            record = [metric, 0.0, 0.0, parent, 0.0, nested]
            spans.append(record)
            stack.append(record)
            depth[metric] = depth.get(metric, 0) + 1
            result = None
            start = clock()
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                depth[metric] -= 1
                record[1] = start
                record[2] = end
                if parent is not None:
                    parent[4] += end - start
                if hook is not None:
                    hook(tracer, args, result)

        traced.__wrapped__ = original
        return traced

    # -- patching -----------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        # vars() keeps a class's classmethod object intact for restore.
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def wrap_function(
        self, module_name: str, attr: str, metric: str,
        hook: Optional[CountHook] = None,
    ) -> None:
        """Wrap a module-level function at every loaded ``repro`` binding.

        Modules imported later would keep the wrapper after
        ``uninstall``, so callers import every binding module first.
        """
        original = getattr(sys.modules[module_name], attr)
        traced = self._wrap(original, metric, hook)
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "repro" or name.startswith("repro.")):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._set(module, key, traced)

    def wrap_method(
        self, cls: type, attr: str, metric: str,
        hook: Optional[CountHook] = None,
    ) -> None:
        """Wrap a method (plain or classmethod) on its class."""
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            traced = classmethod(self._wrap(raw.__func__, metric, hook))
        else:
            traced = self._wrap(raw, metric, hook)
        self._set(cls, attr, traced)

    def hook_method(self, cls: type, attr: str, hook: CountHook) -> None:
        """Count at a method boundary without recording a span."""
        raw = cls.__dict__[attr]
        tracer = self

        def counted(*args, **kwargs):
            result = raw(*args, **kwargs)
            hook(tracer, args, result)
            return result

        self._set(cls, attr, counted)

    def uninstall(self) -> None:
        """Restore every patched attribute (reverse order)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- aggregation --------------------------------------------------------

    def totals(self, spans: Optional[List[list]] = None) -> Dict[str, Dict[str, float]]:
        """Per metric: outer ``calls``, busy seconds ``s``, ``self_s``.

        Over every span recorded, or over ``spans``, a slice of them.
        """
        out: Dict[str, Dict[str, float]] = {}
        for metric, start, end, _parent, child, nested in (
            self.spans if spans is None else spans
        ):
            if nested:
                continue
            entry = out.setdefault(metric, {"calls": 0, "s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["s"] += end - start
            entry["self_s"] += end - start - child
        return out
