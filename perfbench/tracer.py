"""Outside-in span recorder for the traced run.

The recorder wraps public entry points of the ``repro`` layers from the
benchmark's side (the library itself is untouched) and keeps every span
in memory: name, parent span, thread, start and end from
``time.perf_counter_ns``.  The current span lives in a ``ContextVar``,
so nesting is tracked per thread; pool worker threads start with an
empty context and their spans are roots.  At exit the spans are written
as Chrome trace-event JSON (opens in Perfetto) and as a flat per-layer
self-time table.

Worker *processes* keep their spans: only calls made in this process
are recorded.
"""

from __future__ import annotations

import contextvars
import importlib
import itertools
import json
import os
import threading
import time
from collections import defaultdict
from contextlib import contextmanager


class SpanRecorder:
    """In-memory spans plus the patches that produce them."""

    def __init__(self):
        self.spans = []           # (id, parent, name, thread, t0_ns, t1_ns)
        self.requests = []        # (request index, t0_ns, t1_ns, ok)
        self.missing = []         # targets absent from this version
        self._ids = itertools.count(1)
        self._current = contextvars.ContextVar("perfbench_span", default=0)
        self._patches = []        # (owner, attr, original)
        self.t0_ns = time.perf_counter_ns()

    # -- recording -----------------------------------------------------
    def _timed(self, name, fn, args, kwargs):
        parent = self._current.get()
        span_id = next(self._ids)
        token = self._current.set(span_id)
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            self._current.reset(token)
            self.spans.append((span_id, parent, name,
                               threading.get_ident(), start, end))

    @contextmanager
    def span(self, name):
        """Record a span around the benchmark's own call."""
        parent = self._current.get()
        span_id = next(self._ids)
        token = self._current.set(span_id)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._current.reset(token)
            self.spans.append((span_id, parent, name,
                               threading.get_ident(), start, end))

    def request(self, index, start_ns, end_ns, ok):
        self.requests.append((index, start_ns, end_ns, ok))

    # -- patching ------------------------------------------------------
    def wrap(self, target, name, observe=None):
        """Wrap ``"module:attr"`` or ``"module:Class.attr"`` in a span.

        ``observe(args, kwargs)`` runs before the call (the recorder
        uses it to count decode keys and batch outcomes).  A target this
        version of the library lacks is listed in :attr:`missing`
        instead of failing the run.
        """
        module_name, _, path = target.partition(":")
        try:
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            raw = (owner.__dict__[attr] if isinstance(owner, type)
                   else getattr(owner, attr))
        except (ImportError, AttributeError, KeyError):
            self.missing.append(target)
            return False
        kind = type(raw) if isinstance(raw, (classmethod,
                                             staticmethod)) else None
        fn = raw.__func__ if kind else raw
        recorder = self

        def wrapper(*args, **kwargs):
            if observe is not None:
                observe(args, kwargs)
            return recorder._timed(name, fn, args, kwargs)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        setattr(owner, attr, kind(wrapper) if kind else wrapper)
        self._patches.append((owner, attr, raw))
        return True

    def unpatch(self):
        """Restore every wrapped attribute (last wrapped first)."""
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    # -- analysis ------------------------------------------------------
    def table(self, start_ns=None, end_ns=None):
        """Per-name calls, total and self time (ns) of spans starting in
        ``[start_ns, end_ns)``.

        Self time is a span's duration minus the time its direct
        children cover; children nest inside their parent on one
        thread, so they never overlap each other.
        """
        child_ns = defaultdict(int)
        for _sid, parent, _name, _tid, t0, t1 in self.spans:
            if parent:
                child_ns[parent] += t1 - t0
        rows = defaultdict(lambda: {"calls": 0, "total_ns": 0,
                                    "self_ns": 0})
        for sid, _parent, name, _tid, t0, t1 in self.spans:
            if start_ns is not None and not start_ns <= t0 < end_ns:
                continue
            row = rows[name]
            row["calls"] += 1
            row["total_ns"] += t1 - t0
            row["self_ns"] += t1 - t0 - child_ns[sid]
        return dict(rows)

    def chrome_trace(self, metadata=None):
        """Chrome trace-event document (``ph: X`` spans, async requests)."""
        pid = os.getpid()
        events = []
        for sid, parent, name, tid, t0, t1 in self.spans:
            events.append({
                "name": name, "cat": name.split(".")[0], "ph": "X",
                "ts": (t0 - self.t0_ns) / 1e3, "dur": (t1 - t0) / 1e3,
                "pid": pid, "tid": tid,
                "args": {"id": sid, "parent": parent}})
        for index, t0, t1, ok in self.requests:
            common = {"name": "request", "cat": "request", "id": index,
                      "pid": pid, "tid": 0}
            events.append(dict(common, ph="b", ts=(t0 - self.t0_ns) / 1e3,
                               args={"ok": ok}))
            events.append(dict(common, ph="e", ts=(t1 - self.t0_ns) / 1e3))
        return {"traceEvents": events, "displayTimeUnit": "ms",
                "otherData": metadata or {}}

    def write(self, directory, stem, windows, metadata=None):
        """Write ``<stem>.trace.json`` and ``<stem>.layers.txt`` (one
        table per named window); returns the two paths."""
        os.makedirs(directory, exist_ok=True)
        trace_path = os.path.join(directory, f"{stem}.trace.json")
        with open(trace_path, "w") as fh:
            json.dump(self.chrome_trace(metadata), fh)
        table_path = os.path.join(directory, f"{stem}.layers.txt")
        with open(table_path, "w") as fh:
            fh.write(self.tables(windows) + "\n")
        return trace_path, table_path

    def tables(self, windows):
        """The flat table of every named ``(start_ns, end_ns)`` window."""
        return "\n\n".join(
            f"[{label}]\n" + format_table(self.table(*window),
                                          window[1] - window[0])
            for label, window in windows.items())


def format_table(rows, window_ns):
    """Flat per-span table sorted by self time."""
    lines = [f"{'span':<28}{'calls':>8}{'total ms':>12}{'self ms':>12}"
             f"{'% wall':>9}"]
    for name, row in sorted(rows.items(),
                            key=lambda item: -item[1]["self_ns"]):
        share = 100.0 * row["self_ns"] / window_ns if window_ns else 0.0
        lines.append(f"{name:<28}{row['calls']:>8}"
                     f"{row['total_ns'] / 1e6:>12.2f}"
                     f"{row['self_ns'] / 1e6:>12.2f}{share:>9.1f}")
    return "\n".join(lines)
