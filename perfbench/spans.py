"""Spans around calls into relalg, recorded from the benchmark's own code.

A :class:`Tracer` replaces public functions and methods of the relalg
modules with wrappers that time each call.  Every closed span adds to a
per-name table of calls, total time and self time (the span minus the
time of its direct children).  The first ``limit`` spans are also kept
in memory, in flat arrays, as (name, start, end, parent) and written out
by :meth:`Tracer.write` when the run ends; hot functions are called
millions of times a round, so keeping every span would cost hundreds of
megabytes.  :func:`self_times` computes the same table from a span list
and serves as the reference the self-check holds the running table to.

Only calls that go through a module or class attribute at call time
are seen.  A function bound earlier, for instance as a default
argument, stays untraced unless the caller passes the wrapped function
in through a public parameter.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from array import array

NO_PARENT = -1


class Tracer:
    """Records spans while its wrappers are installed."""

    def __init__(self, limit: int = 100_000):
        self.limit = limit
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.dropped = 0
        # open spans: [stored index or NO_PARENT, name id, start, child seconds]
        self._stack: list[list] = []
        self._calls: list[int] = []
        self._total: list[float] = []
        self._self: list[float] = []
        self.counters: dict[str, float] = {}
        self.context = ""  # label of the operation running, for counters
        self._undo: list = []

    # -- recording --------------------------------------------------------
    def _open(self, name: str) -> list:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
            self._calls.append(0)
            self._total.append(0.0)
            self._self.append(0.0)
        idx = NO_PARENT
        if len(self.start) < self.limit:
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(self._stack[-1][0] if self._stack else NO_PARENT)
            self.start.append(0.0)
            self.end.append(0.0)
        else:
            self.dropped += 1
        frame = [idx, nid, 0.0, 0.0]
        self._stack.append(frame)
        frame[2] = time.perf_counter()
        return frame

    def _close(self, frame: list) -> None:
        end = time.perf_counter()
        self._stack.pop()
        idx, nid, start, child = frame
        dur = end - start
        self._calls[nid] += 1
        self._total[nid] += dur
        self._self[nid] += dur - child
        if self._stack:
            self._stack[-1][3] += dur
        if idx != NO_PARENT:
            self.start[idx] = start
            self.end[idx] = end

    @contextlib.contextmanager
    def span(self, name: str):
        frame = self._open(name)
        try:
            yield
        finally:
            self._close(frame)

    def wrap(self, name: str, fn, on_result=None):
        """A traced stand-in for ``fn``; ``on_result(tracer, result)`` may
        fold the result into :attr:`counters`."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(frame)
            if on_result is not None:
                on_result(self, result)
            return result

        return traced

    def add(self, key: str, value: float) -> None:
        self.counters[key] = self.counters.get(key, 0) + value

    def maximum(self, key: str, value: float) -> None:
        self.counters[key] = max(self.counters.get(key, value), value)

    # -- installing wrappers ----------------------------------------------
    def patch(self, owner, attr: str, name: str, on_result=None) -> None:
        """Replace ``owner.attr`` by a traced wrapper until :meth:`unpatch`."""
        original = owner.__dict__[attr]
        self._undo.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, on_result))

    def unpatch(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- reading back -----------------------------------------------------
    def table(self) -> dict[str, dict[str, float]]:
        """Calls, total and self seconds per name since the last reset."""
        return {
            name: {"calls": self._calls[i], "total_s": self._total[i],
                   "self_s": self._self[i]}
            for i, name in enumerate(self.names) if self._calls[i]
        }

    def reset_table(self) -> None:
        n = len(self.names)
        self._calls, self._total, self._self = [0] * n, [0.0] * n, [0.0] * n

    def spans(self) -> list[tuple]:
        """The kept spans as (name, start, end, parent index) tuples."""
        return [
            (self.names[self.name_id[i]], self.start[i], self.end[i], self.parent[i])
            for i in range(len(self.start))
        ]

    def write(self, path) -> None:
        """The kept spans, one JSON object a line, in start order."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"kept": len(self.start), "dropped": self.dropped})
                     + "\n")
            for i, (name, start, end, parent) in enumerate(self.spans()):
                fh.write(json.dumps({"i": i, "name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")


class _Off:
    """Stands in for a tracer in untraced rounds; records nothing."""

    _null = contextlib.nullcontext()

    def span(self, name: str):
        return self._null


OFF = _Off()


def self_times(spans) -> dict[str, dict[str, float]]:
    """Per span name: calls, total seconds and self seconds.

    ``spans`` is a list of (name, start, end, parent) with parent an index
    into the same list or :data:`NO_PARENT`.  Self time is a span's
    duration minus the durations of its direct children, which nest
    inside it because calls are strictly nested in one thread.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent != NO_PARENT:
            child[parent] += end - start
    out: dict[str, dict[str, float]] = {}
    for i, (name, start, end, _) in enumerate(spans):
        row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += end - start
        row["self_s"] += end - start - child[i]
    return out
