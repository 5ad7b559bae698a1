"""In-memory spans around calls into the program's layers.

The benchmark records spans from its own code: :meth:`Tracer.patch`
replaces a public function (or method) of a layer with a wrapper that
records one span per call.  Nothing under ``src/`` knows about it.

A span is ``(id, parent, trace, name, t0, t1)``.  ``name`` is
``"<layer>:<call>"``; ``parent`` is the span that was open in the same
context when the call began (a :mod:`contextvars` variable, so asyncio
tasks and executor threads each see their own parent); ``trace`` is the
request id the span belongs to, inherited from its parent.  Spans stay
in memory and are written out once, when the run ends.
"""

from __future__ import annotations

import asyncio
import contextvars
import functools
import itertools
import json
import re
from collections import defaultdict
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional

_ID_RE = re.compile(rb'"id"\s*:\s*"([^"]*)"')


class Tracer:
    """Spans plus the patches that produce them."""

    def __init__(self, limit: int = 3_000_000):
        self.spans: List[tuple] = []
        self.limit = limit
        self.dropped = 0
        self._ids = itertools.count(1)
        self._cur: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_span", default=(0, None))
        self._patches: List[tuple] = []
        #: per-name hooks ``(args, result) -> None`` for derived counters
        self.observers: Dict[str, Callable] = {}
        self.counters: Dict[str, float] = defaultdict(float)

    # -- recording -------------------------------------------------------

    def _open(self, trace: Optional[str]):
        parent, cur_trace = self._cur.get()
        sid = next(self._ids)
        token = self._cur.set((sid, trace if trace is not None
                               else cur_trace))
        return sid, parent, (trace if trace is not None else cur_trace), \
            token

    def _close(self, sid, parent, trace, name, t0, token) -> None:
        t1 = perf_counter()
        self._cur.reset(token)
        if len(self.spans) < self.limit:
            self.spans.append((sid, parent, trace, name, t0, t1))
        else:
            self.dropped += 1

    def wrap(self, fn: Callable, name: str,
             trace_of: Optional[Callable] = None) -> Callable:
        """A wrapper recording one ``name`` span per call of ``fn``.

        ``trace_of(args)`` may name the request the call serves; the
        id is inherited by every span opened inside it.
        """
        observer = self.observers.get(name)
        if asyncio.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def awrapper(*args, **kwargs):
                trace = trace_of(args) if trace_of is not None else None
                sid, parent, trace, token = self._open(trace)
                t0 = perf_counter()
                try:
                    result = await fn(*args, **kwargs)
                finally:
                    self._close(sid, parent, trace, name, t0, token)
                if observer is not None:
                    observer(args, result)
                return result
            return awrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            trace = trace_of(args) if trace_of is not None else None
            sid, parent, trace, token = self._open(trace)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(sid, parent, trace, name, t0, token)
            if observer is not None:
                observer(args, result)
            return result
        return wrapper

    def patch(self, owner: Any, attr: str, name: str,
              trace_of: Optional[Callable] = None) -> None:
        """Replace ``owner.attr`` with a recording wrapper.

        Class- and static methods are re-wrapped in their descriptor so
        the patched attribute behaves like the original.
        """
        raw = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        if isinstance(raw, classmethod):
            new = classmethod(self.wrap(raw.__func__, name, trace_of))
        elif isinstance(raw, staticmethod):
            new = staticmethod(self.wrap(raw.__func__, name, trace_of))
        else:
            new = self.wrap(raw, name, trace_of)
        self._patches.append((owner, attr, raw))
        setattr(owner, attr, new)

    def unpatch(self) -> None:
        """Restore every patched attribute (newest first)."""
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    def run_in_executor_with_context(self, loop) -> None:
        """Make ``loop.run_in_executor`` carry the caller's context, so
        spans opened in executor threads keep their parent and request
        id (what :func:`asyncio.to_thread` does)."""
        original = loop.run_in_executor

        def run_in_executor(executor, func, *args):
            ctx = contextvars.copy_context()
            return original(executor, ctx.run, func, *args)
        loop.run_in_executor = run_in_executor

    # -- output ----------------------------------------------------------

    def dump(self, path) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, trace, name, t0, t1 in self.spans:
                fh.write(json.dumps(
                    {"id": sid, "parent": parent, "trace": trace,
                     "name": name, "start": t0, "end": t1},
                    separators=(",", ":")) + "\n")


def request_id_of_frame(args) -> Optional[str]:
    """The client ``id`` of a daemon request line (``_handle_frame``'s
    first argument after ``self``), read without parsing the JSON."""
    m = _ID_RE.search(args[1])
    return m.group(1).decode("utf-8", "replace") if m else None


def load_spans(path) -> List[tuple]:
    """Read a span file written by :meth:`Tracer.dump`."""
    spans = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            d = json.loads(line)
            spans.append((d["id"], d["parent"], d["trace"], d["name"],
                          d["start"], d["end"]))
    return spans


def layer_of(name: str) -> str:
    return name.split(":", 1)[0]


def summarize(spans: List[tuple]) -> Dict[str, Dict[str, float]]:
    """Per span name: ``calls``, total and self milliseconds, and the
    milliseconds its direct children cover.

    Self time is the span's duration minus the time its child spans
    cover.  Children of one parent never overlap here (each wrapped
    call is synchronous within its context), so covered time is the
    sum of the children's durations.
    """
    child_ms: Dict[int, float] = defaultdict(float)
    for _sid, parent, _trace, _name, t0, t1 in spans:
        if parent:
            child_ms[parent] += (t1 - t0) * 1e3
    out: Dict[str, Dict[str, float]] = {}
    for sid, _parent, _trace, name, t0, t1 in spans:
        dur = (t1 - t0) * 1e3
        row = out.setdefault(name, {"calls": 0, "total_ms": 0.0,
                                    "self_ms": 0.0, "child_ms": 0.0})
        covered = min(child_ms.get(sid, 0.0), dur)
        row["calls"] += 1
        row["total_ms"] += dur
        row["child_ms"] += covered
        row["self_ms"] += dur - covered
    return out


def layer_self_ms(summary: Dict[str, Dict[str, float]]) -> Dict[str, float]:
    """Self milliseconds summed per layer."""
    out: Dict[str, float] = defaultdict(float)
    for name, row in summary.items():
        out[layer_of(name)] += row["self_ms"]
    return dict(out)


def per_trace_ms(spans: List[tuple], names) -> Dict[str, Dict[str, float]]:
    """``trace id -> {span name: total ms}`` for the given names."""
    out: Dict[str, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
    wanted = set(names)
    for _sid, _parent, trace, name, t0, t1 in spans:
        if trace is not None and name in wanted:
            out[trace][name] += (t1 - t0) * 1e3
    return out


def durations_ms(spans: List[tuple], name: str) -> List[float]:
    return [(t1 - t0) * 1e3 for _s, _p, _t, n, t0, t1 in spans if n == name]
