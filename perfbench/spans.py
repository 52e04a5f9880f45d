"""Outside-in timing spans around the runtime's public layer entry points.

The benchmark never edits the package under test.  While a
:class:`Tracer` is installed it replaces selected class and module
attributes (``TileScheduler.start_batch``, ``PackPlan.pack``, ...) with
thin wrappers that open a span, call the original and close the span;
:meth:`Tracer.uninstall` puts every original back.  Spans are kept in
memory and written out once, when the benchmark ends.

A span is ``[solve, name, parent, t0_ns, t1_ns, count]``: the solve it
belongs to (spans of one solve share that identifier), the layer name,
the index of the enclosing span (-1 at top level), monotonic start and
end, and a per-call count (cells moved, tiles in a batch, ...).  A
layer's self time is its spans' durations minus the part their direct
child spans cover, so the self times of one solve add up to the time its
top-level spans cover.
"""

from __future__ import annotations

import functools
import gzip
import json
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Union

#: A span name, or a function of the enclosing span's name (None at top
#: level) that picks one — how a per-tile engine call inside a fused
#: batch is told apart from one made by the per-tile executor loop.
SpanName = Union[str, Callable[[Optional[str]], str]]

#: ``count(args, kwargs, result) -> int`` for one wrapped call.
CountFn = Callable[[tuple, dict, object], int]


class Tracer:
    """Installs timing wrappers and records spans in memory."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.solve = -1
        self.nesting_errors = 0
        self._stack: List[int] = []
        self._patches: List[tuple] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: SpanName) -> int:
        stack = self._stack
        parent = stack[-1] if stack else -1
        if not isinstance(name, str):
            name = name(self.spans[parent][1] if parent >= 0 else None)
        idx = len(self.spans)
        self.spans.append([self.solve, name, parent, time.perf_counter_ns(), 0, 0])
        stack.append(idx)
        return idx

    def _close(self, idx: int, count: int = 0) -> None:
        span = self.spans[idx]
        span[4] = time.perf_counter_ns()
        span[5] = count
        if self._stack and self._stack[-1] == idx:
            self._stack.pop()
        else:
            # A wrapper closed out of order: self times would be wrong,
            # so the additivity check reports the run as inconsistent.
            self.nesting_errors += 1
            if idx in self._stack:
                del self._stack[self._stack.index(idx):]

    # -- installing wrappers -------------------------------------------------

    def wrap(
        self,
        owner: object,
        attr: str,
        name: SpanName,
        count: Optional[CountFn] = None,
    ) -> None:
        """Time every call of ``owner.attr`` (a function or method)."""
        original = owner.__dict__[attr]
        static = isinstance(original, staticmethod)
        func = original.__func__ if static else original

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            idx = self._open(name)
            n = 0
            try:
                result = func(*args, **kwargs)
                if count is not None:
                    n = count(args, kwargs, result)
                return result
            finally:
                self._close(idx, n)

        self._patch(owner, attr, original, staticmethod(wrapper) if static else wrapper)

    def wrap_generator(self, owner: object, attr: str, name: str) -> None:
        """Time each step of a generator method, not the call creating it.

        Calling a generator function runs none of its body; the work
        happens in each ``next()``.  Each step gets its own span, closed
        before the value is handed to the caller, so the caller's own
        work between steps is never charged to the generator's layer.
        """
        original = owner.__dict__[attr]

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            it = original(*args, **kwargs)
            while True:
                idx = self._open(name)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self._close(idx)
                yield item

        self._patch(owner, attr, original, wrapper)

    def _patch(self, owner, attr, original, replacement) -> None:
        setattr(owner, attr, replacement)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        """Restore every wrapped attribute, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- analysis ------------------------------------------------------------

    def per_solve(self) -> Dict[int, "SolveProfile"]:
        """Self times, call counts and per-call counts, per solve."""
        spans = self.spans
        child_ns = [0] * len(spans)
        for s in spans:
            if s[2] >= 0:
                child_ns[s[2]] += s[4] - s[3]
        out: Dict[int, SolveProfile] = {}
        for i, s in enumerate(spans):
            prof = out.get(s[0])
            if prof is None:
                prof = out[s[0]] = SolveProfile()
            dur = s[4] - s[3]
            self_ns = dur - child_ns[i]
            if self_ns < 0:
                prof.negative_self += 1
            prof.self_s[s[1]] += self_ns / 1e9
            prof.total_s[s[1]] += dur / 1e9
            prof.calls[s[1]] += 1
            prof.counts[s[1]] += s[5]
            if s[2] < 0:
                prof.top_level_s += dur / 1e9
        return out

    def write(self, path, meta: dict) -> None:
        """Write the spans (and *meta*) as gzipped JSON."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(
                {
                    "meta": meta,
                    "fields": ["solve", "name", "parent", "t0_ns", "t1_ns", "count"],
                    "spans": self.spans,
                },
                fh,
            )


class SolveProfile:
    """One solve's spans, aggregated by layer name."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.total_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, int] = defaultdict(int)
        self.top_level_s = 0.0
        self.negative_self = 0
