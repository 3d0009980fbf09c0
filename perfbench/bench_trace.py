"""In-memory span tracing for the traced benchmark run.

The tracer wraps public callables of the program at runtime, at the
name where each one is looked up (``repro.api.session.align_tasks``,
``repro.baselines.aligner.CpuAligner.time_ms``, ...), records one span
per call and restores every original when the run ends.  Nothing under
``src/`` is modified.  Spans carry a name, start, end, the id of the
enclosing span on the same thread and optional arguments (a request id
on ``serve`` spans, a task count on engine calls).  :meth:`write_chrome`
exports them as Chrome trace-event JSON, which Perfetto
(https://ui.perfetto.dev) and ``chrome://tracing`` open directly.

A span's *self time* is its duration minus the part of it that its child
spans cover.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Union

NameFn = Union[str, Callable[..., str]]


@dataclass
class Span:
    id: int
    name: str
    start_ns: int
    end_ns: int
    parent: Optional[int]
    thread: int
    args: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration_s(self) -> float:
        return (self.end_ns - self.start_ns) / 1e9


_MISSING = object()


class Tracer:
    """Span recorder plus the runtime wrappers that feed it."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.enabled = True
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: List[tuple] = []

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Optional[int]:
        stack = self._stack()
        return stack[-1] if stack else None

    @contextmanager
    def span(self, name: str, **args: Any) -> Iterator[Optional[int]]:
        """Record the enclosed block as one span (no-op while disabled)."""
        if not self.enabled:
            yield None
            return
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = time.perf_counter_ns()
        try:
            yield span_id
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            self.spans.append(
                Span(span_id, name, start, end, parent, threading.get_ident(), args)
            )

    def record(
        self, name: str, start_ns: int, end_ns: int, parent: Optional[int], **args: Any
    ) -> None:
        """Record a span measured elsewhere (e.g. a request's lifetime)."""
        if self.enabled:
            self.spans.append(
                Span(next(self._ids), name, start_ns, end_ns, parent,
                     threading.get_ident(), args)
            )

    # ------------------------------------------------------------------
    # runtime wrappers
    # ------------------------------------------------------------------
    def wrap(
        self,
        owner: Any,
        attr: str,
        name: NameFn,
        count: Optional[Callable[..., Dict[str, Any]]] = None,
    ) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``name`` is a span name or a function of the call's arguments
        (e.g. to name a kernel's span after the instance); ``count``
        maps the arguments to span arguments such as a task count.
        """
        target = getattr(owner, attr)

        @functools.wraps(target)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not self.enabled:
                return target(*args, **kwargs)
            span_name = name(*args) if callable(name) else name
            extra = count(*args, **kwargs) if count is not None else {}
            with self.span(span_name, **extra):
                return target(*args, **kwargs)

        self.patch(owner, attr, wrapper)

    def patch(self, owner: Any, attr: str, replacement: Any) -> None:
        """Set ``owner.attr`` to ``replacement`` until :meth:`restore`."""
        self._patches.append((owner, attr, owner.__dict__.get(attr, _MISSING)))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        """Undo every wrapper, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # analysis
    # ------------------------------------------------------------------
    def self_ns(self) -> Dict[int, int]:
        """Self time of every span: duration minus its children's union."""
        children: Dict[Optional[int], List[Span]] = defaultdict(list)
        for span in self.spans:
            children[span.parent].append(span)
        out: Dict[int, int] = {}
        for span in self.spans:
            covered = 0
            cursor = span.start_ns
            for child in sorted(children.get(span.id, ()), key=lambda s: s.start_ns):
                start = max(child.start_ns, cursor)
                end = min(child.end_ns, span.end_ns)
                if end > start:
                    covered += end - start
                    cursor = end
            out[span.id] = span.end_ns - span.start_ns - covered
        return out

    def select(self, prefix: str, within: Optional[List[Span]] = None) -> List[Span]:
        """Spans named ``prefix`` (or ``prefix.*``), optionally only those
        nested inside one of the ``within`` spans."""
        chosen = [
            s for s in self.spans if s.name == prefix or s.name.startswith(prefix + ".")
        ]
        if within is None:
            return chosen
        roots = {s.id for s in within}
        parents = {s.id: s.parent for s in self.spans}

        def inside(span: Span) -> bool:
            node = span.parent
            while node is not None:
                if node in roots:
                    return True
                node = parents.get(node)
            return False

        return [s for s in chosen if inside(s)]

    def outermost(self, spans: List[Span]) -> List[Span]:
        """Drop spans nested in another span of the same list."""
        ids = {s.id for s in spans}
        parents = {s.id: s.parent for s in self.spans}
        out = []
        for span in spans:
            node = span.parent
            while node is not None and node not in ids:
                node = parents.get(node)
            if node is None:
                out.append(span)
        return out

    # ------------------------------------------------------------------
    def write_chrome(self, path: Path) -> None:
        """Export every span as Chrome trace-event JSON (complete events)."""
        origin = min((s.start_ns for s in self.spans), default=0)
        threads: Dict[int, int] = {}
        events = []
        for span in sorted(self.spans, key=lambda s: s.start_ns):
            tid = threads.setdefault(span.thread, len(threads) + 1)
            events.append({
                "name": span.name,
                "cat": span.name.split(".", 1)[0],
                "ph": "X",
                "ts": (span.start_ns - origin) / 1000.0,
                "dur": (span.end_ns - span.start_ns) / 1000.0,
                "pid": os.getpid(),
                "tid": tid,
                "args": dict(span.args, id=span.id, parent=span.parent),
            })
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)
