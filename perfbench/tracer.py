"""Outside-in span recorder for the traced benchmark run.

The recorder wraps public functions of ``tma`` under the names their
callers look them up by (``tma.coordination.sample_minibatch``,
``tma.nn.link_step``, ``tma.evaluate.encode``, ...), so no program code
changes. Each call becomes a span with a name, start, end and parent; a
thread-local parent stack gives each actor thread its own call tree, which
is what keeps the ``encode`` under ``evaluate`` apart from a training
encode. Clock sleeps are counted per actor role rather than recorded as
spans, because the sim server polls thousands of times per run.

Spans stay in memory until the run ends; ``write`` saves them as JSON.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import importlib
import json
import threading
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root span
    thread: str
    attrs: dict = field(default_factory=dict)


def thread_role() -> str:
    """Actor role of the calling thread: ``trainer-2`` -> ``trainer``."""
    return threading.current_thread().name.split("-")[0]


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: collections.Counter = collections.Counter()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str, attrs: dict) -> int:
        stack = self._stack()
        span = Span(
            name=name,
            start=time.perf_counter(),
            end=float("nan"),
            parent=stack[-1] if stack else -1,
            thread=threading.current_thread().name,
            attrs=attrs,
        )
        with self._lock:
            index = len(self.spans)
            self.spans.append(span)
        stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._stack().pop()

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        """Record one span around a block of the benchmark's own code."""
        index = self._open(name, attrs)
        try:
            yield self.spans[index]
        finally:
            self._close(index)

    def event(self, name: str, **attrs) -> None:
        """A zero-length span: something happened at this instant."""
        self._close(self._open(name, attrs))

    # -- wrapping

    def wrap(self, fn, name: str, annotate=None):
        """Return ``fn`` recording a span per call.

        ``annotate(args, kwargs, result)`` may return a dict of attributes
        (sizes and counts) stored on the span.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._open(name, {})
            try:
                result = fn(*args, **kwargs)
                if annotate is not None:
                    self.spans[index].attrs.update(annotate(args, kwargs, result))
                return result
            finally:
                self._close(index)

        return traced

    def counted(self, fn, name: str):
        """Return ``fn`` counting its calls per actor role, without spans."""

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            with self._lock:
                self.counts[(name, thread_role())] += 1
            return fn(*args, **kwargs)

        return counted

    def patch(self, target: str, replacement_for) -> None:
        """Replace ``module:attr.path`` by ``replacement_for(original)``."""
        module_name, _, path = target.partition(":")
        owner = importlib.import_module(module_name)
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part)
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement_for(original))

    def unpatch(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- queries and output

    def children(self) -> dict[int, list[int]]:
        out: dict[int, list[int]] = collections.defaultdict(list)
        for i, s in enumerate(self.spans):
            out[s.parent].append(i)
        return out

    def root(self, index: int) -> int:
        while self.spans[index].parent >= 0:
            index = self.spans[index].parent
        return index

    def ancestors(self, index: int):
        parent = self.spans[index].parent
        while parent >= 0:
            yield self.spans[parent]
            parent = self.spans[parent].parent

    def write(self, path) -> None:
        with open(path, "w") as f:
            json.dump(
                {
                    "spans": [
                        [s.name, s.start, s.end, s.parent, s.thread, s.attrs]
                        for s in self.spans
                    ],
                    "counts": [[n, role, c] for (n, role), c in sorted(self.counts.items())],
                },
                f,
            )
