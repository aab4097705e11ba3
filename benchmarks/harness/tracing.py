"""Benchmark-side span recording around calls into each layer.

Nothing under ``src/`` is edited: the traced child replaces public
callables on its live instances with timing wrappers.  Spans nest
through a thread-local stack, carry the ``X-Bench-Request`` id of the
HTTP request they serve, and stay in memory until the parent asks for
them.
"""

from __future__ import annotations

import itertools
import threading
import time

from benchmarks.harness.stats import Span

REQUEST_HEADER = "X-Bench-Request"


class SpanRecorder:
    """Collects :class:`Span` records from wrapped callables."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, owner: object, attr: str, name: str) -> None:
        """Replace ``owner.attr`` with a wrapper recording ``name`` spans."""
        inner = getattr(owner, attr)

        def traced(*args, **kwargs):
            return self._call(name, inner, args, kwargs)

        setattr(owner, attr, traced)

    def wrap_handler(self, handler_class: type, name: str) -> None:
        """Wrap ``do_GET`` on a request-handler class.

        The wrapper also opens the request scope: every span recorded
        on this thread until ``do_GET`` returns carries the request id
        the client sent.
        """
        inner = handler_class.do_GET

        def traced(handler):
            self._local.request = handler.headers.get(REQUEST_HEADER, "")
            try:
                return self._call(name, inner, (handler,), {})
            finally:
                self._local.request = ""

        handler_class.do_GET = traced

    def _call(self, name, inner, args, kwargs):
        stack = self._stack()
        span_id = next(self._ids)
        parent_id = stack[-1] if stack else 0
        stack.append(span_id)
        start = time.perf_counter()
        try:
            return inner(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(
                Span(
                    span_id,
                    parent_id,
                    name,
                    getattr(self._local, "request", ""),
                    start,
                    end,
                )
            )

    def drain(self) -> list[Span]:
        """All spans recorded so far; the recorder starts over."""
        spans, self.spans = self.spans, []
        return spans
