"""In-memory span tracing by wrapping names in the namespaces that call them.

A span is (id, parent id, name, start ns, end ns, attrs). Wrappers are
installed from outside the program: `wrap(owner, attr, ...)` replaces
`owner.attr` (a module global or a class attribute) with a timing wrapper
and `restore()` puts every original object back, so the program's source
is never edited.

Pool workers forked after `install` carry the wrappers with them. A task
function wrapped with `ship=True` returns its result together with the
spans it recorded in the worker; when the parent unpickles that result the
spans join the parent's trace. Span ids carry the recording process id, so
ids from different workers never collide, and a worker's first spans point
at the parent span that was open when the worker was forked.
"""

from __future__ import annotations

import functools
import os
from time import perf_counter_ns

# The tracer that receives spans shipped back from pool workers. Unpickling
# calls `_receive` by import path, so the receiver has to be reachable from
# module scope; it is set by Tracer.install and cleared by Tracer.restore.
_RECEIVER: "Tracer | None" = None

ID, PARENT, NAME, START, END, ATTRS = range(6)


class _Shipped(tuple):
    """A task result that carries the worker's spans across the pickle."""

    spans: list

    def __reduce__(self):
        return _receive, (tuple(self), self.spans)


def _receive(result: tuple, spans: list) -> tuple:
    if _RECEIVER is not None:
        _RECEIVER.spans.extend(spans)
    return result


class Tracer:
    """Records spans for every wrapped call while installed."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._count = 0
        self._originals: list[tuple[object, str, object]] = []
        self._root_pid = os.getpid()

    # -- recording ---------------------------------------------------------

    def _new_id(self) -> int:
        self._count += 1
        return (os.getpid() << 32) | self._count

    def wrap(self, owner, attr: str, name: str, tag=None, ship: bool = False) -> None:
        """Replace owner.attr with a wrapper that records a span per call.

        tag(args, kwargs, result) returns a dict of span attributes or None.
        With ship=True the wrapped function is a pool task: in a worker
        process its result is returned as a _Shipped tuple.
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            sid = tracer._new_id()
            parent = tracer._stack[-1] if tracer._stack else 0
            tracer._stack.append(sid)
            t0 = perf_counter_ns()
            try:
                result = original(*args, **kwargs)
            except BaseException:
                tracer._stack.pop()
                tracer.spans.append((sid, parent, name, t0, perf_counter_ns(), {"raised": True}))
                raise
            t1 = perf_counter_ns()
            tracer._stack.pop()
            tracer.spans.append((sid, parent, name, t0, t1,
                                 tag(args, kwargs, result) if tag is not None else None))
            return result

        wrapper = traced
        if ship:
            @functools.wraps(original)
            def shipping(*args, **kwargs):
                if os.getpid() == tracer._root_pid:
                    return traced(*args, **kwargs)
                mark = len(tracer.spans)
                result = _Shipped(traced(*args, **kwargs))
                result.spans = tracer.spans[mark:]
                del tracer.spans[mark:]
                return result

            wrapper = shipping
        self._originals.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def install(self, plan) -> None:
        """Wrap every (owner, attr, name, tag, ship) entry of plan."""
        global _RECEIVER
        _RECEIVER = self
        for owner, attr, name, tag, ship in plan:
            self.wrap(owner, attr, name, tag, ship)

    def restore(self) -> None:
        """Put every wrapped name back, newest first."""
        global _RECEIVER
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)
        if _RECEIVER is self:
            _RECEIVER = None


# ---------------------------------------------------------------------------
# span arithmetic
# ---------------------------------------------------------------------------

def covered_ns(intervals, lo: int, hi: int) -> int:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, end = 0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def self_times_ns(spans) -> dict[int, int]:
    """Each span's duration minus the part of it its child spans cover.

    Children that overlap each other, such as tasks in parallel workers,
    are counted once.
    """
    children: dict[int, list[tuple[int, int]]] = {}
    for s in spans:
        children.setdefault(s[PARENT], []).append((s[START], s[END]))
    return {s[ID]: (s[END] - s[START]) - covered_ns(children.get(s[ID], ()), s[START], s[END])
            for s in spans}
