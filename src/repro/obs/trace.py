"""Structured span tracing for every repro engine.

One process-wide :data:`TRACER` records **spans** — named, categorised
intervals on the monotonic clock (:func:`trace_clock`), with parent
attribution through a thread-local stack and free-form ``key=value``
args. Instrumented code writes::

    with TRACER.span("closure.level", "closure", level=3) as span:
        ...
        span.set(fresh=n_fresh)

and pays exactly one attribute check per call site when tracing is
disabled (the default): :meth:`Tracer.span` returns a shared no-op
context manager whose ``__enter__``/``__exit__``/``set`` do nothing.
Nothing in this module imports outside the stdlib, so any layer —
kernel batches, the async partition loop, the HTTP front end — can
instrument itself without dependency or import-cycle concerns.

Crossing process boundaries
---------------------------

Spans recorded in a worker process cannot share the coordinator's
clock: each process's monotonic clock has an arbitrary epoch. The
protocol (see :mod:`repro.verify.distributed`) ships a worker's spans
back as plain dicts (:func:`spans_to_payload`) next to the worker's
*current* clock reading; :meth:`Tracer.ingest` then normalises every
start time by ``coordinator_now - worker_clock`` — the skew between
the two epochs as observed at result-receipt time — which lands the
worker's intervals on the coordinator timeline within one result
round-trip of their true position. Good enough to read a distributed
timeline; not a distributed-clock algorithm.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from dataclasses import dataclass, field, replace
from typing import Any, Iterable, Mapping

#: The clock every span start/duration is measured on. One shared
#: callable so instrumentation, the ``--progress`` rate column, and
#: worker clock-offset normalisation all agree on the epoch.
trace_clock = time.perf_counter


@dataclass(frozen=True)
class Span:
    """One completed interval on the trace timeline.

    ``start`` is in seconds on the *recording process's* monotonic
    clock; :meth:`Tracer.ingest` rebases foreign spans onto the local
    clock, so every span held by one tracer shares a timeline.
    ``worker`` is ``""`` for spans recorded in this process and the
    worker's name (e.g. ``worker-1``) for ingested ones.
    """

    name: str
    category: str
    start: float
    duration: float
    span_id: int
    parent_id: int | None
    pid: int
    tid: int
    worker: str = ""
    args: Mapping[str, Any] = field(default_factory=dict)


class _NoOpSpan:
    """The disabled-path span handle: every operation is a no-op."""

    __slots__ = ()

    def __enter__(self) -> "_NoOpSpan":
        return self

    def __exit__(self, *exc_info: object) -> None:
        return None

    def set(self, **args: Any) -> None:
        return None


_NOOP = _NoOpSpan()


class _SpanHandle:
    """A live span: opened by ``with``, closed (and recorded) on exit."""

    __slots__ = ("_tracer", "name", "category", "args",
                 "span_id", "parent_id", "_start")

    def __init__(self, tracer: "Tracer", name: str, category: str,
                 args: dict[str, Any]) -> None:
        self._tracer = tracer
        self.name = name
        self.category = category
        self.args = args
        self.span_id = tracer._next_id()
        self.parent_id: int | None = None
        self._start = 0.0

    def __enter__(self) -> "_SpanHandle":
        self.parent_id = self._tracer._push(self.span_id)
        self._start = trace_clock()
        return self

    def __exit__(self, *exc_info: object) -> None:
        end = trace_clock()
        self._tracer._pop()
        self._tracer._record(Span(
            name=self.name, category=self.category,
            start=self._start, duration=end - self._start,
            span_id=self.span_id, parent_id=self.parent_id,
            pid=os.getpid(), tid=threading.get_ident(),
            worker=self._tracer.worker, args=self.args,
        ))

    def set(self, **args: Any) -> None:
        """Attach args discovered mid-span (outcomes, counts)."""
        self.args.update(args)


class Tracer:
    """A process-wide span recorder, disabled until :meth:`enable`.

    Thread-safe: spans from any thread land in one list under a lock,
    and parent attribution uses a per-thread stack so concurrently
    open spans never adopt each other's children.
    """

    def __init__(self) -> None:
        self.enabled = False
        self.worker = ""
        self._lock = threading.Lock()
        self._spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    # -- lifecycle ------------------------------------------------------

    def enable(self, worker: str = "") -> None:
        """Start recording; ``worker`` labels this process's spans."""
        self.worker = worker
        self.enabled = True

    def disable(self) -> None:
        """Stop recording (already-recorded spans stay until drained)."""
        self.enabled = False

    def reset(self) -> None:
        """Forget a state inherited across ``fork``: disable, drop the
        recorded spans and every thread's open-span stack."""
        self.disable()
        self.drain()
        self._local = threading.local()

    def drain(self) -> tuple[Span, ...]:
        """Return every recorded span and clear the buffer."""
        with self._lock:
            spans = tuple(self._spans)
            self._spans.clear()
        return spans

    def spans(self) -> tuple[Span, ...]:
        """A snapshot of the recorded spans, oldest first."""
        with self._lock:
            return tuple(self._spans)

    # -- recording ------------------------------------------------------

    def span(self, name: str, category: str = "default",
             **args: Any) -> Any:
        """A context manager timing one interval; no-op when disabled."""
        if not self.enabled:
            return _NOOP
        return _SpanHandle(self, name, category, args)

    def instant(self, name: str, category: str = "default",
                **args: Any) -> None:
        """Record a zero-duration event (steals, forwards, drops)."""
        if not self.enabled:
            return
        with self._lock:
            parent = self._peek()
            self._spans.append(Span(
                name=name, category=category, start=trace_clock(),
                duration=0.0, span_id=next(self._ids), parent_id=parent,
                pid=os.getpid(), tid=threading.get_ident(),
                worker=self.worker, args=args,
            ))

    def ingest(self, payload: Iterable[Mapping[str, Any]], *,
               clock: float, worker: str, pid: int | None = None) -> None:
        """Merge spans shipped from another process onto this timeline.

        ``clock`` is the foreign process's :func:`trace_clock` reading
        taken when it packaged the spans; the offset to local time is
        applied to every start. Every span gets a fresh id from this
        tracer (the foreign process numbered its spans from its own
        counter) and its ``parent_id`` is remapped within the payload;
        a parent outside the payload becomes ``None``. Dropped silently
        when disabled (a result can arrive after the CLI already
        exported the trace).
        """
        if not self.enabled:
            return
        offset = trace_clock() - clock
        spans = [span_from_dict(doc, offset=offset, worker=worker,
                                pid=pid) for doc in payload]
        with self._lock:
            fresh = {span.span_id: next(self._ids) for span in spans}
            self._spans.extend(
                replace(span, span_id=fresh[span.span_id],
                        parent_id=(None if span.parent_id is None
                                   else fresh.get(span.parent_id)))
                for span in spans
            )

    # -- internals ------------------------------------------------------

    def _next_id(self) -> int:
        return next(self._ids)

    def _record(self, span: Span) -> None:
        with self._lock:
            self._spans.append(span)

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _push(self, span_id: int) -> int | None:
        stack = self._stack()
        parent = stack[-1] if stack else None
        stack.append(span_id)
        return parent

    def _pop(self) -> None:
        stack = self._stack()
        if stack:
            stack.pop()

    def _peek(self) -> int | None:
        stack = self._stack()
        return stack[-1] if stack else None


def span_to_dict(span: Span) -> dict[str, Any]:
    """A plain-dict form of one span — picklable and JSON-safe as long
    as the args were (instrumentation only passes str/int/float/bool)."""
    return {
        "name": span.name, "category": span.category,
        "start": span.start, "duration": span.duration,
        "span_id": span.span_id, "parent_id": span.parent_id,
        "pid": span.pid, "tid": span.tid, "worker": span.worker,
        "args": dict(span.args),
    }


def span_from_dict(doc: Mapping[str, Any], *, offset: float = 0.0,
                   worker: str | None = None,
                   pid: int | None = None) -> Span:
    """Rebuild a span from its dict form, optionally rebasing its
    clock and re-attributing it to a named worker."""
    return Span(
        name=str(doc["name"]), category=str(doc["category"]),
        start=float(doc["start"]) + offset,
        duration=float(doc["duration"]),
        span_id=int(doc["span_id"]),
        parent_id=(None if doc.get("parent_id") is None
                   else int(doc["parent_id"])),
        pid=int(doc["pid"]) if pid is None else pid,
        tid=int(doc["tid"]),
        worker=str(doc.get("worker", "")) if worker is None else worker,
        args=dict(doc.get("args", {})),
    )


def spans_to_payload(spans: Iterable[Span]) -> tuple[dict[str, Any], ...]:
    """Serialise spans for the wire (see the module docstring)."""
    return tuple(span_to_dict(span) for span in spans)


#: The process-wide tracer every instrumented module imports. Disabled
#: by default: the hot path pays one ``self.enabled`` check.
TRACER = Tracer()
