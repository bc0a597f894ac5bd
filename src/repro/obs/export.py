"""Trace exporters: Chrome trace-event JSON and the summary table.

:func:`chrome_trace_document` emits the `trace-event format
<https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU>`_
that ``chrome://tracing`` and Perfetto load directly: one ``"ph": "X"``
(complete) event per span with microsecond ``ts``/``dur``, plus
``"M"`` metadata events naming each process row after its worker.
Chrome wants small integer pids/tids, so the exporter maps each
distinct ``(worker, pid)`` to a sequential process id (coordinator
first) and each thread to a sequential tid within its process.

:func:`summarize` folds the same spans into a
:class:`TraceSummary` — per-category count / total / mean / p95 —
for the ``--trace-summary`` table printed after a run. Spans that name
the kernel tier that served them (a ``tier`` argument) get a row per
tier, e.g. ``obligation:numpy``, so the table shows which path ran.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import Any, Iterable, Sequence

from repro.obs.trace import Span

#: Trailing name for the coordinator's process row in the trace UI.
COORDINATOR_LABEL = "coordinator"


def _process_label(worker: str) -> str:
    return worker if worker else COORDINATOR_LABEL


def chrome_trace_document(spans: Iterable[Span]) -> dict[str, Any]:
    """Build the loadable trace document for ``spans``."""
    ordered = sorted(spans, key=lambda span: (span.start, span.span_id))
    pids: dict[tuple[str, int], int] = {}
    tids: dict[tuple[int, int], int] = {}
    events: list[dict[str, Any]] = []
    for span in ordered:
        process = (span.worker, span.pid)
        if process not in pids:
            # Keep the coordinator on row 1 even when a worker's span
            # happens to start first on the merged timeline; workers
            # take 2, 3, ... in order of first appearance.
            if span.worker == "":
                pids[process] = 1
            else:
                pids[process] = 2 + sum(
                    1 for value in pids.values() if value != 1)
        pid = pids[process]
        thread = (pid, span.tid)
        if thread not in tids:
            tids[thread] = sum(1 for key in tids if key[0] == pid) + 1
        args = dict(span.args)
        args["span_id"] = span.span_id
        if span.parent_id is not None:
            args["parent_id"] = span.parent_id
        events.append({
            "name": span.name, "cat": span.category, "ph": "X",
            "ts": span.start * 1e6, "dur": span.duration * 1e6,
            "pid": pid, "tid": tids[thread], "args": args,
        })
    metadata = [
        {"name": "process_name", "ph": "M", "pid": pid, "tid": 0,
         "args": {"name": f"{_process_label(worker)} (pid {os_pid})"}}
        for (worker, os_pid), pid in sorted(pids.items(),
                                            key=lambda item: item[1])
    ]
    return {"traceEvents": metadata + events, "displayTimeUnit": "ms"}


def write_chrome_trace(path: str | os.PathLike[str],
                       spans: Iterable[Span]) -> None:
    """Write the Chrome trace document for ``spans`` to ``path``."""
    document = chrome_trace_document(spans)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle)
        handle.write("\n")


def _p95(durations: Sequence[float]) -> float:
    ordered = sorted(durations)
    index = max(0, math.ceil(0.95 * len(ordered)) - 1)
    return ordered[index]


@dataclass(frozen=True)
class CategoryStats:
    """Aggregate timing for one span category (``category:tier`` for
    spans that carry a ``tier`` argument)."""

    category: str
    count: int
    total_s: float
    mean_s: float
    p95_s: float


@dataclass(frozen=True)
class TraceSummary:
    """Per-category aggregates over one drained trace."""

    rows: tuple[CategoryStats, ...]

    def render(self) -> str:
        """The fixed-width table ``--trace-summary`` prints."""
        header = (f"{'category':<18} {'count':>8} {'total':>12} "
                  f"{'mean':>12} {'p95':>12}")
        lines = [header, "-" * len(header)]
        for row in self.rows:
            lines.append(
                f"{row.category:<18} {row.count:>8} "
                f"{row.total_s * 1e3:>10.2f}ms "
                f"{row.mean_s * 1e3:>10.3f}ms "
                f"{row.p95_s * 1e3:>10.3f}ms"
            )
        return "\n".join(lines)


def summarize(spans: Iterable[Span]) -> TraceSummary:
    """Aggregate spans per category and tier, largest total time first."""
    buckets: dict[str, list[float]] = {}
    for span in spans:
        tier = span.args.get("tier")
        key = span.category if tier is None else f"{span.category}:{tier}"
        buckets.setdefault(key, []).append(span.duration)
    rows = [
        CategoryStats(
            category=category, count=len(durations),
            total_s=sum(durations),
            mean_s=sum(durations) / len(durations),
            p95_s=_p95(durations),
        )
        for category, durations in buckets.items()
    ]
    rows.sort(key=lambda row: (-row.total_s, row.category))
    return TraceSummary(rows=tuple(rows))
