"""Tracing overhead: observability must be free when it is off.

Every hot path in the engine now carries ``TRACER.span(...)`` call
sites; the design contract is that a disabled tracer costs one
attribute check per site. This benchmark pins that contract from the
outside: it counts the spans a traced reference run records, measures
the disabled-path cost per call site, and asserts the product — the
worst-case total the instrumentation can cost an untraced run — stays
under 5% of that run's wall time. It also reports the span volume of
one async distributed run, regenerating
``benchmarks/results/trace_overhead.txt``. The table holds span counts
only, so rerunning the test leaves it unchanged; the overhead bound
stays an assertion.
"""

from __future__ import annotations

import time
import timeit

from repro.api import EngineSpec, Session, VerificationRequest
from repro.metrics import render_table
from repro.obs.trace import TRACER

from conftest import record_result

#: timeit iterations when measuring the disabled no-op path.
NOOP_CALLS = 200_000


def _serial_request() -> VerificationRequest:
    return (VerificationRequest.builder("prove")
            .policy("balance_count").scope(cores=4, max_load=3).build())


def _async_request() -> VerificationRequest:
    return (VerificationRequest.builder("prove")
            .policy("balance_count").scope(cores=3, max_load=2)
            .engine(EngineSpec(kind="distributed", workers=2,
                               mode="async"))
            .build())


def _timed_run(session: Session, request: VerificationRequest) -> float:
    start = time.perf_counter()
    result = session.run(request)
    elapsed = time.perf_counter() - start
    assert result.exit_code == 0
    return elapsed


def test_bench_trace_overhead():
    TRACER.disable()
    TRACER.drain()
    session = Session()
    request = _serial_request()
    session.run(request)  # warm imports and kernel caches

    untraced_s = _timed_run(session, request)

    TRACER.enable()
    _timed_run(session, request)
    spans = TRACER.drain()
    TRACER.disable()

    per_call_s = min(timeit.repeat(
        "with TRACER.span('x', 'y', a=1): pass",
        globals={"TRACER": TRACER}, number=NOOP_CALLS, repeat=5,
    )) / NOOP_CALLS

    # The instrumentation's worst case on an untraced run: every span
    # the traced run recorded paid only the disabled check.
    disabled_total_s = len(spans) * per_call_s
    disabled_pct = 100.0 * disabled_total_s / untraced_s

    # Span volume of one async distributed run: 2 worker subprocesses,
    # spans captured worker-side and merged onto the coordinator
    # timeline.
    TRACER.enable()
    Session().run(_async_request())
    async_spans = TRACER.drain()
    TRACER.disable()
    workers = {span.worker for span in async_spans} - {""}
    # The explorer's own "async" spans count batches, forwards and
    # steals, which depend on thread scheduling; the table keeps the
    # categories a rerun reproduces.
    by_category: dict[str, int] = {}
    for span in async_spans:
        if span.category != "async":
            by_category[span.category] = by_category.get(span.category,
                                                         0) + 1

    rows = [
        ["spans recorded by traced run", len(spans)],
        ["async run spans outside the explorer (2 workers)",
         sum(by_category.values())],
        ["async worker timelines merged", len(workers)],
    ]
    rows += [[f"async spans: {category}", count]
             for category, count in sorted(by_category.items())]
    table = render_table(["metric", "value"], rows)
    record_result("trace_overhead", table)
    print(table)

    # The contract: disabled instrumentation is invisible. The traced
    # run's span count is exactly the number of call sites the
    # untraced run crossed, so this product bounds its cost.
    assert disabled_total_s < 0.05 * untraced_s, (
        f"disabled tracing would cost {disabled_pct:.2f}% "
        f"({len(spans)} spans x {per_call_s * 1e9:.0f} ns)"
    )
    # Worker-side capture actually merged both subprocess timelines.
    assert len(workers) == 2, workers
