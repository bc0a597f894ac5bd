"""Proof store: cold vs warm wall-clock for a repeated sweep.

The store's pitch is amortisation: a campaign re-run five minutes after
it was proven should cost file reads, not state exploration. This
benchmark runs a small sweep — the closure-heavy refuted policy plus
three provable ones — cold (empty store) and warm (same store, fresh
session), asserts the warm run reuses every result without dispatching
anything, and records how many results each run reused as
``benchmarks/results/store_reuse.txt``. The table holds deterministic
columns only, so rerunning the test leaves it unchanged; store-hit
latency is measured end to end by the ``http-mixed`` workload of
``benchmarks/suite``.
"""

import time

from repro.api import ResultReused, Session, VerificationRequest
from repro.metrics import render_table
from repro.store import FileStore

from conftest import record_result


def sweep_requests():
    """A mixed sweep: one heavy refuted closure, three proofs, a hunt."""
    requests = [
        (VerificationRequest.builder("prove")
         .policy("naive").scope(cores=4, max_load=3).build()),
        (VerificationRequest.builder("hunt")
         .policy("naive").scope(cores=4, max_load=3).build()),
    ]
    for policy in ("balance_count", "greedy_halving", "provable_weighted"):
        requests.append(
            VerificationRequest.builder("prove")
            .policy(policy).scope(cores=3, max_load=3).build()
        )
    return requests


def run_sweep(store):
    events = []
    session = Session(subscribers=[events.append], store=store)
    start = time.perf_counter()
    results = [session.run(request) for request in sweep_requests()]
    elapsed = time.perf_counter() - start
    reused = sum(isinstance(e, ResultReused) for e in events)
    return results, elapsed, reused


def test_bench_store_reuse(tmp_path):
    store = FileStore(tmp_path / "store")
    cold_results, cold_s, cold_reused = run_sweep(store)
    assert cold_reused == 0

    warm_results, warm_s, warm_reused = run_sweep(store)
    assert warm_reused == len(sweep_requests())
    for cold, warm in zip(cold_results, warm_results):
        assert warm.render() == cold.render()
        assert warm.normalized() == cold.normalized()

    # Warm runs do no state exploration; on any host a handful of file
    # reads beats re-exploring a 4-core closure.
    assert warm_s < cold_s, (
        f"warm run ({warm_s:.3f}s) not faster than cold ({cold_s:.3f}s)"
    )

    rows = [
        ["cold (empty store)", str(cold_reused)],
        ["warm (same store)", str(warm_reused)],
    ]
    table = render_table(["run", "results reused"], rows)
    record_result(
        "store_reuse",
        f"Proof store reuse over a {len(sweep_requests())}-request sweep"
        " (serial engine):\n" + table,
    )
