"""Parallel verification engine: equivalence + scaling benchmarks.

Two artifacts the parallel engine (PR: sharded verification) must keep
producing:

* **equivalence** — the zoo verdict matrix at the seed scope (3 cores,
  load 0..2) must be *byte-identical* between the single-process path
  and ``jobs=2``; shard merging is deterministic, so any divergence is
  an engine bug, not noise;
* **scaling** — the full pipeline for a closure-heavy policy
  (``naive_overloaded``: its refuted model check explores the largest
  graphs) at the 4-core / load-0..3 scope across worker counts. On
  hosts with >= 4 CPUs the wall-clock must show >= 2x at ``--jobs 4``;
  on smaller hosts the matrix is reduced (and capped via
  ``max_total``) so the suite stays interactive. The recorded table
  says which configuration ran and holds deterministic columns only
  (verdicts and state counts), so rerunning the test leaves it
  unchanged; end-to-end timing lives in ``benchmarks/suite``.
"""

import os
import time

from repro.api import Session, VerificationRequest
from repro.metrics import render_table
from repro.policies.naive import NaiveOverloadedPolicy
from repro.verify import (
    Coordinator,
    InProcessTransport,
    StateScope,
    default_zoo,
    verify_zoo,
)
from repro.verify.distributed import coordinator_tasks
from repro.verify.parallel import pool_tasks
from repro.verify.work_conservation import prove

from conftest import record_result

SEED_SCOPE = StateScope(n_cores=3, max_load=2)
CPUS = os.cpu_count() or 1


def test_bench_parallel_equivalence(benchmark):
    """Zoo matrix at the seed scope: jobs=2 is byte-identical to serial."""
    serial = verify_zoo(default_zoo(), SEED_SCOPE)
    request = (VerificationRequest.builder("zoo")
               .scope(cores=SEED_SCOPE.n_cores, max_load=SEED_SCOPE.max_load)
               .pool(jobs=2)
               .build())
    parallel = benchmark(lambda: Session().run(request).zoo)
    assert parallel.render() == serial.render()
    record_result("parallel_equivalence", parallel.render())


def test_bench_parallel_scaling():
    """Record verdicts per worker count; assert real speedup.

    The subject is ``naive_overloaded`` — the §4.3 ping-pong policy whose
    refuted model check dominates the zoo matrix cost — at 4 cores /
    load 0..3. Hosts without enough CPUs cannot demonstrate wall-clock
    speedup (workers time-slice one core), so there the scope is capped
    and only determinism across worker counts is asserted.
    """
    if CPUS >= 4:
        scope = StateScope(n_cores=4, max_load=3)
        job_counts = (1, 2, 4)
    elif CPUS >= 2:
        scope = StateScope(n_cores=4, max_load=3)
        job_counts = (1, 2)
    else:
        scope = StateScope(n_cores=4, max_load=3, max_total=8)
        job_counts = (1, 2)

    timings: dict[int, float] = {}
    certificates = {}
    for jobs in job_counts:
        start = time.perf_counter()
        with pool_tasks(jobs) as tasks:
            certificates[jobs] = prove(NaiveOverloadedPolicy(), scope, tasks)
        timings[jobs] = time.perf_counter() - start

    baseline = certificates[job_counts[0]]
    rows = []
    for jobs in job_counts:
        cert = certificates[jobs]
        # Determinism across worker counts: same verdicts, same graph.
        assert cert.proved == baseline.proved
        assert cert.exact_worst_rounds == baseline.exact_worst_rounds
        assert (cert.analysis.states_explored
                == baseline.analysis.states_explored)
        for ours, theirs in zip(cert.report.results,
                                baseline.report.results):
            assert ours.status == theirs.status, ours.obligation.key
        rows.append([
            jobs,
            cert.analysis.states_explored,
            "REFUTED" if not cert.proved else "PROVED",
        ])

    # Barrier-free async exploration over in-process transports at the
    # same scope: determinism is asserted against the pool baseline
    # (same graph, same verdicts).
    async_rows = []
    for n_workers in (2,):
        coordinator = Coordinator([
            InProcessTransport(f"scale-async-{i}")
            for i in range(n_workers)
        ])
        cert = prove(NaiveOverloadedPolicy(), scope,
                     coordinator_tasks(coordinator, mode="async"))
        assert cert.proved == baseline.proved
        assert (cert.analysis.states_explored
                == baseline.analysis.states_explored)
        async_rows.append([
            f"async x{n_workers}",
            cert.analysis.states_explored,
            "REFUTED" if not cert.proved else "PROVED",
        ])

    record_result("parallel_scaling", (
        f"pipeline scaling for naive_overloaded at {scope.describe()}"
        f" ({CPUS} CPUs available)\n"
        + render_table(["jobs", "states explored", "verdict"], rows)
        + "\n\nbarrier-free async distributed (in-process transports),"
        " same scope:\n"
        + render_table(["engine", "states explored", "verdict"],
                       async_rows)
    ))

    if CPUS >= 4:
        speedup = timings[1] / timings[4]
        assert speedup >= 2.0, (
            f"--jobs 4 speedup {speedup:.2f}x < 2x on a {CPUS}-CPU host"
        )
