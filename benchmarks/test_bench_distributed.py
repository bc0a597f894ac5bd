"""Distributed verification engine: equivalence + dispatch-cost artifact.

Two artifacts the distributed engine (PR: coordinator/worker shard
dispatch) must keep producing:

* **equivalence** — the full certificate for the seed policy must render
  *byte-identical* across the serial path, the in-process transport, and
  real TCP subprocess workers; the wire boundary may never change a
  verdict, a counterexample, or a state count;
* **the table** — each engine's verdict and explored state count at
  the seed scope. It holds deterministic columns only, so rerunning the
  test leaves it unchanged; dispatch cost is measured end to end by the
  ``hunt-x2`` workload of ``benchmarks/suite``.
"""

from repro.metrics import render_table
from repro.policies import BalanceCountPolicy
from repro.verify import (
    Coordinator,
    InProcessTransport,
    LocalWorkerPool,
    StateScope,
    prove_work_conserving,
)
from repro.verify.distributed import coordinator_tasks
from repro.verify.work_conservation import prove

from conftest import record_result

SEED_SCOPE = StateScope(n_cores=3, max_load=2)


def test_bench_distributed_equivalence(benchmark):
    """Serial, in-process transport, and TCP subprocess workers agree."""
    serial = prove_work_conserving(BalanceCountPolicy(), SEED_SCOPE)

    def in_process_proof():
        coordinator = Coordinator([
            InProcessTransport("bench-a"), InProcessTransport("bench-b"),
        ])
        return prove(BalanceCountPolicy(), SEED_SCOPE,
                     coordinator_tasks(coordinator))

    in_process = benchmark(in_process_proof)

    async_coordinator = Coordinator([
        InProcessTransport("bench-async-a"),
        InProcessTransport("bench-async-b"),
    ])
    over_async = prove(BalanceCountPolicy(), SEED_SCOPE,
                       coordinator_tasks(async_coordinator, mode="async"))

    with LocalWorkerPool(2) as coordinator:
        over_tcp = prove(BalanceCountPolicy(), SEED_SCOPE,
                         coordinator_tasks(coordinator))

    assert in_process.render() == serial.render()
    assert over_tcp.render() == serial.render()
    assert over_async.render() == serial.render()

    rows = [
        [engine, "PROVED" if cert.proved else "REFUTED",
         cert.analysis.states_explored]
        for engine, cert in (
            ("serial", serial),
            ("distributed/in-process x2", in_process),
            ("distributed/async in-process x2", over_async),
            ("distributed/tcp x2 subprocess", over_tcp),
        )
    ]
    table = render_table(["engine", "verdict", "states explored"], rows)
    record_result(
        "distributed_equivalence",
        "Distributed engine equivalence at seed scope"
        f" ({SEED_SCOPE.describe()}):\n"
        "all four engines render byte-identical certificates\n"
        "(async = barrier-free hash-partitioned exploration).\n\n"
        + table,
    )
