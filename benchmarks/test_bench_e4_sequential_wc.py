"""E4 — §4.2: work conservation in the sequential (no-concurrency) setting.

Regenerates the paper's sequential claim: with load-balancing operations
executed "in isolation" (fresh state per core, no races), steals never
fail and one pass of rounds reaches the no-wasted-core condition — even
for the naive filter that breaks under concurrency. Times the
sequential-regime model check.
"""

from repro.core.balancer import LoadBalancer
from repro.core.machine import Machine
from repro.metrics import render_table
from repro.policies import BalanceCountPolicy, NaiveOverloadedPolicy
from repro.sim.interleave import SequentialInterleaving
from repro.verify import ModelChecker, StateScope

from conftest import record_result

SCOPE = StateScope(n_cores=3, max_load=3)


def test_bench_e4_sequential_model_check(benchmark):
    """Time the sequential-regime analysis for Listing 1."""
    checker = ModelChecker(BalanceCountPolicy(), sequential=True)
    analysis = benchmark(checker.analyze, SCOPE)
    assert not analysis.violated
    assert analysis.worst_case_rounds == 1


def test_bench_e4_sequential_verdicts(benchmark):
    """Sequential vs concurrent verdicts, side by side — the §4.2 vs
    §4.3 contrast in one table."""

    def sweep():
        rows = []
        for policy_factory in (BalanceCountPolicy, NaiveOverloadedPolicy):
            seq = ModelChecker(policy_factory(),
                               sequential=True).analyze(SCOPE)
            conc = ModelChecker(policy_factory()).analyze(SCOPE)
            rows.append((policy_factory().name, seq, conc))
        return rows

    rows = benchmark(sweep)

    table_rows = []
    for name, seq, conc in rows:
        table_rows.append([
            name,
            f"N={seq.worst_case_rounds}" if not seq.violated else "VIOLATED",
            f"N={conc.worst_case_rounds}" if not conc.violated else "VIOLATED",
        ])
    table = render_table(
        ["policy", "sequential (sec 4.2)", "concurrent (sec 4.3)"],
        table_rows,
    )
    record_result("e4_sequential_wc", table)

    by_name = {name: (seq, conc) for name, seq, conc in rows}
    listing1_seq, listing1_conc = by_name["balance_count(margin=2)"]
    naive_seq, naive_conc = by_name["naive_overloaded"]
    # The paper's contrast: sequentially both are fine; concurrently only
    # Listing 1 survives.
    assert not listing1_seq.violated and not naive_seq.violated
    assert not listing1_conc.violated and naive_conc.violated


def test_bench_e4_sequential_rounds_never_fail(benchmark):
    """Concrete-side confirmation: 100 sequential rounds, zero failures."""

    def run():
        machine = Machine.from_loads([0, 0, 6, 6, 0, 12, 0, 0])
        balancer = LoadBalancer(machine, BalanceCountPolicy(),
                                interleaving=SequentialInterleaving(),
                                check_invariants=False)
        for _ in range(100):
            balancer.run_round()
        return balancer

    balancer = benchmark(run)
    assert balancer.total_failures == 0
    assert balancer.machine.is_work_conserving_state()
