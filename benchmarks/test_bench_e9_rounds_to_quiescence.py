"""E9 — §3.2: the N of the work-conservation definition, measured.

Two series:

* **exact**: the model checker's worst-case N over all states and
  adversaries, as a function of core count (N tracks contention — the
  number of idle cores that can race for the same victim — not
  imbalance depth);
* **empirical**: rounds to the no-wasted-core condition on much larger
  machines (8..64 cores) under seeded-random interleavings, compared
  against the potential-certificate bound d/4 + 1 which must dominate.

Times the 4-core exhaustive analysis.
"""

import random

from repro.core.balancer import LoadBalancer
from repro.core.machine import Machine
from repro.metrics import render_table
from repro.policies import BalanceCountPolicy
from repro.sim.interleave import SeededInterleaving
from repro.verify import ModelChecker, StateScope, potential
from repro.verify.symmetry import FlatSymmetryGroup

from conftest import record_result


def test_bench_e9_exact_worst_case(benchmark):
    """Time the 4-core exhaustive worst-case-N computation."""
    analysis = benchmark(
        lambda: ModelChecker(
            BalanceCountPolicy(), symmetry=FlatSymmetryGroup(),
        ).analyze(StateScope(n_cores=4, max_load=3))
    )
    assert not analysis.violated
    assert analysis.worst_case_rounds == 2


def test_bench_e9_exact_series(benchmark):
    """Regenerate the exact-N-vs-cores series (2..7 cores, exhaustive
    with core-renaming symmetry; larger scopes cap the thread total to
    keep the closure finite-fast)."""

    SCOPES = [
        (2, StateScope(n_cores=2, max_load=3)),
        (3, StateScope(n_cores=3, max_load=3)),
        (4, StateScope(n_cores=4, max_load=3)),
        (5, StateScope(n_cores=5, max_load=3)),
        (6, StateScope(n_cores=6, max_load=3, max_total=10)),
        (7, StateScope(n_cores=7, max_load=3, max_total=9)),
    ]

    def series():
        rows = []
        for n_cores, scope in SCOPES:
            analysis = ModelChecker(
                BalanceCountPolicy(), symmetry=FlatSymmetryGroup(),
                max_orders=5040,
            ).analyze(scope)
            assert not analysis.truncated
            rows.append([n_cores, analysis.worst_case_rounds,
                         analysis.states_explored])
        return rows

    rows = benchmark(series)
    record_result("e9_exact_series", render_table(
        ["cores", "exact worst-case N", "canonical states"], rows,
    ))
    ns = {row[0]: row[1] for row in rows}
    assert list(ns.values()) == sorted(ns.values())  # N grows with contention
    # The measured series: N tracks the number of idle cores that can
    # lose successive races — roughly n/2.
    assert ns[2] == 1 and ns[4] == 2 and ns[5] == 3 and ns[7] == 4


def test_bench_e9_empirical_large_machines(benchmark):
    """Regenerate the empirical series on 8..64 cores with the
    potential-certificate bound alongside."""

    def measure(n_cores: int, seed: int) -> tuple[int, int]:
        rng = random.Random(seed)
        loads = [rng.choice([0, 0, 1, 2, 4]) for _ in range(n_cores)]
        machine = Machine.from_loads(loads)
        balancer = LoadBalancer(machine, BalanceCountPolicy(),
                                interleaving=SeededInterleaving(seed),
                                keep_history=False, check_invariants=False)
        rounds = balancer.run_until_work_conserving(max_rounds=1000)
        assert rounds is not None
        bound = potential(loads) // 4 + 1
        return rounds, bound

    def series():
        rows = []
        for n_cores in (8, 16, 32, 64):
            observed = []
            bounds = []
            for seed in range(10):
                rounds, bound = measure(n_cores, seed)
                # The certificate dominates every individual run.
                assert rounds <= bound, (n_cores, seed, rounds, bound)
                observed.append(rounds)
                bounds.append(bound)
            rows.append([n_cores, max(observed),
                         sum(observed) / len(observed),
                         min(bounds), max(bounds)])
        return rows

    rows = benchmark(series)
    record_result("e9_empirical", render_table(
        ["cores", "max rounds", "mean rounds", "min bound", "max bound"],
        rows,
    ))
    for n_cores, max_rounds, mean_rounds, _, max_bound in rows:
        # N stays small in absolute terms — racing steals are efficient —
        # and far below the certificate at scale.
        assert max_rounds <= 30
        if n_cores >= 16:
            assert max_rounds * 4 <= max_bound
