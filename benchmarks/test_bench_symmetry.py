"""Symmetry-quotient reduction: measured state counts.

The artifact this PR (topology-aware symmetry engine) must keep
producing: on the 2x2 NUMA scope (4 cores, loads 0..3), the model
checker's closure exploration under

* **no reduction** (trivial group),
* the **flat group** (full core renaming — sound for load-only
  policies only), and
* the **NUMA group** (within-node swaps × distance-preserving node
  swaps — sound for NUMA-aware choices and the hierarchical balancer)

must agree on every verdict while the quotients shrink the explored
state space (up to ``n! / ∏ cores_per_node!`` on a symmetric box). The
recorded table shows states explored, the reduction and the exact ``N``
per group, for a flat policy, a NUMA-aware choice policy, and the
hierarchical balancer. It holds deterministic columns only, so
rerunning the test leaves it unchanged; exploration speed is measured
end to end by the hunt workloads of ``benchmarks/suite``.
"""

import time

from repro.metrics import render_table
from repro.policies import BalanceCountPolicy
from repro.policies.numa_aware import NumaAwareChoicePolicy
from repro.topology.numa import symmetric_numa
from repro.verify import (
    HierarchySpec,
    ModelChecker,
    NumaSymmetryGroup,
    StateScope,
    build_checker,
)
from repro.verify.symmetry import FlatSymmetryGroup, TrivialGroup

from conftest import record_result

TOPOLOGY = symmetric_numa(2, 2)
SCOPE = StateScope(n_cores=4, max_load=3)

#: Deeper scope exercising the array pipeline where per-state costs
#: dominate: 3 nodes x 2 cores, loads 0..4 — 15 625 raw states, up to
#: five racing thieves per state through the n-thief kernel expansion.
DEEP_TOPOLOGY = symmetric_numa(3, 2)
DEEP_SCOPE = StateScope(n_cores=6, max_load=4)


def _run(label, group_label, checker, scope=SCOPE):
    return {
        "policy": label,
        "group": group_label,
        "analysis": checker.analyze(scope),
    }


def test_bench_symmetry_reduction(benchmark):
    """Record the reduction table; assert verdict-preserving shrinkage."""
    numa_group = NumaSymmetryGroup(TOPOLOGY)
    spec = HierarchySpec(topology=TOPOLOGY)
    runs = [
        _run("balance_count", "none",
             ModelChecker(BalanceCountPolicy())),
        _run("balance_count", "flat",
             ModelChecker(BalanceCountPolicy(),
                          symmetry=FlatSymmetryGroup())),
        _run("balance_count", "numa(2x2)",
             ModelChecker(BalanceCountPolicy(), symmetry=numa_group)),
        # choice_mode='all' — the only regime where quotienting a
        # distance-based choice is sound (the checker refuses 'policy').
        _run("numa_choice", "none",
             ModelChecker(NumaAwareChoicePolicy(TOPOLOGY),
                          choice_mode="all", topology=TOPOLOGY)),
        _run("numa_choice", "numa(2x2)",
             ModelChecker(NumaAwareChoicePolicy(TOPOLOGY),
                          choice_mode="all", symmetry=numa_group)),
        _run("hierarchical", "none",
             build_checker(None, hierarchy=spec)),
        _run("hierarchical", "domain(2x2)",
             build_checker(None, hierarchy=spec,
                           symmetry=spec.symmetry_group())),
    ]

    deep_spec = HierarchySpec(topology=DEEP_TOPOLOGY)
    deep_numa = NumaSymmetryGroup(DEEP_TOPOLOGY)
    deep_runs = [
        _run("balance_count", "none",
             ModelChecker(BalanceCountPolicy(), choice_mode="all"),
             scope=DEEP_SCOPE),
        _run("balance_count", "numa(3x2)",
             ModelChecker(BalanceCountPolicy(), choice_mode="all",
                          symmetry=deep_numa),
             scope=DEEP_SCOPE),
        _run("numa_choice", "none",
             ModelChecker(NumaAwareChoicePolicy(DEEP_TOPOLOGY),
                          choice_mode="all", topology=DEEP_TOPOLOGY),
             scope=DEEP_SCOPE),
        _run("numa_choice", "numa(3x2)",
             ModelChecker(NumaAwareChoicePolicy(DEEP_TOPOLOGY),
                          choice_mode="all", symmetry=deep_numa),
             scope=DEEP_SCOPE),
        _run("hierarchical", "none",
             build_checker(None, hierarchy=deep_spec),
             scope=DEEP_SCOPE),
        _run("hierarchical", "domain(3x2)",
             build_checker(None, hierarchy=deep_spec,
                           symmetry=deep_spec.symmetry_group()),
             scope=DEEP_SCOPE),
    ]

    def reduction_rows(table_runs):
        by_policy: dict[str, list[dict]] = {}
        for run in table_runs:
            by_policy.setdefault(run["policy"], []).append(run)
        rows = []
        for policy_runs in by_policy.values():
            baseline = policy_runs[0]["analysis"]
            for run in policy_runs:
                analysis = run["analysis"]
                # Quotients must never change a verdict or the exact N.
                assert analysis.violated == baseline.violated
                assert (analysis.worst_case_rounds
                        == baseline.worst_case_rounds)
                reduction = (baseline.states_explored
                             / analysis.states_explored)
                rows.append([
                    run["policy"], run["group"],
                    analysis.states_explored,
                    f"{reduction:.2f}x",
                    analysis.worst_case_rounds,
                ])
            # ... and every non-trivial group must shrink the space.
            for run in policy_runs[1:]:
                assert (run["analysis"].states_explored
                        < baseline.states_explored)
        return rows

    header = ["policy", "group", "states", "reduction", "exact N"]
    record_result("symmetry_reduction", (
        f"symmetry-quotient reduction at {SCOPE.describe()}"
        f" on {TOPOLOGY.name}\n"
        + render_table(header, reduction_rows(runs))
        + f"\n\ndeeper scope: {DEEP_SCOPE.describe()}"
        f" on {DEEP_TOPOLOGY.name}\n"
        + render_table(header, reduction_rows(deep_runs))
    ))

    # The timed central operation: the NUMA-quotiented NUMA-aware check.
    benchmark(
        lambda: ModelChecker(
            NumaAwareChoicePolicy(TOPOLOGY),
            symmetry=NumaSymmetryGroup(TOPOLOGY),
        ).analyze(SCOPE)
    )


def test_bench_orbit_counting_is_closed_form():
    """`count_representatives` sizes shards without enumerating states."""
    group = NumaSymmetryGroup(symmetric_numa(2, 4))
    big = StateScope(n_cores=8, max_load=4)
    # 5**8 ≈ 390k raw states; the orbit count must come back instantly
    # and match the (cheap but linear) representative enumeration.
    start = time.perf_counter()
    counted = group.count_representatives(big)
    elapsed = time.perf_counter() - start
    assert counted == sum(1 for _ in group.iter_representatives(big))
    assert elapsed < 0.1
    # Orbit sizes are closed-form too: they must tile the raw space.
    from repro.verify import count_states

    small = StateScope(n_cores=8, max_load=2)
    total = sum(group.orbit_size(rep)
                for rep in group.iter_representatives(small))
    assert total == count_states(small)
