"""Multi-policy verdict matrices.

One certificate tells you about one policy; the interesting picture —
which the paper's tables would have shown had it been a full paper — is
the *matrix*: every obligation crossed with every policy, PROVED/REFUTED
verdicts aligned so the failure structure is visible at a glance (e.g.
"naive passes Lemma1 but fails everything concurrent"). Used by the
``zoo`` CLI command and the benchmark suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.core.policy import Policy
from repro.metrics.stats import render_table
from repro.verify.enumeration import StateScope
from repro.verify.symmetry import SymmetryGroup, TrivialGroup
from repro.verify.work_conservation import (
    WorkConservationCertificate,
    prove_work_conserving,
)

#: Obligation columns of the matrix, in pipeline order.
MATRIX_OBLIGATIONS = (
    "lemma1",
    "filter_soundness",
    "steal_soundness",
    "choice_irrelevance",
    "potential_decrease",
    "progress",
    "good_state_closure",
    "work_conservation",
)


@dataclass
class ZooReport:
    """Certificates for a set of policies at one scope.

    Attributes:
        scope: the scope description shared by all rows.
        certificates: one certificate per policy, in input order.
    """

    scope: str
    certificates: list[WorkConservationCertificate]

    def verdict_rows(self) -> list[list[str]]:
        """Matrix rows: policy, per-obligation verdicts, N, bound."""
        rows = []
        for cert in self.certificates:
            row: list[str] = [cert.policy_name]
            for key in MATRIX_OBLIGATIONS:
                try:
                    row.append("+" if cert.report.result_for(key).ok
                               else "REFUTED")
                except KeyError:
                    row.append("?")
            row.append(
                str(cert.exact_worst_rounds)
                if cert.exact_worst_rounds is not None else "-"
            )
            row.append(
                str(cert.potential_bound)
                if cert.potential_bound is not None else "-"
            )
            rows.append(row)
        return rows

    def render(self) -> str:
        """The verdict matrix as a monospace table."""
        headers = ["policy", *[k.replace("_", " ") for k in
                               MATRIX_OBLIGATIONS], "exact N", "bound N"]
        table = render_table(headers, self.verdict_rows())
        proved = sum(1 for c in self.certificates if c.proved)
        return (
            f"Verification matrix at scope: {self.scope}\n"
            f"{table}\n\n"
            f"{proved}/{len(self.certificates)} policies fully"
            " work-conserving at scope."
        )

    @property
    def proved_names(self) -> list[str]:
        """Names of fully proved policies."""
        return [c.policy_name for c in self.certificates if c.proved]


def verify_zoo(policies: Sequence[Policy], scope: StateScope,
               choice_mode: str = "all",
               max_orders: int = 720,
               symmetry: SymmetryGroup = TrivialGroup(),
               topology=None) -> ZooReport:
    """Run the full pipeline for every policy, serially, and assemble
    the matrix.

    Zoo runs on the pool or distributed engine are
    :class:`repro.api.Session` zoo requests with an engine spec; the
    matrix is byte-identical on every engine.

    Args:
        policies: the policies to verify (order is preserved).
        scope: common verification scope.
        choice_mode: see :func:`~repro.verify.prove_work_conserving`.
        max_orders: see :func:`~repro.verify.prove_work_conserving`.
        symmetry: a :class:`~repro.verify.symmetry.SymmetryGroup`
            quotienting every proof's closure and the progress and
            closure obligations read off it.
        topology: machine layout for node-aware snapshot views.
    """
    certificates = [
        prove_work_conserving(policy, scope, choice_mode=choice_mode,
                              max_orders=max_orders, symmetry=symmetry,
                              topology=topology)
        for policy in policies
    ]
    return ZooReport(scope=scope.describe(), certificates=certificates)


def zoo_lineup(topology=None) -> list[Policy]:
    """The policy lineup a zoo run covers at a given layout.

    The single chooser behind ``zoo``: :class:`repro.api.Session` calls
    it on every engine, so "which policies does the zoo mean" cannot
    drift between entry points.
    """
    return default_zoo() if topology is None else topology_zoo(topology)


#: :func:`default_zoo`'s rows as ``(registry name, PolicySpec kwargs)``
#: pairs — the request-level spelling of the same lineup, which the
#: proof store uses to address each zoo row as its own prove request.
#: Must stay aligned with :func:`default_zoo` (a test builds both and
#: compares them policy for policy).
DEFAULT_ZOO_ENTRIES = (
    ("balance_count", {"margin": 2}),
    ("greedy_halving", {}),
    ("provable_weighted", {}),
    ("weighted", {}),
    ("naive", {}),
    ("greedy_ready", {}),
    ("random_steal", {"seed": 0}),
    ("balance_count", {"margin": 1}),
    ("balance_count", {"margin": 3}),
)

#: The rows :func:`topology_zoo` appends, same spelling.
TOPOLOGY_ZOO_ENTRIES = (
    ("numa_choice", {}),
    ("cache_choice", {}),
)


def zoo_lineup_entries(topology=None) -> tuple[tuple[str, dict], ...]:
    """The :func:`zoo_lineup` rows as ``(name, kwargs)`` pairs, aligned
    index for index with the built policies."""
    if topology is None:
        return DEFAULT_ZOO_ENTRIES
    return DEFAULT_ZOO_ENTRIES + TOPOLOGY_ZOO_ENTRIES


def topology_zoo(topology) -> list[Policy]:
    """The :func:`default_zoo` lineup plus the topology-aware choices.

    Used by ``zoo --topology``: the NUMA- and cache-aware choice
    policies join the matrix, verified under the same obligations as
    every flat policy — the paper's claim that placement heuristics in
    the choice step cost the proofs nothing, made checkable.
    """
    from repro.policies.numa_aware import (
        LeastMigrationsChoicePolicy,
        NumaAwareChoicePolicy,
    )

    return default_zoo() + [
        NumaAwareChoicePolicy(topology),
        LeastMigrationsChoicePolicy(topology),
    ]


def default_zoo() -> list[Policy]:
    """The standard policy line-up used by the CLI and benchmarks."""
    from repro.baselines import RandomStealPolicy
    from repro.policies import (
        BalanceCountPolicy,
        GreedyHalvingPolicy,
        NaiveOverloadedPolicy,
        ProvableWeightedPolicy,
        WeightedBalancePolicy,
    )
    from repro.policies.naive import GreedyReadyPolicy

    return [
        BalanceCountPolicy(margin=2),
        GreedyHalvingPolicy(),
        ProvableWeightedPolicy(),
        WeightedBalancePolicy(),
        NaiveOverloadedPolicy(),
        GreedyReadyPolicy(),
        RandomStealPolicy(seed=0),
        BalanceCountPolicy(margin=1),
        BalanceCountPolicy(margin=3),
    ]
