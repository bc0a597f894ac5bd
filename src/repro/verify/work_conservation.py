"""The top-level work-conservation certificate.

This module assembles the paper's proof out of its isolated pieces, in
the order Section 4 develops them:

1. **Lemma1** (Listing 2) — idle cores select overloaded cores, all and
   only them;
2. **filter/steal soundness** (§4.2) — selected victims are stealable,
   steals keep victims non-idle and shrink the pairwise gap, under *any*
   choice (choice-irrelevance);
3. **potential decrease** (§4.3, second proof) — the global
   load-difference ``d`` strictly decreases per successful steal, so
   successes are bounded by ``d / min_decrease``;
4. **progress** (§4.3, composition) — every round spent in a bad state
   commits at least one steal;
5. therefore the bad condition clears within ``N <= d/min_decrease + 1``
   rounds: **work conservation**, with an explicit ``N``.

Independently, the explicit-state model checker decides the same liveness
property by exhaustive search and — when the certificate holds — reports
the *exact* worst-case ``N``, which must be at most the certificate's
bound. A certificate whose bound undercuts the model checker's exact
value would indicate a bug in one of the two engines; the test suite
cross-checks them.

One pipeline, every engine
--------------------------

The pipeline is written once, as three drivers — :func:`prove`,
:func:`analyze` and :func:`campaign` — over a :class:`TaskMap`: the
number of shards a request splits into and a function that runs a list
of :mod:`repro.verify.tasks` shard tasks. The serial engine is the
one-shard map that runs tasks in this process (:func:`local_tasks`);
the pool engine (:mod:`repro.verify.parallel`) and the distributed
engine (:mod:`repro.verify.distributed`) supply maps over worker
processes. Each driver builds the tasks, maps them, runs the closure
(:func:`~repro.verify.model_checker.bfs_closure` over mapped
:class:`~repro.verify.tasks.ExpandTask` chunks, unless the map brings
its own), and merges the shard results with the reducers below; a proof
then reads its progress and closure obligations off the explored graph
in this process. Every engine's closure is the same graph, which is why
every engine's verdicts are byte-identical.
"""


from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Callable, Iterable, Sequence

from repro.core.policy import Policy
from repro.obs.trace import TRACER
from repro.topology.numa import NumaTopology
from repro.verify.campaign import CampaignConfig, CampaignReport
from repro.verify.enumeration import LoadState, StateScope
from repro.verify.hierarchical import HierarchySpec
from repro.verify.model_checker import (
    ModelChecker,
    PackedGraph,
    WorkConservationAnalysis,
    bfs_closure,
    cumulative_levels,
)
from repro.verify.obligations import (
    ProofReport,
    ProofResult,
    ProofStatus,
    timed_check,
)
from repro.verify.symmetry import SymmetryGroup, TrivialGroup
from repro.verify.tasks import (
    CampaignTask,
    CheckerConfig,
    ExpandTask,
    LocalRuntime,
    PolicyReplicator,
    ShardSpec,
    SweepShardResult,
    SweepTask,
)
from repro.verify.transition import DEFAULT_MAX_ORDERS

#: Obligation keys swept by the state-sweep task, in pipeline order.
SWEEP_OBLIGATION_KEYS = (
    "lemma1",
    "filter_soundness",
    "steal_soundness",
    "choice_irrelevance",
    "potential_decrease",
)

#: ``closure(config, initial_states, on_expand)`` — a map's own
#: exploration of the reachable closure.
Closure = Callable[[CheckerConfig, Iterable[LoadState],
                    "Callable[[int], None] | None"],
                   tuple[PackedGraph, bool]]


@dataclass
class WorkConservationCertificate:
    """Outcome of the full verification pipeline for one policy.

    Attributes:
        policy_name: the policy verified.
        report: per-obligation results (Lemma1, soundness, potential,
            progress, closure, model-checked work conservation).
        analysis: the model checker's independent liveness analysis.
        potential_bound: the certificate's ``N`` (rounds) derived from the
            potential function, or ``None`` when the potential obligation
            failed.
        min_decrease: smallest observed per-steal decrease of ``d``.
        proved: True when every obligation holds and the model checker
            found no lasso — the policy is work-conserving at scope with
            the explicit bound.
    """

    policy_name: str
    report: ProofReport
    analysis: WorkConservationAnalysis
    potential_bound: int | None
    min_decrease: int | None
    proved: bool

    @property
    def exact_worst_rounds(self) -> int | None:
        """Model checker's exact worst-case N (None when violated)."""
        return self.analysis.worst_case_rounds

    def render(self) -> str:
        """Human-readable certificate summary."""
        lines = [self.report.render(), ""]
        if self.analysis.violated:
            assert self.analysis.lasso is not None
            lines.append(
                "Model checker: VIOLATED — " + self.analysis.lasso.describe()
            )
        else:
            lines.append(
                "Model checker: no violation;"
                f" exact worst-case N = {self.analysis.worst_case_rounds}"
                f" over {self.analysis.states_explored} states"
            )
        if self.potential_bound is not None:
            lines.append(
                f"Potential certificate: N <= {self.potential_bound}"
                f" (min per-steal decrease of d: {self.min_decrease})"
            )
        verdict = "WORK-CONSERVING (at scope)" if self.proved else "NOT PROVED"
        lines.append(f"Verdict: {verdict}")
        return "\n".join(lines)


@dataclass(frozen=True)
class TaskMap:
    """Where one request's shard tasks run.

    Attributes:
        n_shards: how many shards the request's sweeps split into.
        map: runs a list of :mod:`repro.verify.tasks` payloads and
            returns their results in task order.
        closure: the map's own closure exploration, replacing
            :func:`~repro.verify.model_checker.bfs_closure` over mapped
            expand tasks (the distributed engine's async mode).
        checker: the checker, per config, that analyses the explored
            graph and checks the progress and closure obligations on it
            (the serial map's is the one that explored the graph).
    """

    n_shards: int
    map: Callable[[Sequence[Any]], list[Any]]
    closure: Closure | None = None
    checker: Callable[[CheckerConfig], ModelChecker] = CheckerConfig.build


def local_tasks(emit: Callable[..., None] | None = None) -> TaskMap:
    """The serial engine's map: one shard, run in this process.

    One :class:`~repro.verify.tasks.LocalRuntime` runs every task and
    supplies the driver's checker, so exploration and the obligations
    read off its graph share one checker — its kernel, built once, and
    the tuple executor's branch memo — and no chunk is pickled.
    ``emit`` receives a campaign's per-machine progress.
    """
    runtime = LocalRuntime()
    return TaskMap(1, lambda tasks: [runtime.run(task, emit)
                                     for task in tasks],
                   checker=runtime.checker_for)


def prove(policy: Policy, scope: StateScope, tasks: TaskMap, *,
          choice_mode: str = "all", max_orders: int = DEFAULT_MAX_ORDERS,
          symmetry: SymmetryGroup = TrivialGroup(),
          topology: NumaTopology | None = None,
          on_level: Callable[[int, int, int], None] | None = None,
          on_expand: Callable[[int], None] | None = None,
          ) -> WorkConservationCertificate:
    """The full §4 pipeline for ``policy`` at ``scope``, on ``tasks``.

    The scope splits into ``tasks.n_shards`` round-robin shards, whose
    state sweeps run as one task each; the closure is explored, the
    progress and closure obligations are read off its graph, and the
    results merge into the certificate. Exploration reports per level
    through ``on_level`` or, when ``on_expand`` is given instead, the
    running number of states explored
    (:func:`~repro.verify.model_checker.cumulative_levels`; the async
    closure reports only that way).
    """
    config = CheckerConfig(policy=policy, choice_mode=choice_mode,
                           max_orders=max_orders, symmetry=symmetry,
                           topology=topology)
    # Built before any dispatch so an unsound parameter combination
    # fails with the checker's one-line error, not a worker traceback.
    checker = tasks.checker(config)
    sweep_shards = tasks.map([
        SweepTask(spec=spec, trace=TRACER.enabled)
        for spec in make_shard_specs(config, scope, tasks.n_shards)
    ])
    analysis, graph = _analyze(checker, config, scope, tasks, on_level,
                               on_expand)
    return assemble_certificate(
        policy, sweep_shards, checker.check_progress(scope, graph),
        checker.check_good_state_closure(scope, graph), analysis,
    )


def analyze(policy: Policy | None, scope: StateScope, tasks: TaskMap, *,
            choice_mode: str = "all", max_orders: int = DEFAULT_MAX_ORDERS,
            symmetry: SymmetryGroup = TrivialGroup(),
            topology: NumaTopology | None = None,
            hierarchy: HierarchySpec | None = None,
            on_level: Callable[[int, int, int], None] | None = None,
            on_expand: Callable[[int], None] | None = None,
            ) -> WorkConservationAnalysis:
    """Model-check work conservation only (the ``hunt`` path).

    The shards explore the closure; this process runs the cheap,
    deterministic lasso and worst-case algorithms once. A
    :class:`~repro.verify.hierarchical.HierarchySpec` model-checks the
    two-level hierarchical round instead (``policy`` is then ignored).
    """
    config = CheckerConfig(policy=policy, choice_mode=choice_mode,
                           max_orders=max_orders, symmetry=symmetry,
                           topology=topology, hierarchy=hierarchy)
    return _analyze(tasks.checker(config), config, scope, tasks, on_level,
                    on_expand)[0]


def _analyze(checker: ModelChecker, config: CheckerConfig,
             scope: StateScope, tasks: TaskMap,
             on_level: Callable[[int, int, int], None] | None,
             on_expand: Callable[[int], None] | None,
             ) -> tuple[WorkConservationAnalysis, PackedGraph]:
    """Explore the scope's closure on ``tasks`` and analyse the graph;
    returns the analysis and the graph."""
    with timed_check() as timer:
        initial = config.symmetry.iter_representatives(scope)
        if tasks.closure is not None:
            graph, truncated = tasks.closure(config, initial, on_expand)
        else:
            def map_expand(codec, chunks):
                return tasks.map([
                    ExpandTask(config=config, codec=codec,
                               packed=tuple(chunk), trace=TRACER.enabled)
                    for chunk in chunks
                ])

            if on_expand is not None:
                on_level = cumulative_levels(on_expand)
            graph, truncated = bfs_closure(
                map_expand, tasks.n_shards, initial, config.symmetry,
                on_level=on_level,
            )
        analysis = checker.analyze_graph(scope, graph, truncated)
    analysis.elapsed_s = timer.elapsed
    return analysis, graph


def campaign(policy_factory: Callable[[], Policy], config: CampaignConfig,
             tasks: TaskMap) -> CampaignReport:
    """Fan a randomised campaign across ``tasks``, one derived seed per
    shard (see :func:`make_campaign_tasks`)."""
    return merge_campaign_reports(tasks.map([
        CampaignTask(replicator=replicator, config=share,
                     trace=TRACER.enabled)
        for replicator, share in make_campaign_tasks(
            policy_factory, config, tasks.n_shards
        )
    ]))


def prove_work_conserving(policy: Policy, scope: StateScope,
                          choice_mode: str = "all",
                          max_orders: int = 720,
                          symmetry: SymmetryGroup = TrivialGroup(),
                          topology: NumaTopology | None = None,
                          ) -> WorkConservationCertificate:
    """Run the full §4 pipeline for ``policy`` at ``scope``, serially.

    Args:
        policy: the policy to verify.
        scope: the finite state universe to sweep.
        choice_mode: ``'all'`` (default) quantifies over every candidate
            choice; ``'policy'`` fixes the policy's deterministic choice.
        max_orders: cap on racing-steal permutations per round.
        symmetry: the :class:`~repro.verify.symmetry.SymmetryGroup` to
            quotient closure exploration, and the progress and closure
            obligations read off it, by
            (:class:`~repro.verify.symmetry.FlatSymmetryGroup` is full
            core renaming, sound for load-only policies).
        topology: machine layout for node-aware snapshot views.

    Returns:
        The assembled :class:`WorkConservationCertificate`.
    """
    return prove(policy, scope, local_tasks(), choice_mode=choice_mode,
                 max_orders=max_orders, symmetry=symmetry,
                 topology=topology)


# ---------------------------------------------------------------------------
# task construction and reducers (deterministic, order-independent)
# ---------------------------------------------------------------------------


def make_shard_specs(config: CheckerConfig, scope: StateScope,
                     n_shards: int) -> list[ShardSpec]:
    """One :class:`~repro.verify.tasks.ShardSpec` per shard, covering
    ``scope`` exactly."""
    return [ShardSpec(config=config, scope=scope, shard=shard,
                      n_shards=n_shards)
            for shard in range(n_shards)]


def derive_campaign_seed(seed: int, shard: int) -> int:
    """Worker ``shard``'s campaign seed, derived from the master seed.

    A fixed affine mix (golden-ratio increment) keeps worker streams
    disjoint in practice while remaining reproducible for a given
    ``(seed, shard)`` pair.
    """
    return (seed * 1_000_003 + 0x9E3779B9 * (shard + 1)) % (2 ** 63)


def make_campaign_tasks(
    policy_factory, config: CampaignConfig, jobs: int,
) -> list[tuple[PolicyReplicator, CampaignConfig]]:
    """Split a campaign into per-worker ``(replicator, slice)`` tasks.

    The machine budget is split as evenly as possible (the first
    ``n_machines % jobs`` workers take one extra machine); worker ``i``
    fuzzes with seed :func:`derive_campaign_seed` ``(config.seed, i)``.
    A campaign's coverage is therefore a function of ``(seed, worker
    count)`` alone — not of which engine ran it — and reproducible for
    a fixed pair; one worker runs the campaign as configured.
    """
    jobs = min(jobs, max(1, config.n_machines))
    replicator = PolicyReplicator(policy_factory())
    if jobs <= 1:
        return [(replicator, config)]
    base, extra = divmod(config.n_machines, jobs)
    shares = [base + (1 if i < extra else 0) for i in range(jobs)]
    return [
        (replicator, replace(config, n_machines=share,
                             seed=derive_campaign_seed(config.seed, i)))
        for i, share in enumerate(shares) if share > 0
    ]


def merge_proof_results(shards: list[ProofResult]) -> ProofResult:
    """Merge per-shard results of one obligation into the scope result.

    REFUTED dominates; among refuting shards the counterexample whose
    state comes first in the serial iteration order — the ascending
    lexicographic order of :func:`~repro.verify.enumeration.iter_states`
    — wins. Because shards partition the scope and each reports the
    first counterexample of its own chunk, that winner is exactly the
    counterexample the serial sweep would have reported.
    ``states_checked`` sums; ``elapsed_s`` is the max across shards
    (the parallel wall-clock).

    Raises:
        ValueError: when ``shards`` is empty or mixes obligations.
    """
    if not shards:
        raise ValueError("cannot merge zero shard results")
    keys = {r.obligation.key for r in shards}
    if len(keys) != 1:
        raise ValueError(f"cannot merge results of obligations {sorted(keys)}")
    refuted = [r for r in shards if r.status is ProofStatus.REFUTED]
    winner: ProofResult | None = None
    if refuted:
        def serial_order(result: ProofResult) -> tuple[int, ...]:
            assert result.counterexample is not None
            return tuple(result.counterexample.state)

        winner = min(refuted, key=serial_order)
    return ProofResult(
        obligation=shards[0].obligation,
        policy_name=shards[0].policy_name,
        status=(ProofStatus.REFUTED if winner is not None
                else shards[0].status),
        scope=shards[0].scope,
        states_checked=sum(r.states_checked for r in shards),
        counterexample=winner.counterexample if winner is not None else None,
        elapsed_s=max(r.elapsed_s for r in shards),
    )


def merge_campaign_reports(shards: list[CampaignReport]) -> CampaignReport:
    """Sum per-worker campaign reports (violations kept in shard order)."""
    if not shards:
        raise ValueError("cannot merge zero campaign reports")
    merged = CampaignReport(policy_name=shards[0].policy_name)
    for report in shards:
        merged.machines += report.machines
        merged.rounds += report.rounds
        merged.steals += report.steals
        merged.failures += report.failures
        merged.violations.extend(report.violations)
        merged.max_rounds_to_quiescence = max(
            merged.max_rounds_to_quiescence, report.max_rounds_to_quiescence
        )
    return merged


def assemble_certificate(
    policy: Policy,
    sweep_shards: list[SweepShardResult],
    progress: ProofResult,
    closure: ProofResult,
    analysis: WorkConservationAnalysis,
) -> WorkConservationCertificate:
    """Merge per-shard results into the full §4 certificate.

    Sweep obligations merge with :func:`merge_proof_results`, and the
    potential bound is derived from the shard-local
    ``min_decrease``/``max_potential`` extrema — no second global
    sweep. ``progress`` and ``closure`` are the two obligations checked
    on the explored graph.
    """
    report = ProofReport(policy_name=policy.name)
    for key in SWEEP_OBLIGATION_KEYS:
        report.add(merge_proof_results(
            [shard.results[key] for shard in sweep_shards]
        ))
    report.add(progress)
    report.add(closure)
    report.add(analysis.to_proof_result())

    potential_ok = report.result_for("potential_decrease").ok
    min_decrease = None
    bound = None
    if potential_ok:
        observed = [s.min_decrease for s in sweep_shards
                    if s.min_decrease is not None]
        min_decrease = min(observed) if observed else None
        if min_decrease is not None and min_decrease > 0:
            peaks = [s.max_potential for s in sweep_shards
                     if s.max_potential is not None]
            if peaks:
                bound = max(peaks) // min_decrease + 1

    proved = report.all_proved and not analysis.violated
    return WorkConservationCertificate(
        policy_name=policy.name,
        report=report,
        analysis=analysis,
        potential_bound=bound,
        min_decrease=min_decrease,
        proved=proved,
    )
