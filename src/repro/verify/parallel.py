"""Parallel sharded verification engine.

Single-process exhaustive checking caps practical scopes at roughly
3 cores / load 0..2 (see ``benchmarks/results/zoo_matrix.txt``). This
module removes that cap by partitioning the canonical state space into
shards and fanning every sweep of the §4 pipeline — the lemma checks,
the explicit-state model checker, and the randomised campaigns — across
a :mod:`multiprocessing` pool, then merging the per-shard results with
deterministic, order-independent reducers.

Architecture
------------

The engine has three layers:

1. **Chunked iteration** (:func:`repro.verify.enumeration.iter_states_chunk`)
   — shard ``k`` of ``n`` receives the states at indices ``k, k+n,
   k+2n, ...`` of the shared lexicographic enumeration. Shards are
   pairwise disjoint, cover the scope exactly, and are sized arithmetically
   from the closed-form :func:`~repro.verify.enumeration.count_states`
   (no enumeration needed to plan the split).
2. **Shard workers** (module-level functions, picklable) — each worker
   re-runs the unchanged serial checkers on its chunk: the five
   state-sweep obligations, the progress/closure obligations, or one
   slice of a randomised campaign. The model checker's reachable-closure
   exploration is instead a **level-synchronous parallel BFS**
   (:func:`_explore_bfs` over the shared
   :func:`~repro.verify.model_checker.bfs_closure`): the parent owns the
   frontier and stripes each level across the pool, so every state is
   expanded exactly once globally — chunk-local closures would overlap
   and waste the pool on redundant re-exploration. Every pool process owns one
   :class:`~repro.verify.model_checker.ModelChecker` (installed by the
   pool initializer) whose round-branch transitions are memoized keyed
   on (canonical) state — the "within each shard" transition cache,
   shared across all tasks that process serves.
3. **Reducers** — pure functions merging per-shard
   :class:`~repro.verify.obligations.ProofResult` /
   :class:`~repro.verify.campaign.CampaignReport` / transition-graph
   values. All reducers are order-independent (commutative and
   associative up to the deterministic tie-breaks described below), so
   the merged outcome does not depend on worker scheduling.

Determinism guarantees
----------------------

* **Verdicts are identical to the serial path.** A sweep obligation is
  REFUTED iff some shard refutes it, and the shards jointly cover the
  same states the serial sweep covers; the merged counterexample is the
  one whose state comes first in the serial iteration order (ties cannot
  occur — shards are disjoint), i.e. exactly the counterexample the
  serial checker reports. The merged transition graph equals the serial
  one key for key (a state's successor set is a pure function of policy
  and parameters), and the graph algorithms in
  :meth:`~repro.verify.model_checker.ModelChecker.analyze_graph` iterate
  in sorted state order — so lassos, exact worst-case ``N``, and
  state-space sizes are byte-identical to a single-process run.
* **`states_checked` differs only on refuted sweeps.** The serial
  checker stops at the first counterexample of the whole scope; each
  shard stops at the first counterexample of its own chunk, so the
  merged sum can exceed the serial count. Proved obligations sweep
  everything in both modes and report identical counts.
* **Campaigns derive one seed per worker**
  (:func:`derive_campaign_seed`), so a campaign's coverage depends on
  ``jobs`` — but is reproducible for a fixed ``(seed, jobs)`` pair, and
  every violation found is a genuine counterexample regardless of which
  worker found it. Shard reports merge by summation in shard order.
* **Merged timings are approximations**: ``elapsed_s`` of a merged
  result is the maximum across shards (the parallel wall-clock), not a
  sum of CPU time.

Usage
-----

``python -m repro verify <policy> --jobs 4`` (also ``hunt``, ``zoo``,
``campaign``) or programmatically::

    from repro.verify.parallel import prove_work_conserving_parallel
    cert = prove_work_conserving_parallel(policy, scope, jobs=4)

``jobs <= 0`` means "one worker per available CPU"; ``jobs=1`` (the
default everywhere) bypasses the pool entirely and is the serial path.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import multiprocessing.context
import os
import pickle
from dataclasses import dataclass, field, replace
from typing import Callable

from repro.core.policy import Policy
from repro.topology.numa import NumaTopology
from repro.verify.campaign import CampaignConfig, CampaignReport, run_campaign
from repro.verify.enumeration import (
    LoadState,
    StateScope,
    iter_states_chunk,
)
from repro.verify.hierarchical import HierarchySpec, build_checker
from repro.verify.lemmas import (
    check_choice_irrelevance,
    check_filter_soundness,
    check_lemma1,
    check_steal_soundness,
)
from repro.verify.encoding import PackedState, StateCodec
from repro.verify.model_checker import (
    ModelChecker,
    PackedGraph,
    TransitionGraph,
    WorkConservationAnalysis,
    bfs_closure,
)
from repro.verify.obligations import (
    ProofReport,
    ProofResult,
    ProofStatus,
    timed_check,
)
from repro.verify.potential import (
    check_potential_decrease,
    max_potential,
    min_observed_decrease,
)
from repro.verify.symmetry import SymmetryGroup, resolve_symmetry
from repro.verify.transition import DEFAULT_MAX_ORDERS
from repro.verify.work_conservation import (
    WorkConservationCertificate,
    prove_work_conserving,
)

#: Obligation keys swept by the state-sweep worker, in pipeline order.
SWEEP_OBLIGATION_KEYS = (
    "lemma1",
    "filter_soundness",
    "steal_soundness",
    "choice_irrelevance",
    "potential_decrease",
)


def resolve_jobs(jobs: int | None) -> int:
    """Normalise a ``--jobs`` value: ``None``/``1`` serial, ``<= 0`` all CPUs."""
    if jobs is None:
        return 1
    if jobs <= 0:
        return os.cpu_count() or 1
    return jobs


def _pool_context() -> multiprocessing.context.BaseContext:
    """Prefer ``fork`` (cheap, shares the loaded modules) when available.

    Falls back to ``spawn`` and finally the platform default, so runners
    without ``fork`` (macOS with the 3.8+ default, Windows) degrade to a
    slower-starting pool instead of crashing.
    """
    methods = multiprocessing.get_all_start_methods()
    for method in ("fork", "spawn"):
        if method in methods:
            try:
                return multiprocessing.get_context(method)
            except ValueError:  # platform advertises but refuses it
                continue
    return multiprocessing.get_context()


class PolicyReplicator:
    """A picklable zero-argument policy factory.

    Clones a template policy by round-tripping it through :mod:`pickle`,
    so the parallel campaign can ship one factory to every worker even
    when the caller's own factory is an unpicklable closure (the CLI's
    is). Each call returns a fresh, independent instance — policies may
    hold RNG state, and clones must not share it with the template.
    """

    def __init__(self, template: Policy) -> None:
        self._blob = pickle.dumps(template)

    def __call__(self) -> Policy:
        return pickle.loads(self._blob)


# ---------------------------------------------------------------------------
# shard specifications and workers (module-level: must be picklable)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ShardSpec:
    """Everything one worker needs to sweep its shard.

    Attributes:
        policy: the policy under verification (pickled to the worker).
        scope: the full verification scope; the worker derives its chunk
            from ``(shard, n_shards)``.
        shard: this worker's shard index, in ``[0, n_shards)``.
        n_shards: total number of shards.
        choice_mode: forwarded to the model checker.
        max_orders: forwarded to the model checker.
        symmetric: legacy flat-group flag; forwarded to the model
            checker and, with ``symmetry``, selects the representative
            chunk iterator for the liveness sweeps.
        sequential: §4.2 regime flag for exploration workers.
        symmetry: explicit symmetry group quotienting the liveness
            sweeps (overrides ``symmetric``).
        topology: machine layout for node-aware snapshot views.
    """

    policy: Policy
    scope: StateScope
    shard: int
    n_shards: int
    choice_mode: str = "all"
    max_orders: int = DEFAULT_MAX_ORDERS
    symmetric: bool = False
    sequential: bool = False
    symmetry: SymmetryGroup | None = None
    topology: NumaTopology | None = None


@dataclass
class SweepShardResult:
    """One shard's share of the five state-sweep obligations.

    Attributes:
        results: obligation key -> per-shard :class:`ProofResult`.
        min_decrease: shard-local :func:`min_observed_decrease`
            (``None`` when no steal was admissible in the chunk).
        max_potential: shard-local maximum of ``d`` (``None`` for an
            empty chunk) — merged by ``max`` to derive the certificate's
            round bound without a second global sweep.
    """

    results: dict[str, ProofResult] = field(default_factory=dict)
    min_decrease: int | None = None
    max_potential: int | None = None


@dataclass
class LivenessShardResult:
    """One shard's share of the model-checking obligations.

    Attributes:
        progress: per-shard progress obligation result.
        closure: per-shard good-state-closure obligation result.
    """

    progress: ProofResult
    closure: ProofResult


def _chunk(spec: ShardSpec) -> list[LoadState]:
    """The shard's chunk of the (plain) lexicographic enumeration."""
    return list(iter_states_chunk(spec.scope, spec.shard, spec.n_shards))


def _initial_chunk(spec: ShardSpec) -> list[LoadState]:
    """The shard's chunk of the model checker's initial-state sweep."""
    group = resolve_symmetry(spec.symmetric, spec.symmetry)
    return list(group.iter_representatives_chunk(
        spec.scope, spec.shard, spec.n_shards
    ))


def sweep_shard_worker(spec: ShardSpec) -> SweepShardResult:
    """Run the five state-sweep obligations over one shard's chunk."""
    chunk = _chunk(spec)
    out = SweepShardResult()
    out.results["lemma1"] = check_lemma1(spec.policy, spec.scope, chunk)
    out.results["filter_soundness"] = check_filter_soundness(
        spec.policy, spec.scope, chunk
    )
    out.results["steal_soundness"] = check_steal_soundness(
        spec.policy, spec.scope, chunk
    )
    out.results["choice_irrelevance"] = check_choice_irrelevance(
        spec.policy, spec.scope, chunk
    )
    out.results["potential_decrease"] = check_potential_decrease(
        spec.policy, spec.scope, chunk
    )
    out.min_decrease = min_observed_decrease(spec.policy, spec.scope, chunk)
    out.max_potential = max_potential(spec.scope, chunk)
    return out


def liveness_shard_worker(spec: ShardSpec) -> LivenessShardResult:
    """Run progress and good-state closure over one shard's chunk.

    Uses the per-process checker installed by :func:`_init_worker` when
    running inside the engine's pool (its branch/successor memos then
    carry over into the BFS expansion phase); builds a private checker
    when called directly.
    """
    checker = _worker_checker(spec)
    chunk = _initial_chunk(spec)
    progress = checker.check_progress(spec.scope, chunk)
    closure = checker.check_good_state_closure(spec.scope, chunk)
    return LivenessShardResult(progress=progress, closure=closure)


#: Per-process state installed by :func:`_init_worker` (one checker per
#: pool worker; its transition memos persist across all tasks the worker
#: serves, including every BFS expansion level).
_WORKER_CHECKER: ModelChecker | None = None


def _init_worker(policy: Policy | None, choice_mode: str, max_orders: int,
                 symmetric: bool,
                 symmetry: SymmetryGroup | None = None,
                 topology: NumaTopology | None = None,
                 hierarchy: HierarchySpec | None = None) -> None:
    """Pool initializer: build this worker process's memoized checker."""
    global _WORKER_CHECKER
    _WORKER_CHECKER = build_checker(
        policy, choice_mode=choice_mode, max_orders=max_orders,
        symmetric=symmetric, symmetry=symmetry, topology=topology,
        hierarchy=hierarchy,
    )


def _worker_checker(spec: ShardSpec) -> ModelChecker:
    """The pool-installed checker, or a private one outside the pool."""
    if _WORKER_CHECKER is not None:
        return _WORKER_CHECKER
    return build_checker(
        spec.policy, choice_mode=spec.choice_mode,
        max_orders=spec.max_orders, symmetric=spec.symmetric,
        symmetry=spec.symmetry, topology=spec.topology,
    )


def expand_states_worker(
    args: tuple[StateCodec, list[PackedState], bool],
) -> tuple[PackedGraph, bool]:
    """Expand one packed BFS chunk: successors of each state.

    Runs inside the engine's pool (requires :func:`_init_worker`). The
    chunk's states were never expanded before — the parent's frontier
    bookkeeping guarantees global exactly-once expansion, which is what
    makes the BFS scale where naive closure-per-shard exploration would
    re-explore overlapping reachable sets in every worker. States
    travel packed (:mod:`repro.verify.encoding`) and the result graph
    stays packed; the parent decodes once at the end of the closure.
    """
    codec, states, sequential = args
    assert _WORKER_CHECKER is not None, "pool must install the checker"
    return _WORKER_CHECKER.expand_packed(states, codec,
                                         sequential=sequential)


def campaign_shard_worker(
    args: tuple[PolicyReplicator, CampaignConfig],
) -> CampaignReport:
    """Run one worker's slice of a randomised campaign."""
    replicator, config = args
    return run_campaign(replicator, config)


# ---------------------------------------------------------------------------
# reducers (deterministic, order-independent)
# ---------------------------------------------------------------------------


def merge_proof_results(
    shards: list[ProofResult],
    order_key: "Callable[[tuple[int, ...]], tuple[int, ...]] | None" = None,
) -> ProofResult:
    """Merge per-shard results of one obligation into the scope result.

    REFUTED dominates; among refuting shards the counterexample whose
    state comes first in the serial iteration order wins. ``order_key``
    is the symmetry group's
    :meth:`~repro.verify.symmetry.SymmetryGroup.serial_order_key`
    (``None`` means the plain ascending lexicographic order of
    :func:`~repro.verify.enumeration.iter_states`, i.e. the trivial
    group). Because shards partition the scope and each reports the
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
            state = tuple(result.counterexample.state)
            return state if order_key is None else order_key(state)

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


def merge_graphs(
    graphs: list[tuple[TransitionGraph, bool]],
) -> tuple[TransitionGraph, bool]:
    """Union per-shard transition graphs.

    Sound because a state's successor set is a pure function of
    (policy, state, checker parameters): two shards reaching the same
    state computed identical edges, so dict union is conflict-free and
    the result equals the serial exploration of the whole scope.
    """
    edges: TransitionGraph = {}
    truncated = False
    for shard_edges, shard_truncated in graphs:
        edges.update(shard_edges)
        truncated = truncated or shard_truncated
    return edges, truncated


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


def derive_campaign_seed(seed: int, shard: int) -> int:
    """Worker ``shard``'s campaign seed, derived from the master seed.

    A fixed affine mix (golden-ratio increment) keeps worker streams
    disjoint in practice while remaining reproducible for a given
    ``(seed, shard)`` pair.
    """
    return (seed * 1_000_003 + 0x9E3779B9 * (shard + 1)) % (2 ** 63)


# ---------------------------------------------------------------------------
# the engine-agnostic core: spec generation, BFS, certificate assembly
# ---------------------------------------------------------------------------
#
# Everything below `drivers` dispatches work through either a
# multiprocessing pool (this module) or a coordinator over remote
# workers (repro.verify.distributed). The two engines share this core:
# the same shard specs, the same frontier-exchange BFS (``bfs_closure``,
# which lives in repro.verify.model_checker because the serial checker
# runs it too, parameterised on "map these chunks to (edges, truncated)
# pairs"), and the same certificate assembly over the merged shard results — which is what
# guarantees their verdicts are byte-identical to each other and to the
# serial path.


def make_shard_specs(policy: Policy, scope: StateScope, n_shards: int,
                     choice_mode: str = "all",
                     max_orders: int = DEFAULT_MAX_ORDERS,
                     symmetric: bool = False,
                     sequential: bool = False,
                     symmetry: SymmetryGroup | None = None,
                     topology: NumaTopology | None = None,
                     ) -> list[ShardSpec]:
    """One :class:`ShardSpec` per shard, covering ``scope`` exactly."""
    return [
        ShardSpec(
            policy=policy, scope=scope, shard=shard, n_shards=n_shards,
            choice_mode=choice_mode, max_orders=max_orders,
            symmetric=symmetric, sequential=sequential,
            symmetry=symmetry, topology=topology,
        )
        for shard in range(n_shards)
    ]


def partition_of(packed: PackedState, codec: StateCodec,
                 n_partitions: int) -> int:
    """The hash partition a canonical packed state belongs to.

    The asynchronous distributed engine owns each reachable state at
    exactly one partition, chosen here. Two properties matter:

    * **Seed-independent.** The hash is blake2b over the state's
      canonical byte form — never the builtin ``hash()``, which
      ``PYTHONHASHSEED`` perturbs per process; workers and coordinator
      must agree on ownership across process and host boundaries.
    * **Form-stable.** ``StateCodec.canonical_bytes`` re-serialises the
      int form as fixed-length big-endian, which is byte-for-byte the
      codec's bytes form, so a state maps to the same partition whether
      the scope packed into an ``int`` or ``bytes``
      (property-tested in ``tests/verify/test_async_partition.py``).
    """
    digest = hashlib.blake2b(
        codec.canonical_bytes(packed), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big") % n_partitions


def assemble_certificate(
    policy: Policy,
    sweep_shards: list[SweepShardResult],
    live_shards: list[LivenessShardResult],
    analysis: WorkConservationAnalysis,
    symmetric: bool = False,
    symmetry: SymmetryGroup | None = None,
) -> WorkConservationCertificate:
    """Merge per-shard results into the full §4 certificate.

    The merge core both engines end on: sweep obligations merge with
    :func:`merge_proof_results`, the liveness obligations likewise (in
    the symmetry group's representative-enumeration order, so the merged
    counterexample is the serial sweep's), and the potential bound is
    derived from the shard-local ``min_decrease``/``max_potential``
    extrema — no second global sweep.
    """
    group = resolve_symmetry(symmetric, symmetry)
    report = ProofReport(policy_name=policy.name)
    for key in SWEEP_OBLIGATION_KEYS:
        report.add(merge_proof_results(
            [shard.results[key] for shard in sweep_shards]
        ))
    report.add(merge_proof_results(
        [shard.progress for shard in live_shards],
        order_key=group.serial_order_key,
    ))
    report.add(merge_proof_results(
        [shard.closure for shard in live_shards],
        order_key=group.serial_order_key,
    ))
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


def make_campaign_tasks(
    policy_factory, config: CampaignConfig, jobs: int,
) -> list[tuple[PolicyReplicator, CampaignConfig]]:
    """Split a campaign into per-worker ``(replicator, slice)`` tasks.

    The machine budget is split as evenly as possible (the first
    ``n_machines % jobs`` workers take one extra machine); worker ``i``
    fuzzes with seed :func:`derive_campaign_seed` ``(config.seed, i)``.
    Both the pool and the distributed engine build their task lists here,
    so a campaign's coverage is a function of ``(seed, worker count)``
    alone — not of which engine ran it.
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


# ---------------------------------------------------------------------------
# drivers
# ---------------------------------------------------------------------------


def _explore_bfs(pool, jobs: int, initial_states, symmetric: bool,
                 sequential: bool,
                 symmetry: SymmetryGroup | None = None,
                 on_level: "Callable[[int, int, int], None] | None" = None,
                 ) -> tuple[TransitionGraph, bool]:
    """Pool-backed :func:`bfs_closure`: chunks map onto worker processes."""
    def map_expand(codec, chunks, seq):
        return pool.map(expand_states_worker,
                        [(codec, chunk, seq) for chunk in chunks])

    return bfs_closure(map_expand, jobs, initial_states, symmetric,
                       sequential=sequential, symmetry=symmetry,
                       on_level=on_level)


def prove_work_conserving_parallel(
    policy: Policy, scope: StateScope, jobs: int | None = None,
    choice_mode: str = "all", max_orders: int = DEFAULT_MAX_ORDERS,
    symmetric: bool = False,
    symmetry: SymmetryGroup | None = None,
    topology: NumaTopology | None = None,
    on_level: "Callable[[int, int, int], None] | None" = None,
) -> WorkConservationCertificate:
    """The full §4 pipeline of :func:`prove_work_conserving`, sharded.

    With ``jobs`` workers the scope is split into ``jobs`` round-robin
    shards; every sweep runs chunk-local in the pool and the per-shard
    results are merged as described in the module docstring. Verdicts —
    per-obligation statuses, the model checker's lasso / exact ``N``, the
    potential bound, and ``proved`` — are identical to the serial path.

    ``jobs=None``/``1`` delegates to the serial implementation.
    """
    jobs = resolve_jobs(jobs)
    if jobs <= 1:
        return prove_work_conserving(
            policy, scope, choice_mode=choice_mode,
            max_orders=max_orders, symmetric=symmetric,
            symmetry=symmetry, topology=topology,
        )

    group = resolve_symmetry(symmetric, symmetry)
    specs = make_shard_specs(policy, scope, jobs, choice_mode, max_orders,
                             symmetric, symmetry=symmetry,
                             topology=topology)
    ctx = _pool_context()
    checker = ModelChecker(
        policy, choice_mode=choice_mode, max_orders=max_orders,
        symmetric=symmetric, symmetry=symmetry, topology=topology,
    )
    with ctx.Pool(
        processes=jobs, initializer=_init_worker,
        initargs=(policy, choice_mode, max_orders, symmetric, symmetry,
                  topology),
    ) as pool:
        sweep_shards = pool.map(sweep_shard_worker, specs)
        live_shards = pool.map(liveness_shard_worker, specs)
        with timed_check() as timer:
            initial = group.iter_representatives(scope)
            edges, truncated = _explore_bfs(
                pool, jobs, initial, symmetric, sequential=False,
                symmetry=symmetry, on_level=on_level,
            )
            analysis = checker.analyze_graph(scope, edges, truncated)
    analysis.elapsed_s = timer.elapsed

    return assemble_certificate(policy, sweep_shards, live_shards, analysis,
                                symmetric=symmetric, symmetry=symmetry)


def analyze_parallel(policy: Policy | None, scope: StateScope,
                     jobs: int | None = None, choice_mode: str = "all",
                     max_orders: int = DEFAULT_MAX_ORDERS,
                     symmetric: bool = False, sequential: bool = False,
                     symmetry: SymmetryGroup | None = None,
                     topology: NumaTopology | None = None,
                     hierarchy: HierarchySpec | None = None,
                     on_level: "Callable[[int, int, int], None] | None" = None,
                     ) -> WorkConservationAnalysis:
    """Sharded :meth:`~repro.verify.model_checker.ModelChecker.analyze`.

    Workers explore disjoint chunks of the initial states; the parent
    unions the transition graphs and runs the (cheap, deterministic)
    lasso/worst-case algorithms once — the ``hunt`` CLI path. Passing a
    :class:`~repro.verify.hierarchical.HierarchySpec` model-checks the
    two-level hierarchical round instead of the flat one (``policy`` is
    then ignored).
    """
    jobs = resolve_jobs(jobs)
    checker = build_checker(
        policy, choice_mode=choice_mode, max_orders=max_orders,
        symmetric=symmetric, symmetry=symmetry, topology=topology,
        hierarchy=hierarchy,
    )
    if jobs <= 1:
        return checker.analyze(scope, sequential=sequential)
    group = resolve_symmetry(symmetric, symmetry)
    ctx = _pool_context()
    with timed_check() as timer:
        with ctx.Pool(
            processes=jobs, initializer=_init_worker,
            initargs=(policy, choice_mode, max_orders, symmetric, symmetry,
                      topology, hierarchy),
        ) as pool:
            initial = group.iter_representatives(scope)
            edges, truncated = _explore_bfs(
                pool, jobs, initial, symmetric, sequential=sequential,
                symmetry=symmetry, on_level=on_level,
            )
        analysis = checker.analyze_graph(
            scope, edges, truncated, sequential=sequential
        )
    analysis.elapsed_s = timer.elapsed
    return analysis


def run_campaign_parallel(policy_factory, config: CampaignConfig | None = None,
                          jobs: int | None = None) -> CampaignReport:
    """Fan a randomised campaign across workers, one derived seed each.

    The machine budget is split as evenly as possible (the first
    ``n_machines % jobs`` workers take one extra machine); worker ``i``
    fuzzes with seed :func:`derive_campaign_seed` ``(config.seed, i)``.
    Coverage therefore depends on ``jobs``, but any fixed ``(seed,
    jobs)`` pair reproduces exactly, and merged totals count every
    machine/round/steal once.
    """
    config = config or CampaignConfig()
    jobs = resolve_jobs(jobs)
    if jobs <= 1:
        return run_campaign(policy_factory, config)
    tasks = make_campaign_tasks(policy_factory, config, jobs)
    ctx = _pool_context()
    with ctx.Pool(processes=len(tasks)) as pool:
        shard_reports = pool.map(campaign_shard_worker, tasks)
    return merge_campaign_reports(shard_reports)
