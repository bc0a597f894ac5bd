"""Shard tasks and the one runtime that executes them.

Every engine runs the §4 pipeline as lists of shard tasks; the engines
differ only in *where* a list runs — in this process, on a
:mod:`multiprocessing` pool, or on remote workers through
:meth:`repro.verify.distributed.Coordinator.map`. This module holds the
task payloads and :class:`WorkerRuntime`, which executes them in all
three places:

* :class:`SweepTask` — the state-sweep obligations (Lemma1, filter
  soundness, steal soundness, choice irrelevance, potential decrease)
  over one shard's chunk of :func:`~repro.verify.enumeration.iter_states`,
  as one array pass over the kernel's tables where the config's checker
  has a kernel for them (:func:`sweep_shard`);
* :class:`LivenessTask` — progress and good-state closure over one
  shard's chunk of the symmetry group's representatives;
* :class:`ExpandTask` — one packed BFS frontier chunk;
* :class:`CampaignTask` — one slice of a randomised campaign;
* :class:`PartitionExpandTask` / :class:`PartitionControlTask` — the
  distributed engine's async hash-partitioned exploration.

The runtime keeps one memoized checker per :class:`CheckerConfig`, so a
proof's liveness task and its expand tasks share branch, successor and
kernel memos wherever they run.
"""

from __future__ import annotations

import hashlib
import os
import pickle
from dataclasses import dataclass, field, replace
from typing import Any, Callable

import numpy as np

from repro.core.errors import VerificationError
from repro.core.policy import Policy
from repro.obs.trace import TRACER, spans_to_payload, trace_clock
from repro.topology.numa import NumaTopology
from repro.verify.campaign import CampaignConfig, run_campaign
from repro.verify.encoding import PackedState, StateCodec
from repro.verify.enumeration import LoadState, StateScope, iter_states_chunk
from repro.verify.hierarchical import HierarchySpec, build_checker
from repro.verify.kernel import TransitionKernel
from repro.verify.lemmas import (
    as_choice_irrelevance,
    check_filter_soundness,
    check_lemma1,
    check_steal_soundness,
)
from repro.verify.model_checker import ModelChecker
from repro.verify.obligations import (
    FILTER_SOUNDNESS,
    LEMMA1,
    POTENTIAL_DECREASE,
    STEAL_SOUNDNESS,
    Obligation,
    ProofResult,
    ProofStatus,
    timed_check,
)
from repro.verify.potential import check_potential_decrease, sweep_potential
from repro.verify.symmetry import SymmetryGroup, TrivialGroup
from repro.verify.transition import DEFAULT_MAX_ORDERS
from repro.verify.wire import WireProtocolError


class PolicyReplicator:
    """A picklable zero-argument policy factory.

    Clones a template policy by round-tripping it through :mod:`pickle`,
    so a sharded campaign can ship one factory to every worker even
    when the caller's own factory is an unpicklable closure (the CLI's
    is). Each call returns a fresh, independent instance — policies may
    hold RNG state, and clones must not share it with the template.
    """

    def __init__(self, template: Policy) -> None:
        self._blob = pickle.dumps(template)

    def __call__(self) -> Policy:
        return pickle.loads(self._blob)


@dataclass(frozen=True)
class CheckerConfig:
    """Everything needed to build a model checker.

    Runtimes cache one memoized :class:`~repro.verify.model_checker.
    ModelChecker` per distinct config, so the branch/successor memos
    survive across every task of a proof.

    Attributes:
        policy: the policy under verification (``None`` for hierarchical
            checking, where ``hierarchy`` defines the round).
        choice_mode: forwarded to the model checker.
        max_orders: forwarded to the model checker.
        symmetry: the symmetry group the checker quotients by.
        topology: machine layout for node-aware snapshot views.
        hierarchy: when given, the checker is a
            :class:`~repro.verify.hierarchical.HierarchicalModelChecker`
            instead of the flat one.
    """

    policy: Policy | None
    choice_mode: str = "all"
    max_orders: int = DEFAULT_MAX_ORDERS
    symmetry: SymmetryGroup = TrivialGroup()
    topology: NumaTopology | None = None
    hierarchy: HierarchySpec | None = None

    def cache_key(self) -> bytes:
        """Stable-enough key for a runtime's per-config checker cache.

        A miss only costs a fresh (empty-memo) checker; correctness never
        depends on hits.
        """
        return pickle.dumps(self)

    def build(self) -> ModelChecker:
        """A fresh checker for this config.

        Raises:
            VerificationError: an unsound parameter combination.
        """
        return build_checker(
            self.policy, choice_mode=self.choice_mode,
            max_orders=self.max_orders, symmetry=self.symmetry,
            topology=self.topology,
            hierarchy=self.hierarchy,
        )


@dataclass(frozen=True)
class ShardSpec:
    """One shard of a proof's state sweeps.

    Attributes:
        config: the proof's checker parameters.
        scope: the full verification scope; the shard derives its chunk
            from ``(shard, n_shards)``.
        shard: this shard's index, in ``[0, n_shards)``.
        n_shards: total number of shards.
    """

    config: CheckerConfig
    scope: StateScope
    shard: int
    n_shards: int


@dataclass
class SweepShardResult:
    """One shard's share of the five state-sweep obligations.

    Attributes:
        results: obligation key -> per-shard :class:`ProofResult`.
        min_decrease: shard-local minimum decrease of ``d`` (``None``
            when no steal was admissible in the chunk).
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


# ---------------------------------------------------------------------------
# task payloads
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepTask:
    """Run the state-sweep obligations over one shard's chunk.

    ``trace`` (and on every other work-carrying task): ask a remote
    worker to record spans while executing and ship them back wrapped
    in :class:`TracedResult`. Strictly observational — the inner result
    is byte-identical either way.
    """

    spec: ShardSpec
    trace: bool = False


@dataclass(frozen=True)
class LivenessTask:
    """Run progress and good-state closure over one shard's chunk."""

    spec: ShardSpec
    trace: bool = False


@dataclass(frozen=True)
class ExpandTask:
    """Expand one packed BFS frontier chunk: successors of each state.

    Attributes:
        config: checker parameters (runtimes memoize per config).
        codec: the closure's :class:`~repro.verify.encoding.StateCodec`.
        packed: the chunk of never-before-expanded frontier states,
            packed under ``codec``.
        trace: ship worker spans back (see :class:`SweepTask`).
    """

    config: CheckerConfig
    codec: StateCodec
    packed: tuple[PackedState, ...] = ()
    trace: bool = False


@dataclass(frozen=True)
class CampaignTask:
    """Run one worker's slice of a randomised campaign.

    Attributes:
        replicator: picklable policy factory.
        config: this slice's machine budget and derived seed.
    """

    replicator: PolicyReplicator
    config: CampaignConfig = field(default_factory=CampaignConfig)
    trace: bool = False


@dataclass(frozen=True)
class PartitionExpandTask:
    """Asynchronously drain one hash partition's pending states.

    Unlike :class:`ExpandTask` (one chunk of a coordinator-owned BFS
    level), a partition task makes the *worker* own exploration state:
    the worker keeps a visited set per ``(run_id, partition)``, expands
    the batch *transitively* — same-partition successors never leave
    the worker — and streams cross-partition successors back to the
    coordinator as :class:`ForwardBatch` frames while it is still
    computing, so the coordinator can route them to other workers with
    no level barrier in between.

    Attributes:
        config: checker parameters (workers memoize per config).
        codec: the run's :class:`~repro.verify.encoding.StateCodec`.
        run_id: namespaces the worker-side visited sets; one proof run.
        partition: which hash partition this batch belongs to.
        n_partitions: the run's fixed partition count (the hash
            modulus; fixed at run start, never renegotiated).
        batch: never-before-routed states of ``partition``, packed.
        trace: ship worker spans back (see :class:`SweepTask`).
    """

    config: CheckerConfig
    codec: StateCodec
    run_id: str
    partition: int
    n_partitions: int
    batch: tuple[PackedState, ...] = ()
    trace: bool = False


@dataclass(frozen=True)
class PartitionControlTask:
    """Seed or drop worker-side partition state.

    Sent when a partition migrates (work stealing, worker loss, a late
    join) or when a run finishes:

    * ``op="seed"`` — replace the worker's visited set for ``(run_id,
      partition)`` with ``visited`` (the states the coordinator has
      already merged edges for), so the new owner never re-expands
      finished work;
    * ``op="drop-run"`` — forget every partition of ``run_id`` (end of
      run cleanup; ``partition`` is ignored).
    """

    run_id: str
    op: str
    partition: int = -1
    visited: tuple[PackedState, ...] = ()


@dataclass(frozen=True)
class PartitionExpandResult:
    """What a :class:`PartitionExpandTask` answers with.

    Attributes:
        partition: echoes the task's partition.
        edges: packed successor map of every state this task expanded —
            the batch plus all same-partition states discovered while
            draining it (all keys hash to ``partition``).
        truncated: whether any enumeration was truncated.
        forwards: cross-partition successors *not* already streamed as
            :class:`ForwardBatch` frames (transports without a mid-task
            channel fall back to returning them here), keyed by target
            partition.
    """

    partition: int
    edges: dict[PackedState, frozenset[PackedState]]
    truncated: bool = False
    forwards: dict[int, tuple[PackedState, ...]] = field(
        default_factory=dict
    )


@dataclass(frozen=True)
class ForwardBatch:
    """One mid-task forwarding frame: cross-partition successors.

    Emitted by a worker while a :class:`PartitionExpandTask` is still
    running, so forwarding pipelines with expansion instead of waiting
    for the task result.

    Attributes:
        run_id: the run the states belong to.
        partition: the source partition (the one being drained).
        targets: successor states grouped by their target partition.
    """

    run_id: str
    partition: int
    targets: dict[int, tuple[PackedState, ...]] = field(
        default_factory=dict
    )


@dataclass(frozen=True)
class TracedResult:
    """A task result with the worker's captured spans riding along.

    Workers answer a ``trace=True`` task with their ordinary result
    wrapped in this envelope; the coordinator unwraps it at the single
    point results re-enter the merge path, ingesting the spans with a
    clock-offset rebase (see :meth:`repro.obs.trace.Tracer.ingest`) so
    reducers only ever see the inner value.

    Attributes:
        value: the unmodified task result.
        spans: the worker's spans in dict form
            (:func:`repro.obs.trace.spans_to_payload`).
        clock: the worker's monotonic-clock reading at packaging time —
            the coordinator's offset anchor.
        pid: the worker's OS pid, for trace process attribution.
    """

    value: Any
    spans: tuple[dict[str, Any], ...] = ()
    clock: float = 0.0
    pid: int = -1


#: Task payload types :class:`WorkerRuntime` accepts; anything else in
#: a task message is a protocol error.
TASK_TYPES = (SweepTask, LivenessTask, ExpandTask, CampaignTask,
              PartitionExpandTask, PartitionControlTask)


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


def sweep_shard(spec: ShardSpec,
                kernel: TransitionKernel | None) -> SweepShardResult:
    """The five state-sweep obligations over one shard's chunk.

    Given a kernel (:meth:`~repro.verify.model_checker.ModelChecker.
    sweep_kernel`), one array pass over the chunk's load matrix checks
    them all (:func:`_fused_sweep`); without one, the four tuple loops of
    :mod:`~repro.verify.lemmas` and :mod:`~repro.verify.potential` do.
    Either way choice irrelevance is the steal-soundness result
    relabelled, and the potential sweep also yields the extrema of the
    certificate's bound.
    """
    policy, scope = spec.config.policy, spec.scope
    assert policy is not None, "state sweeps need a flat policy"
    chunk = list(iter_states_chunk(scope, spec.shard, spec.n_shards))
    with TRACER.span("checker.sweep", "obligation",
                     tier="tuple" if kernel is None else "numpy",
                     states=len(chunk)):
        if kernel is not None:
            return _fused_sweep(kernel, policy, scope, chunk)
        steal = check_steal_soundness(policy, scope, chunk)
        potential = sweep_potential(policy, scope, chunk)
        return SweepShardResult(
            results={
                "lemma1": check_lemma1(policy, scope, chunk),
                "filter_soundness": check_filter_soundness(policy, scope,
                                                           chunk),
                "steal_soundness": steal,
                "choice_irrelevance": as_choice_irrelevance(steal),
                "potential_decrease": potential.result,
            },
            min_decrease=potential.min_decrease,
            max_potential=potential.max_potential,
        )


#: Core pairs per block of the fused sweep: a block of states holds at
#: most this many admitted steals (``n * (n - 1)`` per state), which
#: bounds the post-steal load rows materialised at once.
_SWEEP_PAIRS = 1 << 17


def _fused_sweep(kernel: TransitionKernel, policy: Policy,
                 scope: StateScope,
                 chunk: list[LoadState]) -> SweepShardResult:
    """The state sweeps of ``chunk`` as one array pass over the kernel.

    Per state, each obligation gets what the tuple loop would add to
    ``states_checked`` and whether the state refutes it. A refuted
    obligation replays its tuple checker on the first refuting state
    only, so its counterexample and count are the tuple sweep's.
    """
    n = scope.n_cores
    loads_all = np.asarray(chunk, dtype=np.int64).reshape(-1, n)
    # Per state: what [lemma1, filter soundness, steal soundness and the
    # potential obligation] add to ``states_checked``, and whether the
    # state refutes [lemma1, filter, steal, potential].
    checked = np.zeros((3, len(chunk)), dtype=np.int64)
    refuted = np.zeros((4, len(chunk)), dtype=bool)
    decreases: list[int] = []
    peaks: list[int] = []
    coef = 2 * np.arange(n, dtype=np.int64) - (n - 1)
    block = max(1, _SWEEP_PAIRS // (n * n))
    with timed_check() as timer:
        for start in range(0, len(chunk), block):
            loads = loads_all[start:start + block]
            here = slice(start, start + len(loads))
            can, amount = kernel.admitted(loads)
            over = loads >= 2  # is_overloaded of a views_of view
            idle = loads == 0
            # Lemma1, at every idle thief: existence and completeness.
            refuted[0, here] = (idle & (
                (over.any(axis=1)[:, None] & ~can.any(axis=2))
                | (can & ~over[:, None, :]).any(axis=2)
            )).any(axis=1)
            # Filter soundness: an admitted victim has a ready task.
            refuted[1, here] = (can & (loads <= 1)[:, None, :]).any(
                axis=(1, 2))
            checked[0, here] = idle.sum(axis=1)
            checked[1, here] = n * (n - 1)
            checked[2, here] = can.sum(axis=(1, 2))
            # Every admitted steal, in the tuple loops' (state, thief,
            # victim) order.
            s, t, v = np.nonzero(can)
            owner = start + s
            lt, lv = loads[s, t], loads[s, v]
            moved = np.clip(np.minimum(amount[s, t, v], lv - 1), 0, None)
            new_t, new_v = lt + moved, lv - moved
            unsound = ((moved < 1) | (new_v == 0) | (new_t > new_v)
                       | (np.abs(new_v - new_t) >= np.abs(lv - lt)))
            refuted[2, owner[unsound]] = True
            d_before = 2 * (np.sort(loads, axis=1) @ coef)
            after = loads[s]
            rows = np.arange(len(s))
            after[rows, t] = new_t
            after[rows, v] = new_v
            d_after = 2 * (np.sort(after, axis=1) @ coef)
            refuted[3, owner[(moved == 0) | (d_after >= d_before[s])]] = True
            if len(s):
                decreases.append(int((d_before[s] - d_after).min()))
            peaks.append(int(d_before.max()))

    def settle(obligation: Obligation, row: int, flags: Any,
               check: Callable[[Policy, StateScope, list[LoadState]],
                               ProofResult]) -> ProofResult:
        """Proved when no state is flagged; otherwise the tuple
        ``check`` replays the first flagged state, and the states before
        it add their ``checked[row]`` counts to its ``states_checked``."""
        hits = np.flatnonzero(flags)
        if not hits.size:
            return ProofResult(
                obligation=obligation, policy_name=policy.name,
                status=ProofStatus.PROVED_AT_SCOPE, scope=scope.describe(),
                states_checked=int(checked[row].sum()),
                elapsed_s=timer.elapsed,
            )
        first = int(hits[0])
        replay = check(policy, scope, [chunk[first]])
        if replay.counterexample is None:
            raise VerificationError(
                f"{policy.name}: the transition kernel flagged state"
                f" {chunk[first]} for {obligation.key} but the tuple"
                " checker finds no counterexample"
            )
        return replace(replay, elapsed_s=timer.elapsed,
                       states_checked=int(checked[row, :first].sum())
                       + replay.states_checked)

    steal = settle(STEAL_SOUNDNESS, 2, refuted[2], check_steal_soundness)
    return SweepShardResult(
        results={
            "lemma1": settle(LEMMA1, 0, refuted[0], check_lemma1),
            "filter_soundness": settle(FILTER_SOUNDNESS, 1, refuted[1],
                                       check_filter_soundness),
            "steal_soundness": steal,
            "choice_irrelevance": as_choice_irrelevance(steal),
            # Every admitted steal counts for the potential obligation
            # too, so it shares steal soundness's counts.
            "potential_decrease": settle(POTENTIAL_DECREASE, 2, refuted[3],
                                         check_potential_decrease),
        },
        min_decrease=min(decreases, default=None),
        max_potential=max(peaks, default=None),
    )


# ---------------------------------------------------------------------------
# the runtime
# ---------------------------------------------------------------------------


class WorkerRuntime:
    """Executes shard tasks; the one task executor of every engine.

    The serial engine calls :meth:`run` on a :class:`LocalRuntime`, pool
    processes hold one runtime each and call :meth:`ship`, and remote
    workers (and in-process transports) call :meth:`execute` on the
    payloads the wire delivers. Whichever way a task arrives, the
    runtime keeps one memoized :class:`ModelChecker` per distinct
    :class:`CheckerConfig`, so a proof's liveness sweeps and every BFS
    level of its exploration hit warm transition caches.
    """

    def __init__(self) -> None:
        self._checkers: dict[Any, tuple[CheckerConfig, ModelChecker]] = {}
        # Async-mode visited sets, keyed (run_id, partition): the states
        # this worker has already expanded (or been seeded with) for a
        # partition it owns. Seeding REPLACES an entry wholesale — on
        # migration the coordinator knows exactly which states already
        # have merged edges, and stale local history must not survive.
        self._partitions: dict[tuple[str, int], set[PackedState]] = {}

    def _key(self, config: CheckerConfig) -> Any:
        """Configs decoded off a wire are fresh copies every task, so
        they are keyed by value."""
        return config.cache_key()

    def checker_for(self, config: CheckerConfig) -> ModelChecker:
        """The memoized checker for ``config``."""
        key = self._key(config)
        entry = self._checkers.get(key)
        if entry is None:
            # The entry holds the config, so an identity key cannot be
            # reused by another object while it is cached.
            entry = self._checkers[key] = (config, config.build())
        return entry[1]

    def execute(self, task: Any,
                emit: Callable[[ForwardBatch], None] | None = None) -> Any:
        """Run one task payload delivered over the wire.

        A ``trace=True`` task asks this worker to capture spans while
        executing and return them wrapped in :class:`TracedResult` — but
        only when this process's tracer is *off*, i.e. we really are a
        remote worker. In-process transports run inside the coordinator,
        where the tracer is already recording straight onto the merged
        timeline and wrapping would double-count.

        Args:
            task: a :data:`TASK_TYPES` payload.
            emit: mid-task frame sink (transports with a live back
                channel stream :class:`ForwardBatch` frames through it;
                without one, forwards ride home in the task result).

        Raises:
            WireProtocolError: payload is not a known task type.
        """
        if getattr(task, "trace", False) and not TRACER.enabled:
            TRACER.enable(worker=f"worker-pid-{os.getpid()}")
            try:
                value = self._execute(task, emit)
            finally:
                spans = TRACER.drain()
                TRACER.disable()
            return TracedResult(value=value,
                                spans=spans_to_payload(spans),
                                clock=trace_clock(), pid=os.getpid())
        return self._execute(task, emit)

    def _execute(self, task: Any,
                 emit: Callable[[ForwardBatch], None] | None) -> Any:
        with TRACER.span("worker." + type(task).__name__, "worker"):
            # A campaign's per-machine progress never crosses the wire.
            return self.ship(
                task, None if isinstance(task, CampaignTask) else emit
            )

    def ship(self, task: Any, emit: Callable[..., None] | None = None,
             ) -> Any:
        """:meth:`run`, answering in the form that crosses a process
        boundary: an expand task's flat successor array stays behind."""
        value = self.run(task, emit)
        return value[:2] if isinstance(task, ExpandTask) else value

    def run(self, task: Any, emit: Callable[..., None] | None = None,
            ) -> Any:
        """Run one task in this process.

        An :class:`ExpandTask` answers with all three results of
        :meth:`~repro.verify.model_checker.ModelChecker.expand_level`,
        so an in-process closure merges the level's flat successor
        array directly.

        Args:
            task: a :data:`TASK_TYPES` payload.
            emit: the task's progress sink: a partition task's
                :class:`ForwardBatch` frames, or a campaign task's
                ``(machines_done, violations_so_far)`` counts.

        Raises:
            WireProtocolError: payload is not a known task type.
        """
        if isinstance(task, SweepTask):
            return sweep_shard(task.spec, self.checker_for(
                task.spec.config).sweep_kernel(task.spec.scope))
        if isinstance(task, LivenessTask):
            return self._liveness(task.spec)
        if isinstance(task, ExpandTask):
            return self.checker_for(task.config).expand_level(
                task.packed, task.codec
            )
        if isinstance(task, PartitionExpandTask):
            return self._expand_partition(task, emit)
        if isinstance(task, PartitionControlTask):
            return self._control(task)
        if isinstance(task, CampaignTask):
            return run_campaign(task.replicator, task.config,
                                on_machine=emit)
        raise WireProtocolError(
            f"unknown task payload {type(task).__name__!r}"
        )

    def _liveness(self, spec: ShardSpec) -> LivenessShardResult:
        """Progress and good-state closure over one shard's chunk of the
        representatives, on the config's shared checker."""
        checker = self.checker_for(spec.config)
        chunk = list(checker.symmetry.iter_representatives_chunk(
            spec.scope, spec.shard, spec.n_shards
        ))
        return LivenessShardResult(
            progress=checker.check_progress(spec.scope, chunk),
            closure=checker.check_good_state_closure(spec.scope, chunk),
        )

    def _expand_partition(
        self, task: PartitionExpandTask,
        emit: Callable[[ForwardBatch], None] | None,
    ) -> PartitionExpandResult:
        """Drain one batch transitively inside its hash partition.

        Same-partition successors feed the next local chunk without
        touching the wire; cross-partition successors are streamed out
        as :class:`ForwardBatch` frames *between* chunks, so the
        coordinator routes them (and other workers expand them) while
        this worker is still computing. The per-partition visited set
        persists across tasks on the same connection, so later batches
        of the same partition never re-expand a state.
        """
        checker = self.checker_for(task.config)
        codec = task.codec
        visited = self._partitions.setdefault(
            (task.run_id, task.partition), set()
        )
        # A batch state may already be visited: the coordinator routes a
        # state the moment another partition forwards it, which can race
        # with this worker having discovered it locally.
        pending = {state for state in task.batch if state not in visited}
        edges: dict[PackedState, frozenset[PackedState]] = {}
        truncated = False
        forwards: dict[int, set[PackedState]] = {}
        forwarded: set[PackedState] = set()
        # blake2b routing runs once per *distinct* successor per task —
        # the flat successor stream is deduped per chunk and the
        # computed target memoized across chunks — instead of once per
        # edge occurrence.
        target_of: dict[PackedState, int] = {}
        while pending:
            chunk = tuple(sorted(pending))
            visited.update(chunk)
            chunk_edges, chunk_truncated, flat = checker.expand_level(
                chunk, codec
            )
            truncated = truncated or chunk_truncated
            edges.update(chunk_edges)
            pending = set()
            fresh: dict[int, set[PackedState]] = {}
            values = flat if isinstance(flat, list) else flat.tolist()
            for successor in set(values):
                target = target_of.get(successor)
                if target is None:
                    target = partition_of(successor, codec,
                                          task.n_partitions)
                    target_of[successor] = target
                if target == task.partition:
                    if successor not in visited:
                        pending.add(successor)
                elif successor not in forwarded:
                    forwarded.add(successor)
                    fresh.setdefault(target, set()).add(successor)
            if not fresh:
                continue
            if emit is not None:
                emit(ForwardBatch(
                    run_id=task.run_id, partition=task.partition,
                    targets={target: tuple(sorted(states))
                             for target, states in fresh.items()},
                ))
            else:
                for target, states in fresh.items():
                    forwards.setdefault(target, set()).update(states)
        return PartitionExpandResult(
            partition=task.partition,
            edges=edges,
            truncated=truncated,
            forwards={target: tuple(sorted(states))
                      for target, states in forwards.items()},
        )

    def _control(self, task: PartitionControlTask) -> bool:
        """Apply a partition lifecycle op; returns an ack."""
        if task.op == "seed":
            self._partitions[(task.run_id, task.partition)] = set(
                task.visited
            )
            return True
        if task.op == "drop-run":
            for key in [key for key in self._partitions
                        if key[0] == task.run_id]:
                del self._partitions[key]
            return True
        raise WireProtocolError(
            f"unknown partition control op {task.op!r}"
        )


class LocalRuntime(WorkerRuntime):
    """The serial engine's runtime: tasks built in this process.

    One config object recurs across a proof's tasks, so it is keyed by
    identity: nothing is pickled, and policies need not be picklable.
    """

    def _key(self, config: CheckerConfig) -> Any:
        return id(config)
