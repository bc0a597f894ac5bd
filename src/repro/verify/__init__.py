"""Verification of scheduler performance properties.

This package is the reproduction's stand-in for the paper's Leon
toolchain: bounded-exhaustive lemma checking (§4.2), explicit-state
model checking of the concurrent rounds (§4.3), the potential-function
termination certificate, and trace audits of concrete executions — all
composed by :func:`prove_work_conserving` into a certificate carrying an
explicit round bound ``N`` or a counterexample lasso.

The pipeline is written once (:mod:`repro.verify.work_conservation`):
the ``prove``, ``analyze`` and ``campaign`` drivers take a ``TaskMap``
that says where a request's shard tasks (:mod:`repro.verify.tasks`)
run, and merge per-shard results with deterministic reducers, so the
verdict is identical on every engine. The serial map is one in-process
shard (``local_tasks``); :func:`repro.verify.parallel.pool_tasks`
(``--jobs`` on the CLI) spreads the shards over a process pool;
:func:`repro.verify.distributed.coordinator_tasks` (``--distributed N``
/ ``--workers host:port,...``) sends them to remote workers over the
versioned wire protocol of :mod:`repro.verify.wire`, with
heartbeat/timeout, shard reassignment on worker loss, and a batched
frontier exchange per BFS level. See ``docs/distributed.md``.

Most callers pick an engine through :mod:`repro.api` instead
(``SerialEngine``, ``PoolEngine``, ``DistributedEngine``), which holds
the task map for them.
"""

from repro.verify.enumeration import (
    LoadState,
    StateScope,
    canonical,
    count_canonical_states,
    count_states,
    count_states_chunk,
    idle_cores_of,
    is_bad_state,
    iter_canonical_states,
    iter_canonical_states_chunk,
    iter_states,
    iter_states_chunk,
    overloaded_cores_of,
    snapshot_from_load,
    views_of,
)
from repro.verify.encoding import (
    INT_FORM_MAX_BITS,
    PackedState,
    StateCodec,
)
from repro.verify.kernel import (
    KERNEL_ENV,
    KERNEL_MODES,
    TransitionKernel,
    build_kernel,
    kernel_mode,
)
from repro.verify.lemmas import (
    check_choice_irrelevance,
    check_filter_soundness,
    check_lemma1,
    check_lemma1_weighted_states,
    check_steal_soundness,
    simulate_steal,
    single_heavy_thread_views,
)
from repro.verify.model_checker import (
    Lasso,
    ModelChecker,
    WorkConservationAnalysis,
)
from repro.verify.symmetry import (
    BlockSymmetryGroup,
    FlatSymmetryGroup,
    NumaSymmetryGroup,
    SymmetryGroup,
    TrivialGroup,
    symmetry_from_domains,
)
from repro.verify.obligations import (
    ALL_OBLIGATIONS,
    CHOICE_IRRELEVANCE,
    FAILURE_ATTRIBUTION,
    FILTER_SOUNDNESS,
    GOOD_STATE_CLOSURE,
    LEMMA1,
    POTENTIAL_DECREASE,
    PROGRESS,
    STEAL_SOUNDNESS,
    WORK_CONSERVATION,
    Counterexample,
    Obligation,
    ProofReport,
    ProofResult,
    ProofStatus,
)
from repro.verify.parallel import bfs_closure, resolve_jobs
from repro.verify.distributed import (
    Coordinator,
    InProcessTransport,
    LocalWorkerPool,
    SocketTransport,
    TaskFailed,
    WorkerLost,
    WorkerServer,
    connect_workers,
)
from repro.framing import WireProtocolError, parse_endpoint
from repro.verify.wire import (
    WIRE_VERSION,
    WireMessage,
    decode_message,
    encode_message,
)
from repro.verify.potential import (
    check_potential_decrease,
    max_potential,
    min_observed_decrease,
    potential,
    potential_after_steal,
    round_bound,
    steal_bound,
    worst_round_bound,
)
from repro.verify.trace_audit import (
    audit_failure_attribution,
    audit_load_conservation,
    audit_progress,
    failure_counts,
)
from repro.verify.transition import (
    AbstractAttempt,
    BranchEnumeration,
    RoundBranch,
    enumerate_round_branches,
    round_intents,
    successors,
)
from repro.verify.campaign import (
    CampaignConfig,
    CampaignReport,
    run_campaign,
)
from repro.verify.convergence import (
    BalanceHorizons,
    ConvergenceProfile,
    geometric_rate,
    potential_series,
    rounds_to_balance,
)
from repro.verify.hierarchical import (
    HierarchicalAnalysis,
    HierarchicalModelChecker,
    HierarchySpec,
    IntraGroupPolicy,
    analyze_hierarchical,
    build_checker,
    enumerate_hierarchical_round,
)
from repro.verify.refinement import (
    REFINEMENT,
    check_refinement,
)
from repro.verify.report import (
    ZooReport,
    default_zoo,
    topology_zoo,
    verify_zoo,
    zoo_lineup,
)
from repro.verify.reactivity import (
    REACTIVITY,
    ReactivityBound,
    audit_reactivity,
    derive_reactivity_bound,
)
from repro.verify.tasks import PolicyReplicator, WorkerRuntime
from repro.verify.work_conservation import (
    WorkConservationCertificate,
    assemble_certificate,
    derive_campaign_seed,
    make_campaign_tasks,
    make_shard_specs,
    merge_campaign_reports,
    merge_proof_results,
    prove_work_conserving,
)

__all__ = [
    "LoadState",
    "StateScope",
    "canonical",
    "count_canonical_states",
    "count_states",
    "count_states_chunk",
    "idle_cores_of",
    "is_bad_state",
    "iter_canonical_states",
    "iter_canonical_states_chunk",
    "iter_states",
    "iter_states_chunk",
    "overloaded_cores_of",
    "snapshot_from_load",
    "views_of",
    "INT_FORM_MAX_BITS",
    "PackedState",
    "StateCodec",
    "KERNEL_ENV",
    "KERNEL_MODES",
    "TransitionKernel",
    "build_kernel",
    "kernel_mode",
    "PolicyReplicator",
    "assemble_certificate",
    "bfs_closure",
    "derive_campaign_seed",
    "make_campaign_tasks",
    "make_shard_specs",
    "merge_campaign_reports",
    "merge_proof_results",
    "resolve_jobs",
    "Coordinator",
    "InProcessTransport",
    "LocalWorkerPool",
    "SocketTransport",
    "TaskFailed",
    "WorkerLost",
    "WorkerRuntime",
    "WorkerServer",
    "connect_workers",
    "parse_endpoint",
    "WIRE_VERSION",
    "WireMessage",
    "WireProtocolError",
    "decode_message",
    "encode_message",
    "check_choice_irrelevance",
    "check_filter_soundness",
    "check_lemma1",
    "check_lemma1_weighted_states",
    "check_steal_soundness",
    "simulate_steal",
    "single_heavy_thread_views",
    "Lasso",
    "ModelChecker",
    "WorkConservationAnalysis",
    "BlockSymmetryGroup",
    "FlatSymmetryGroup",
    "NumaSymmetryGroup",
    "SymmetryGroup",
    "TrivialGroup",
    "symmetry_from_domains",
    "ALL_OBLIGATIONS",
    "CHOICE_IRRELEVANCE",
    "FAILURE_ATTRIBUTION",
    "FILTER_SOUNDNESS",
    "GOOD_STATE_CLOSURE",
    "LEMMA1",
    "POTENTIAL_DECREASE",
    "PROGRESS",
    "STEAL_SOUNDNESS",
    "WORK_CONSERVATION",
    "Counterexample",
    "Obligation",
    "ProofReport",
    "ProofResult",
    "ProofStatus",
    "check_potential_decrease",
    "max_potential",
    "min_observed_decrease",
    "potential",
    "potential_after_steal",
    "round_bound",
    "steal_bound",
    "worst_round_bound",
    "audit_failure_attribution",
    "audit_load_conservation",
    "audit_progress",
    "failure_counts",
    "AbstractAttempt",
    "BranchEnumeration",
    "RoundBranch",
    "enumerate_round_branches",
    "round_intents",
    "successors",
    "CampaignConfig",
    "CampaignReport",
    "run_campaign",
    "BalanceHorizons",
    "ConvergenceProfile",
    "geometric_rate",
    "potential_series",
    "rounds_to_balance",
    "HierarchicalAnalysis",
    "HierarchicalModelChecker",
    "HierarchySpec",
    "IntraGroupPolicy",
    "analyze_hierarchical",
    "build_checker",
    "enumerate_hierarchical_round",
    "REFINEMENT",
    "check_refinement",
    "ZooReport",
    "default_zoo",
    "topology_zoo",
    "verify_zoo",
    "zoo_lineup",
    "REACTIVITY",
    "ReactivityBound",
    "audit_reactivity",
    "derive_reactivity_bound",
    "WorkConservationCertificate",
    "prove_work_conserving",
]
