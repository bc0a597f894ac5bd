"""Typed verification requests: what to verify, at what scope, on which engine.

A :class:`VerificationRequest` is the single value every entry point —
the CLI, declarative spec files, and programmatic callers — reduces to.
It is frozen (safe to share, hash by field, embed in results), validated
eagerly at construction, and deliberately built from *primitives only*
(policy name + parameters, topology spec string, engine spec): the
resolved objects (a :class:`~repro.core.policy.Policy` instance, a
:class:`~repro.topology.numa.NumaTopology`, a
:class:`~repro.verify.symmetry.SymmetryGroup`) are derived on demand by
:meth:`VerificationRequest.resolve`, so a request can be serialised
losslessly (see :mod:`repro.api.report`) and rebuilt anywhere — the same
discipline :class:`~repro.verify.tasks.CheckerConfig` applies one layer
down for remote workers.

Use the fluent builder for readable construction::

    from repro.api import VerificationRequest

    request = (VerificationRequest.builder("prove")
               .policy("balance_count", margin=2)
               .scope(cores=3, max_load=3)
               .pool(jobs=4)
               .build())

Validation errors raise :class:`RequestError` with the same one-line
messages the CLI has always printed (they are phrased in terms of the
flags, which remain the canonical names of the fields).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

from repro.core.errors import VerificationError
from repro.core.policy import Policy
from repro.topology.numa import NumaTopology
from repro.verify.enumeration import StateScope
from repro.verify.hierarchical import HierarchySpec
from repro.verify.symmetry import (
    FlatSymmetryGroup,
    NumaSymmetryGroup,
    SymmetryGroup,
    TrivialGroup,
)
from repro.verify.transition import DEFAULT_MAX_ORDERS


class RequestError(VerificationError):
    """A :class:`VerificationRequest` that cannot be run as written."""


#: The request kinds, mirroring the four verification subcommands.
REQUEST_KINDS = ("prove", "hunt", "zoo", "campaign")

#: Per-kind default ``max_load`` when the request leaves it unset —
#: exactly the CLI defaults (verify/zoo 3, hunt 2, campaign 8).
DEFAULT_MAX_LOAD = {"prove": 3, "hunt": 2, "zoo": 3, "campaign": 8}

#: Default scope width when neither ``cores`` nor a topology is given.
DEFAULT_CORES = 3

#: The zoo's historical racing-permutation cap (``verify_zoo``'s
#: default); ``prove``/``hunt`` requests default to the transition
#: layer's :data:`~repro.verify.transition.DEFAULT_MAX_ORDERS`.
ZOO_MAX_ORDERS = 720

#: Default cap on fuzzed machine size when a campaign leaves it unset.
DEFAULT_CAMPAIGN_MAX_CORES = 12

#: The hunt-only pseudo-policy selecting the §5 hierarchical checker.
HIERARCHICAL = "hierarchical"


# ---------------------------------------------------------------------------
# policy registry
# ---------------------------------------------------------------------------


def _policy_registry() -> "dict[str, Callable[[PolicySpec, NumaTopology | None], Policy]]":
    """Name -> factory for every buildable policy (insertion order is the
    order error messages list them in; imports stay local so listing
    policies does not import the whole zoo at module import time)."""
    from repro.baselines import IdleOnlyRandomStealPolicy, RandomStealPolicy
    from repro.policies import (
        BalanceCountPolicy,
        GreedyHalvingPolicy,
        NaiveOverloadedPolicy,
        ProvableWeightedPolicy,
        WeightedBalancePolicy,
    )
    from repro.policies.naive import (
        GreedyReadyPolicy,
        InvertedFilterPolicy,
        OverStealingPolicy,
    )
    from repro.policies.numa_aware import (
        LeastMigrationsChoicePolicy,
        NumaAwareChoicePolicy,
    )

    return {
        "balance_count": lambda s, t: BalanceCountPolicy(margin=s.margin),
        "greedy_halving": lambda s, t: GreedyHalvingPolicy(margin=s.margin),
        "weighted": lambda s, t: WeightedBalancePolicy(),
        "provable_weighted": lambda s, t: ProvableWeightedPolicy(),
        "naive": lambda s, t: NaiveOverloadedPolicy(),
        "greedy_ready": lambda s, t: GreedyReadyPolicy(),
        "inverted": lambda s, t: InvertedFilterPolicy(),
        "over_stealing": lambda s, t: OverStealingPolicy(),
        "random_steal": lambda s, t: RandomStealPolicy(seed=s.seed),
        "idle_random_steal": lambda s, t: IdleOnlyRandomStealPolicy(
            seed=s.seed
        ),
        "numa_choice": lambda s, t: NumaAwareChoicePolicy(
            _require_layout(t, "numa_choice"), margin=s.margin
        ),
        "cache_choice": lambda s, t: LeastMigrationsChoicePolicy(
            _require_layout(t, "cache_choice"), margin=s.margin
        ),
    }


#: Policies that can only be built against a machine layout.
TOPOLOGY_POLICIES = frozenset({"numa_choice", "cache_choice"})


def policy_names() -> tuple[str, ...]:
    """Every buildable policy name, in registry order."""
    return tuple(_policy_registry())


def _require_layout(topology: NumaTopology | None,
                    policy_name: str) -> NumaTopology:
    """The topology, mandatory for topology-aware policies."""
    if topology is None:
        raise RequestError(
            f"policy {policy_name!r} needs a machine layout: pass"
            " --topology numa:NxM (or mesh:SxM)"
        )
    return topology


def build_policy(spec: "PolicySpec",
                 topology: NumaTopology | None = None) -> Policy:
    """Construct the policy a :class:`PolicySpec` names.

    Raises:
        RequestError: unknown name, or a topology-aware policy without
            a machine layout.
    """
    registry = _policy_registry()
    if spec.name not in registry:
        raise RequestError(
            f"unknown policy {spec.name!r}; try: {', '.join(registry)}"
        )
    return registry[spec.name](spec, topology)


def parse_topology(text: str) -> NumaTopology | None:
    """Parse a topology spec string into a :class:`NumaTopology`.

    Accepted forms: ``flat`` (no topology, returns ``None``),
    ``numa:NxM`` (N fully connected nodes of M cores), ``mesh:SxM``
    (an SxS 2D mesh of M-core nodes).

    Raises:
        RequestError: anything else.
    """
    from repro.topology import mesh_numa, symmetric_numa

    text = text.strip().lower()
    if text == "flat":
        return None
    kind, _, dims = text.partition(":")
    parts = dims.split("x")
    if kind in ("numa", "mesh") and len(parts) == 2 \
            and all(p.isdigit() and int(p) > 0 for p in parts):
        first, second = int(parts[0]), int(parts[1])
        if kind == "numa":
            return symmetric_numa(first, second)
        return mesh_numa(first, second)
    raise RequestError(
        f"bad --topology {text!r}: expected flat, numa:NxM, or mesh:SxM"
    )


# ---------------------------------------------------------------------------
# request components
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PolicySpec:
    """A policy by name plus its construction parameters.

    Attributes:
        name: registry name (see :func:`policy_names`), or
            ``"hierarchical"`` on a ``hunt`` request.
        margin: Listing 1 margin for the margin-parameterised policies.
        seed: seed for the randomised policies (and, on ``campaign``
            requests built by the CLI, the campaign master seed).
    """

    name: str
    margin: int = 2
    seed: int = 0


@dataclass(frozen=True)
class EngineSpec:
    """Which engine executes the request.

    Attributes:
        kind: ``"serial"``, ``"pool"`` (multiprocessing,
            :mod:`repro.verify.parallel`) or ``"distributed"``
            (coordinator/workers, :mod:`repro.verify.distributed`).
        jobs: pool worker processes (``0`` = one per CPU).
        workers: distributed worker count to spawn (``--distributed N``).
        endpoints: already-running workers to connect to
            (``--workers host:port,...``).
        in_process: run the distributed engine over in-process
            transports (every frame still round-trips the wire
            encoding) — the zero-setup deployment used by tests and
            engine-equivalence checks.
        mode: distributed closure exploration: ``"level-sync"``
            (barriered BFS, the historical behaviour) or ``"async"``
            (barrier-free hash-partitioned exploration with work
            stealing). Verdicts and certificates are identical either
            way, so the mode is *not* part of the store coverage class
            (see :mod:`repro.store.keys`).
        partitions: async-mode hash partition count (``None`` = 4 per
            worker). More partitions mean finer stealing granularity.
    """

    kind: str = "serial"
    jobs: int = 1
    workers: int | None = None
    endpoints: tuple[str, ...] = ()
    in_process: bool = False
    mode: str = "level-sync"
    partitions: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("serial", "pool", "distributed"):
            raise RequestError(
                f"unknown engine kind {self.kind!r}; expected serial,"
                " pool, or distributed"
            )
        if self.mode not in ("level-sync", "async"):
            raise RequestError(
                f"unknown engine mode {self.mode!r}; expected level-sync"
                " or async"
            )
        if self.kind != "distributed":
            if self.mode != "level-sync" or self.partitions is not None:
                raise RequestError(
                    f"mode/partitions only apply to the distributed"
                    f" engine, not {self.kind!r}"
                )
        elif self.partitions is not None:
            if self.mode != "async":
                raise RequestError(
                    "partitions only apply to mode='async': level-sync"
                    " exploration shards by worker, not by partition"
                )
            if self.partitions < 1:
                raise RequestError(
                    f"partitions must be >= 1, got {self.partitions}"
                )
        if self.kind == "pool" and self.jobs < 0:
            raise RequestError(
                f"engine jobs must be >= 0 (0 = one per CPU), got {self.jobs}"
            )
        if self.kind == "distributed":
            if self.jobs != 1:
                # Mirrors the CLI: --jobs combined with
                # --distributed/--workers is a conflict, never silently
                # dropped.
                raise RequestError(
                    "jobs cannot be combined with a distributed engine:"
                    " pick one engine"
                )
            if (self.workers is None) == (not self.endpoints):
                raise RequestError(
                    "a distributed engine needs exactly one of workers"
                    " (spawn N) or endpoints (connect to HOST:PORT list)"
                )
            if self.workers is not None and self.workers < 1:
                raise RequestError(
                    f"distributed worker count must be >= 1, got"
                    f" {self.workers}"
                )
            if self.in_process and self.endpoints:
                raise RequestError(
                    "in_process is incompatible with endpoints: in-process"
                    " workers live in the coordinator, not on the network"
                )
        else:
            if self.workers is not None or self.endpoints or self.in_process:
                raise RequestError(
                    f"workers/endpoints/in_process only apply to the"
                    f" distributed engine, not {self.kind!r}"
                )
            if self.kind == "serial" and self.jobs != 1:
                raise RequestError(
                    "a serial engine has exactly one worker; set"
                    " kind='pool' to use jobs"
                )

    def describe(self) -> str:
        """One-line engine description for progress events and docs."""
        if self.kind == "serial":
            return "serial"
        if self.kind == "pool":
            return f"pool[jobs={self.jobs}]"
        suffix = ", async" if self.mode == "async" else ""
        if self.endpoints:
            return f"distributed[{','.join(self.endpoints)}{suffix}]"
        transport = "in-process" if self.in_process else "tcp"
        return f"distributed[{self.workers} {transport} workers{suffix}]"


@dataclass(frozen=True)
class CampaignLimits:
    """Budgets of a randomised fuzzing campaign.

    Attributes:
        machines: random initial machines to explore.
        max_cores: largest fuzzed machine (``None`` = 12, capped by the
            request's topology).
        rounds: adversarial rounds per machine.
        seed: master seed; a campaign reproduces exactly for a fixed
            ``(seed, worker count)`` pair.
    """

    machines: int = 50
    max_cores: int | None = None
    rounds: int = 30
    seed: int = 0


@dataclass(frozen=True)
class ResolvedRequest:
    """A request's derived runtime objects, resolved once.

    Attributes:
        policy: the constructed policy (``None`` for ``zoo`` requests
            and hierarchical hunts).
        scope: the finite state universe to sweep.
        topology: the parsed machine layout, when one was requested.
        symmetry: the symmetry group quotienting exploration (the
            trivial group when none applies).
        hierarchy: the hierarchical checker spec (hierarchical hunts).
    """

    policy: Policy | None
    scope: StateScope
    topology: NumaTopology | None
    symmetry: SymmetryGroup
    hierarchy: HierarchySpec | None


# ---------------------------------------------------------------------------
# the request itself
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VerificationRequest:
    """One verification run, fully described by primitives.

    Attributes:
        kind: ``"prove"`` (full §4 pipeline), ``"hunt"`` (model-check
            only), ``"zoo"`` (pipeline over the policy lineup), or
            ``"campaign"`` (randomised fuzzing).
        policy: the policy under test (``None`` for ``zoo``).
        cores: scope width (``None``: topology core count, else 3).
        max_load: scope load ceiling (``None``: the kind's CLI default).
        max_orders: racing-permutation cap (``None``: 720 for ``zoo``,
            :data:`~repro.verify.transition.DEFAULT_MAX_ORDERS` else).
        choice_mode: ``"all"`` quantifies over every candidate choice;
            ``"policy"`` fixes the policy's own choice.
        symmetric: quotient by the flat full-renaming group
            (:meth:`resolve` turns the flag into the group).
        no_symmetry: explore the full state space even when a topology
            would quotient it.
        topology: machine layout spec string (``"numa:NxM"``,
            ``"mesh:SxM"``, ``"flat"``) or ``None``.
        engine: which engine runs the request.
        campaign: fuzzing budgets (``campaign`` requests only).
    """

    kind: str
    policy: PolicySpec | None = None
    cores: int | None = None
    max_load: int | None = None
    max_orders: int | None = None
    choice_mode: str = "all"
    symmetric: bool = False
    no_symmetry: bool = False
    topology: str | None = None
    engine: EngineSpec = field(default_factory=EngineSpec)
    campaign: CampaignLimits | None = None

    # -- construction ---------------------------------------------------

    @staticmethod
    def builder(kind: str) -> "RequestBuilder":
        """A fluent :class:`RequestBuilder` for ``kind``."""
        return RequestBuilder(kind)

    def __post_init__(self) -> None:
        if self.kind not in REQUEST_KINDS:
            raise RequestError(
                f"unknown request kind {self.kind!r}; expected one of"
                f" {', '.join(REQUEST_KINDS)}"
            )
        if self.choice_mode not in ("all", "policy"):
            raise RequestError(
                f"choice_mode must be 'all' or 'policy', got"
                f" {self.choice_mode!r}"
            )
        if self.kind == "zoo":
            if self.policy is not None:
                raise RequestError(
                    "a zoo request verifies the whole lineup; it takes"
                    " no single policy"
                )
        elif self.policy is None:
            raise RequestError(f"a {self.kind} request needs a policy")
        if self.policy is not None and self.policy.name == HIERARCHICAL:
            if self.kind == "prove":
                raise RequestError(
                    "the hierarchical balancer has no flat per-core round"
                    " to sweep; model-check it with: hunt hierarchical"
                    " --topology numa:NxM"
                )
            if self.kind != "hunt":
                raise RequestError(
                    "the hierarchical checker is hunt-only"
                )
        if self.campaign is not None and self.kind != "campaign":
            raise RequestError(
                f"campaign limits only apply to campaign requests,"
                f" not {self.kind!r}"
            )
        if self.no_symmetry and self.symmetric:
            raise RequestError(
                "--no-symmetry conflicts with --symmetric; pick one"
            )
        # Unknown names are reported before any topology diagnostics,
        # mirroring the CLI's historical check order.
        if (self.policy is not None and self.policy.name != HIERARCHICAL
                and self.policy.name not in policy_names()):
            build_policy(self.policy, None)  # raises the unknown-name error
        topology = self._parsed_topology()
        if topology is not None:
            if self.symmetric:
                raise RequestError(
                    "--symmetric (flat group) conflicts with --topology;"
                    " the topology's own symmetry group is already applied"
                )
            if self.cores is not None:
                raise RequestError(
                    f"--cores {self.cores} conflicts with --topology"
                    f" (which fixes the scope at {topology.n_cores} cores);"
                    " drop one of the two"
                )
            limits = self.campaign
            if (limits is not None and limits.max_cores is not None
                    and limits.max_cores > topology.n_cores):
                raise RequestError(
                    f"--max-cores {limits.max_cores} conflicts with"
                    " --topology (which caps machines at"
                    f" {topology.n_cores} cores); drop one of the two"
                )
        # Unknown policy names / missing layouts fail now, not at run
        # time inside a worker.
        if (self.policy is not None
                and self.policy.name != HIERARCHICAL):
            build_policy(self.policy, topology)
        if self.policy is not None and self.policy.name == HIERARCHICAL:
            _require_layout(topology, HIERARCHICAL)

    # -- derived values -------------------------------------------------

    def _parsed_topology(self) -> NumaTopology | None:
        return (parse_topology(self.topology)
                if self.topology is not None else None)

    @property
    def effective_max_load(self) -> int:
        """``max_load``, defaulted per kind exactly as the CLI does."""
        if self.max_load is not None:
            return self.max_load
        return DEFAULT_MAX_LOAD[self.kind]

    @property
    def effective_max_orders(self) -> int:
        """``max_orders``, with the zoo's historical 720 default."""
        if self.max_orders is not None:
            return self.max_orders
        return ZOO_MAX_ORDERS if self.kind == "zoo" else DEFAULT_MAX_ORDERS

    def scope_cores(self, topology: NumaTopology | None = None) -> int:
        """Scope width: the topology's core count when one is given."""
        if topology is None:
            topology = self._parsed_topology()
        if topology is not None:
            return topology.n_cores
        return self.cores if self.cores is not None else DEFAULT_CORES

    def campaign_config(self):  # -> CampaignConfig
        """The :class:`~repro.verify.campaign.CampaignConfig` this
        request describes (``campaign`` requests only)."""
        from repro.verify.campaign import CampaignConfig

        if self.kind != "campaign":
            raise RequestError(
                f"a {self.kind} request has no campaign configuration"
            )
        limits = self.campaign if self.campaign is not None \
            else CampaignLimits()
        topology = self._parsed_topology()
        max_cores = (limits.max_cores if limits.max_cores is not None
                     else DEFAULT_CAMPAIGN_MAX_CORES)
        if topology is not None:
            # Topology-aware policies index node tables by core id, so
            # fuzzed machines must not outgrow the declared layout (an
            # explicitly larger request was already rejected above).
            max_cores = min(max_cores, topology.n_cores)
        return CampaignConfig(
            n_machines=limits.machines,
            max_cores=max_cores,
            max_load=self.effective_max_load,
            rounds_per_machine=limits.rounds,
            seed=limits.seed,
        )

    def resolve(self) -> ResolvedRequest:
        """Derive the runtime objects the engines consume.

        The request's symmetry group mirrors the CLI rules: a topology
        selects its automorphism group (or the hierarchy spec's domain
        group on hierarchical hunts); ``no_symmetry`` disables the
        quotient; ``symmetric`` (``--symmetric``) selects the flat
        group. This is the one place the flag becomes a group: the
        engines and the layers below them take only the group.
        """
        topology = self._parsed_topology()
        hierarchy: HierarchySpec | None = None
        policy: Policy | None = None
        symmetry: SymmetryGroup = (FlatSymmetryGroup() if self.symmetric
                                   else TrivialGroup())
        if self.policy is not None and self.policy.name == HIERARCHICAL:
            layout = _require_layout(topology, HIERARCHICAL)
            hierarchy = HierarchySpec(topology=layout,
                                      group_margin=self.policy.margin,
                                      intra_margin=self.policy.margin)
            if not self.no_symmetry:
                symmetry = hierarchy.symmetry_group()
        else:
            if topology is not None and not self.no_symmetry:
                symmetry = NumaSymmetryGroup(topology)
            if self.policy is not None:
                policy = build_policy(self.policy, topology)
        scope = StateScope(n_cores=self.scope_cores(topology),
                           max_load=self.effective_max_load)
        return ResolvedRequest(policy=policy, scope=scope,
                               topology=topology, symmetry=symmetry,
                               hierarchy=hierarchy)

    def policy_factory(self) -> Callable[[], Policy]:
        """A zero-argument factory building fresh policy instances
        (randomised policies hold RNG state, so campaigns need one
        instance per machine)."""
        spec = self.policy
        if spec is None or spec.name == HIERARCHICAL:
            target = spec.name if spec is not None else "no policy"
            raise RequestError(
                f"a {self.kind} request over {target}"
                " has no buildable policy"
            )
        topology = self._parsed_topology()
        return lambda: build_policy(spec, topology)

    def describe(self) -> str:
        """One-line request summary for progress events and spec
        listings."""
        parts = [self.kind if self.policy is None
                 else f"{self.kind} {self.policy.name}"]
        if self.topology is not None:
            parts.append(f"topology={self.topology}")
        parts.append(f"engine={self.engine.describe()}")
        return " ".join(parts)


# ---------------------------------------------------------------------------
# the fluent builder
# ---------------------------------------------------------------------------


class RequestBuilder:
    """Fluent construction of a :class:`VerificationRequest`.

    Every setter returns the builder; :meth:`build` assembles (and
    thereby validates) the frozen request. The builder itself performs
    no validation — all rules live in one place, the request's
    ``__post_init__``.
    """

    def __init__(self, kind: str) -> None:
        self._kind = kind
        self._policy: PolicySpec | None = None
        self._cores: int | None = None
        self._max_load: int | None = None
        self._max_orders: int | None = None
        self._choice_mode = "all"
        self._symmetric = False
        self._no_symmetry = False
        self._topology: str | None = None
        self._engine = EngineSpec()
        self._campaign: CampaignLimits | None = None

    def policy(self, name: str, *, margin: int = 2,
               seed: int = 0) -> "RequestBuilder":
        """Select the policy under test."""
        self._policy = PolicySpec(name=name, margin=margin, seed=seed)
        return self

    def scope(self, *, cores: int | None = None,
              max_load: int | None = None) -> "RequestBuilder":
        """Set the verification scope (``None`` keeps the defaults)."""
        self._cores = cores
        self._max_load = max_load
        return self

    def max_orders(self, n: int) -> "RequestBuilder":
        """Cap the racing-steal permutations per round."""
        self._max_orders = n
        return self

    def choice_mode(self, mode: str) -> "RequestBuilder":
        """``"all"`` (adversarial choices) or ``"policy"``."""
        self._choice_mode = mode
        return self

    def symmetric(self, on: bool = True) -> "RequestBuilder":
        """Exploit the flat full-renaming group (legacy flag)."""
        self._symmetric = on
        return self

    def no_symmetry(self, on: bool = True) -> "RequestBuilder":
        """Disable the topology's symmetry quotient."""
        self._no_symmetry = on
        return self

    def topology(self, spec: str | None) -> "RequestBuilder":
        """Set the machine layout (``"numa:NxM"`` / ``"mesh:SxM"``)."""
        self._topology = spec
        return self

    def serial(self) -> "RequestBuilder":
        """Run on the serial engine (the default)."""
        self._engine = EngineSpec(kind="serial")
        return self

    def pool(self, jobs: int) -> "RequestBuilder":
        """Run on the multiprocessing pool engine."""
        self._engine = EngineSpec(kind="pool", jobs=jobs)
        return self

    def distributed(self, workers: int | None = None, *,
                    endpoints: Sequence[str] = (),
                    in_process: bool = False,
                    mode: str = "level-sync",
                    partitions: int | None = None) -> "RequestBuilder":
        """Run on the distributed engine (spawn ``workers`` local
        workers, connect to ``endpoints``, or use in-process
        transports); ``mode="async"`` selects barrier-free
        hash-partitioned exploration."""
        self._engine = EngineSpec(kind="distributed", workers=workers,
                                  endpoints=tuple(endpoints),
                                  in_process=in_process,
                                  mode=mode, partitions=partitions)
        return self

    def engine(self, spec: EngineSpec) -> "RequestBuilder":
        """Set a prebuilt :class:`EngineSpec`."""
        self._engine = spec
        return self

    def campaign(self, *, machines: int = 50, max_cores: int | None = None,
                 rounds: int = 30, seed: int = 0) -> "RequestBuilder":
        """Set the fuzzing budgets of a campaign request."""
        self._campaign = CampaignLimits(machines=machines,
                                        max_cores=max_cores,
                                        rounds=rounds, seed=seed)
        return self

    def build(self) -> VerificationRequest:
        """Assemble and validate the frozen request."""
        return VerificationRequest(
            kind=self._kind,
            policy=self._policy,
            cores=self._cores,
            max_load=self._max_load,
            max_orders=self._max_orders,
            choice_mode=self._choice_mode,
            symmetric=self._symmetric,
            no_symmetry=self._no_symmetry,
            topology=self._topology,
            engine=self._engine,
            campaign=self._campaign,
        )


def with_engine(request: VerificationRequest,
                engine: EngineSpec) -> VerificationRequest:
    """The same request on a different engine (requests are frozen).

    The engine-equivalence guarantee — identical verdicts on every
    engine — makes this the natural way to re-run one request across
    backends; the test suite does exactly that.
    """
    return replace(request, engine=engine)


__all__ = [
    "CampaignLimits",
    "DEFAULT_CAMPAIGN_MAX_CORES",
    "DEFAULT_CORES",
    "DEFAULT_MAX_LOAD",
    "EngineSpec",
    "HIERARCHICAL",
    "PolicySpec",
    "REQUEST_KINDS",
    "RequestBuilder",
    "RequestError",
    "ResolvedRequest",
    "VerificationRequest",
    "ZOO_MAX_ORDERS",
    "build_policy",
    "parse_topology",
    "policy_names",
    "with_engine",
    "TOPOLOGY_POLICIES",
]
