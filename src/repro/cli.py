"""Command-line interface: ``python -m repro <command>`` — a thin client
of :mod:`repro.api`.

Commands mirror the workflow a scheduler developer would follow with the
paper's toolchain:

* ``list-policies`` — the built-in policy zoo;
* ``verify``        — run the full §4 proof pipeline on a policy;
* ``hunt``          — model-check only, printing any counterexample lasso;
* ``campaign``      — randomised fuzzing beyond exhaustive scopes;
* ``run-spec``      — execute a declarative spec file (a whole campaign
  of runs as one reviewable JSON document, see ``examples/specs/``);
* ``store``         — inspect and maintain the content-addressed proof
  store behind ``--store`` (``ls``/``show``/``gc``/``verify-integrity``);
* ``simulate``      — run a workload under a chosen balancer and report
  wasted-core metrics;
* ``dsl``           — compile a DSL policy file and emit Python proof
  results, C, or Scala;
* ``worker``        — serve verification shards to a remote coordinator
  (the other end of ``--workers``/``--distributed``).

The four verification commands (``verify``/``zoo``/``hunt``/``campaign``)
are pure argparse → :class:`~repro.api.VerificationRequest` translation:
they build a request, hand it to a :class:`~repro.api.Session`, print
``result.render()`` and exit ``result.exit_code``. All verification
logic, engine selection, and validation live in :mod:`repro.api`; the
flags are just the request's field names. ``--jobs N`` selects the pool
engine, ``--distributed N`` / ``--workers HOST:PORT,...`` the
distributed engine, and ``--topology numa:NxM`` / ``mesh:SxM`` the
topology-aware policies plus the symmetry quotient — verdicts are
identical under every engine. ``--store [DIR]`` serves any request
proven before straight from the content-addressed proof store
(:mod:`repro.store`) with byte-identical output and zero exploration.

Every command exits 0 on success; ``verify``, ``campaign`` and
``run-spec`` exit 2 when a policy is refuted (so shell scripts can gate
on proofs), and ``dsl`` exits 2 on compilation errors.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
from typing import Iterator, Sequence


def _positive_int(text: str) -> int:
    """Argparse type for worker counts: an integer >= 1.

    Rejects ``0`` and negatives with a one-line argparse error (exit
    code 2) instead of whatever downstream traceback a nonsensical pool
    size would eventually produce.
    """
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid int value: {text!r}"
        ) from None
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"must be a positive integer (got {value}); worker counts"
            " cannot be zero or negative"
        )
    return value


def _positive_float(text: str) -> float:
    """Argparse type for intervals: a float strictly greater than zero."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid float value: {text!r}"
        ) from None
    if value <= 0:
        raise argparse.ArgumentTypeError(
            f"must be a positive number of seconds (got {value})"
        )
    return value


# ---------------------------------------------------------------------------
# shared flag groups (argparse parent parsers)
#
# Every verification subcommand shares the same policy/scope/topology/
# engine vocabulary; each group is declared once here and attached via
# ``parents=``, so a flag's type, default, and help text cannot drift
# between subcommands.
# ---------------------------------------------------------------------------


def _policy_parent() -> argparse.ArgumentParser:
    """``policy`` positional plus its construction parameters."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("policy", help="policy name (see list-policies)")
    parent.add_argument("--margin", type=int, default=2,
                        help="margin for balance_count/greedy_halving")
    parent.add_argument("--seed", type=int, default=0,
                        help="seed for randomised policies")
    return parent


def _scope_parent(max_load_default: int) -> argparse.ArgumentParser:
    """``--cores``/``--max-load`` (cores defaults via the topology)."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--cores", type=int, default=None,
                        help="scope width (default 3; set by --topology)")
    parent.add_argument("--max-load", type=int, default=max_load_default)
    return parent


def _topology_parent(help_text: str | None = None) -> argparse.ArgumentParser:
    """``--topology``/``--no-symmetry``."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--topology", metavar="flat|numa:NxM|mesh:SxM", default=None,
        help=help_text or (
            "machine layout: enables the topology-aware policies"
            " (numa_choice, cache_choice, hierarchical), sizes the"
            " scope to its core count, and applies its symmetry group"
            " to the state-space exploration"
        ),
    )
    parent.add_argument(
        "--no-symmetry", action="store_true",
        help="explore the full state space even when --topology would"
             " quotient it (required for --choice-mode policy with"
             " topology-aware choices, whose tie-breaks make any"
             " quotient unsound)",
    )
    return parent


def _store_parent() -> argparse.ArgumentParser:
    """The proof-store selectors: ``--store``/``--no-store``/
    ``--store-refresh``."""
    parent = argparse.ArgumentParser(add_help=False)
    group = parent.add_mutually_exclusive_group()
    group.add_argument(
        "--store", nargs="?", metavar="DIR", const="", default=None,
        help="serve previously proven requests from the content-"
             "addressed result store at DIR (default"
             " ~/.cache/repro/store) or from a store server"
             " (tcp://HOST:PORT) and store fresh results; warm runs"
             " render byte-identically without exploring any states",
    )
    group.add_argument(
        "--no-store", action="store_true",
        help="force the result store off",
    )
    parent.add_argument(
        "--store-refresh", action="store_true",
        help="re-run and overwrite store entries even when present"
             " (implies --store)",
    )
    parent.add_argument(
        "--store-auth", metavar="SECRET", default=None,
        help="shared secret for a tcp:// store server",
    )
    parent.add_argument(
        "--store-subsume", action="store_true",
        help="let a stored proved entry whose scope subsumes this"
             " request answer it (verdict-preserving, not"
             " byte-preserving)",
    )
    return parent


def _trace_parent() -> argparse.ArgumentParser:
    """The tracing selectors: ``--trace``/``--trace-summary``."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--trace", metavar="FILE", default=None,
        help="record a span trace of the whole run (checker phases,"
             " closure levels, store lookups, worker dispatch) and"
             " write it as Chrome trace-event JSON, loadable in"
             " Perfetto or chrome://tracing; verdicts and stdout are"
             " byte-identical with or without tracing",
    )
    parent.add_argument(
        "--trace-summary", action="store_true",
        help="print a per-category span profile (count/total/mean/p95)"
             " to stderr after the run; kernel-served spans get a row"
             " per tier (e.g. obligation:numpy)",
    )
    return parent


def _engine_parent(jobs_help: str | None = None) -> argparse.ArgumentParser:
    """The engine selectors: ``--jobs``/``--distributed``/``--workers``."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--jobs", type=_positive_int, default=1,
        help=jobs_help or (
            "worker processes for sharded verification (default 1 ="
            " serial); verdicts are identical at any value"
        ),
    )
    group = parent.add_mutually_exclusive_group()
    group.add_argument(
        "--distributed", type=_positive_int, metavar="N", default=None,
        help="spawn N localhost worker subprocesses and dispatch shards"
             " to them over TCP (the reference distributed deployment)",
    )
    group.add_argument(
        "--workers", metavar="HOST:PORT[,HOST:PORT...]", default=None,
        help="dispatch shards to these already-running workers (start"
             " each with: python -m repro worker --listen HOST:PORT)",
    )
    parent.add_argument(
        "--engine-mode", choices=("level-sync", "async"),
        default="level-sync", dest="engine_mode",
        help="distributed exploration mode: level-sync (barriered BFS"
             " rounds, the default) or async (barrier-free hash-"
             "partitioned exploration with work stealing); verdicts and"
             " reports are byte-identical either way",
    )
    parent.add_argument(
        "--partitions", type=_positive_int, metavar="N", default=None,
        help="hash-partition count for --engine-mode async (default:"
             " 4 per worker)",
    )
    return parent


# ---------------------------------------------------------------------------
# argparse -> repro.api translation
# ---------------------------------------------------------------------------


def _engine_spec(args: argparse.Namespace):
    """Map the engine flags onto an :class:`~repro.api.EngineSpec`."""
    from repro.api import EngineSpec

    distributed = getattr(args, "distributed", None)
    workers = getattr(args, "workers", None)
    mode = getattr(args, "engine_mode", "level-sync")
    partitions = getattr(args, "partitions", None)
    if distributed is not None or workers is not None:
        if getattr(args, "jobs", 1) > 1:
            raise SystemExit(
                "--jobs cannot be combined with --distributed/--workers:"
                " pick one engine"
            )
        if workers is not None:
            return EngineSpec(kind="distributed",
                              endpoints=tuple(workers.split(",")),
                              mode=mode, partitions=partitions)
        return EngineSpec(kind="distributed", workers=distributed,
                          mode=mode, partitions=partitions)
    if mode != "level-sync" or partitions is not None:
        raise SystemExit(
            "--engine-mode/--partitions only apply to the distributed"
            " engine: add --distributed N or --workers HOST:PORT"
        )
    jobs = getattr(args, "jobs", 1)
    if jobs > 1:
        return EngineSpec(kind="pool", jobs=jobs)
    return EngineSpec()


def _build_request(kind: str, args: argparse.Namespace):
    """Translate a verification subcommand's namespace into a request.

    Pure translation: every validation rule (flag conflicts, unknown
    policies, topology requirements) lives in the request itself, whose
    :class:`~repro.api.RequestError` messages are phrased in terms of
    these flags.
    """
    from repro.api import VerificationRequest

    builder = VerificationRequest.builder(kind)
    if kind != "zoo":
        builder.policy(args.policy, margin=args.margin, seed=args.seed)
    if kind == "campaign":
        builder.campaign(machines=args.machines, max_cores=args.max_cores,
                         rounds=args.rounds, seed=args.seed)
        builder.scope(max_load=args.max_load)
    else:
        builder.scope(cores=args.cores, max_load=args.max_load)
    builder.topology(getattr(args, "topology", None))
    builder.no_symmetry(getattr(args, "no_symmetry", False))
    builder.symmetric(getattr(args, "symmetric", False))
    builder.choice_mode(getattr(args, "choice_mode", "all"))
    builder.engine(_engine_spec(args))
    return builder.build()


def _store_config(args: argparse.Namespace):
    """Map the store flags onto ``(ResultStore | None, refresh)``."""
    directory = getattr(args, "store", None)
    refresh = getattr(args, "store_refresh", False)
    if getattr(args, "no_store", False):
        if refresh:
            raise SystemExit(
                "--no-store conflicts with --store-refresh: pick one"
            )
        return None, False
    if directory is None and not refresh:
        return None, False
    if directory:
        from repro.service.netstore import is_store_url

        if is_store_url(directory):
            from repro.service.netstore import NetworkStore

            return NetworkStore.from_url(
                directory, secret=getattr(args, "store_auth", None),
            ), refresh
    from repro.store import FileStore

    return FileStore(directory or None), refresh


def _make_session(args: argparse.Namespace):
    """The configured :class:`~repro.api.Session` for a verification
    command: the result store, when asked (``--progress`` consumes the
    session's streaming surface instead of subscribing)."""
    from repro.api import Session

    store, refresh = _store_config(args)
    return Session(store=store, store_refresh=refresh,
                   store_subsume=getattr(args, "store_subsume", False))


class _ProgressPrinter:
    """Formats ``--progress`` stderr lines with a timing prefix.

    Each line leads with the wall time elapsed since the printer was
    built and a cumulative states-per-second rate, both measured on the
    tracer's monotonic clock so ``--progress`` and ``--trace`` agree on
    every timestamp. The rate column shows ``-`` until an event has
    carried a state count. Pinned format (one test relies on it)::

        [progress +12.34s 5678/s] LevelCompleted(...)
    """

    def __init__(self, clock=None) -> None:
        from repro.obs.trace import trace_clock

        self._clock = clock if clock is not None else trace_clock
        self._start = self._clock()
        # StatesExplored carries a cumulative count, LevelCompleted a
        # per-level increment; track both and report whichever ran
        # ahead so no engine's event mix double-counts.
        self._explored = 0
        self._expanded = 0

    def format(self, event) -> str:
        states = getattr(event, "states", None)
        if states is not None:
            self._explored = max(self._explored, int(states))
        expanded = getattr(event, "states_expanded", None)
        if expanded is not None:
            self._expanded += int(expanded)
        total = max(self._explored, self._expanded)
        elapsed = self._clock() - self._start
        rate = f"{total / elapsed:.0f}" if total and elapsed > 0 else "-"
        return f"[progress +{elapsed:.2f}s {rate}/s] {event}"


def _session_run(session, request, args: argparse.Namespace):
    """Run one request; under ``--progress``, consume it as a stream.

    ``--progress`` is the first consumer of
    :meth:`~repro.api.Session.run_streaming`: each yielded event prints
    to stderr (same events, same order, prefixed with elapsed time and
    a states/s rate — stdout stays byte-identical to the legacy
    reports), and a failed run re-raises its error after the final
    ``RequestFailed`` event, which matches the subscriber path's
    emit-then-propagate contract.
    """
    if not getattr(args, "progress", False):
        return session.run(request)
    printer = _ProgressPrinter()
    stream = session.run_streaming(request)
    while True:
        try:
            event = next(stream)
        except StopIteration as stop:
            return stop.value
        print(printer.format(event), file=sys.stderr)


@contextlib.contextmanager
def _tracing(args: argparse.Namespace) -> Iterator[None]:
    """Enable the tracer for a command body when ``--trace`` or
    ``--trace-summary`` asked for it; export on the way out.

    Exports run in a ``finally`` so a refuted policy (exit 2) or an
    engine failure still leaves the trace file behind — that is
    exactly when a timeline is worth reading. Everything lands on
    stderr or the ``--trace`` file; stdout is untouched.
    """
    trace_path = getattr(args, "trace", None)
    want_summary = getattr(args, "trace_summary", False)
    if trace_path is None and not want_summary:
        yield
        return
    from repro.obs.trace import TRACER

    TRACER.enable()
    try:
        yield
    finally:
        TRACER.disable()
        spans = TRACER.drain()
        if trace_path is not None:
            from repro.obs.export import write_chrome_trace

            write_chrome_trace(trace_path, spans)
            print(f"[trace] {len(spans)} spans -> {trace_path}",
                  file=sys.stderr)
        if want_summary:
            from repro.obs.export import summarize

            print(summarize(spans).render(), file=sys.stderr)


def _run_request(kind: str, args: argparse.Namespace,
                 clean_refusals: bool = False) -> int:
    """Build, run, print, exit — the whole thin client.

    ``clean_refusals`` additionally turns any
    :class:`~repro.core.errors.VerificationError` (e.g. an unsound
    (group, choice_mode) combination) into a one-line ``SystemExit``
    instead of a traceback — ``verify``'s historical behaviour.
    """
    from repro.api import EngineError, RequestError
    from repro.core.errors import VerificationError

    try:
        request = _build_request(kind, args)
    except RequestError as exc:
        raise SystemExit(str(exc)) from exc
    session = _make_session(args)
    try:
        with _tracing(args):
            result = _session_run(session, request, args)
    except EngineError as exc:
        # Transport/spawn/dispatch failures: a clean one-liner, for
        # every verification command.
        raise SystemExit(str(exc)) from exc
    except VerificationError as exc:
        if clean_refusals:
            raise SystemExit(str(exc)) from exc
        raise
    print(result.render())
    return result.exit_code


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_list_policies(args: argparse.Namespace) -> int:
    from repro.api import policy_names

    for name in sorted(policy_names()):
        print(name)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    return _run_request("prove", args, clean_refusals=True)


def cmd_zoo(args: argparse.Namespace) -> int:
    return _run_request("zoo", args)


def cmd_hunt(args: argparse.Namespace) -> int:
    return _run_request("hunt", args)


def cmd_campaign(args: argparse.Namespace) -> int:
    return _run_request("campaign", args)


def cmd_run_spec(args: argparse.Namespace) -> int:
    from repro.api import EngineError, SpecError, load_spec
    from repro.core.errors import VerificationError

    try:
        spec = load_spec(args.spec)
    except SpecError as exc:
        raise SystemExit(str(exc)) from exc
    if args.list:
        for run in spec.runs:
            print(f"{run.name}: {run.request.describe()}")
        return 0
    session = _make_session(args)
    try:
        selected = ([spec.run_named(args.only)] if args.only is not None
                    else list(spec.runs))
    except SpecError as exc:  # unknown --only name
        raise SystemExit(str(exc)) from exc
    # Results print as each run completes (a failure in run N cannot
    # discard runs 1..N-1's reports) and are collected for --json.
    outcomes = []
    failure: SystemExit | None = None
    multiple = len(selected) > 1
    with _tracing(args):
        for index, run in enumerate(selected):
            if multiple:
                # Headers only between runs, so a single-run execution
                # (or --only) stays byte-identical to the legacy
                # command it replaces — CI diffs exactly that.
                if index:
                    print()
                print(f"# {run.name}")
            try:
                result = _session_run(session, run.request, args)
            except (EngineError, VerificationError) as exc:
                # The same clean one-liner `verify` prints for refusals
                # and transport failures — but only after flushing what
                # ran.
                failure = SystemExit(f"run {run.name!r} failed: {exc}")
                break
            outcomes.append((run, result))
            print(result.render())
    if args.json is not None and outcomes:
        import json

        from repro.api import result_to_dict
        from repro.store import store_key

        # Every entry names its content address (and, inside the
        # result, full provenance when a store ran) so downstream
        # tooling can correlate documents with store entries without
        # re-deriving keys.
        with open(args.json, "w") as handle:
            json.dump(
                [
                    {"run": run.name,
                     "store_key": store_key(run.request),
                     "result": result_to_dict(result)}
                    for run, result in outcomes
                ],
                handle, indent=2, sort_keys=True,
            )
            handle.write("\n")
    if failure is not None:
        raise failure
    return max(result.exit_code for _, result in outcomes)


def cmd_refine(args: argparse.Namespace) -> int:
    from repro.api import PolicySpec, RequestError, build_policy, policy_names
    from repro.verify import StateScope, check_refinement

    if args.policy not in policy_names():
        raise SystemExit(
            f"unknown policy {args.policy!r};"
            f" try: {', '.join(policy_names())}"
        )
    spec = PolicySpec(name=args.policy, margin=args.margin, seed=args.seed)
    try:
        result = check_refinement(
            lambda: build_policy(spec),
            StateScope(n_cores=args.cores, max_load=args.max_load),
        )
    except RequestError as exc:
        raise SystemExit(str(exc)) from exc
    print(result)
    return 0 if result.ok else 2


def cmd_simulate(args: argparse.Namespace) -> int:
    from repro.baselines import (
        CfsLikeBalancer,
        GlobalQueueBalancer,
        NullBalancer,
    )
    from repro.core.balancer import LoadBalancer
    from repro.core.machine import Machine
    from repro.metrics import render_table
    from repro.policies import BalanceCountPolicy, HierarchicalBalancer
    from repro.sim.engine import Simulation
    from repro.topology import build_domain_tree, symmetric_numa
    from repro.workloads import (
        BarrierWorkload,
        OltpWorkload,
        StaticImbalanceWorkload,
        place_pack,
    )

    topology = symmetric_numa(args.nodes, args.cores // args.nodes)
    machine = Machine(topology=topology)

    if args.balancer == "verified":
        balancer = LoadBalancer(machine, BalanceCountPolicy(),
                                check_invariants=False)
    elif args.balancer == "cfs":
        balancer = CfsLikeBalancer(machine, build_domain_tree(topology))
    elif args.balancer == "null":
        balancer = NullBalancer(machine)
    elif args.balancer == "ideal":
        balancer = GlobalQueueBalancer(machine)
    elif args.balancer == "hierarchical":
        balancer = HierarchicalBalancer(
            machine, build_domain_tree(topology)
        )
    else:
        raise SystemExit(f"unknown balancer {args.balancer!r}")

    if args.workload == "barrier":
        workload = BarrierWorkload(
            n_threads=2 * args.cores, n_phases=6, phase_work=25,
            placement=place_pack, seed=args.seed,
        )
    elif args.workload == "oltp":
        workload = OltpWorkload(
            n_workers=args.cores + args.cores // 2,
            duration=args.ticks // 2, seed=args.seed,
        )
    elif args.workload == "static":
        loads = [0] * args.cores
        loads[0] = 2 * args.cores
        workload = StaticImbalanceWorkload(loads)
    else:
        raise SystemExit(f"unknown workload {args.workload!r}")

    sim = Simulation(machine, balancer, workload=workload)
    result = sim.run(max_ticks=args.ticks)
    rows = [[key, value] for key, value in result.metrics.summary().items()]
    print(f"{args.workload} under {args.balancer}"
          f" ({args.cores} cores, {args.nodes} nodes):")
    print(render_table(["metric", "value"], rows))
    return 0


def cmd_dsl(args: argparse.Namespace) -> int:
    from repro.core.errors import DslError
    from repro.dsl import compile_policy, emit_c, emit_scala, parse_policy
    from repro.verify import StateScope, prove_work_conserving

    if args.file == "-":
        source = sys.stdin.read()
    else:
        with open(args.file) as handle:
            source = handle.read()

    try:
        decl = parse_policy(source)
        policy = compile_policy(source)
    except DslError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.emit == "c":
        print(emit_c(decl))
    elif args.emit == "scala":
        print(emit_scala(decl))
    else:  # verify
        cert = prove_work_conserving(
            policy, StateScope(n_cores=args.cores, max_load=args.max_load)
        )
        print(cert.render())
        return 0 if cert.proved else 2
    return 0


def cmd_store(args: argparse.Namespace) -> int:
    from repro.core.errors import VerificationError
    from repro.store.cli import cmd_store as run_store_command

    try:
        return run_store_command(args)
    except VerificationError as exc:
        # Unwritable or corrupt store roots: the same clean one-liner
        # every verification command prints, never a traceback.
        raise SystemExit(str(exc)) from exc


def cmd_worker(args: argparse.Namespace) -> int:
    from repro.core.errors import VerificationError
    from repro.framing import parse_endpoint
    from repro.verify.distributed import WorkerServer

    try:
        host, port = parse_endpoint(args.listen)
    except VerificationError as exc:
        raise SystemExit(
            f"--listen expects HOST:PORT (port 0 = OS-assigned): {exc}"
        ) from exc
    server = WorkerServer(host=host, port=port,
                          heartbeat_s=args.heartbeat)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Provably work-conserving multicore scheduling"
                    " (HotOS'17 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list-policies", help="list built-in policies")

    progress_parent = argparse.ArgumentParser(add_help=False)
    progress_parent.add_argument(
        "--progress", action="store_true",
        help="stream structured progress events (levels completed, shard"
             " reassignments, violations) to stderr",
    )

    verify = sub.add_parser(
        "verify", help="run the full proof pipeline",
        parents=[_policy_parent(), _scope_parent(3), _topology_parent(),
                 _engine_parent(), _store_parent(), progress_parent,
                 _trace_parent()],
    )
    verify.add_argument("--choice-mode", choices=("all", "policy"),
                        default="all")
    verify.add_argument("--symmetric", action="store_true")

    sub.add_parser(
        "zoo", help="verdict matrix over the policy zoo",
        parents=[_scope_parent(3), _topology_parent(), _engine_parent(),
                 _store_parent(), progress_parent, _trace_parent()],
    )

    hunt = sub.add_parser(
        "hunt", help="model-check work conservation",
        parents=[_policy_parent(), _scope_parent(2), _topology_parent(),
                 _engine_parent(), _store_parent(), progress_parent,
                 _trace_parent()],
    )
    hunt.add_argument("--symmetric", action="store_true")

    refine = sub.add_parser(
        "refine", help="cross-validate model vs implementation",
        parents=[_policy_parent()],
    )
    refine.add_argument("--cores", type=int, default=3)
    refine.add_argument("--max-load", type=int, default=3)

    campaign = sub.add_parser(
        "campaign", help="randomised fuzzing",
        parents=[
            _policy_parent(),
            _topology_parent(help_text=(
                "machine layout: enables the topology-aware policies"
                " (numa_choice, cache_choice) and caps fuzzed machines at"
                " the layout's core count; campaigns sample states"
                " randomly, so no symmetry quotient applies here"
            )),
            _engine_parent(jobs_help=(
                "worker processes, one derived fuzzing seed each (default"
                " 1 = serial); coverage depends on the (seed, workers)"
                " pair but reproduces exactly for fixed values"
            )),
            _store_parent(),
            progress_parent,
            _trace_parent(),
        ],
    )
    campaign.add_argument("--machines", type=int, default=50)
    campaign.add_argument("--max-cores", type=int, default=None,
                          help="largest fuzzed machine (default 12;"
                               " capped by --topology)")
    campaign.add_argument("--max-load", type=int, default=8)
    campaign.add_argument("--rounds", type=int, default=30)

    run_spec = sub.add_parser(
        "run-spec",
        help="execute a declarative verification spec file",
        parents=[_store_parent(), progress_parent, _trace_parent()],
    )
    run_spec.add_argument("spec", help="path to a spec JSON document"
                                       " (see examples/specs/)")
    run_spec.add_argument("--only", metavar="NAME", default=None,
                          help="execute just this named run (output is"
                               " then byte-identical to the equivalent"
                               " legacy command)")
    run_spec.add_argument("--list", action="store_true",
                          help="list the spec's runs without executing")
    run_spec.add_argument("--json", metavar="PATH", default=None,
                          help="also write every result as lossless JSON"
                               " to this file")

    simulate = sub.add_parser("simulate", help="run a workload")
    simulate.add_argument("--workload",
                          choices=("barrier", "oltp", "static"),
                          default="barrier")
    simulate.add_argument("--balancer",
                          choices=("verified", "cfs", "null", "ideal",
                                   "hierarchical"),
                          default="verified")
    simulate.add_argument("--cores", type=int, default=8)
    simulate.add_argument("--nodes", type=int, default=2)
    simulate.add_argument("--ticks", type=int, default=5000)
    simulate.add_argument("--seed", type=int, default=0)

    dsl = sub.add_parser("dsl", help="compile a DSL policy file")
    dsl.add_argument("file", help="policy source path, or - for stdin")
    dsl.add_argument("--emit", choices=("verify", "c", "scala"),
                     default="verify")
    dsl.add_argument("--cores", type=int, default=3)
    dsl.add_argument("--max-load", type=int, default=3)

    from repro.store.cli import add_store_parser

    add_store_parser(sub)

    worker = sub.add_parser(
        "worker",
        help="serve verification shards to a remote coordinator",
    )
    worker.add_argument(
        "--listen", metavar="HOST:PORT", default="127.0.0.1:0",
        help="address to listen on (port 0 = OS-assigned; the chosen"
             " port is announced on stdout)",
    )
    worker.add_argument(
        "--heartbeat", type=_positive_float, default=1.0,
        help="seconds between heartbeat frames while a task runs",
    )

    from repro.service.cli import add_service_parsers

    add_service_parsers(sub)

    return parser


COMMANDS = {
    "list-policies": cmd_list_policies,
    "verify": cmd_verify,
    "zoo": cmd_zoo,
    "hunt": cmd_hunt,
    "refine": cmd_refine,
    "campaign": cmd_campaign,
    "run-spec": cmd_run_spec,
    "simulate": cmd_simulate,
    "dsl": cmd_dsl,
    "store": cmd_store,
    "worker": cmd_worker,
}


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    if args.command in COMMANDS:
        return COMMANDS[args.command](args)
    # The service commands (serve-store, serve) live in their own
    # package and register lazily, keeping `--help` startup light.
    from repro.service.cli import SERVICE_COMMANDS

    return SERVICE_COMMANDS[args.command](args)
