"""Tests for the distributed verification coordinator.

The load-bearing property, inherited from the parallel engine and now
carried across a transport: for any worker count and any transport —
in-process, TCP sockets, subprocess pool — the merged outcome is
*identical* to the serial path. On top of that, the coordinator must
degrade gracefully: a dead worker means reassignment, not a hung or
wrong proof.
"""

import contextlib
import os
import threading

import pytest

from repro.policies import BalanceCountPolicy
from repro.policies.naive import GreedyReadyPolicy, NaiveOverloadedPolicy
from repro.verify import (
    CampaignConfig,
    Coordinator,
    InProcessTransport,
    LocalWorkerPool,
    ModelChecker,
    SocketTransport,
    StateScope,
    TaskFailed,
    WorkerLost,
    WorkerRuntime,
    WorkerServer,
    prove_work_conserving,
)
from repro.verify.distributed import connect_workers, coordinator_tasks
from repro.verify.encoding import StateCodec
from repro.verify.symmetry import FlatSymmetryGroup
from repro.verify.tasks import (
    CheckerConfig,
    ExpandTask,
    SweepTask,
)
from repro.verify.wire import TASK, WireMessage, decode_message, encode_message
from repro.verify.parallel import pool_tasks
from repro.verify.work_conservation import (
    analyze,
    campaign,
    make_shard_specs,
    prove,
)

SCOPE = StateScope(n_cores=3, max_load=2)


def assert_certificates_equal(ours, theirs):
    """Field-by-field equality of two certificates, ignoring timings."""
    assert ours.proved == theirs.proved
    assert ours.exact_worst_rounds == theirs.exact_worst_rounds
    assert ours.potential_bound == theirs.potential_bound
    assert ours.min_decrease == theirs.min_decrease
    assert ours.analysis.states_explored == theirs.analysis.states_explored
    assert ours.analysis.bad_states == theirs.analysis.bad_states
    for mine, other in zip(ours.report.results, theirs.report.results):
        assert mine.obligation.key == other.obligation.key
        assert mine.status == other.status
        if other.ok:
            # Refuted sweeps may count more states than the serial early
            # exit (each shard stops at its own first counterexample) —
            # the documented, verdict-preserving divergence.
            assert mine.states_checked == other.states_checked
        if other.counterexample is not None:
            assert mine.counterexample.state == other.counterexample.state
            assert mine.counterexample.detail == other.counterexample.detail


def in_process_coordinator(n_workers: int = 2) -> Coordinator:
    return Coordinator([
        InProcessTransport(f"in-process-{index}")
        for index in range(n_workers)
    ])


@contextlib.contextmanager
def socket_coordinator(n_workers: int = 2, heartbeat_s: float = 0.2):
    """Coordinator over ``n_workers`` WorkerServers in background threads.

    Runs the full TCP protocol (handshake, framing, heartbeats) without
    subprocesses, so these tests are fast and count toward coverage.
    """
    servers = []
    threads = []
    for _ in range(n_workers):
        server = WorkerServer(host="127.0.0.1", port=0,
                              heartbeat_s=heartbeat_s)
        ready = threading.Event()
        thread = threading.Thread(
            target=server.serve_forever,
            kwargs={"announce": lambda line: None, "ready": ready},
            daemon=True,
        )
        thread.start()
        assert ready.wait(5), "worker server failed to bind"
        servers.append(server)
        threads.append(thread)
    coordinator = Coordinator([
        SocketTransport("127.0.0.1", server.bound_port, patience_s=10.0)
        for server in servers
    ])
    try:
        yield coordinator
    finally:
        coordinator.close(shutdown=True)
        for server in servers:
            server.shutdown()
        for thread in threads:
            thread.join(timeout=5)


class TestInProcessEquivalence:
    @pytest.mark.parametrize("policy_cls", [
        BalanceCountPolicy,          # fully proved
        NaiveOverloadedPolicy,       # refuted (ping-pong lasso)
        GreedyReadyPolicy,           # refuted at the lemma layer
    ])
    def test_distributed_matches_serial(self, policy_cls):
        serial = prove_work_conserving(policy_cls(), SCOPE)
        distributed = prove(policy_cls(), SCOPE,
                            coordinator_tasks(in_process_coordinator(2)))
        assert_certificates_equal(distributed, serial)

    def test_symmetric_mode_matches(self):
        serial = prove_work_conserving(BalanceCountPolicy(), SCOPE,
                                       symmetry=FlatSymmetryGroup())
        distributed = prove(
            BalanceCountPolicy(), SCOPE,
            coordinator_tasks(in_process_coordinator(3)),
            symmetry=FlatSymmetryGroup(),
        )
        assert_certificates_equal(distributed, serial)

    def test_more_workers_than_states(self):
        tiny = StateScope(n_cores=2, max_load=1)
        serial = prove_work_conserving(BalanceCountPolicy(), tiny)
        distributed = prove(
            BalanceCountPolicy(), tiny,
            coordinator_tasks(in_process_coordinator(8)),
        )
        assert_certificates_equal(distributed, serial)

    def test_analyze_matches_serial_lasso(self):
        serial = ModelChecker(NaiveOverloadedPolicy()).analyze(SCOPE)
        distributed = analyze(
            NaiveOverloadedPolicy(), SCOPE,
            coordinator_tasks(in_process_coordinator(2)),
        )
        assert distributed.violated and serial.violated
        assert distributed.lasso.cycle == serial.lasso.cycle
        assert distributed.states_explored == serial.states_explored


class TestSocketEquivalence:
    def test_proof_over_tcp_matches_serial(self):
        serial = prove_work_conserving(BalanceCountPolicy(), SCOPE)
        with socket_coordinator(2) as coordinator:
            distributed = prove(
                BalanceCountPolicy(), SCOPE, coordinator_tasks(coordinator),
            )
        assert_certificates_equal(distributed, serial)

    def test_refuted_proof_over_tcp_matches_serial(self):
        serial = prove_work_conserving(NaiveOverloadedPolicy(), SCOPE)
        with socket_coordinator(2) as coordinator:
            distributed = prove(NaiveOverloadedPolicy(), SCOPE,
                                coordinator_tasks(coordinator))
        assert_certificates_equal(distributed, serial)

    def test_campaign_over_tcp_matches_pool_engine(self):
        config = CampaignConfig(n_machines=6, max_cores=5, max_load=4,
                                rounds_per_machine=8, seed=11)
        with pool_tasks(2) as tasks:
            pooled = campaign(BalanceCountPolicy, config, tasks)
        with socket_coordinator(2) as coordinator:
            distributed = campaign(BalanceCountPolicy, config,
                                   coordinator_tasks(coordinator))
        assert distributed.describe() == pooled.describe()
        assert distributed.machines == config.n_machines

    def test_worker_survives_consecutive_coordinators(self):
        """One long-lived worker terminal serves many proof runs."""
        server = WorkerServer(host="127.0.0.1", port=0, heartbeat_s=0.2)
        ready = threading.Event()
        thread = threading.Thread(
            target=server.serve_forever,
            kwargs={"announce": lambda line: None, "ready": ready},
            daemon=True,
        )
        thread.start()
        assert ready.wait(5)
        try:
            serial = prove_work_conserving(BalanceCountPolicy(), SCOPE)
            for _ in range(2):
                coordinator = connect_workers(
                    [f"127.0.0.1:{server.bound_port}"]
                )
                try:
                    cert = prove(
                        BalanceCountPolicy(), SCOPE,
                        coordinator_tasks(coordinator),
                    )
                finally:
                    coordinator.close()
                assert_certificates_equal(cert, serial)
        finally:
            server.shutdown()
            thread.join(timeout=5)

    def test_ping(self):
        with socket_coordinator(1) as coordinator:
            client = coordinator._clients[0]
            assert client.ping()


class TestNoDelay:
    def test_both_ends_of_the_worker_socket_disable_nagle(self, monkeypatch):
        """Coordinator and worker sockets both set TCP_NODELAY."""
        import socket as socket_module

        server_side: list[int] = []
        serve = WorkerServer._serve_connection

        def recording_serve(self, conn):
            server_side.append(conn.getsockopt(
                socket_module.IPPROTO_TCP, socket_module.TCP_NODELAY
            ))
            return serve(self, conn)

        monkeypatch.setattr(WorkerServer, "_serve_connection",
                            recording_serve)
        server = WorkerServer(host="127.0.0.1", port=0, heartbeat_s=0.2)
        ready = threading.Event()
        thread = threading.Thread(
            target=server.serve_forever,
            kwargs={"announce": lambda line: None, "ready": ready},
            daemon=True,
        )
        thread.start()
        assert ready.wait(5)
        try:
            transport = SocketTransport("127.0.0.1", server.bound_port,
                                        patience_s=5.0)
            try:
                assert transport.ping()
                assert transport._sock.getsockopt(
                    socket_module.IPPROTO_TCP, socket_module.TCP_NODELAY
                ) != 0
            finally:
                transport.close()
        finally:
            server.shutdown()
            thread.join(timeout=5)
        assert server_side and server_side[0] != 0


class _FlakyTransport(InProcessTransport):
    """Dies (transport-level) on its first ``fail_first`` submissions."""

    def __init__(self, name="flaky", fail_first=1):
        super().__init__(name)
        self._failures_left = fail_first

    def submit(self, task_id, payload):
        if self._failures_left > 0:
            self._failures_left -= 1
            raise WorkerLost(f"{self.name} dropped off the network")
        return super().submit(task_id, payload)


class TestReassignment:
    def test_lost_worker_degrades_to_redispatch(self):
        """A worker death mid-run reassigns its shard, verdict unchanged."""
        serial = prove_work_conserving(BalanceCountPolicy(), SCOPE)
        coordinator = Coordinator([
            _FlakyTransport("flaky", fail_first=1),
            InProcessTransport("steady"),
        ])
        cert = prove(
            BalanceCountPolicy(), SCOPE, coordinator_tasks(coordinator),
        )
        assert_certificates_equal(cert, serial)
        assert coordinator.lost_workers == ["flaky"]
        assert coordinator.n_workers == 1

    def test_all_workers_lost_raises(self):
        coordinator = Coordinator([
            _FlakyTransport("flaky-a", fail_first=99),
            _FlakyTransport("flaky-b", fail_first=99),
        ])
        with pytest.raises(WorkerLost):
            prove(BalanceCountPolicy(), SCOPE, coordinator_tasks(coordinator))

    def test_reassignment_budget_exhaustion_raises(self):
        clients = [_FlakyTransport(f"flaky-{i}", fail_first=99)
                   for i in range(6)]
        coordinator = Coordinator(clients, max_reassignments=2)
        with pytest.raises(WorkerLost):
            coordinator.map([SweepTask(
                spec=make_shard_specs(CheckerConfig(policy=BalanceCountPolicy()),
                                  SCOPE, 1)[0]
            )])

    def test_task_failure_propagates_without_reassignment(self):
        """In-task exceptions are deterministic: fail fast, don't retry."""
        coordinator = in_process_coordinator(2)
        with pytest.raises(TaskFailed):
            coordinator.map(["not a task payload"])

    def test_empty_map_is_a_noop(self):
        assert in_process_coordinator(1).map([]) == []

    def test_coordinator_requires_workers(self):
        from repro.core.errors import VerificationError

        with pytest.raises(VerificationError):
            Coordinator([])


class TestSubprocessPool:
    """The reference deployment: real subprocesses, real TCP."""

    def test_pool_proof_matches_serial(self):
        serial = prove_work_conserving(BalanceCountPolicy(), SCOPE)
        with LocalWorkerPool(2) as coordinator:
            cert = prove(
                BalanceCountPolicy(), SCOPE, coordinator_tasks(coordinator),
            )
        assert_certificates_equal(cert, serial)

    def test_killed_subprocess_worker_is_reassigned(self):
        serial = prove_work_conserving(BalanceCountPolicy(), SCOPE)
        pool = LocalWorkerPool(2)
        try:
            pool.processes[0].kill()
            pool.processes[0].wait()
            cert = prove(
                BalanceCountPolicy(), SCOPE,
                coordinator_tasks(pool.coordinator),
            )
            assert_certificates_equal(cert, serial)
            assert len(pool.coordinator.lost_workers) == 1
        finally:
            pool.__exit__(None, None, None)

    def test_rejects_nonpositive_worker_count(self):
        from repro.core.errors import VerificationError

        with pytest.raises(VerificationError):
            LocalWorkerPool(0)

    def test_startup_failure_quotes_worker_stderr(self):
        """A worker that dies before announcing is diagnosable."""
        from unittest import mock

        broken_env = {"PATH": os.environ.get("PATH", "/usr/bin:/bin"),
                      "PYTHONPATH": "/nonexistent"}
        with mock.patch.object(LocalWorkerPool, "_worker_env",
                               staticmethod(lambda: broken_env)):
            with pytest.raises(WorkerLost, match="failed to start"):
                LocalWorkerPool(1)


CODEC = StateCodec(n_cores=3, max_value=6)


def _expand_task(config, *states):
    """An expand task over a packed chunk, as the coordinator ships it."""
    return ExpandTask(config=config, codec=CODEC,
                      packed=tuple(CODEC.encode(state) for state in states))


def _over_the_wire(task):
    """``task`` as a worker receives it: a fresh decoded copy."""
    return decode_message(encode_message(
        WireMessage(kind=TASK, payload=task)
    )).payload


class TestWorkerRuntime:
    def test_checker_memo_is_shared_across_expand_tasks(self):
        runtime = WorkerRuntime()
        config = CheckerConfig(policy=BalanceCountPolicy())
        runtime.execute(_over_the_wire(_expand_task(config, (0, 1, 2))))
        runtime.execute(_over_the_wire(_expand_task(config, (0, 2, 2))))
        assert len(runtime._checkers) == 1

    def test_distinct_configs_get_distinct_checkers(self):
        runtime = WorkerRuntime()
        runtime.execute(_expand_task(
            CheckerConfig(policy=BalanceCountPolicy()), (0, 1, 2),
        ))
        runtime.execute(_expand_task(
            CheckerConfig(policy=BalanceCountPolicy(),
                          symmetry=FlatSymmetryGroup()),
            (2, 1, 0),
        ))
        assert len(runtime._checkers) == 2

    def test_sweep_and_expand_tasks_of_a_proof_share_one_checker(self):
        runtime = WorkerRuntime()
        config = CheckerConfig(policy=BalanceCountPolicy())
        spec = make_shard_specs(config, SCOPE, 1)[0]
        runtime.execute(_over_the_wire(SweepTask(spec=spec)))
        assert len(runtime._checkers) == 1
        (_, checker), = runtime._checkers.values()
        runtime.execute(_over_the_wire(_expand_task(config, (0, 1, 2))))
        assert [entry[1] for entry in runtime._checkers.values()] \
            == [checker]

    def test_unknown_payload_rejected(self):
        from repro.verify.wire import WireProtocolError

        with pytest.raises(WireProtocolError):
            WorkerRuntime().execute(42)


class TestConnectWorkers:
    def test_malformed_endpoint_rejected(self):
        from repro.core.errors import VerificationError

        with pytest.raises(VerificationError):
            connect_workers(["no-port-here"])

    def test_unreachable_endpoint_raises_worker_lost(self):
        with pytest.raises(WorkerLost):
            connect_workers(["127.0.0.1:1"], patience_s=1.0)


class TestParseEndpoint:
    def test_accepts_host_port(self):
        from repro.verify import parse_endpoint

        assert parse_endpoint("10.0.0.5:7070") == ("10.0.0.5", 7070)
        assert parse_endpoint(" localhost:0 ") == ("localhost", 0)

    @pytest.mark.parametrize("bad", [
        "no-port-here", ":7070", "host:", "host:port", "host:-1",
        "host:999999",
    ])
    def test_rejects_malformed_endpoints(self, bad):
        from repro.core.errors import VerificationError
        from repro.verify import parse_endpoint

        with pytest.raises(VerificationError):
            parse_endpoint(bad)


class TestCleanClose:
    def test_clean_close_does_not_report_lost_workers(self):
        coordinator = in_process_coordinator(2)
        coordinator.map([SweepTask(
            spec=make_shard_specs(CheckerConfig(policy=BalanceCountPolicy()),
                                  SCOPE, 1)[0]
        )])
        coordinator.close()
        assert coordinator.lost_workers == []
        assert coordinator.n_workers == 0


class TestHandshakeRejection:
    def test_version_mismatch_is_reported_loudly(self):
        """A worker names the version problem instead of just hanging up."""
        import socket as socket_module

        from repro.verify.wire import recv_message

        server = WorkerServer(host="127.0.0.1", port=0, heartbeat_s=0.2)
        ready = threading.Event()
        thread = threading.Thread(
            target=server.serve_forever,
            kwargs={"announce": lambda line: None, "ready": ready},
            daemon=True,
        )
        thread.start()
        assert ready.wait(5)
        try:
            sock = socket_module.create_connection(
                ("127.0.0.1", server.bound_port), timeout=5
            )
            sock.settimeout(5)
            # A future-release hello: same framing, wrong version.
            import json
            import struct

            body = b"J" + json.dumps(
                {"v": 999, "kind": "hello", "task_id": -1, "payload": {}}
            ).encode()
            sock.sendall(struct.pack("!I", len(body)) + body)
            reply = recv_message(sock)
            assert reply.kind == "error"
            assert "version" in reply.payload["traceback"]
            sock.close()
            # ... and a correct-version coordinator still works after.
            transport = SocketTransport("127.0.0.1", server.bound_port,
                                        patience_s=5.0)
            assert transport.ping()
            transport.close()
        finally:
            server.shutdown()
            thread.join(timeout=5)


class TestTopologySymmetryDistributed:
    def test_numa_group_certificate_matches_serial(self):
        from repro.policies.numa_aware import NumaAwareChoicePolicy
        from repro.topology.numa import symmetric_numa
        from repro.verify.symmetry import NumaSymmetryGroup

        topo = symmetric_numa(2, 2)
        group = NumaSymmetryGroup(topo)
        scope = StateScope(n_cores=4, max_load=3)
        serial = prove_work_conserving(
            NumaAwareChoicePolicy(topo), scope, symmetry=group,
            topology=topo,
        )
        distributed = prove(
            NumaAwareChoicePolicy(topo), scope,
            coordinator_tasks(in_process_coordinator(2)), symmetry=group,
            topology=topo,
        )
        assert_certificates_equal(distributed, serial)

    def test_hierarchical_hunt_matches_pool_engine(self):
        from repro.topology.numa import symmetric_numa
        from repro.verify.hierarchical import HierarchySpec

        spec = HierarchySpec(topology=symmetric_numa(2, 2))
        scope = StateScope(n_cores=4, max_load=3)
        with pool_tasks(2) as tasks:
            pooled = analyze(None, scope, tasks, hierarchy=spec,
                             symmetry=spec.symmetry_group())
        distributed = analyze(
            None, scope, coordinator_tasks(in_process_coordinator(2)),
            hierarchy=spec, symmetry=spec.symmetry_group(),
        )
        assert not distributed.violated
        assert distributed.worst_case_rounds == pooled.worst_case_rounds
        assert distributed.states_explored == pooled.states_explored
