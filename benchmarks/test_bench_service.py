"""Verification service: warm-hit latency over the wire vs the local
filesystem, and the fleet-shared hit rate.

The store server's pitch is that sharing costs little: a warm hit
served over TCP is a few framed-JSON round trips, still orders of
magnitude below re-exploring the scope, and every client of one server
sees every other client's proofs. This benchmark proves a small sweep
once through a ``NetworkStore``, then measures per-hit latency through
the socket against direct ``FileStore`` reads, and has a second
(fresh) client replay the sweep to record the fleet-shared hit rate —
``benchmarks/results/service_latency.txt``. The table holds
deterministic columns only (lookup and hit counts), so rerunning the
test leaves it unchanged; the latency bounds stay assertions, and
end-to-end latency is measured by the ``http-mixed`` workload of
``benchmarks/suite``.
"""

import time

from repro.api import ResultReused, Session, VerificationRequest
from repro.metrics import render_table
from repro.service.netstore import NetworkStore
from repro.service.server import StoreServer
from repro.store import FileStore, store_key

from conftest import record_result

#: Warm lookups per store when timing a single hit.
HIT_ROUNDS = 50


def sweep_requests():
    """Three provable scopes — enough keys to make the rate a rate."""
    return [
        VerificationRequest.builder("prove")
        .policy(policy).scope(cores=3, max_load=3).build()
        for policy in ("balance_count", "greedy_halving",
                       "provable_weighted")
    ]


def run_sweep(store):
    events = []
    session = Session(subscribers=[events.append], store=store)
    start = time.perf_counter()
    for request in sweep_requests():
        session.run(request)
    elapsed = time.perf_counter() - start
    reused = sum(isinstance(e, ResultReused) for e in events)
    return elapsed, reused


def time_hits(store, keys):
    """Seconds per warm lookup, every lookup asserted to hit."""
    start = time.perf_counter()
    for _ in range(HIT_ROUNDS):
        for key in keys:
            assert store.load(key) is not None
    elapsed = time.perf_counter() - start
    return elapsed / (HIT_ROUNDS * len(keys))


def test_bench_service_latency(tmp_path):
    file_store = FileStore(tmp_path / "store")
    with StoreServer(file_store) as server:
        host, port = server.address
        writer = NetworkStore(host, port)

        cold_s, cold_reused = run_sweep(writer)
        assert cold_reused == 0

        keys = [store_key(request) for request in sweep_requests()]
        net_latency = time_hits(writer, keys)
        time_hits(file_store, keys)

        # A fresh client of the same server starts 100% warm: the
        # fleet shares one cache.
        fleet = NetworkStore(host, port)
        fleet_s, fleet_reused = run_sweep(fleet)
        hit_rate = fleet_reused / len(sweep_requests())
        assert hit_rate == 1.0
        assert fleet_s < cold_s, (
            f"fleet-warm sweep ({fleet_s:.3f}s) not faster than cold"
            f" ({cold_s:.3f}s)"
        )

        writer.close()
        fleet.close()

    # The socket adds framing + a round trip per hit, so it cannot
    # beat local reads — but a warm network hit must stay cheap in
    # absolute terms (one hit, not one exploration).
    assert net_latency < 1.0, f"warm network hit took {net_latency:.3f}s"

    lookups = HIT_ROUNDS * len(keys)
    rows = [
        ["FileStore (local disk)", lookups, lookups],
        ["NetworkStore (tcp://)", lookups, lookups],
    ]
    table = render_table(["warm hit path", "lookups", "hits"], rows)
    summary = (
        f"Warm hits over {HIT_ROUNDS} rounds x {len(keys)}"
        " keys, one store server:\n" + table
        + f"\n\nfleet-shared hit rate (fresh client, same server):"
        f" {fleet_reused}/{len(sweep_requests())}"
        f" ({hit_rate:.0%})"
    )
    record_result("service_latency", summary)
