"""One workload run in a fresh process: set up, measure, report.

``run.py`` starts this module as a child process per set-up::

    python3 harness.py --workload NAME --seed N --seconds S --trace 0|1 \\
        --role setup|measure --work DIR

The child imports the program, starts the workload's worker or server
processes, sends one untimed warm-up (and, for ``http-mixed``, pre-warms
the store), then prints ``READY`` — the parent times set-up up to that
line. A ``setup`` child then stops; a ``measure`` child runs passes for
``--seconds``. Both end with ``RESULT <json>``: the machine speed during
set-up (:mod:`speed`) and, from a ``measure`` child, the run's metrics.

A traced child (``--trace 1``) spends the first half of its time on
untraced passes and the second half with every layer wrapped
(:mod:`layers`), workers and server included via :mod:`launcher`; the
ratio of the two halves' pass times is the tracing overhead.
"""

from __future__ import annotations

import argparse
import http.client
import json
import math
import os
import random
import resource
import select
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import layers
import speed
import stats
from workloads import (
    WORKLOADS,
    Workload,
    answer_matches,
    load_expected,
    request_document,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
CLK_TCK = os.sysconf("SC_CLK_TCK")

#: Seconds a started worker or server gets to announce its address.
START_TIMEOUT_S = 60.0

#: Seconds one HTTP request may take before it counts as failed.
HTTP_TIMEOUT_S = 60.0

#: Cold http requests use policy seeds from here up, far from the
#: pre-warmed seeds ``0 .. warm_keys - 1``.
COLD_SEED_BASE = 1_000_000_000


# ---------------------------------------------------------------------------
# measurement helpers
# ---------------------------------------------------------------------------


def cpu_seconds(pids: list[int]) -> float:
    """User plus system CPU of this process and of ``pids``."""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    total = usage.ru_utime + usage.ru_stime
    for pid in pids:
        with open(f"/proc/{pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        total += (int(fields[11]) + int(fields[12])) / CLK_TCK
    return total


def program_env(**extra: str) -> dict[str, str]:
    """This process's environment with the checkout's ``src`` first on
    ``PYTHONPATH``, so every process started with it imports this
    checkout's program."""
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)),
                **extra)


def reset_peak_rss(pids: list[int]) -> None:
    """Restart the peak resident set of this process and of ``pids``
    from their present size."""
    for pid in ("self", *pids):
        with open(f"/proc/{pid}/clear_refs", "w") as handle:
            handle.write("5")


def peak_rss_mb(pids: list[int]) -> float:
    """Highest peak resident set (``VmHWM``) of this process and of
    ``pids`` since :func:`reset_peak_rss`."""
    peaks = []
    for pid in ("self", *pids):
        with open(f"/proc/{pid}/status") as handle:
            peaks += [int(line.split()[1]) for line in handle
                      if line.startswith("VmHWM:")]
    return max(peaks) / 1024.0


def result_answer(result: Any) -> tuple[str, int | None, int]:
    """``(verdict, exact N, states)`` of a ``VerificationResult``."""
    analysis = (result.certificate.analysis if result.certificate is not None
                else result.analysis)
    return (result.verdict.value, analysis.worst_case_rounds,
            result.stats.states_explored)


def document_answer(document: dict[str, Any]) -> tuple[str, int | None, int]:
    """``(verdict, exact N, states)`` of a ``result_to_dict`` document."""
    analysis = (document["certificate"]["analysis"]
                if document["certificate"] is not None
                else document["analysis"])
    return (document["verdict"], analysis["worst_case_rounds"],
            document["stats"]["states_explored"])


@dataclass
class Tally:
    """What a phase of passes measured; pass ``i`` ran from
    ``starts[i]`` for ``walls[i]`` seconds (``time.perf_counter``)."""

    starts: list[float] = field(default_factory=list)
    walls: list[float] = field(default_factory=list)
    cpus: list[float] = field(default_factory=list)
    states: list[int] = field(default_factory=list)
    peaks_mb: list[float] = field(default_factory=list)
    warm_ms: list[float] = field(default_factory=list)
    cold_ms: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    verdict_errors: int = 0

    def add_pass(self, start: float, cpu_s: float, states: int,
                 peak_mb: float) -> None:
        """Record a pass that began at ``start`` and ends now."""
        self.starts.append(start)
        self.walls.append(time.perf_counter() - start)
        self.cpus.append(cpu_s)
        self.states.append(states)
        self.peaks_mb.append(peak_mb)


def run_passes(one_pass: Callable[[], None], budget_s: float,
               min_passes: int = 1) -> None:
    """Run passes until ``budget_s`` is spent: at least ``min_passes``,
    and no further pass once the next would likely end more than half a
    pass past the budget."""
    start = time.perf_counter()
    passes = 0
    while True:
        one_pass()
        passes += 1
        elapsed = time.perf_counter() - start
        if passes >= min_passes and elapsed + 0.5 * elapsed / passes >= budget_s:
            return


# ---------------------------------------------------------------------------
# worker / server processes
# ---------------------------------------------------------------------------


class Fleet:
    """The worker or server processes one harness started, each through
    :mod:`launcher`."""

    def __init__(self, work: Path, env: dict[str, str], traced: bool) -> None:
        self.work = work
        self.env = env
        self.traced = traced
        self.procs: list[subprocess.Popen[str]] = []
        self.dumps: list[Path] = []

    @property
    def pids(self) -> list[int]:
        return [proc.pid for proc in self.procs]

    def start(self, commands: list[list[str]]) -> list[str]:
        """Start one process per ``repro`` argument list; their
        announced ``HOST:PORT`` addresses, in order."""
        for args in commands:
            dump = self.work / f"fleet-{len(self.dumps)}.json"
            self.dumps.append(dump)
            argv = [sys.executable, str(HERE / "launcher.py"),
                    *(["--trace"] if self.traced else []), str(dump),
                    "--", *args]
            self.procs.append(subprocess.Popen(
                argv, stdout=subprocess.PIPE, text=True, env=self.env,
            ))
        return [self._address(proc) for proc in self.procs]

    @staticmethod
    def _address(proc: subprocess.Popen[str]) -> str:
        assert proc.stdout is not None
        ready, _, _ = select.select([proc.stdout], [], [], START_TIMEOUT_S)
        line = proc.stdout.readline() if ready else ""
        if " listening on " not in line:
            raise RuntimeError(f"process {proc.args} did not start: {line!r}")
        return line.strip().rsplit(" ", 1)[1]

    def enable_tracing(self) -> None:
        """Zero the launchers' counters and start recording."""
        for proc, dump in zip(self.procs, self.dumps):
            proc.send_signal(signal.SIGUSR1)
            ack = dump.with_name(dump.name + ".on")
            deadline = time.monotonic() + START_TIMEOUT_S
            while not ack.exists():
                if time.monotonic() > deadline:
                    raise RuntimeError(f"{proc.args} did not enable tracing")
                time.sleep(0.01)

    def stop(self) -> None:
        """Terminate and reap every process."""
        for proc in self.procs:
            if proc.poll() is None:
                proc.terminate()
        for proc in self.procs:
            try:
                proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
            if proc.stdout is not None:
                proc.stdout.close()

    def results(self) -> tuple[speed.Samples, list[layers.Counters]]:
        """Every launcher's speed samples and per-thread layer counters
        (after :meth:`stop`)."""
        samples: speed.Samples = []
        threads: list[layers.Counters] = []
        for dump in self.dumps:
            document = json.loads(dump.read_text())
            samples.extend((time_s, value) for time_s, value in document["speed"])
            threads.extend(document["layers"])
        return samples, threads


# ---------------------------------------------------------------------------
# the two drivers
# ---------------------------------------------------------------------------


class BatchDriver:
    """Sends a request list through ``Session.run``, one pass at a time,
    in an order drawn from the seed."""

    def __init__(self, workload: Workload, rng: random.Random,
                 expected: dict[str, dict[str, Any]],
                 endpoints: tuple[str, ...]) -> None:
        from repro.api import Session, request_from_dict

        self.workload = workload
        self.rng = rng
        self.expected = expected
        self.session = Session()
        self.requests = {
            request_id: request_from_dict(
                request_document(request_id, endpoints=endpoints))
            for request_id in (*workload.requests, workload.warmup)
        }

    def _run(self, request_id: str, tally: Tally) -> int:
        """Run one request; the states it explored (0 on failure)."""
        tally.attempted += 1
        try:
            result = self.session.run(self.requests[request_id])
        except Exception as exc:  # a failure is counted, never fatal
            print(f"request {request_id} failed: {type(exc).__name__}: {exc}",
                  file=sys.stderr)
            tally.failed += 1
            return 0
        answer = result_answer(result)
        if not answer_matches(self.expected[request_id], *answer):
            print(f"request {request_id}: wrong answer {answer}",
                  file=sys.stderr)
            tally.verdict_errors += 1
        return answer[2]

    def warm_up(self, tally: Tally) -> None:
        self._run(self.workload.warmup, tally)

    def one_pass(self, tally: Tally, pids: list[int]) -> None:
        order = list(self.workload.requests)
        self.rng.shuffle(order)
        reset_peak_rss(pids)
        cpu = cpu_seconds(pids)
        start = time.perf_counter()
        states = sum(self._run(request_id, tally) for request_id in order)
        tally.add_pass(start, cpu_seconds(pids) - cpu, states,
                       peak_rss_mb(pids))


class HttpDriver:
    """Closed-loop ``POST /run-spec`` clients against one server.

    Each pass is a block of requests in seed order: warm requests draw a
    pre-warmed policy seed uniformly, cold requests take a fresh one.
    """

    def __init__(self, workload: Workload, rng: random.Random,
                 expected: dict[str, dict[str, Any]], address: str) -> None:
        self.workload = workload
        self.rng = rng
        self.expected = expected[workload.requests[0]]
        host, _, port = address.rpartition(":")
        self.host, self.port = host, int(port)
        self.next_cold = COLD_SEED_BASE + rng.randrange(1_000_000) * 1000

    def _body(self, seed: int) -> bytes:
        spec = {"spec_version": 1, "name": "bench", "runs": [{
            "name": "run",
            **request_document(self.workload.requests[0], seed=seed),
        }]}
        return json.dumps(spec).encode("utf-8")

    def _post(self, body: bytes) -> tuple[str, int, float]:
        """One request: ``(outcome, states freshly explored, latency s)``
        with outcome ``"ok"``, ``"failed"`` or ``"wrong"``."""
        start = time.perf_counter()
        connection = http.client.HTTPConnection(self.host, self.port,
                                                timeout=HTTP_TIMEOUT_S)
        try:
            connection.request("POST", "/run-spec", body=body, headers={
                "Content-Type": "application/json",
                "Accept": "application/json",
            })
            response = connection.getresponse()
            status, data = response.status, response.read()
        except (OSError, http.client.HTTPException) as exc:
            print(f"POST failed: {exc}", file=sys.stderr)
            return "failed", 0, time.perf_counter() - start
        finally:
            connection.close()
        latency = time.perf_counter() - start
        try:
            if status != 200:
                raise ValueError(f"status {status}")
            result = json.loads(data)[0]["result"]
            answer = document_answer(result)
        except (ValueError, LookupError, TypeError) as exc:
            print(f"POST answered {exc}: {data[:200]!r}", file=sys.stderr)
            return "failed", 0, latency
        if not answer_matches(self.expected, *answer):
            print(f"POST: wrong answer {answer}", file=sys.stderr)
            return "wrong", 0, latency
        fresh = not result.get("provenance", {}).get("hit", False)
        return "ok", (answer[2] if fresh else 0), latency

    @staticmethod
    def _count(tally: Tally, outcome: str) -> None:
        tally.attempted += 1
        tally.failed += outcome == "failed"
        tally.verdict_errors += outcome == "wrong"

    def warm_up(self, tally: Tally) -> None:
        """Pre-warm the store with every warm key, one request at a time."""
        for seed in range(self.workload.warm_keys):
            self._count(tally, self._post(self._body(seed))[0])

    def one_pass(self, tally: Tally, pids: list[int]) -> None:
        block = [False] * (self.workload.block - self.workload.cold_per_block)
        block += [True] * self.workload.cold_per_block
        self.rng.shuffle(block)
        plan = []
        for cold in block:
            if cold:
                seed, self.next_cold = self.next_cold, self.next_cold + 1
            else:
                seed = self.rng.randrange(self.workload.warm_keys)
            plan.append((cold, self._body(seed)))
        lock = threading.Lock()
        cursor = iter(plan)
        states = [0]

        def client() -> None:
            while True:
                with lock:
                    item = next(cursor, None)
                if item is None:
                    return
                cold, body = item
                outcome, explored, latency = self._post(body)
                with lock:
                    self._count(tally, outcome)
                    states[0] += explored
                    (tally.cold_ms if cold else tally.warm_ms).append(
                        latency * 1000.0)

        reset_peak_rss(pids)
        cpu = cpu_seconds(pids)
        start = time.perf_counter()
        threads = [threading.Thread(target=client)
                   for _ in range(self.workload.size)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        tally.add_pass(start, cpu_seconds(pids) - cpu, states[0],
                       peak_rss_mb(pids))


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def pass_speeds(tally: Tally, samples: speed.Samples) -> list[float]:
    """The machine speed during each pass of ``tally``."""
    return [speed.span_speed(samples, start, start + wall)
            for start, wall in zip(tally.starts, tally.walls)]


def at_reference_speed(values: list[float], tally: Tally,
                       samples: speed.Samples) -> list[float]:
    """Per-pass times of ``tally`` (its walls or CPU times) at the
    reference speed."""
    return [value * factor
            for value, factor in zip(values, pass_speeds(tally, samples))]


def end_to_end_metrics(tally: Tally,
                       samples: speed.Samples) -> dict[str, float]:
    """The end-to-end metrics of one untraced phase, times at the
    reference speed (``setup_s`` is added by the caller)."""
    wall = stats.median(at_reference_speed(tally.walls, tally, samples))
    return {
        "wall_s": wall,
        "cpu_s": stats.median(at_reference_speed(tally.cpus, tally, samples)),
        "states_per_s": stats.median(tally.states) / wall,
        "peak_rss_mb": stats.median(tally.peaks_mb),
    }


#: The client-side http percentiles, by metric name.
HTTP_PERCENTILES = {"warm_p50_ms": 0.50, "warm_p99_ms": 0.99,
                    "cold_p50_ms": 0.50, "cold_p90_ms": 0.90}


def http_latency_metrics(tally: Tally) -> dict[str, float | None]:
    """Client-side latency percentiles and request rate of a phase;
    a percentile without enough samples beyond it is ``None``."""
    requests = len(tally.warm_ms) + len(tally.cold_ms)
    latency: dict[str, float | None] = {
        name: stats.percentile(
            tally.warm_ms if name.startswith("warm") else tally.cold_ms, q)
        for name, q in HTTP_PERCENTILES.items()}
    latency["rps"] = requests / sum(tally.walls) if tally.walls else None
    return latency


def http_min_passes(workload: Workload) -> int:
    """Passes of ``workload`` whose requests support every percentile of
    :data:`HTTP_PERCENTILES`."""
    per_pass = {"warm": workload.block - workload.cold_per_block,
                "cold": workload.cold_per_block}
    return max(math.ceil(stats.min_samples(q) / per_pass[name.split("_")[0]])
               for name, q in HTTP_PERCENTILES.items())


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(workload: Workload, threads: list[layers.Counters],
                  untraced: Tally, traced: Tally, setup: dict[str, float],
                  samples: speed.Samples) -> dict[str, float]:
    """Every per-layer metric of a traced run from the counters of every
    thread of this process and of its workers or server.

    Times and counts are per traced pass, as measured; ratios are over
    the whole traced phase. The http workload's client latencies come
    from the untraced phase, and every one must have its samples: a
    missing percentile raises ``ValueError`` rather than reading as a
    perfect 0.
    """
    totals = layers.merge(threads)
    passes = len(traced.walls)
    wall = sum(traced.walls)

    def get(layer: str, counter: str) -> float:
        return totals.get(layer, {}).get(counter, 0.0)

    def per_pass(layer: str, counter: str) -> float:
        return get(layer, counter) / passes

    expand_states = (get("verify.model_checker.expand_level", "states")
                     + get("verify.hierarchical.expand_level", "states"))
    expand_edges = (get("verify.model_checker.expand_level", "edges")
                    + get("verify.hierarchical.expand_level", "edges"))
    warm_calls = get("api.session.run", "warm_calls")
    warm_run_ms = 1000.0 * _ratio(get("api.session.run", "warm_s"), warm_calls)
    to_dict_ms = 1000.0 * _ratio(get("api.report.to_dict", "total_s"),
                                 get("api.report.to_dict", "calls"))
    warm_client_ms = (sum(traced.warm_ms) / len(traced.warm_ms)
                      if traced.warm_ms else 0.0)
    if workload.fleet == "server":
        latency = http_latency_metrics(untraced)
        missing = sorted(name for name, value in latency.items()
                         if value is None)
        if missing:
            raise ValueError(f"too few untraced http requests for {missing}")
    else:  # no http traffic
        latency = dict.fromkeys([*HTTP_PERCENTILES, "rps"], 0.0)
    untraced_walls = at_reference_speed(untraced.walls, untraced, samples)
    traced_walls = at_reference_speed(traced.walls, traced, samples)
    metrics = {
        "verify.lemmas.self_s": per_pass("verify.lemmas", "self_s"),
        "verify.potential.self_s": per_pass("verify.potential", "self_s"),
        "verify.model_checker.progress_s":
            per_pass("verify.model_checker.progress", "total_s"),
        "verify.model_checker.closure_check_s":
            per_pass("verify.model_checker.closure_check", "total_s"),
        "verify.transition.branch_calls":
            per_pass("verify.transition.branch", "calls"),
        "verify.transition.branch_s":
            per_pass("verify.transition.branch", "self_s"),
        "verify.model_checker.explore_s":
            per_pass("verify.model_checker.explore", "total_s"),
        "verify.model_checker.frontier_s":
            per_pass("verify.model_checker.explore", "self_s"),
        "verify.model_checker.expand_level_s":
            per_pass("verify.model_checker.expand_level", "self_s"),
        "verify.model_checker.expand_states": expand_states / passes,
        "verify.kernel.expand_s": per_pass("verify.kernel.expand", "self_s"),
        "verify.kernel.states_in":
            per_pass("verify.kernel.expand", "states_in"),
        "verify.kernel.values_out":
            per_pass("verify.kernel.expand", "values_out"),
        "verify.kernel.memo_miss_ratio":
            _ratio(get("verify.kernel.expand", "states_in"), expand_states),
        "verify.kernel.unique_ratio":
            _ratio(expand_edges, get("verify.kernel.expand", "values_out")),
        "verify.hierarchical.expand_s":
            per_pass("verify.hierarchical.expand_level", "self_s"),
        "verify.symmetry.canonicalize_s":
            per_pass("verify.symmetry.canonicalize", "self_s"),
        "verify.symmetry.values_in":
            per_pass("verify.symmetry.canonicalize", "values_in"),
        "verify.encoding.decode_graph_s":
            per_pass("verify.encoding.decode_graph", "self_s"),
        "verify.encoding.decoded_states":
            per_pass("verify.encoding.decode_graph", "states"),
        "verify.model_checker.analyze_graph_s":
            per_pass("verify.model_checker.analyze_graph", "self_s"),
        "verify.distributed.map_calls":
            per_pass("verify.distributed.map", "calls"),
        "verify.distributed.map_s":
            per_pass("verify.distributed.map", "self_s"),
        "verify.distributed.worker_busy_s":
            per_pass("verify.distributed.worker", "total_s"),
        "verify.distributed.worker_idle_frac": (
            1.0 - _ratio(get("verify.distributed.worker", "total_s"),
                         workload.size * wall)
            if workload.fleet == "workers" else 0.0),
        "verify.wire.encode_s": per_pass("verify.wire.encode", "self_s"),
        "verify.wire.decode_s": per_pass("verify.wire.decode", "self_s"),
        "verify.wire.bytes": per_pass("verify.wire.encode", "bytes"),
        "verify.wire.messages": per_pass("verify.wire.encode", "calls"),
        "api.spec.parse_s": per_pass("api.spec.parse", "self_s"),
        "store.keys.key_calls": per_pass("store.keys.key", "calls"),
        "store.keys.key_s": per_pass("store.keys.key", "self_s"),
        "store.backends.load_calls": per_pass("store.backends.load", "calls"),
        "store.backends.load_s": per_pass("store.backends.load", "self_s"),
        "store.backends.save_calls": per_pass("store.backends.save", "calls"),
        "store.backends.save_s": per_pass("store.backends.save", "self_s"),
        "store.caching.hit_ratio":
            _ratio(get("store.caching.lookup", "hits"),
                   get("store.caching.lookup", "calls")),
        "api.report.to_dict_s": per_pass("api.report.to_dict", "self_s"),
        "api.session.warm_run_ms": warm_run_ms,
        "api.session.cold_run_ms":
            1000.0 * _ratio(get("api.session.run", "cold_s"),
                            get("api.session.run", "cold_calls")),
        "service.http.wait_ms": (warm_client_ms - warm_run_ms - to_dict_ms
                                 if warm_calls else 0.0),
        **{f"service.http.{name}": value for name, value in latency.items()},
        "setup.import_s": setup["import_s"],
        "setup.workers_s": setup["workers_s"],
        "setup.prewarm_s": setup["prewarm_s"],
        "trace.overhead_frac":
            stats.median(traced_walls) / stats.median(untraced_walls) - 1.0,
        "trace.unattributed_frac": layers.unattributed_share(threads),
    }
    return metrics


# ---------------------------------------------------------------------------
# the run
# ---------------------------------------------------------------------------


def _fleet_commands(workload: Workload, work: Path) -> list[list[str]]:
    if workload.fleet == "workers":
        return [["worker", "--listen", "127.0.0.1:0"]] * workload.size
    if workload.fleet == "server":
        return [["serve", "--listen", "127.0.0.1:0",
                 "--store", str(work / "store")]]
    return []


def run(workload: Workload, *, seed: int, seconds: float, trace: bool,
        work: Path, setup_only: bool = False,
        ready: Callable[[dict[str, float]], None] = lambda setup: None,
        ) -> dict[str, Any]:
    """Set up ``workload``, call ``ready``, then (unless ``setup_only``)
    measure it for ``seconds``; returns the result document, whose
    ``setup["speed"]`` is the machine speed during set-up.

    Runs in the calling process, under a :class:`speed.Sampler` that
    holds the process's ``SIGALRM`` until it returns; worker and server
    processes inherit its environment, which must let ``import repro``
    succeed.
    """
    sampler = speed.Sampler()
    sampler.start()
    run_started = time.perf_counter()
    try:
        import repro.api  # noqa: F401  (timed: the program's import cost)

        setup = {"import_s": time.perf_counter() - run_started}
        work.mkdir(parents=True, exist_ok=True)
        fleet = Fleet(work, program_env(TMPDIR=str(work)), traced=trace)
        tally_setup, untraced, traced = Tally(), Tally(), Tally()
        recorder = layers.Recorder()
        try:
            started = time.perf_counter()
            addresses = tuple(fleet.start(_fleet_commands(workload, work)))
            setup["workers_s"] = time.perf_counter() - started
            rng = random.Random(f"{workload.name}:{seed}")
            expected = load_expected()
            driver: BatchDriver | HttpDriver
            if workload.fleet == "server":
                driver = HttpDriver(workload, rng, expected, addresses[0])
            else:
                driver = BatchDriver(workload, rng, expected, addresses)
            started = time.perf_counter()
            driver.warm_up(tally_setup)
            setup["prewarm_s"] = time.perf_counter() - started
            ready_at = time.perf_counter()
            ready(setup)
            if not (setup_only or trace):
                run_passes(lambda: driver.one_pass(untraced, fleet.pids),
                           seconds)
            elif not setup_only:
                installation = layers.install(recorder)
                try:
                    run_passes(lambda: driver.one_pass(untraced, fleet.pids),
                               seconds / 2,
                               min_passes=(http_min_passes(workload)
                                           if workload.fleet == "server"
                                           else 1))
                    recorder.enabled = True
                    fleet.enable_tracing()
                    run_passes(lambda: driver.one_pass(traced, fleet.pids),
                               seconds / 2)
                    recorder.enabled = False
                finally:
                    installation.restore()
        finally:
            fleet.stop()
    finally:
        sampler.stop()
    fleet_samples, threads = fleet.results()
    samples = sorted(sampler.samples + fleet_samples)
    setup["speed"] = speed.span_speed(samples, run_started, ready_at)
    document: dict[str, Any] = {"workload": workload.name, "seed": seed,
                                "trace": int(trace), "setup": setup}
    if setup_only:
        return document
    tallies = (tally_setup, untraced, traced)
    document.update({
        "passes": len(untraced.walls) + len(traced.walls),
        "attempted": sum(t.attempted for t in tallies),
        "failed": sum(t.failed for t in tallies),
        "verdict_errors": sum(t.verdict_errors for t in tallies),
        "pass_walls": {"untraced": untraced.walls, "traced": traced.walls},
        "pass_speeds": {"untraced": pass_speeds(untraced, samples),
                        "traced": pass_speeds(traced, samples)},
    })
    if trace:
        threads.extend(recorder.thread_totals())
        document["metrics"] = layer_metrics(workload, threads, untraced,
                                            traced, setup, samples)
        document["samples"] = {"passes": len(traced.walls)}
    else:
        document["metrics"] = end_to_end_metrics(untraced, samples)
        document["samples"] = {"passes": len(untraced.walls),
                               "warm_requests": len(untraced.warm_ms),
                               "cold_requests": len(untraced.cold_ms)}
        if workload.fleet == "server":
            document["http"] = http_latency_metrics(untraced)
    return document


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--role", choices=("setup", "measure"),
                        required=True)
    parser.add_argument("--work", type=Path, required=True)
    args = parser.parse_args(argv)

    def ready(setup: dict[str, float]) -> None:
        print("READY " + json.dumps(setup), flush=True)

    document = run(WORKLOADS[args.workload], seed=args.seed,
                   seconds=args.seconds, trace=bool(args.trace),
                   work=args.work, setup_only=args.role == "setup",
                   ready=ready)
    print("RESULT " + json.dumps(document), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
