"""Fast self-tests of the benchmark harness (a few seconds in all).

They pin the statistics rules, the tracing arithmetic, that tracing
leaves the program exactly as it found it, that ``BENCHMARK.json`` stays
within its limits, and that every workload's driver completes one tiny
request with the right answer.
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import re
import signal
import time
from pathlib import Path

import pytest

import harness
import layers
import speed
import stats
from workloads import REQUESTS, WORKLOADS, load_expected

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")


# -- statistics --------------------------------------------------------------


def test_percentile_needs_ten_samples_beyond_it():
    assert stats.supports_percentile(1000, 0.99)
    assert not stats.supports_percentile(999, 0.99)
    assert stats.supports_percentile(100, 0.90)
    assert not stats.supports_percentile(99, 0.90)
    assert (stats.min_samples(0.99), stats.min_samples(0.90)) == (1000, 100)
    assert stats.percentile(list(range(999)), 0.99) is None
    values = [float(v) for v in range(1, 21)]
    assert stats.percentile(values, 0.50) == pytest.approx(10.5)
    assert stats.percentile(list(reversed(values)), 0.50) == pytest.approx(10.5)


def test_http_percentiles_without_their_samples_fail_the_traced_run():
    workload = WORKLOADS["http-mixed"]
    tally = harness.Tally(starts=[0.0], walls=[1.0], cpus=[1.0], states=[1],
                          peaks_mb=[10.0], warm_ms=[1.0] * 999,
                          cold_ms=[2.0] * 100)
    setup = {"import_s": 0.0, "workers_s": 0.0, "prewarm_s": 0.0}
    with pytest.raises(ValueError, match="warm_p99_ms"):
        harness.layer_metrics(workload, [], tally, tally, setup,
                              [(0.0, 1.0)])
    tally.warm_ms.append(1.0)
    metrics = harness.layer_metrics(workload, [], tally, tally, setup,
                                    [(0.0, 1.0)])
    assert metrics["service.http.warm_p99_ms"] == pytest.approx(1.0)
    # The untraced half of a traced run is long enough for every one.
    passes = harness.http_min_passes(workload)
    warm = workload.block - workload.cold_per_block
    assert passes * warm >= 1000 and passes * workload.cold_per_block >= 100


def test_compare_labels_follow_bound_pairs_and_spread():
    parent = [10.0 + 0.01 * i for i in range(10)]
    assert stats.label_change(parent, parent, better="lower",
                              bound=0.1) == "unchanged"
    slower = [v * 1.2 for v in parent]
    assert stats.label_change(parent, slower, better="lower",
                              bound=0.1) == "regressed"
    faster = [v * 0.8 for v in parent]
    assert stats.label_change(parent, faster, better="lower",
                              bound=0.1) == "improved"
    assert stats.label_change(parent, faster, better="higher",
                              bound=0.1) == "regressed"
    # Nine pairs are too few to claim a gain.
    assert stats.label_change(parent[:9], faster[:9], better="lower",
                              bound=0.1) == "unchanged"
    noisy = [5.0, 15.0] * 5
    assert stats.label_change(parent, noisy, better="lower",
                              bound=0.1) == "unresolved"


def test_compare_floor_widens_the_allowance_of_small_values():
    parent = [0.30 + 0.001 * i for i in range(10)]  # set-up times, s
    later = [v + 0.04 for v in parent]  # 13% worse, but under 50 ms
    assert stats.label_change(parent, later, better="lower",
                              bound=0.1) == "regressed"
    assert stats.label_change(parent, later, better="lower", bound=0.1,
                              floor=0.05) == "unchanged"
    assert stats.label_change(parent, [v + 0.06 for v in parent],
                              better="lower", bound=0.1,
                              floor=0.05) == "regressed"
    spread = [0.28, 0.32] * 5  # 40 ms between quartiles: 13% of 0.3 s
    assert stats.label_change(spread, spread, better="lower",
                              bound=0.1) == "unresolved"
    assert stats.label_change(spread, spread, better="lower", bound=0.1,
                              floor=0.05) == "unchanged"


# -- machine speed -----------------------------------------------------------


def test_span_speed_averages_the_samples_inside_a_span():
    samples = [(1.0, 0.5), (2.0, 1.0), (3.0, 1.5), (5.0, 2.0)]
    assert speed.span_speed(samples, 1.5, 3.0) == pytest.approx(1.25)
    assert speed.span_speed(samples, 0.0, 10.0) == pytest.approx(1.25)
    # No sample inside: the last one before the span ended.
    assert speed.span_speed(samples, 3.5, 4.5) == pytest.approx(1.5)
    with pytest.raises(ValueError):
        speed.span_speed(samples, 0.0, 0.5)


def test_sampler_probes_while_busy_and_restores_sigalrm():
    before = signal.getsignal(signal.SIGALRM)
    sampler = speed.Sampler()
    sampler.start()
    try:
        end = time.perf_counter() + 0.2
        while time.perf_counter() < end:
            pass
    finally:
        sampler.stop()
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(sampler.samples) >= 3
    times = [t for t, _ in sampler.samples]
    assert times == sorted(times)
    assert all(value > 0 for _, value in sampler.samples)


# -- tracing arithmetic ------------------------------------------------------


def _ticking_clock(ticks):
    ticks = iter(ticks)
    return lambda: next(ticks)


def test_self_time_subtracts_nested_children():
    recorder = layers.Recorder(clock=_ticking_clock([0.0, 1.0, 4.0, 6.0]))
    inner = recorder.wrap("inner", lambda: None)
    outer = recorder.wrap("outer", lambda: inner())
    recorder.enabled = True
    outer()
    totals = layers.merge(recorder.thread_totals())
    assert totals["inner"]["self_s"] == pytest.approx(3.0)
    assert totals["outer"]["self_s"] == pytest.approx(3.0)
    assert totals["outer"]["total_s"] == pytest.approx(6.0)
    assert totals["outer"]["top_s"] == pytest.approx(6.0)
    assert "top_s" not in totals["inner"]


def test_reentrant_layer_counts_call_and_work_once():
    recorder = layers.Recorder(clock=_ticking_clock([0.0, 1.0, 3.0, 4.0]))

    def body(depth):
        return depth if depth == 0 else wrapped(depth - 1)

    wrapped = recorder.wrap("layer", body,
                            work=lambda args, result, elapsed: {"items": 1.0})
    recorder.enabled = True
    wrapped(1)
    totals = layers.merge(recorder.thread_totals())["layer"]
    assert totals["calls"] == 1
    assert totals["items"] == 1
    assert totals["total_s"] == pytest.approx(4.0)
    assert totals["self_s"] == pytest.approx(4.0)


def test_unattributed_share_counts_only_request_threads():
    request_thread = {
        layers.ENTRY_LAYER: {"calls": 1.0, "top_s": 10.0, "self_s": 1.0},
        "verify.kernel.expand": {"self_s": 9.0},
    }
    helper_thread = {"verify.wire.encode": {"top_s": 5.0, "self_s": 5.0}}
    assert layers.unattributed_share([request_thread, helper_thread]) \
        == pytest.approx(0.1)
    request_thread["verify.kernel.expand"]["self_s"] = 7.0
    assert layers.unattributed_share([request_thread]) == pytest.approx(0.3)


def _snapshot():
    """Every wrapped attribute, and every repro-module copy of a wrapped
    module-level function, as it is now."""
    seen = {}
    for layer in layers.LAYERS:
        for target in layer.targets:
            owner, attribute, value = layers._resolve(target)
            seen[(id(owner), attribute)] = (owner, attribute, value,
                                            attribute in vars(owner))
            if not isinstance(owner, type):
                for module in list(layers._repro_modules()):
                    for name, copy in vars(module).items():
                        if copy is value:
                            seen[(id(module), name)] = (module, name, copy,
                                                        True)
    return seen


def test_install_wraps_and_restore_puts_every_function_back():
    before = _snapshot()
    recorder = layers.Recorder()
    installation = layers.install(recorder)
    try:
        for owner, attribute, original, _ in before.values():
            assert getattr(owner, attribute) is not original
        hierarchical = importlib.import_module("repro.verify.hierarchical")
        assert "expand_level" in vars(hierarchical.HierarchicalModelChecker)
        # A module that imports a wrapped function after installation.
        late = importlib.import_module("repro.verify.model_checker")
        late.benchmark_late_copy = importlib.import_module(
            "repro.verify.encoding").decode_graph

        from repro.api import Session, request_from_dict

        recorder.enabled = True
        Session().run(request_from_dict(REQUESTS["hunt/balance_count/3x2"]))
        recorder.enabled = False
        totals = layers.merge(recorder.thread_totals())
        assert totals[layers.ENTRY_LAYER]["calls"] == 1
        assert totals["verify.model_checker.explore"]["calls"] == 1
        assert totals["verify.encoding.decode_graph"]["states"] == 27
    finally:
        installation.restore()
    try:
        for owner, attribute, original, own in before.values():
            assert getattr(owner, attribute) is original
            assert (attribute in vars(owner)) == own
        assert late.benchmark_late_copy is late.decode_graph
    finally:
        del late.benchmark_late_copy


# -- BENCHMARK.json ----------------------------------------------------------


def test_benchmark_json_is_within_its_limits():
    text = (ROOT / "BENCHMARK.json").read_text()
    assert len(text.encode()) <= 64 * 1024
    benchmark = json.loads(text)
    assert set(benchmark) == {"command", "paths", "run_seconds", "workloads",
                              "end_to_end", "per_layer"}

    paths = benchmark["paths"]
    assert 1 <= len(paths) <= 16
    for path in paths:
        assert PATH.match(path) and not path.startswith("/")
        assert ".." not in path.split("/")
        assert Path(__file__).resolve().parent == (ROOT / path).resolve()
    command = benchmark["command"]
    assert 1 <= len(command) <= 32
    for argument in command:
        assert len(argument) <= 200 and not argument.startswith("/")
        if "/" in argument:
            assert any(argument.startswith(path + "/") for path in paths)
    assert isinstance(benchmark["run_seconds"], int)
    assert 1 <= benchmark["run_seconds"] <= 60

    workloads = benchmark["workloads"]
    assert 2 <= len(workloads) <= 8
    names = []
    for workload in workloads:
        assert set(workload) == {"name", "why"}
        assert 0 < len(workload["why"]) <= 200 and "\n" not in workload["why"]
        names.append(workload["name"])
    assert sorted(names) == sorted(WORKLOADS)

    end_to_end, per_layer = benchmark["end_to_end"], benchmark["per_layer"]
    assert 1 <= len(end_to_end) <= 16 and 1 <= len(per_layer) <= 128
    for metric in end_to_end:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert metric["bound"] > 0
    for metric in per_layer:
        assert set(metric) == {"name", "unit", "better"}
    for metric in end_to_end + per_layer:
        assert UNIT.match(metric["unit"])
        assert metric["better"] in ("lower", "higher")
        names.append(metric["name"])
    for name in names:
        assert NAME.match(name), name
    assert len(names) == len(set(names))

    setup = next(m for m in end_to_end if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")

    # 4 + 22 runs per workload, each one measuring budget plus set-up,
    # must fit the 3420 s the whole benchmark gets.
    runs = 4 + 22 * len(workloads)
    assert runs * benchmark["run_seconds"] * 1.3 <= 3420

    # The harness reports exactly the metrics named here.
    tally = harness.Tally(starts=[0.0], walls=[1.0], cpus=[1.0], states=[1],
                          peaks_mb=[10.0])
    samples = [(0.5, 2.0)]
    reported = harness.end_to_end_metrics(tally, samples)
    assert reported == {"wall_s": 2.0, "cpu_s": 2.0, "states_per_s": 0.5,
                        "peak_rss_mb": 10.0}
    assert set(reported) | {"setup_s"} == {m["name"] for m in end_to_end}
    setup_parts = {"import_s": 0.0, "workers_s": 0.0, "prewarm_s": 0.0}
    traced = harness.layer_metrics(WORKLOADS["prove-serial"], [], tally,
                                   tally, setup_parts, samples)
    assert set(traced) == {m["name"] for m in per_layer}


# -- drivers -----------------------------------------------------------------


TINY = {
    "prove-serial": {"requests": ("prove/balance_count/3x2",)},
    "hunt-serial": {"requests": ("hunt/balance_count/3x2",)},
    "hunt-x2": {"requests": ("hunt/balance_count/3x2",)},
    "http-mixed": {"warm_keys": 2, "block": 4, "cold_per_block": 1},
}


def test_every_request_has_a_known_answer():
    expected = load_expected()
    assert set(expected) == set(REQUESTS)
    for workload in WORKLOADS.values():
        assert set(workload.requests) | {workload.warmup} <= set(REQUESTS)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_driver_runs_one_tiny_request(name, tmp_path):
    workload = dataclasses.replace(WORKLOADS[name], **TINY[name])
    document = harness.run(workload, seed=0, seconds=0.0, trace=False,
                           work=tmp_path)
    assert document["failed"] == 0
    assert document["verdict_errors"] == 0
    assert document["attempted"] >= 2
    metrics = document["metrics"]
    assert metrics["wall_s"] > 0 and metrics["states_per_s"] > 0
    assert metrics["peak_rss_mb"] > 0
