"""The verifier's benchmark: run workloads, record them, compare sets.

Run from the repository root::

    python3 benchmarks/suite/run.py --workload hunt-serial --seed 0
    python3 benchmarks/suite/run.py --workload hunt-serial --trace 1
    python3 benchmarks/suite/run.py compare DIR_A DIR_B

A run without ``--workload`` runs every workload in turn. Each run starts
the workload in fresh Python processes (:mod:`harness`): one that sets
up and then measures for ``run_seconds`` of ``BENCHMARK.json``, and,
unless traced, two that only set up, one before and one after it;
``setup_s`` is the median of the three set-ups. Times are reported at
the reference machine speed (:mod:`speed`). A run prints every metric
with its unit and sample count, appends the run to
``BENCH_<workload>.json`` (or ``TRACE_<workload>.json`` for
``--trace 1``) under ``--out``, and ends with one JSON line:
``correct``, ``attempted``, ``failed`` and the metrics
``BENCHMARK.json`` names for that mode.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any

import stats
from harness import HERE, ROOT, program_env

#: Set-ups per untraced run; ``setup_s`` is their median. One runs
#: before the measuring child and one after it, so a slow spell of the
#: machine during one part of the run moves at most one of them.
SETUPS = 3

#: Absolute regression allowances of ``compare``, in the metric's unit,
#: for metrics whose share-of-median bound is too fine for small values:
#: set-up may worsen by its bound or by 50 ms, whichever is larger.
FLOORS = {"setup_s": 0.050}

#: Seconds a set-up-only child may take.
SETUP_TIMEOUT_S = 20.0

#: Seconds a measuring child may take beyond its measuring budget. All
#: children of one run must end well inside the three minutes a run
#: may take.
MEASURE_GRACE_S = 40.0


def load_benchmark() -> dict[str, Any]:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


# ---------------------------------------------------------------------------
# children
# ---------------------------------------------------------------------------


def _kill_group(pid: int) -> None:
    with contextlib.suppress(ProcessLookupError):
        os.killpg(pid, signal.SIGKILL)


def _run_child(args: argparse.Namespace, role: str, work: Path,
               timeout_s: float) -> tuple[float, dict[str, Any]]:
    """Start one harness child; ``(set-up seconds, result)``.

    Set-up time runs from just before the process starts until it
    prints ``READY``. The child runs in its own process group, which is
    killed whole if the child overruns ``timeout_s``.
    """
    argv = [sys.executable, str(HERE / "harness.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--role", role, "--work", str(work)]
    started = time.perf_counter()
    child = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True,
                             env=program_env(), start_new_session=True)
    watchdog = threading.Timer(timeout_s, _kill_group, (child.pid,))
    watchdog.start()
    setup_s = None
    result = None
    try:
        assert child.stdout is not None
        for line in child.stdout:
            if line.startswith("READY ") and setup_s is None:
                setup_s = time.perf_counter() - started
            elif line.startswith("RESULT "):
                result = json.loads(line[len("RESULT "):])
            else:
                sys.stderr.write(line)
        child.wait()
    except BaseException:
        _kill_group(child.pid)
        child.wait()
        raise
    finally:
        watchdog.cancel()
        child.stdout.close()
    if child.returncode != 0 or setup_s is None or result is None:
        raise RuntimeError(f"{args.workload} {role} child exited with"
                           f" {child.returncode}")
    return setup_s, result


def measure(args: argparse.Namespace) -> dict[str, Any]:
    """One run of one workload; the harness result plus ``setup_s``."""
    work_root = HERE / "work" / f"{os.getpid()}-{args.workload}"
    around = [] if args.trace else ["setup"] * (SETUPS // 2)
    setups = []
    try:
        for index, role in enumerate([*around, "measure", *around]):
            timeout_s = (args.seconds + MEASURE_GRACE_S if role == "measure"
                         else SETUP_TIMEOUT_S)
            setup_s, output = _run_child(args, role,
                                         work_root / f"{role}-{index}",
                                         timeout_s)
            setups.append((setup_s, output["setup"]["speed"]))
            if role == "measure":
                result = output
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by another run
            work_root.parent.rmdir()
    at_reference = [setup_s * speed for setup_s, speed in setups]
    if not args.trace:
        result["metrics"]["setup_s"] = stats.median(at_reference)
        result["samples"]["setups"] = len(setups)
    result["setup_samples"] = at_reference
    result["setup_speeds"] = [speed for _, speed in setups]
    return result


# ---------------------------------------------------------------------------
# recording
# ---------------------------------------------------------------------------


def _commit() -> str:
    """The checked-out commit, read from ``.git`` without running git
    (a checkout without ``.git`` gives ``"unknown"``)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split(" ", 1)[0]
    except OSError:
        pass
    return "unknown"


def run_metadata(args: argparse.Namespace) -> dict[str, Any]:
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "commit": _commit(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "machine": platform.machine(),
        "seed": args.seed,
        "seconds": args.seconds,
        "time": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }


def record(out: Path, args: argparse.Namespace, result: dict[str, Any],
           definitions: list[dict[str, Any]]) -> Path:
    """Append ``result`` to the workload's record under ``out`` and
    re-summarise every metric over the recorded runs."""
    prefix = "TRACE" if args.trace else "BENCH"
    path = out / f"{prefix}_{args.workload}.json"
    document: dict[str, Any] = {"workload": args.workload, "runs": []}
    if path.exists():
        document = json.loads(path.read_text())
    document["runs"].append({**result, "meta": run_metadata(args)})
    summary = {}
    for definition in definitions:
        name = definition["name"]
        values = [run["metrics"][name] for run in document["runs"]]
        summary[name] = {**definition, **stats.summarize(values),
                         "samples": values}
    document["metrics"] = summary
    out.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
    return path


def report(args: argparse.Namespace, result: dict[str, Any],
           definitions: list[dict[str, Any]]) -> dict[str, Any]:
    """Print every metric by name, unit and sample count; the final
    JSON line's document."""
    samples = result["samples"]
    print(f"[{args.workload}] seed={args.seed} trace={args.trace}"
          f" passes={samples['passes']} attempted={result['attempted']}"
          f" failed={result['failed']}"
          f" verdict_errors={result['verdict_errors']}")
    counts = {"setup_s": f"{samples.get('setups', 1)} set-ups"}
    for definition in definitions:
        name = definition["name"]
        count = counts.get(name, f"{samples['passes']} passes")
        print(f"  {name:<40} {result['metrics'][name]:>14.6g}"
              f" {definition['unit']:<6} ({count})")
    requests = {"warm": samples.get("warm_requests", 0),
                "cold": samples.get("cold_requests", 0)}
    requests["rps"] = requests["warm"] + requests["cold"]
    for name, value in sorted(result.get("http", {}).items()):
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  http.{name:<35} {shown:>14}"
              f" ({requests[name.split('_')[0]]} requests)")
    return {
        "correct": result["verdict_errors"] == 0 and result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {d["name"]: {"value": result["metrics"][d["name"]],
                                "unit": d["unit"]}
                    for d in definitions},
    }


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------


def compare(dir_a: Path, dir_b: Path) -> int:
    """Print one labelled row per workload and end-to-end metric; exit
    status 1 when any row regressed."""
    benchmark = load_benchmark()
    print(f"{'workload':<14} {'metric':<14} {'A median [q1, q3] n':>34}"
          f" {'B median [q1, q3] n':>34} {'change':>8}  label")
    regressed = False
    for workload in benchmark["workloads"]:
        name = workload["name"]
        path_a = dir_a / f"BENCH_{name}.json"
        path_b = dir_b / f"BENCH_{name}.json"
        if not (path_a.exists() and path_b.exists()):
            print(f"{name:<14} (missing in {'A' if not path_a.exists() else 'B'})")
            continue
        runs_a = json.loads(path_a.read_text())["runs"]
        runs_b = json.loads(path_b.read_text())["runs"]
        lengths = sorted({run["meta"]["seconds"] for run in runs_a + runs_b})
        if len(lengths) > 1:
            print(f"{name:<14} (not compared: runs measured for {lengths} s)")
            continue
        for metric in benchmark["end_to_end"]:
            a = [run["metrics"][metric["name"]] for run in runs_a]
            b = [run["metrics"][metric["name"]] for run in runs_b]
            label = stats.label_change(a, b, better=metric["better"],
                                       bound=metric["bound"],
                                       floor=FLOORS.get(metric["name"], 0.0))
            regressed = regressed or label == "regressed"
            cells = []
            for values in (a, b):
                summary = stats.summarize(values)
                cells.append(f"{summary['median']:.5g} [{summary['q1']:.5g},"
                             f" {summary['q3']:.5g}] {summary['n']}")
            change = stats.median(b) / stats.median(a) - 1.0
            print(f"{name:<14} {metric['name']:<14} {cells[0]:>34}"
                  f" {cells[1]:>34} {change:>+8.1%}  {label}")
    return 1 if regressed else 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def main(argv: list[str]) -> int:
    if argv[:1] == ["compare"]:
        parser = argparse.ArgumentParser(prog="run.py compare")
        parser.add_argument("dir_a", type=Path)
        parser.add_argument("dir_b", type=Path)
        args = parser.parse_args(argv[1:])
        return compare(args.dir_a, args.dir_b)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program to measure: {ROOT / 'src' / 'repro'}"
              " is missing; run from a full checkout", file=sys.stderr)
        return 2
    benchmark = load_benchmark()
    names = [workload["name"] for workload in benchmark["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names, default=None,
                        help="one workload (default: every workload)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=benchmark["run_seconds"],
                        help="measuring time of a run; only run_seconds of"
                             " BENCHMARK.json is accepted, so that every"
                             " recorded run measures for as long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=HERE / "results")
    args = parser.parse_args(argv)
    if args.seconds != benchmark["run_seconds"]:
        parser.error(f"--seconds must be {benchmark['run_seconds']}"
                     " (run_seconds of BENCHMARK.json)")
    definitions = benchmark["per_layer" if args.trace else "end_to_end"]
    for workload in [args.workload] if args.workload else names:
        args.workload = workload
        result = measure(args)
        record(args.out, args, result, definitions)
        print(json.dumps(report(args, result, definitions)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
