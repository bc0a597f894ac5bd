"""Parallel sharded verification engine.

Single-process exhaustive checking caps practical scopes at roughly
3 cores / load 0..2 (see ``benchmarks/results/zoo_matrix.txt``). This
module removes that cap by partitioning the canonical state space into
shards and fanning every sweep of the §4 pipeline — the lemma checks,
the explicit-state model checker, and the randomised campaigns — across
a :mod:`multiprocessing` pool, then merging the per-shard results with
deterministic, order-independent reducers.

Architecture
------------

The engine is a :class:`~repro.verify.work_conservation.TaskMap` —
``jobs`` shards, mapped over a process pool that lives for a ``with``
block (one per :class:`repro.api.PoolEngine` lifetime) — and everything
else is shared with the other engines:

1. **Chunked iteration** (:func:`repro.verify.enumeration.iter_states_chunk`)
   — shard ``k`` of ``n`` receives the states at indices ``k, k+n,
   k+2n, ...`` of the shared lexicographic enumeration. Shards are
   pairwise disjoint, cover the scope exactly, and are sized arithmetically
   from the closed-form :func:`~repro.verify.enumeration.count_states`
   (no enumeration needed to plan the split).
2. **Shard tasks** (:mod:`repro.verify.tasks`) — every pool process
   holds one :class:`~repro.verify.tasks.WorkerRuntime`, and
   ``pool.map`` runs each task on it: the state sweeps, the
   progress/closure sweeps, one BFS frontier chunk, or one slice of a
   randomised campaign. Closure exploration is a **level-synchronous
   parallel BFS** (:func:`~repro.verify.model_checker.bfs_closure`):
   the parent owns the frontier and stripes each level across the pool,
   so every state is expanded exactly once globally. The runtime keeps
   one memoized checker per checker config, so a process's liveness
   sweeps and every BFS level it serves share transition caches.
3. **Drivers and reducers** (:mod:`repro.verify.work_conservation`) —
   the one prove/analyze/campaign driver builds the tasks and merges
   per-shard :class:`~repro.verify.obligations.ProofResult` /
   :class:`~repro.verify.campaign.CampaignReport` / transition-graph
   values. All reducers are order-independent (commutative and
   associative up to the deterministic tie-breaks described below), so
   the merged outcome does not depend on worker scheduling.

Determinism guarantees
----------------------

* **Verdicts are identical to the serial path.** A sweep obligation is
  REFUTED iff some shard refutes it, and the shards jointly cover the
  same states the serial sweep covers; the merged counterexample is the
  one whose state comes first in the serial iteration order (ties cannot
  occur — shards are disjoint), i.e. exactly the counterexample the
  serial checker reports. The merged transition graph equals the serial
  one key for key (a state's successor set is a pure function of policy
  and parameters), and the graph algorithms in
  :meth:`~repro.verify.model_checker.ModelChecker.analyze_graph` iterate
  in sorted state order — so lassos, exact worst-case ``N``, and
  state-space sizes are byte-identical to a single-process run.
* **`states_checked` differs only on refuted sweeps.** The serial
  checker stops at the first counterexample of the whole scope; each
  shard stops at the first counterexample of its own chunk, so the
  merged sum can exceed the serial count. Proved obligations sweep
  everything in both modes and report identical counts.
* **Campaigns derive one seed per worker**
  (:func:`derive_campaign_seed`), so a campaign's coverage depends on
  ``jobs`` — but is reproducible for a fixed ``(seed, jobs)`` pair, and
  every violation found is a genuine counterexample regardless of which
  worker found it. Shard reports merge by summation in shard order.
* **Merged timings are approximations**: ``elapsed_s`` of a merged
  result is the maximum across shards (the parallel wall-clock), not a
  sum of CPU time.

Usage
-----

``python -m repro verify <policy> --jobs 4`` (also ``hunt``, ``zoo``,
``campaign``), :class:`repro.api.PoolEngine`, or the driver over this
module's task map::

    from repro.verify.parallel import pool_tasks
    from repro.verify.work_conservation import prove

    with pool_tasks(4) as tasks:
        cert = prove(policy, scope, tasks)

``jobs <= 0`` means "one worker per available CPU"; ``jobs=1`` (the
default everywhere) bypasses the pool entirely and runs the one shard
in this process.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.context
import os
from contextlib import contextmanager
from typing import Any, Iterator

from repro.verify.model_checker import bfs_closure
from repro.verify.tasks import WorkerRuntime, partition_of
from repro.verify.work_conservation import TaskMap, local_tasks

#: The public names, two of them re-exported from their homes: the
#: shared closure loop and the async engine's partition hash.
__all__ = ["bfs_closure", "partition_of", "pool_tasks", "resolve_jobs"]


def resolve_jobs(jobs: int | None) -> int:
    """Normalise a ``--jobs`` value: ``None``/``1`` serial, ``<= 0`` all CPUs."""
    if jobs is None:
        return 1
    if jobs <= 0:
        return os.cpu_count() or 1
    return jobs


def _pool_context() -> multiprocessing.context.BaseContext:
    """Prefer ``fork`` (cheap, shares the loaded modules) when available.

    Falls back to ``spawn`` and finally the platform default, so runners
    without ``fork`` (macOS with the 3.8+ default, Windows) degrade to a
    slower-starting pool instead of crashing.
    """
    methods = multiprocessing.get_all_start_methods()
    for method in ("fork", "spawn"):
        if method in methods:
            try:
                return multiprocessing.get_context(method)
            except ValueError:  # platform advertises but refuses it
                continue
    return multiprocessing.get_context()


#: This pool process's runtime, created by its first task.
_POOL_RUNTIME: WorkerRuntime | None = None


def _run_pooled(task: Any) -> Any:
    """Run one task on this pool process's runtime."""
    global _POOL_RUNTIME
    if _POOL_RUNTIME is None:
        _POOL_RUNTIME = WorkerRuntime()
    return _POOL_RUNTIME.ship(task)


@contextmanager
def pool_tasks(jobs: int | None) -> Iterator[TaskMap]:
    """The pool engine's :class:`~repro.verify.work_conservation.TaskMap`.

    ``jobs`` shards mapped over a pool of ``jobs`` processes, created
    for the duration of the block; ``jobs <= 1`` (after
    :func:`resolve_jobs`) runs the one shard in this process.
    """
    jobs = resolve_jobs(jobs)
    if jobs <= 1:
        yield local_tasks()
        return
    with _pool_context().Pool(processes=jobs) as pool:
        yield TaskMap(jobs, lambda tasks: pool.map(_run_pooled, tasks))

