"""Content addressing: every verification request hashes to one key.

The store's whole contract hangs on one function: :func:`store_key`
maps a :class:`~repro.api.request.VerificationRequest` to the SHA-256
of its canonical JSON (PR 4's lossless codec), so that *semantically
identical* requests — however they were spelled — share one entry, and
any request that would produce a different result gets a different one.

Hashing the raw ``request_to_dict`` output would almost work, but the
codec's compact form omits fields left at their defaults, and several
defaults are resolved late (``max_load`` per kind, ``cores`` from the
topology, the zoo's 720-order cap). Two requests can therefore differ
as documents yet describe the same proof. :func:`key_document` closes
that gap by hashing the **semantic normal form**:

* scope and ``max_orders`` are written with their *effective* values
  (``prove balance_count`` and ``prove balance_count --cores 3
  --max-load 3`` share a key);
* the topology spec string is replaced by the parsed layout's canonical
  name (``"numa:2x2"``, ``"NUMA:2x2"``, and a future equivalent
  spelling all key as ``"numa-2x2"``; ``"flat"`` keys as no topology);
* a pool engine with one job keys as the serial engine it actually runs
  on;
* campaign budgets are written as the resolved
  :class:`~repro.verify.campaign.CampaignConfig` (topology-capped
  ``max_cores``, defaulted machines/rounds).

The **engine's coverage class stays in the key** deliberately.
Verdicts are engine-independent, but two documented coverage artifacts
are not: ``states_checked`` of the five refuted state sweeps (each
shard stops at its own chunk's first counterexample) and campaign
coverage (a function of
the ``(seed, shard count)`` pair). Both are functions of the *shard
count* alone — ``--jobs N`` and ``--distributed N`` produce
byte-identical results, and one shard of either is the serial path —
so that count is what the key carries: a pool of N jobs and a fleet of
N workers share entries, a reconnecting fleet on new ports still hits,
and switching the shard count re-proves. Keying the class keeps the
store's guarantee exact: a warm run is byte-identical to the cold run
it replays. See ``docs/store.md`` for the full discipline and its
trade-offs.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Any

from repro.api.report import request_to_dict
from repro.api.request import VerificationRequest, parse_topology

#: Format marker of the store layout and entry schema; part of every
#: hashed document, so bumping it orphans (and lets ``gc`` evict) every
#: entry written under the old discipline.
STORE_FORMAT = "repro.store/v1"


def default_store_dir() -> Path:
    """The on-disk store location when no ``--store DIR`` is given:
    ``$XDG_CACHE_HOME/repro/store`` (``~/.cache/repro/store``)."""
    cache_home = os.environ.get("XDG_CACHE_HOME", "").strip()
    base = Path(cache_home) if cache_home else Path.home() / ".cache"
    return base / "repro" / "store"


def coverage_shards(request: VerificationRequest) -> int:
    """The engine's coverage-class shard count — the one engine fact a
    key carries.

    ``--jobs N``, ``--distributed N``, and ``--workers`` with N
    endpoints all key as N shards; one shard of anything is the serial
    path. The distributed engine's *exploration mode* is deliberately
    not part of the class: level-sync and async exploration build the
    same closed state graph (the async-equivalence tests pin them
    byte-identical), and the state-sweep shard split that coverage
    artifacts depend on is independent of how the closure was
    explored — so ``mode``/``partitions`` never reach the key
    and an async fleet hits entries a level-sync run wrote.
    """
    engine = request.engine
    if engine.kind == "pool":
        from repro.verify.parallel import resolve_jobs

        return resolve_jobs(engine.jobs)
    if engine.kind == "distributed":
        return (engine.workers if engine.workers is not None
                else len(engine.endpoints))
    return 1


def key_document(request: VerificationRequest) -> dict[str, Any]:
    """The semantic normal form of ``request`` that gets hashed.

    Starts from the codec's compact document and resolves every
    late-bound default, so spellings that run the same proof serialise
    identically.
    """
    data: dict[str, Any] = request_to_dict(request)
    data["format"] = STORE_FORMAT
    data["choice_mode"] = request.choice_mode
    if request.policy is not None:
        data["policy"] = {
            "name": request.policy.name,
            "margin": request.policy.margin,
            "seed": request.policy.seed,
        }
    topology = (parse_topology(request.topology)
                if request.topology is not None else None)
    if topology is None:
        data.pop("topology", None)  # "flat" is the absence of a layout
    else:
        data["topology"] = topology.name
    if request.kind == "campaign":
        config = request.campaign_config()
        data["scope"] = {"max_load": config.max_load}
        data["campaign"] = {
            "machines": config.n_machines,
            "max_cores": config.max_cores,
            "rounds": config.rounds_per_machine,
            "seed": config.seed,
        }
        data.pop("max_orders", None)  # campaigns sample; no order cap
    else:
        data["scope"] = {
            "cores": request.scope_cores(topology),
            "max_load": request.effective_max_load,
        }
        data["max_orders"] = request.effective_max_orders
    # Dispatch is deterministic in the shard count, not in which
    # engine or workers run it: --jobs N, --distributed N, and
    # --workers with N endpoints produce byte-identical results (the
    # engine-equivalence tests pin this at equal N), so the count is
    # all the key carries — a worker fleet reconnecting on new ports
    # still hits its entries, and the async exploration mode (plus its
    # partition count) never reaches the key (see coverage_shards).
    # One shard *is* the serial path, whoever provides it: a single
    # pool job or distributed worker runs the same enumeration with the
    # same master campaign seed (make_campaign_tasks returns the
    # unsharded config at one shard), so shards == 1 keys as serial.
    # jobs=0 resolves to this machine's CPU count, exactly as the
    # driver will.
    data.pop("engine", None)
    shards = coverage_shards(request)
    if shards != 1:
        data["engine"] = {"shards": shards}
    return data


def canonical_key_json(request: VerificationRequest) -> str:
    """The exact bytes that get hashed: sorted keys, fixed separators."""
    return json.dumps(key_document(request), sort_keys=True,
                      separators=(",", ":"))


def storage_request(request: VerificationRequest) -> VerificationRequest:
    """The machine-independent spelling an entry embeds.

    ``jobs=0`` means "one pool worker per CPU" and resolves differently
    on different machines — so an entry keyed on *this* machine's
    resolved shard count must not embed the unresolved ``0``, or moving
    the store to a host with another core count would make every such
    entry re-hash elsewhere and be evicted as mis-addressed. Everything
    else already serialises machine-independently.
    """
    if request.engine.kind == "pool" and request.engine.jobs == 0:
        from dataclasses import replace

        from repro.verify.parallel import resolve_jobs

        from repro.api.request import EngineSpec

        jobs = resolve_jobs(request.engine.jobs)
        engine = (EngineSpec() if jobs == 1
                  else EngineSpec(kind="pool", jobs=jobs))
        return replace(request, engine=engine)
    return request


def store_key(request: VerificationRequest) -> str:
    """The request's content address: SHA-256 hex of its canonical
    JSON normal form.

    Invariant under builder-call order, field spelling (explicit
    defaults vs omitted), topology-string case, and the pool-with-one-
    job/serial equivalence; distinct for any change that could change
    the result (policy parameters, scope, choice mode, symmetry flags,
    campaign budgets, and the engine's coverage class).
    """
    digest = hashlib.sha256(canonical_key_json(request).encode("utf-8"))
    return digest.hexdigest()


def proof_request(request: VerificationRequest) -> VerificationRequest:
    """``request`` re-spelled on the serial engine — the address of an
    engine-independent *proof*.

    The coverage class stays in :func:`store_key` because two coverage
    artifacts of *negative* results depend on the shard count (refuted
    sweeps stop at their own chunk's first counterexample; campaign
    coverage is a function of the ``(seed, shards)`` pair). A **proved**
    result has no such artifact: every shard ran to completion, and the
    engine-equivalence suites pin serial / ``--jobs N`` /
    ``--distributed N`` proved outputs byte-identical. So proved
    entries are stored — and looked up — under this serial spelling,
    and any engine shape shares one proof.
    """
    from dataclasses import replace

    from repro.api.request import EngineSpec

    if request.engine.kind == "serial":
        return request
    return replace(request, engine=EngineSpec())


def proof_key(request: VerificationRequest) -> str:
    """The engine-normalised content address proved entries live under
    (equal to :func:`store_key` for serial-engine requests)."""
    return store_key(proof_request(request))


def subsumes(general: VerificationRequest,
             specific: VerificationRequest) -> bool:
    """Whether a *proved* result for ``general`` answers ``specific``.

    True when both are ``prove`` requests that agree on everything but
    the scope's load bound and the steal-order cap, explore the same
    number of cores, and ``general`` covers at least every state and
    order of ``specific`` — a proof over loads ``0..4`` sweeps every
    state of a ``0..3`` request, so work conservation proved there
    holds a fortiori on the smaller scope.

    The transfer is *verdict*-preserving, not byte-preserving: the
    superset certificate reports its own (larger) state counts, so
    subsumption serving is opt-in (``Session(store_subsume=True)``,
    ``--store-subsume``) and the caller must additionally check the
    stored entry's verdict is ``PROVED`` — a refutation at the larger
    scope says nothing about the smaller one (the counterexample may
    live in the difference).
    """
    if general.kind != "prove" or specific.kind != "prove":
        return False
    general_doc = key_document(proof_request(general))
    specific_doc = key_document(proof_request(specific))
    general_scope = general_doc.pop("scope")
    specific_scope = specific_doc.pop("scope")
    general_orders = general_doc.pop("max_orders")
    specific_orders = specific_doc.pop("max_orders")
    if general_doc != specific_doc:
        return False
    return (general_scope["cores"] == specific_scope["cores"]
            and general_scope["max_load"] >= specific_scope["max_load"]
            and general_orders >= specific_orders)
