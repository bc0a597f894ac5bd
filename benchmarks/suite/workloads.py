"""The benchmark's workloads, the requests they send, and their answers.

Requests are request documents (the spec-file run format of
``repro.api.report.request_from_dict``) under stable ids; ``expected.json``
holds the verdict, exact worst-case ``N`` and state count of every id.
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping

EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"

#: Request documents by id.
REQUESTS: dict[str, dict[str, Any]] = {
    "prove/balance_count/3x2": {
        "kind": "prove", "policy": "balance_count",
        "scope": {"cores": 3, "max_load": 2}},
    "prove/balance_count/5x4": {
        "kind": "prove", "policy": "balance_count",
        "scope": {"cores": 5, "max_load": 4}},
    "prove/greedy_halving/5x3": {
        "kind": "prove", "policy": "greedy_halving",
        "scope": {"cores": 5, "max_load": 3}},
    "prove/naive/4x3": {
        "kind": "prove", "policy": "naive",
        "scope": {"cores": 4, "max_load": 3}},
    "prove/weighted/4x4": {
        "kind": "prove", "policy": "weighted",
        "scope": {"cores": 4, "max_load": 4}},
    # Every policy seed gives the same answer: under choice_mode='all'
    # the policy's random choice is never consulted, but the seed is
    # part of the store key, so each seed is its own cache entry.
    "prove/idle_random_steal/4x3": {
        "kind": "prove", "policy": {"name": "idle_random_steal", "seed": 0},
        "scope": {"cores": 4, "max_load": 3}},
    "hunt/balance_count/3x2": {
        "kind": "hunt", "policy": "balance_count",
        "scope": {"cores": 3, "max_load": 2}},
    "hunt/balance_count/6x4": {
        "kind": "hunt", "policy": "balance_count",
        "scope": {"cores": 6, "max_load": 4}},
    "hunt/balance_count/7x3": {
        "kind": "hunt", "policy": "balance_count",
        "scope": {"cores": 7, "max_load": 3}},
    "hunt/numa_choice/numa3x2/4": {
        "kind": "hunt", "policy": "numa_choice", "topology": "numa:3x2",
        "scope": {"max_load": 4}},
    "hunt/hierarchical/numa3x2/4": {
        "kind": "hunt", "policy": "hierarchical", "topology": "numa:3x2",
        "scope": {"max_load": 4}},
    "hunt/naive/4x3": {
        "kind": "hunt", "policy": "naive",
        "scope": {"cores": 4, "max_load": 3}},
}

_HUNT_REQUESTS = (
    "hunt/balance_count/6x4",
    "hunt/balance_count/7x3",
    "hunt/numa_choice/numa3x2/4",
    "hunt/hierarchical/numa3x2/4",
    "hunt/naive/4x3",
)


@dataclass(frozen=True)
class Workload:
    """One named workload.

    Attributes:
        name: the name ``--workload`` takes (its reason is the ``why``
            of the same name in ``BENCHMARK.json``).
        requests: batch workloads: the request ids of one pass; the
            http workload: the one request template every POST uses.
        warmup: request id sent, untimed, during set-up (the http
            workload sends it once per warm key, pre-warming the store).
        fleet: ``"none"``, ``"workers"`` (``python -m repro worker``
            processes the requests are dispatched to) or ``"server"``
            (``python -m repro serve`` the requests are POSTed to).
        size: worker processes, or client connections to the server.
        warm_keys: http only: policy seeds pre-warmed into the store.
        block: http only: requests per pass.
        cold_per_block: http only: requests per pass with a fresh seed.
    """

    name: str
    requests: tuple[str, ...]
    warmup: str
    fleet: str = "none"
    size: int = 0
    warm_keys: int = 0
    block: int = 0
    cold_per_block: int = 0


WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="prove-serial",
        requests=("prove/balance_count/5x4", "prove/greedy_halving/5x3",
                  "prove/naive/4x3", "prove/weighted/4x4"),
        warmup="prove/balance_count/3x2",
    ),
    Workload(
        name="hunt-serial",
        requests=_HUNT_REQUESTS,
        warmup="hunt/balance_count/3x2",
    ),
    Workload(
        name="hunt-x2",
        requests=_HUNT_REQUESTS,
        warmup="hunt/balance_count/3x2",
        fleet="workers",
        size=2,
    ),
    Workload(
        name="http-mixed",
        requests=("prove/idle_random_steal/4x3",),
        warmup="prove/idle_random_steal/4x3",
        fleet="server",
        size=2,
        warm_keys=64,
        block=300,
        cold_per_block=30,
    ),
)}


def request_document(request_id: str, *, seed: int | None = None,
                     endpoints: tuple[str, ...] = ()) -> dict[str, Any]:
    """The request document of ``request_id``, optionally with another
    policy seed or dispatched to distributed ``endpoints``."""
    document = copy.deepcopy(REQUESTS[request_id])
    if seed is not None:
        policy = document["policy"]
        if isinstance(policy, str):
            policy = {"name": policy}
        document["policy"] = {**policy, "seed": seed}
    if endpoints:
        document["engine"] = {"kind": "distributed",
                              "endpoints": list(endpoints)}
    return document


def load_expected(path: Path = EXPECTED_PATH) -> dict[str, dict[str, Any]]:
    """Known answers by request id."""
    with open(path) as handle:
        return json.load(handle)["answers"]


def answer_matches(expected: Mapping[str, Any], verdict: str,
                   worst_rounds: int | None, states: int) -> bool:
    """Whether one answer equals the known one: verdict, exact ``N``
    (``None`` for refuted requests) and explored state count."""
    return (verdict == expected["verdict"]
            and worst_rounds == expected["N"]
            and states == expected["states"])
