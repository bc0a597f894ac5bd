"""Lossless JSON round-trip for requests and results.

Every dataclass a :class:`~repro.api.result.VerificationResult` carries
— the request, the §4 certificate with its obligation results and
counterexamples, the model checker's analysis and lasso, zoo matrices,
campaign reports — encodes to plain JSON and decodes back to an *equal*
object. Two properties make the round trip exact:

* **Tuples are tagged.** JSON has no tuple type, and counterexample
  payloads mix tuples (load states, lasso cycles) with lists and dicts.
  :func:`encode_value` wraps tuples as ``{"__tuple__": [...]}`` (and
  escapes the rare dict that uses that key itself), so decoding restores
  the original Python types, not a list-shaped approximation.
* **Serialisation is canonical.** :func:`dumps_result` sorts keys and
  fixes separators, so ``dumps(loads(text)) == text`` byte for byte —
  the round-trip law the test suite asserts.

Floats survive unchanged because :mod:`json` emits ``repr``-exact
decimal forms (``float(repr(x)) == x`` for every finite float).

:func:`strip_result_timings` zeroes every wall-clock field, producing
the engine-independent normal form that equivalence tests compare.
"""

from __future__ import annotations

import json
from typing import Any, Mapping

from repro.verify.campaign import CampaignReport
from repro.verify.model_checker import Lasso, WorkConservationAnalysis
from repro.verify.obligations import (
    Counterexample,
    Obligation,
    ProofReport,
    ProofResult,
    ProofStatus,
)
from repro.verify.report import ZooReport
from repro.verify.work_conservation import WorkConservationCertificate

from repro.api.request import (
    CampaignLimits,
    EngineSpec,
    PolicySpec,
    RequestError,
    VerificationRequest,
)
from repro.api.result import (
    ResultStats,
    StoreProvenance,
    Verdict,
    VerificationResult,
)

#: Format marker embedded in every serialised result.
RESULT_FORMAT = "repro.api.result/v1"


class CodecError(RequestError):
    """A document that cannot be decoded into a request or result."""


# ---------------------------------------------------------------------------
# tagged value encoding (tuples inside counterexample payloads)
# ---------------------------------------------------------------------------

_TUPLE_TAG = "__tuple__"
_DICT_TAG = "__dict__"


def encode_value(value: Any) -> Any:
    """Encode an arbitrary counterexample payload value as JSON-safe data."""
    if isinstance(value, tuple):
        return {_TUPLE_TAG: [encode_value(v) for v in value]}
    if isinstance(value, list):
        return [encode_value(v) for v in value]
    if isinstance(value, dict):
        encoded = {}
        for key, item in value.items():
            if not isinstance(key, str):
                raise CodecError(
                    f"cannot serialise dict key {key!r}: JSON object keys"
                    " must be strings"
                )
            encoded[key] = encode_value(item)
        if _TUPLE_TAG in encoded or _DICT_TAG in encoded:
            return {_DICT_TAG: encoded}
        return encoded
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise CodecError(
        f"cannot serialise value of type {type(value).__name__}: {value!r}"
    )


def decode_value(value: Any) -> Any:
    """Inverse of :func:`encode_value`."""
    if isinstance(value, dict):
        if set(value) == {_TUPLE_TAG}:
            return tuple(decode_value(v) for v in value[_TUPLE_TAG])
        if set(value) == {_DICT_TAG}:
            return {k: decode_value(v) for k, v in value[_DICT_TAG].items()}
        return {k: decode_value(v) for k, v in value.items()}
    if isinstance(value, list):
        return [decode_value(v) for v in value]
    return value


def _check_keys(data: Mapping[str, Any], allowed: frozenset,
                what: str) -> None:
    unknown = sorted(set(data) - set(allowed))
    if unknown:
        raise CodecError(
            f"unknown {what} key(s) {', '.join(map(repr, unknown))};"
            f" expected a subset of: {', '.join(sorted(allowed))}"
        )


# ---------------------------------------------------------------------------
# requests
# ---------------------------------------------------------------------------

_REQUEST_KEYS = frozenset({
    "kind", "policy", "scope", "max_orders", "choice_mode", "symmetric",
    "no_symmetry", "topology", "engine", "campaign",
})
_POLICY_KEYS = frozenset({"name", "margin", "seed"})
_SCOPE_KEYS = frozenset({"cores", "max_load"})
_ENGINE_KEYS = frozenset({"kind", "jobs", "workers", "endpoints",
                          "in_process", "mode", "partitions"})
_CAMPAIGN_KEYS = frozenset({"machines", "max_cores", "rounds", "seed"})


def request_to_dict(request: VerificationRequest) -> dict[str, Any]:
    """Encode a request, omitting fields left at their defaults (the
    same compact form spec files are written in)."""
    data: dict[str, Any] = {"kind": request.kind}
    if request.policy is not None:
        policy: dict[str, Any] = {"name": request.policy.name}
        if request.policy.margin != 2:
            policy["margin"] = request.policy.margin
        if request.policy.seed != 0:
            policy["seed"] = request.policy.seed
        data["policy"] = policy
    scope: dict[str, Any] = {}
    if request.cores is not None:
        scope["cores"] = request.cores
    if request.max_load is not None:
        scope["max_load"] = request.max_load
    if scope:
        data["scope"] = scope
    if request.max_orders is not None:
        data["max_orders"] = request.max_orders
    if request.choice_mode != "all":
        data["choice_mode"] = request.choice_mode
    if request.symmetric:
        data["symmetric"] = True
    if request.no_symmetry:
        data["no_symmetry"] = True
    if request.topology is not None:
        data["topology"] = request.topology
    engine = request.engine
    if engine != EngineSpec():
        encoded: dict[str, Any] = {"kind": engine.kind}
        if engine.kind == "pool":
            encoded["jobs"] = engine.jobs
        elif engine.kind == "distributed":
            if engine.workers is not None:
                encoded["workers"] = engine.workers
            if engine.endpoints:
                encoded["endpoints"] = list(engine.endpoints)
            if engine.in_process:
                encoded["in_process"] = True
            if engine.mode != "level-sync":
                encoded["mode"] = engine.mode
            if engine.partitions is not None:
                encoded["partitions"] = engine.partitions
        data["engine"] = encoded
    limits = request.campaign
    if limits is not None:
        campaign: dict[str, Any] = {}
        if limits.machines != 50:
            campaign["machines"] = limits.machines
        if limits.max_cores is not None:
            campaign["max_cores"] = limits.max_cores
        if limits.rounds != 30:
            campaign["rounds"] = limits.rounds
        if limits.seed != 0:
            campaign["seed"] = limits.seed
        data["campaign"] = campaign
    return data


def request_from_dict(data: Mapping[str, Any]) -> VerificationRequest:
    """Decode a request document (also the spec-file run format).

    Raises:
        CodecError: unknown keys or malformed component documents.
        RequestError: a well-formed document describing an invalid
            request (the request's own validation).
    """
    if not isinstance(data, Mapping):
        raise CodecError(
            f"a request must be a JSON object, got {type(data).__name__}"
        )
    _check_keys(data, _REQUEST_KEYS, "request")
    if "kind" not in data:
        raise CodecError("a request needs a 'kind'")

    policy = None
    if data.get("policy") is not None:
        raw = data["policy"]
        if isinstance(raw, str):  # shorthand: "policy": "balance_count"
            raw = {"name": raw}
        _check_keys(raw, _POLICY_KEYS, "policy")
        if "name" not in raw:
            raise CodecError("a policy needs a 'name'")
        policy = PolicySpec(name=raw["name"],
                            margin=raw.get("margin", 2),
                            seed=raw.get("seed", 0))

    scope = data.get("scope", {})
    _check_keys(scope, _SCOPE_KEYS, "scope")

    engine = EngineSpec()
    if data.get("engine") is not None:
        raw = data["engine"]
        _check_keys(raw, _ENGINE_KEYS, "engine")
        engine = EngineSpec(
            kind=raw.get("kind", "serial"),
            jobs=raw.get("jobs", 1),
            workers=raw.get("workers"),
            endpoints=tuple(raw.get("endpoints", ())),
            in_process=raw.get("in_process", False),
            mode=raw.get("mode", "level-sync"),
            partitions=raw.get("partitions"),
        )

    campaign = None
    if data.get("campaign") is not None:
        raw = data["campaign"]
        _check_keys(raw, _CAMPAIGN_KEYS, "campaign")
        campaign = CampaignLimits(
            machines=raw.get("machines", 50),
            max_cores=raw.get("max_cores"),
            rounds=raw.get("rounds", 30),
            seed=raw.get("seed", 0),
        )

    return VerificationRequest(
        kind=data["kind"],
        policy=policy,
        cores=scope.get("cores"),
        max_load=scope.get("max_load"),
        max_orders=data.get("max_orders"),
        choice_mode=data.get("choice_mode", "all"),
        symmetric=data.get("symmetric", False),
        no_symmetry=data.get("no_symmetry", False),
        topology=data.get("topology"),
        engine=engine,
        campaign=campaign,
    )


# ---------------------------------------------------------------------------
# verification payloads
# ---------------------------------------------------------------------------


def _counterexample_to_dict(cx: Counterexample) -> dict[str, Any]:
    return {
        "state": encode_value(tuple(cx.state)),
        "detail": cx.detail,
        "data": encode_value(dict(cx.data)),
    }


def _counterexample_from_dict(data: Mapping[str, Any]) -> Counterexample:
    return Counterexample(
        state=decode_value(data["state"]),
        detail=data["detail"],
        data=decode_value(data["data"]),
    )


def _proof_result_to_dict(result: ProofResult) -> dict[str, Any]:
    obligation = result.obligation
    return {
        "obligation": {
            "key": obligation.key,
            "title": obligation.title,
            "paper_ref": obligation.paper_ref,
            "statement": obligation.statement,
        },
        "policy_name": result.policy_name,
        "status": result.status.value,
        "scope": result.scope,
        "states_checked": result.states_checked,
        "counterexample": (
            _counterexample_to_dict(result.counterexample)
            if result.counterexample is not None else None
        ),
        "elapsed_s": result.elapsed_s,
    }


def _proof_result_from_dict(data: Mapping[str, Any]) -> ProofResult:
    raw = data["obligation"]
    return ProofResult(
        obligation=Obligation(key=raw["key"], title=raw["title"],
                              paper_ref=raw["paper_ref"],
                              statement=raw["statement"]),
        policy_name=data["policy_name"],
        status=ProofStatus(data["status"]),
        scope=data["scope"],
        states_checked=data["states_checked"],
        counterexample=(
            _counterexample_from_dict(data["counterexample"])
            if data["counterexample"] is not None else None
        ),
        elapsed_s=data["elapsed_s"],
    )


def _analysis_to_dict(analysis: WorkConservationAnalysis) -> dict[str, Any]:
    lasso = analysis.lasso
    return {
        "policy_name": analysis.policy_name,
        "scope": analysis.scope,
        "sequential": analysis.sequential,
        "violated": analysis.violated,
        "lasso": (
            {
                "prefix": [list(state) for state in lasso.prefix],
                "cycle": [list(state) for state in lasso.cycle],
            }
            if lasso is not None else None
        ),
        "worst_case_rounds": analysis.worst_case_rounds,
        "states_explored": analysis.states_explored,
        "bad_states": analysis.bad_states,
        "truncated": analysis.truncated,
        "elapsed_s": analysis.elapsed_s,
    }


def _analysis_from_dict(data: Mapping[str, Any]) -> WorkConservationAnalysis:
    lasso = None
    if data["lasso"] is not None:
        lasso = Lasso(
            prefix=tuple(tuple(state) for state in data["lasso"]["prefix"]),
            cycle=tuple(tuple(state) for state in data["lasso"]["cycle"]),
        )
    return WorkConservationAnalysis(
        policy_name=data["policy_name"],
        scope=data["scope"],
        sequential=data["sequential"],
        violated=data["violated"],
        lasso=lasso,
        worst_case_rounds=data["worst_case_rounds"],
        states_explored=data["states_explored"],
        bad_states=data["bad_states"],
        truncated=data["truncated"],
        elapsed_s=data["elapsed_s"],
    )


def _certificate_to_dict(cert: WorkConservationCertificate) -> dict[str, Any]:
    return {
        "policy_name": cert.policy_name,
        "report": {
            "policy_name": cert.report.policy_name,
            "results": [_proof_result_to_dict(r) for r in cert.report.results],
        },
        "analysis": _analysis_to_dict(cert.analysis),
        "potential_bound": cert.potential_bound,
        "min_decrease": cert.min_decrease,
        "proved": cert.proved,
    }


def _certificate_from_dict(
    data: Mapping[str, Any],
) -> WorkConservationCertificate:
    report = ProofReport(policy_name=data["report"]["policy_name"])
    for raw in data["report"]["results"]:
        report.add(_proof_result_from_dict(raw))
    return WorkConservationCertificate(
        policy_name=data["policy_name"],
        report=report,
        analysis=_analysis_from_dict(data["analysis"]),
        potential_bound=data["potential_bound"],
        min_decrease=data["min_decrease"],
        proved=data["proved"],
    )


def _zoo_to_dict(zoo: ZooReport) -> dict[str, Any]:
    return {
        "scope": zoo.scope,
        "certificates": [_certificate_to_dict(c) for c in zoo.certificates],
    }


def _zoo_from_dict(data: Mapping[str, Any]) -> ZooReport:
    return ZooReport(
        scope=data["scope"],
        certificates=[_certificate_from_dict(c)
                      for c in data["certificates"]],
    )


def _campaign_to_dict(report: CampaignReport) -> dict[str, Any]:
    return {
        "policy_name": report.policy_name,
        "machines": report.machines,
        "rounds": report.rounds,
        "steals": report.steals,
        "failures": report.failures,
        "violations": [_counterexample_to_dict(v)
                       for v in report.violations],
        "max_rounds_to_quiescence": report.max_rounds_to_quiescence,
    }


def _campaign_from_dict(data: Mapping[str, Any]) -> CampaignReport:
    return CampaignReport(
        policy_name=data["policy_name"],
        machines=data["machines"],
        rounds=data["rounds"],
        steals=data["steals"],
        failures=data["failures"],
        violations=[_counterexample_from_dict(v)
                    for v in data["violations"]],
        max_rounds_to_quiescence=data["max_rounds_to_quiescence"],
    )


# ---------------------------------------------------------------------------
# results
# ---------------------------------------------------------------------------


def result_to_dict(result: VerificationResult) -> dict[str, Any]:
    """Encode a result as a JSON-safe document.

    Store provenance is encoded only when present, so documents from
    store-less runs are byte-identical to the pre-provenance format.
    """
    stats = result.stats
    data = {
        "format": RESULT_FORMAT,
        "request": request_to_dict(result.request),
        "verdict": result.verdict.value,
        "stats": {
            "states_explored": stats.states_explored,
            "bad_states": stats.bad_states,
            "policies": stats.policies,
            "policies_proved": stats.policies_proved,
            "machines": stats.machines,
            "rounds": stats.rounds,
            "steals": stats.steals,
            "failures": stats.failures,
            "violations": stats.violations,
        },
        "timings": dict(result.timings),
        "certificate": (
            _certificate_to_dict(result.certificate)
            if result.certificate is not None else None
        ),
        "analysis": (
            _analysis_to_dict(result.analysis)
            if result.analysis is not None else None
        ),
        "zoo": _zoo_to_dict(result.zoo) if result.zoo is not None else None,
        "campaign": (
            _campaign_to_dict(result.campaign)
            if result.campaign is not None else None
        ),
    }
    if result.provenance is not None:
        data["provenance"] = {
            "store_key": result.provenance.store_key,
            "shards": result.provenance.shards,
            "hit": result.provenance.hit,
        }
        # Encoded only when set, so documents from exact-hit and
        # store-less runs keep their established byte shape.
        if result.provenance.served_from is not None:
            data["provenance"]["served_from"] = \
                result.provenance.served_from
    return data


def result_from_dict(data: Mapping[str, Any]) -> VerificationResult:
    """Inverse of :func:`result_to_dict`."""
    if not isinstance(data, Mapping):
        raise CodecError(
            f"a result must be a JSON object, got {type(data).__name__}"
        )
    if data.get("format") != RESULT_FORMAT:
        raise CodecError(
            f"unsupported result format {data.get('format')!r};"
            f" expected {RESULT_FORMAT!r}"
        )
    stats = data["stats"]
    provenance = None
    if data.get("provenance") is not None:
        raw = data["provenance"]
        provenance = StoreProvenance(store_key=raw["store_key"],
                                     shards=raw["shards"],
                                     hit=raw["hit"],
                                     served_from=raw.get("served_from"))
    return VerificationResult(
        request=request_from_dict(data["request"]),
        verdict=Verdict(data["verdict"]),
        stats=ResultStats(
            states_explored=stats["states_explored"],
            bad_states=stats["bad_states"],
            policies=stats["policies"],
            policies_proved=stats["policies_proved"],
            machines=stats["machines"],
            rounds=stats["rounds"],
            steals=stats["steals"],
            failures=stats["failures"],
            violations=stats["violations"],
        ),
        timings=dict(data["timings"]),
        certificate=(
            _certificate_from_dict(data["certificate"])
            if data["certificate"] is not None else None
        ),
        analysis=(
            _analysis_from_dict(data["analysis"])
            if data["analysis"] is not None else None
        ),
        zoo=_zoo_from_dict(data["zoo"]) if data["zoo"] is not None else None,
        campaign=(
            _campaign_from_dict(data["campaign"])
            if data["campaign"] is not None else None
        ),
        provenance=provenance,
    )


def dumps_result(result: VerificationResult, *,
                 indent: int | None = None) -> str:
    """Serialise canonically: sorted keys, fixed separators.

    Canonical form is what makes the round trip *byte*-identical:
    ``dumps_result(loads_result(text)) == text`` for any ``text`` this
    function produced.
    """
    separators = (",", ":") if indent is None else (",", ": ")
    return json.dumps(result_to_dict(result), sort_keys=True,
                      indent=indent, separators=separators)


def loads_result(text: str) -> VerificationResult:
    """Parse a serialised result.

    Raises:
        CodecError: malformed JSON or an unsupported document.
    """
    try:
        data = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise CodecError(f"not valid JSON: {exc}") from exc
    return result_from_dict(data)


def strip_result_timings(result: VerificationResult) -> VerificationResult:
    """The engine-independent normal form: every timing zeroed.

    Wall-clock measurements are the only fields of a result that depend
    on which engine ran it (and on machine load); with them zeroed, two
    results of the same request are equal iff the engines agreed on
    everything that matters. Implemented through the codec so a new
    timed field cannot be forgotten here without also breaking the
    round-trip tests.
    """
    data = result_to_dict(result)

    def scrub(node: Any) -> Any:
        if isinstance(node, dict):
            return {
                key: (0.0 if key == "elapsed_s" else scrub(value))
                for key, value in node.items()
            }
        if isinstance(node, list):
            return [scrub(item) for item in node]
        return node

    scrubbed = scrub(data)
    scrubbed["timings"] = {key: 0.0 for key in scrubbed["timings"]}
    # Provenance is session metadata (hit/miss depends on store state,
    # not on the request), so the normal form drops it too.
    scrubbed.pop("provenance", None)
    return result_from_dict(scrubbed)
