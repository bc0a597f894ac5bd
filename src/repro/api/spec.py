"""Declarative spec files: a whole verification campaign as one document.

A spec file is a JSON document describing a sequence of verification
runs — which policies, which scopes, which topologies, which engines —
so a campaign is reviewable (and diffable) as data instead of living in
a shell script of CLI invocations. ``python -m repro run-spec FILE``
executes one; programmatic callers use :func:`load_spec` +
:func:`run_spec`.

Schema (all sizes are illustrative)::

    {
      "spec_version": 1,
      "name": "quickstart",
      "description": "Prove Listing 1, refute the naive filter.",
      "defaults": {
        "scope": {"cores": 3, "max_load": 3},
        "engine": {"kind": "pool", "jobs": 2}
      },
      "runs": [
        {"name": "prove-balance-count", "kind": "prove",
         "policy": {"name": "balance_count", "margin": 2}},
        {"name": "hunt-naive", "kind": "hunt", "policy": "naive",
         "scope": {"max_load": 2}},
        {"name": "fuzz", "kind": "campaign", "policy": "balance_count",
         "campaign": {"machines": 20, "rounds": 10}}
      ]
    }

Each run entry is the request document format of
:func:`repro.api.report.request_from_dict` plus a ``name`` (unique
within the spec; defaulted from the kind and policy when omitted).
``defaults`` is merged under every run — one level deep, so a run's
``"scope": {"max_load": 2}`` overrides only ``max_load`` and keeps the
default ``cores``. A run that must *not* inherit a default engine or
scope simply states its own.

A run entry may instead carry a ``matrix`` stanza — request keys mapped
to value lists — and expands into the cartesian product of runs, one
per combination::

    {"name": "sweep", "kind": "prove",
     "matrix": {"policy": ["balance_count", "greedy_halving"],
                "scope": [{"max_load": 2}, {"max_load": 3}]}}

expands to four runs with deterministic generated names
(``sweep-balance_count-max_load2``, ...): axes iterate in sorted key
order, each axis in document order. The expanded documents then merge
with ``defaults`` exactly like hand-written runs. One stanza replaces N
near-identical entries — and, paired with ``--store``, editing one axis
only re-proves the new cells.

Validation is eager: :func:`load_spec` builds (and thereby validates)
every request before anything runs, so a typo in run 7 fails fast
instead of after an hour of run 1.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Mapping

from repro.core.errors import VerificationError

from repro.api.report import request_from_dict
from repro.api.request import RequestError, VerificationRequest
from repro.api.result import VerificationResult
from repro.api.session import Session, Subscriber

if TYPE_CHECKING:  # pragma: no cover - hints only; imported lazily
    from repro.store.backends import ResultStore

#: The one spec format this loader understands.
SPEC_VERSION = 1

_SPEC_KEYS = frozenset({
    "spec_version", "name", "description", "defaults", "runs",
})


class SpecError(VerificationError):
    """A spec document that cannot be loaded."""


@dataclass(frozen=True)
class SpecRun:
    """One named run of a spec file."""

    name: str
    request: VerificationRequest


@dataclass(frozen=True)
class SpecFile:
    """A parsed, fully validated spec document.

    Attributes:
        name: the campaign's name.
        description: reviewer-facing summary.
        runs: the validated runs, in document order.
        path: source path, when loaded from disk.
    """

    name: str
    description: str
    runs: tuple[SpecRun, ...]
    path: str | None = None

    def run_named(self, name: str) -> SpecRun:
        """Look up a run by name.

        Raises:
            SpecError: no such run.
        """
        for run in self.runs:
            if run.name == name:
                return run
        raise SpecError(
            f"spec {self.name!r} has no run named {name!r};"
            f" available: {', '.join(r.name for r in self.runs)}"
        )


def _merge_defaults(defaults: Mapping[str, Any],
                    entry: Mapping[str, Any]) -> dict[str, Any]:
    """Overlay a run entry on the spec defaults, one level deep."""
    merged: dict[str, Any] = dict(defaults)
    for key, value in entry.items():
        base = merged.get(key)
        if isinstance(base, Mapping) and isinstance(value, Mapping):
            merged[key] = {**base, **value}
        else:
            merged[key] = value
    return merged


def _default_name(request: VerificationRequest, index: int) -> str:
    target = request.policy.name if request.policy is not None else "zoo"
    return f"run{index + 1}-{request.kind}-{target}"


# ---------------------------------------------------------------------------
# matrix stanzas
# ---------------------------------------------------------------------------

#: Request-document keys a matrix stanza may use as axes.
_MATRIX_AXES = frozenset({
    "kind", "policy", "scope", "max_orders", "choice_mode", "symmetric",
    "no_symmetry", "topology", "engine", "campaign",
})


def _slug(value: Any) -> str:
    """A deterministic name fragment for one axis value.

    Policy-style objects lead with their ``name`` so the generated run
    names read naturally (``{"name": "balance_count", "margin": 1}``
    becomes ``balance_count-margin1``).
    """
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "none"
    if isinstance(value, (int, float, str)):
        return str(value)
    if isinstance(value, Mapping):
        parts = []
        if "name" in value:
            parts.append(_slug(value["name"]))
        parts.extend(f"{key}{_slug(item)}"
                     for key, item in sorted(value.items())
                     if key != "name")
        return "-".join(parts) if parts else "empty"
    if isinstance(value, (list, tuple)):
        return "-".join(_slug(item) for item in value) or "empty"
    return str(value)


def _expand_matrix(entry: Mapping[str, Any], matrix: Any, name: str | None,
                   index: int) -> list[tuple[str, dict[str, Any]]]:
    """Expand one matrix stanza into its cartesian product of runs.

    Axes are iterated in sorted key order and each axis in document
    order, so both the expansion order and the generated names
    (``<base>-<axis slug>-...``) are deterministic functions of the
    document.

    Raises:
        SpecError: a malformed stanza — non-object matrix, empty or
            non-list axis, an unknown axis key, or an axis also set on
            the run entry itself.
    """
    label = name if name is not None else f"runs[{index}]"
    if not isinstance(matrix, Mapping) or not matrix:
        raise SpecError(
            f"run {label!r}: 'matrix' must be a non-empty object of"
            " request keys to value lists"
        )
    unknown = sorted(set(matrix) - _MATRIX_AXES)
    if unknown:
        raise SpecError(
            f"run {label!r}: unknown matrix axis"
            f" {', '.join(map(repr, unknown))}; expected a subset of:"
            f" {', '.join(sorted(_MATRIX_AXES))}"
        )
    overlap = sorted(set(matrix) & set(entry))
    if overlap:
        raise SpecError(
            f"run {label!r}: matrix axis {', '.join(map(repr, overlap))}"
            " is also set on the run itself; state each value in exactly"
            " one place"
        )
    axes = sorted(matrix)
    for axis in axes:
        values = matrix[axis]
        if not isinstance(values, list) or not values:
            raise SpecError(
                f"run {label!r}: matrix axis {axis!r} must be a"
                " non-empty list of values"
            )
    base = name if name is not None else f"run{index + 1}"
    expanded: list[tuple[str, dict[str, Any]]] = []
    for combination in itertools.product(*(matrix[axis] for axis in axes)):
        document = dict(entry)
        document.update(zip(axes, combination))
        suffix = "-".join(_slug(value) for value in combination)
        expanded.append((f"{base}-{suffix}", document))
    return expanded


def parse_spec(document: Mapping[str, Any], *,
               path: str | None = None) -> SpecFile:
    """Parse (and fully validate) a spec document.

    Raises:
        SpecError: structural problems — unknown keys, missing runs,
            duplicate names, or an invalid request in any run (the
            underlying :class:`~repro.api.request.RequestError` is
            chained and its message included).
    """
    if not isinstance(document, Mapping):
        raise SpecError(
            f"a spec must be a JSON object, got {type(document).__name__}"
        )
    unknown = sorted(set(document) - _SPEC_KEYS)
    if unknown:
        raise SpecError(
            f"unknown spec key(s) {', '.join(map(repr, unknown))};"
            f" expected a subset of: {', '.join(sorted(_SPEC_KEYS))}"
        )
    version = document.get("spec_version", SPEC_VERSION)
    if version != SPEC_VERSION:
        raise SpecError(
            f"unsupported spec_version {version!r}; this loader"
            f" understands {SPEC_VERSION}"
        )
    runs_doc = document.get("runs")
    if not isinstance(runs_doc, list) or not runs_doc:
        raise SpecError("a spec needs a non-empty 'runs' list")
    defaults = document.get("defaults", {})
    if not isinstance(defaults, Mapping):
        raise SpecError("'defaults' must be an object")
    if "kind" in defaults:
        raise SpecError(
            "'kind' cannot be defaulted: every run states what it does"
        )

    runs: list[SpecRun] = []
    seen: set[str] = set()

    def add_run(name: str | None, run_doc: dict[str, Any],
                index: int) -> None:
        try:
            request = request_from_dict(_merge_defaults(defaults, run_doc))
        except RequestError as exc:
            label = name if name is not None else f"runs[{index}]"
            raise SpecError(f"invalid run {label!r}: {exc}") from exc
        if name is None:
            name = _default_name(request, index)
        if name in seen:
            raise SpecError(f"duplicate run name {name!r}")
        seen.add(name)
        runs.append(SpecRun(name=name, request=request))

    for index, entry in enumerate(runs_doc):
        if not isinstance(entry, Mapping):
            raise SpecError(
                f"runs[{index}] must be an object,"
                f" got {type(entry).__name__}"
            )
        entry = dict(entry)
        name = entry.pop("name", None)
        matrix = entry.pop("matrix", None)
        if matrix is not None:
            for generated, run_doc in _expand_matrix(entry, matrix,
                                                     name, index):
                add_run(generated, run_doc, index)
        else:
            add_run(name, entry, index)

    return SpecFile(
        name=document.get("name", path or "unnamed"),
        description=document.get("description", ""),
        runs=tuple(runs),
        path=path,
    )


def load_spec(path: str) -> SpecFile:
    """Load and validate a spec file from disk.

    Raises:
        SpecError: unreadable file, invalid JSON, or an invalid spec.
    """
    try:
        with open(path) as handle:
            text = handle.read()
    except OSError as exc:
        raise SpecError(f"cannot read spec {path!r}: {exc}") from exc
    try:
        document = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise SpecError(f"spec {path!r} is not valid JSON: {exc}") from exc
    return parse_spec(document, path=path)


def run_spec(spec: SpecFile, *, only: str | None = None,
             session: Session | None = None,
             subscribers: tuple[Subscriber, ...] = (),
             store: "ResultStore | None" = None,
             store_refresh: bool = False,
             ) -> list[tuple[SpecRun, VerificationResult]]:
    """Execute a spec's runs in order.

    With a ``store``, the spec's request set partitions into hits —
    served straight from the store as
    :class:`~repro.api.session.ResultReused` events — and misses, which
    alone are dispatched to their engines: the incremental campaign
    driver. Re-running an unchanged spec explores nothing.

    Args:
        spec: the loaded spec.
        only: run just the named run (see :meth:`SpecFile.run_named`).
        session: the session to run on (one is created otherwise).
        subscribers: progress subscribers, attached to the created *or*
            provided session.
        store: a :class:`~repro.store.backends.ResultStore` for the
            created session (configure a provided ``session`` directly
            instead of passing both).
        store_refresh: skip store lookups but store fresh results.

    Returns:
        ``(run, result)`` pairs in execution order.

    Raises:
        RequestError: a ``session`` was given together with ``store``
            or ``store_refresh`` (configure the session instead).
    """
    if session is None:
        session = Session(subscribers=subscribers, store=store,
                          store_refresh=store_refresh)
    else:
        if store is not None or store_refresh:
            raise RequestError(
                "pass the store (and store_refresh) when constructing"
                " the session, not to run_spec as well"
            )
        for subscriber in subscribers:
            session.subscribe(subscriber)
    selected = [spec.run_named(only)] if only is not None else list(spec.runs)
    return [(run, session.run(run.request)) for run in selected]
