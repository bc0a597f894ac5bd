"""Per-layer tracing from outside the program: wrap public functions.

The benchmark never edits ``src/``. For a traced run it replaces each
layer's public functions (listed in :data:`LAYERS`) with a wrapper that
times the call, subtracts the time its wrapped children took on the same
thread (self time), and adds per-call work counts. Spans are folded into
per-thread accumulators as they close, so memory stays bounded however
many calls a run makes. :func:`install` returns a handle whose
``restore()`` puts every original back, including references other
modules took with ``from module import name``.

A wrapper that re-enters its own layer (a method calling ``super()``, or
one tuple-executor entry calling the other) adds its self time, but its
call, inclusive time and work counts only once, at the outermost frame.
"""

from __future__ import annotations

import collections
import functools
import importlib
import sys
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Iterator

#: ``work(args, result, elapsed) -> {counter: increment}`` for one call.
Work = Callable[[tuple, Any, float], dict[str, float]]


def _frontier_work(args: tuple, result: Any, elapsed: float) -> dict[str, float]:
    # expand_level(self, packed_states, codec, ...) -> (edges, truncated, flat)
    edges = result[0]
    return {"states": len(args[1]),
            "edges": sum(len(succ) for succ in edges.values())}


def _kernel_work(args: tuple, result: Any, elapsed: float) -> dict[str, float]:
    # expand_batch_arrays(self, packed) -> (values, counts, truncated)
    return {"states_in": len(args[1]), "values_out": len(result[0])}


def _canonicalize_work(args: tuple, result: Any,
                       elapsed: float) -> dict[str, float]:
    # canonicalize_batch(self, packed, codec)
    return {"values_in": len(args[1])}


def _decode_work(args: tuple, result: Any, elapsed: float) -> dict[str, float]:
    # decode_graph(codec, edges)
    return {"states": len(args[1])}


def _encode_work(args: tuple, result: Any, elapsed: float) -> dict[str, float]:
    return {"bytes": len(result)}


def _lookup_work(args: tuple, result: Any, elapsed: float) -> dict[str, float]:
    return {"hits": float(result is not None)}


def _session_work(args: tuple, result: Any, elapsed: float) -> dict[str, float]:
    warm = result.provenance is not None and result.provenance.hit
    kind = "warm" if warm else "cold"
    return {f"{kind}_calls": 1.0, f"{kind}_s": elapsed}


@dataclass(frozen=True)
class Layer:
    """One traced layer: the functions it covers and what they count.

    ``targets`` are ``"module:attribute"`` paths; a dotted attribute
    names a method on a class. A method inherited rather than defined by
    the class is wrapped on the class itself, so calls on that class's
    instances are charged to this layer instead of the base class's.
    """

    name: str
    targets: tuple[str, ...]
    work: Work | None = None


#: Every wrapped layer, named by the module that owns it.
LAYERS: tuple[Layer, ...] = (
    Layer("verify.lemmas", (
        "repro.verify.lemmas:check_lemma1",
        "repro.verify.lemmas:check_filter_soundness",
        "repro.verify.lemmas:check_steal_soundness",
        "repro.verify.lemmas:check_choice_irrelevance",
    )),
    Layer("verify.potential", (
        "repro.verify.potential:check_potential_decrease",
        "repro.verify.potential:min_observed_decrease",
    )),
    Layer("verify.model_checker.progress", (
        "repro.verify.model_checker:ModelChecker.check_progress",
    )),
    Layer("verify.model_checker.closure_check", (
        "repro.verify.model_checker:ModelChecker.check_good_state_closure",
    )),
    Layer("verify.transition.branch", (
        "repro.verify.model_checker:ModelChecker.branches",
        "repro.verify.model_checker:ModelChecker.successors",
        "repro.verify.hierarchical:HierarchicalModelChecker.branches",
    )),
    # The closure driver: the serial checker's explore, or the
    # distributed engine's level-synchronous and async drivers.
    Layer("verify.model_checker.explore", (
        "repro.verify.model_checker:ModelChecker.explore",
        "repro.verify.parallel:bfs_closure",
        "repro.verify.distributed:async_closure",
    )),
    Layer("verify.model_checker.expand_level", (
        "repro.verify.model_checker:ModelChecker.expand_level",
    ), _frontier_work),
    Layer("verify.hierarchical.expand_level", (
        "repro.verify.hierarchical:HierarchicalModelChecker.expand_level",
    ), _frontier_work),
    Layer("verify.kernel.expand", (
        "repro.verify.kernel:TransitionKernel.expand_batch_arrays",
    ), _kernel_work),
    Layer("verify.symmetry.canonicalize", (
        "repro.verify.symmetry:SymmetryGroup.canonicalize_batch",
        "repro.verify.symmetry:TrivialGroup.canonicalize_batch",
        "repro.verify.symmetry:FlatSymmetryGroup.canonicalize_batch",
        "repro.verify.symmetry:BlockSymmetryGroup.canonicalize_batch",
    ), _canonicalize_work),
    Layer("verify.encoding.decode_graph", (
        "repro.verify.encoding:decode_graph",
    ), _decode_work),
    Layer("verify.model_checker.analyze_graph", (
        "repro.verify.model_checker:ModelChecker.analyze_graph",
    )),
    Layer("verify.distributed.map", (
        "repro.verify.distributed:Coordinator.map",
    )),
    Layer("verify.distributed.worker", (
        "repro.verify.distributed:WorkerRuntime.execute",
    )),
    Layer("verify.wire.encode", (
        "repro.verify.wire:encode_message",
    ), _encode_work),
    Layer("verify.wire.decode", (
        "repro.verify.wire:decode_message",
    )),
    Layer("api.spec.parse", ("repro.api.spec:parse_spec",)),
    Layer("store.keys.key", ("repro.store.keys:store_key",)),
    Layer("store.backends.load", ("repro.store.backends:FileStore.load",)),
    Layer("store.backends.save", ("repro.store.backends:FileStore.save",)),
    Layer("store.caching.lookup", (
        "repro.store.caching:CachingEngine.load_result",
    ), _lookup_work),
    Layer("api.report.to_dict", ("repro.api.report:result_to_dict",)),
    # The request entry point; its self time is glue no deeper layer
    # covers, which is why it is left out of the attributed share.
    Layer("api.session.run", ("repro.api.session:Session.run",),
          _session_work),
)

#: The layer whose self time counts as unattributed.
ENTRY_LAYER = "api.session.run"

#: Per-layer counters of one thread: ``{layer: {counter: value}}``.
Counters = dict[str, dict[str, float]]


def merge(threads: list[Counters]) -> Counters:
    """Counters summed over threads (or processes)."""
    merged: Counters = {}
    for counters in threads:
        for layer, values in counters.items():
            target = merged.setdefault(layer, {})
            for name, value in values.items():
                target[name] = target.get(name, 0.0) + value
    return merged


def unattributed_share(threads: list[Counters]) -> float:
    """Share of request time that no layer below the entry covers.

    Only threads that ran :data:`ENTRY_LAYER` count: their time inside
    top-level wrapped calls, minus the self time of every other layer,
    over the former. Other threads (dispatch, heartbeat) run concurrently
    with a request thread that is already accounted for.
    """
    top = attributed = 0.0
    for counters in threads:
        if not counters.get(ENTRY_LAYER, {}).get("calls"):
            continue
        top += sum(values.get("top_s", 0.0) for values in counters.values())
        attributed += sum(values.get("self_s", 0.0)
                          for layer, values in counters.items()
                          if layer != ENTRY_LAYER)
    return max(0.0, 1.0 - attributed / top) if top else 0.0


class _ThreadState:
    __slots__ = ("stack", "depth", "acc")

    def __init__(self) -> None:
        self.stack: list[list[float]] = []
        self.depth: dict[str, int] = {}
        self.acc: dict[str, collections.defaultdict[str, float]] = {}


class Recorder:
    """Folds wrapped calls into per-layer counters, one set per thread.

    Counters per layer: ``calls``, ``total_s`` (inclusive, outermost
    frames only), ``self_s`` (inclusive minus wrapped children on the
    same thread), ``top_s`` (inclusive, frames no other wrapped call
    encloses) and whatever the layer's work function returns.
    Disabled wrappers only pay one attribute check per call.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.enabled = False
        self.clock = clock
        self._local = threading.local()
        self._threads: list[_ThreadState] = []
        # Re-entrant: the launcher's signal handlers call reset() and
        # thread_totals() on the main thread, which may hold it already.
        self._lock = threading.RLock()

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = _ThreadState()
            with self._lock:
                self._threads.append(state)
        return state

    def reset(self) -> None:
        """Zero every counter (call only while no wrapped call runs)."""
        with self._lock:
            for state in self._threads:
                state.acc.clear()

    def thread_totals(self) -> list[Counters]:
        """Each thread's counters, as plain dicts."""
        with self._lock:
            return [{layer: dict(acc) for layer, acc in state.acc.items()}
                    for state in self._threads if state.acc]

    def wrap(self, layer: str, fn: Callable[..., Any],
             work: Work | None = None) -> Callable[..., Any]:
        """``fn`` timed and counted under ``layer``."""
        clock = self.clock

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not self.enabled:
                return fn(*args, **kwargs)
            state = self._state()
            depth = state.depth.get(layer, 0)
            state.depth[layer] = depth + 1
            frame = [0.0]
            state.stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                state.stack.pop()
                state.depth[layer] = depth
                acc = state.acc.get(layer)
                if acc is None:
                    acc = state.acc[layer] = collections.defaultdict(float)
                if state.stack:
                    state.stack[-1][0] += elapsed
                else:
                    acc["top_s"] += elapsed
                acc["self_s"] += elapsed - frame[0]
                if depth == 0:
                    acc["calls"] += 1
                    acc["total_s"] += elapsed
            if depth == 0 and work is not None:
                for counter, increment in work(args, result, elapsed).items():
                    acc[counter] += increment
            return result

        return wrapper


def _resolve(target: str) -> tuple[Any, str, Any]:
    """``(owner, attribute, original)`` for a ``module:attr`` target."""
    module_name, _, path = target.partition(":")
    owner: Any = importlib.import_module(module_name)
    *parents, attribute = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attribute, getattr(owner, attribute)


def _repro_modules() -> Iterator[Any]:
    for name, module in list(sys.modules.items()):
        if module is not None and (name == "repro" or name.startswith("repro.")):
            yield module


class Installation:
    """The patches one :func:`install` made; :meth:`restore` undoes them."""

    def __init__(self) -> None:
        # (owner, attribute, original, owner defined it itself)
        self._patches: list[tuple[Any, str, Any, bool]] = []
        # id(wrapper) -> (wrapper, original); holding the wrapper keeps
        # its id from being reused before restore() has run.
        self._originals: dict[int, tuple[Any, Any]] = {}

    def patch(self, owner: Any, attribute: str, original: Any,
              wrapper: Any) -> None:
        own = attribute in vars(owner)
        self._patches.append((owner, attribute, original, own))
        self._originals[id(wrapper)] = (wrapper, original)
        setattr(owner, attribute, wrapper)
        if isinstance(owner, type):
            return
        # Module-level functions: repoint every `from m import f` copy.
        for module in _repro_modules():
            for name, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, name, original, True))
                    setattr(module, name, wrapper)

    def restore(self) -> None:
        """Put every original back, newest patch first, then repoint
        copies modules imported after installation took."""
        for owner, attribute, original, own in reversed(self._patches):
            if own:
                setattr(owner, attribute, original)
            else:
                delattr(owner, attribute)
        self._patches.clear()
        for module in _repro_modules():
            for name, value in list(vars(module).items()):
                entry = self._originals.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(module, name, entry[1])
        self._originals.clear()


def install(recorder: Recorder) -> Installation:
    """Wrap every target of :data:`LAYERS` around ``recorder``.

    All targets are resolved before the first patch, so a method a
    subclass inherits is wrapped from the base class's original, not
    from the base class's wrapper.
    """
    resolved = [(layer, _resolve(target))
                for layer in LAYERS for target in layer.targets]
    installation = Installation()
    for layer, (owner, attribute, original) in resolved:
        installation.patch(owner, attribute, original,
                           recorder.wrap(layer.name, original, layer.work))
    return installation
