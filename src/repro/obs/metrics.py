"""A labelled metrics registry with Prometheus text exposition.

:class:`MetricsRegistry` holds counters, gauges, and histograms —
the three instrument shapes Prometheus scrapes — created once at
wiring time and bumped from any thread. :meth:`MetricsRegistry.render`
emits the `text exposition format
<https://prometheus.io/docs/instrumenting/exposition_formats/>`_
(``# HELP`` / ``# TYPE`` headers, cumulative ``_bucket`` rows with
``le`` labels, ``_sum``/``_count``), which is what
``GET /metrics`` with ``Accept: text/plain`` serves.

Like the tracer this is stdlib-only and registry-scoped rather than
process-global: every :class:`~repro.service.http.VerificationService`
owns its own registry, so two services in one test process never
cross-contaminate each other's counters.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Iterator, Sequence

#: Default histogram buckets (seconds): tuned for request latencies
#: from sub-millisecond warm hits to minute-long cold closures.
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 30.0, 60.0,
)

_VALID_TYPES = ("counter", "gauge", "histogram")


def _format_value(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    as_float = float(value)
    if as_float.is_integer():
        return str(int(as_float))
    return repr(as_float)


def _escape_label(value: str) -> str:
    return (value.replace("\\", "\\\\").replace('"', '\\"')
            .replace("\n", "\\n"))


def _render_labels(names: Sequence[str], values: Sequence[str],
                   extra: str = "") -> str:
    pairs = [f'{name}="{_escape_label(value)}"'
             for name, value in zip(names, values)]
    if extra:
        pairs.append(extra)
    return "{" + ",".join(pairs) + "}" if pairs else ""


class _Child:
    """One labelled time series inside a metric family."""

    __slots__ = ("_lock", "value", "bucket_counts", "sum")

    def __init__(self, n_buckets: int = 0) -> None:
        self._lock = threading.Lock()
        self.value = 0.0
        self.bucket_counts = [0] * (n_buckets + 1)  # trailing +Inf
        self.sum = 0.0

    def add(self, amount: float) -> None:
        with self._lock:
            self.value += amount

    def set_to(self, value: float) -> None:
        with self._lock:
            self.value = value

    def observe(self, value: float, boundaries: Sequence[float]) -> None:
        index = bisect_left(boundaries, value)
        with self._lock:
            self.bucket_counts[index] += 1
            self.sum += value
            self.value += 1  # observation count


class Metric:
    """One metric family: a name, a type, and its labelled children.

    Created through the registry (:meth:`MetricsRegistry.counter` and
    friends), never directly. Unlabelled families use their single
    ``()`` child implicitly: call :meth:`inc` / :meth:`set` /
    :meth:`observe` on the family. Labelled families hand out children
    via :meth:`labels`.
    """

    def __init__(self, name: str, help_text: str, metric_type: str,
                 labelnames: Sequence[str] = (),
                 buckets: Sequence[float] = ()) -> None:
        if metric_type not in _VALID_TYPES:
            raise ValueError(f"unknown metric type {metric_type!r}")
        self.name = name
        self.help_text = help_text
        self.metric_type = metric_type
        self.labelnames = tuple(labelnames)
        self.buckets = tuple(buckets)
        self._lock = threading.Lock()
        self._children: dict[tuple[str, ...], _Child] = {}
        if not self.labelnames:
            self._children[()] = _Child(len(self.buckets))

    def labels(self, **labelvalues: str) -> "_BoundMetric":
        """The child series for one label-value assignment."""
        if set(labelvalues) != set(self.labelnames):
            raise ValueError(
                f"{self.name} takes labels {self.labelnames}, got "
                f"{tuple(sorted(labelvalues))}"
            )
        key = tuple(str(labelvalues[name]) for name in self.labelnames)
        with self._lock:
            child = self._children.get(key)
            if child is None:
                child = self._children[key] = _Child(len(self.buckets))
        return _BoundMetric(self, child)

    # -- unlabelled conveniences ---------------------------------------

    def _only_child(self) -> _Child:
        if self.labelnames:
            raise ValueError(
                f"{self.name} is labelled; use .labels(...) first"
            )
        return self._children[()]

    def inc(self, amount: float = 1.0) -> None:
        self._only_child().add(amount)

    def dec(self, amount: float = 1.0) -> None:
        self._only_child().add(-amount)

    def set(self, value: float) -> None:
        self._only_child().set_to(value)

    def observe(self, value: float) -> None:
        self._only_child().observe(value, self.buckets)

    @property
    def value(self) -> float:
        """Unlabelled current value (observation count for histograms)."""
        return self._only_child().value

    # -- exposition -----------------------------------------------------

    def _render(self) -> Iterator[str]:
        yield f"# HELP {self.name} {self.help_text}"
        yield f"# TYPE {self.name} {self.metric_type}"
        with self._lock:
            children = list(self._children.items())
        for key, child in children:
            if self.metric_type == "histogram":
                cumulative = 0
                for boundary, count in zip(
                        tuple(self.buckets) + (float("inf"),),
                        child.bucket_counts):
                    cumulative += count
                    le = f'le="{_format_value(boundary)}"'
                    labels = _render_labels(self.labelnames, key, le)
                    yield f"{self.name}_bucket{labels} {cumulative}"
                labels = _render_labels(self.labelnames, key)
                yield (f"{self.name}_sum{labels} "
                       f"{_format_value(child.sum)}")
                yield f"{self.name}_count{labels} {cumulative}"
            else:
                labels = _render_labels(self.labelnames, key)
                yield (f"{self.name}{labels} "
                       f"{_format_value(child.value)}")


class _BoundMetric:
    """A metric family bound to one child (one label assignment)."""

    __slots__ = ("_metric", "_child")

    def __init__(self, metric: Metric, child: _Child) -> None:
        self._metric = metric
        self._child = child

    def inc(self, amount: float = 1.0) -> None:
        self._child.add(amount)

    def dec(self, amount: float = 1.0) -> None:
        self._child.add(-amount)

    def set(self, value: float) -> None:
        self._child.set_to(value)

    def observe(self, value: float) -> None:
        self._child.observe(value, self._metric.buckets)

    @property
    def value(self) -> float:
        return self._child.value


class MetricsRegistry:
    """A named collection of metric families, rendered together."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: dict[str, Metric] = {}

    def _register(self, metric: Metric) -> Metric:
        with self._lock:
            if metric.name in self._metrics:
                raise ValueError(
                    f"metric {metric.name!r} already registered"
                )
            self._metrics[metric.name] = metric
        return metric

    def counter(self, name: str, help_text: str,
                labelnames: Sequence[str] = ()) -> Metric:
        """A monotonically increasing count."""
        return self._register(
            Metric(name, help_text, "counter", labelnames))

    def gauge(self, name: str, help_text: str,
              labelnames: Sequence[str] = ()) -> Metric:
        """A value that goes up and down (in-flight requests)."""
        return self._register(Metric(name, help_text, "gauge",
                                     labelnames))

    def histogram(self, name: str, help_text: str,
                  labelnames: Sequence[str] = (),
                  buckets: Sequence[float] = DEFAULT_BUCKETS,
                  ) -> Metric:
        """A distribution with cumulative buckets (latencies, sizes)."""
        return self._register(
            Metric(name, help_text, "histogram", labelnames,
                   buckets=tuple(sorted(buckets))))

    def get(self, name: str) -> Metric | None:
        """The registered family called ``name``, if any."""
        with self._lock:
            return self._metrics.get(name)

    def render(self) -> str:
        """The Prometheus text exposition of every family, in
        registration order, trailing newline included."""
        with self._lock:
            metrics = list(self._metrics.values())
        lines: list[str] = []
        for metric in metrics:
            lines.extend(metric._render())
        return "\n".join(lines) + "\n" if lines else ""

