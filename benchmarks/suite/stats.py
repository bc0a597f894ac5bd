"""Summary statistics and the comparison rule of the benchmark.

Pure functions over plain lists of floats, shared by the harness (per-run
percentiles), the runner (per-set medians and quartiles) and ``run.py
compare`` (labelling a change against its parent).
"""

from __future__ import annotations

import math
import statistics
from typing import Sequence

#: A reported percentile must leave at least this many samples beyond it.
MIN_SAMPLES_BEYOND = 10

#: Share of alternating pairs the change must win before a gain is claimed.
WIN_SHARE = 0.9

#: Fewest pairs a gain may rest on.
MIN_PAIRS = 10


def median(values: Sequence[float]) -> float:
    """The median; raises ``ValueError`` on an empty sequence."""
    if not values:
        raise ValueError("median of no samples")
    return float(statistics.median(values))


def quartiles(values: Sequence[float]) -> tuple[float, float]:
    """First and third quartile, as ``statistics.quantiles(n=4)`` gives
    them; a single sample is its own quartiles."""
    if not values:
        raise ValueError("quartiles of no samples")
    if len(values) == 1:
        return float(values[0]), float(values[0])
    q1, _, q3 = statistics.quantiles(values, n=4)
    return float(q1), float(q3)


def supports_percentile(n_samples: int, q: float) -> bool:
    """Whether ``n_samples`` leave at least :data:`MIN_SAMPLES_BEYOND`
    samples above the ``q`` quantile (``q`` in ``[0, 1)``)."""
    if not 0.0 <= q < 1.0:
        raise ValueError(f"quantile must lie in [0, 1), got {q}")
    return n_samples - math.ceil(q * n_samples) >= MIN_SAMPLES_BEYOND


def min_samples(q: float) -> int:
    """The fewest samples that support the ``q`` quantile."""
    n = MIN_SAMPLES_BEYOND
    while not supports_percentile(n, q):
        n += 1
    return n


def percentile(values: Sequence[float], q: float) -> float | None:
    """The ``q`` quantile by linear interpolation between closest ranks,
    or ``None`` when fewer than :data:`MIN_SAMPLES_BEYOND` samples would
    lie beyond it."""
    if not supports_percentile(len(values), q):
        return None
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    weight = position - low
    return float(ordered[low] * (1.0 - weight) + ordered[high] * weight)


def summarize(values: Sequence[float]) -> dict[str, float | int]:
    """Median, quartiles and sample count of one metric over runs."""
    q1, q3 = quartiles(values)
    return {"median": median(values), "q1": q1, "q3": q3, "n": len(values)}


def _better(candidate: float, reference: float, better: str) -> bool:
    return candidate < reference if better == "lower" else candidate > reference


def label_change(parent: Sequence[float], change: Sequence[float], *,
                 better: str, bound: float, floor: float = 0.0) -> str:
    """Label a metric's move from ``parent`` runs to ``change`` runs.

    ``parent[i]`` and ``change[i]`` form the ``i``-th pair. A side's
    allowance is ``bound`` times the absolute value of its median, or
    ``floor`` (in the metric's unit) when that is larger. Returns one of:

    * ``"unresolved"``: either side's interquartile distance is wider
      than its allowance and not every change run beats every parent run;
    * ``"regressed"``: the change's median is worse than the parent's
      by more than the parent's allowance;
    * ``"improved"``: at least :data:`MIN_PAIRS` pairs, the change wins
      at least :data:`WIN_SHARE` of them (ties count for neither side),
      and the medians differ, in the better direction, by more than the
      parent's interquartile distance;
    * ``"unchanged"``: everything else.
    """
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', got {better!r}")
    parent_mid, change_mid = median(parent), median(change)

    def too_wide(values: Sequence[float]) -> bool:
        q1, q3 = quartiles(values)
        return q3 - q1 > max(bound * abs(median(values)), floor)

    dominates = all(_better(c, p, better) for c in change for p in parent)
    if (too_wide(parent) or too_wide(change)) and not dominates:
        return "unresolved"
    worse = change_mid - parent_mid if better == "lower" \
        else parent_mid - change_mid
    if worse > max(bound * abs(parent_mid), floor):
        return "regressed"
    pairs = list(zip(parent, change))
    wins = sum(_better(c, p, better) for p, c in pairs)
    q1, q3 = quartiles(parent)
    if (len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE * len(pairs)
            and _better(change_mid, parent_mid, better)
            and abs(change_mid - parent_mid) > q3 - q1):
        return "improved"
    return "unchanged"
