"""Summaries of repeated measurements and the parent-vs-change verdict."""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

#: Ops that must lie beyond the reported tail percentile.
TAIL_OPS_BEYOND = 10


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives."""
    values = list(values)
    if not values:
        raise ValueError("no values")
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def relative_spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, median, q3 = quartiles(values)
    if median == 0:
        return 0.0 if q3 == q1 else float("inf")
    return (q3 - q1) / abs(median)


@dataclass(frozen=True)
class Tail:
    """Latency at the highest percentile with enough ops beyond it."""

    value: float
    percentile: float
    ops: int
    beyond: int


def tail(latencies: Sequence[float], beyond: int = TAIL_OPS_BEYOND) -> Tail:
    """The op latency at rank ``n - beyond`` of ``n`` sorted ops.

    That is the highest percentile with at least ``beyond`` ops above it.
    With ``beyond`` or fewer ops no such percentile exists; the slowest op
    is reported at the 100th percentile with zero ops beyond.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n == 0:
        raise ValueError("no latencies")
    rank = n - beyond if n > beyond else n
    return Tail(value=ordered[rank - 1], percentile=100.0 * rank / n, ops=n,
                beyond=n - rank)


@dataclass
class OpLedger:
    """Counts attempted and failed ops; a failed op has no latency."""

    attempted: int = 0
    failed: int = 0

    def __post_init__(self) -> None:
        self.latencies: List[float] = []
        self.samples = 0
        self.failures: List[str] = []

    def record(self, seconds: float, samples: int, ok: bool,
               reason: str = "") -> None:
        self.attempted += 1
        if ok:
            self.latencies.append(seconds)
            self.samples += samples
        else:
            self.failed += 1
            self.failures.append(reason or "check failed")

    def fail_recorded(self, reason: str) -> None:
        """Mark one already-recorded op failed (a check run after timing)."""
        if self.failed >= self.attempted:
            raise ValueError("every attempted op has already failed")
        self.failed += 1
        self.failures.append(reason)

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def verdict(parent: Sequence[float], change: Sequence[float], bound: float,
            better: str) -> Dict[str, object]:
    """Compare two sets of runs of one metric on one workload.

    * ``improved``: the change wins at least nine tenths of the run pairs
      and the medians differ, in its favour, by more than the parent's
      inter-quartile distance;
    * ``unresolved``: either side's spread is wider than ``bound`` (unless
      every change run reads better than every parent run);
    * ``worse``: the change's median is worse than the parent's by more
      than ``bound`` of the parent's median;
    * ``unchanged`` otherwise.

    Runs are paired in the order given (the same seed on both sides when
    result sets are sorted by seed).
    """
    if better not in ("lower", "higher"):
        raise ValueError("better must be 'lower' or 'higher'")
    if not parent or not change:
        raise ValueError("both sides need at least one run")
    sign = 1.0 if better == "higher" else -1.0
    p1, p_med, p3 = quartiles(parent)
    c1, c_med, c3 = quartiles(change)
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    win_fraction = wins / len(pairs)
    gain = sign * (c_med - p_med)
    worsening = -gain / abs(p_med) if p_med else (0.0 if gain >= 0
                                                  else float("inf"))
    spread = max(relative_spread(parent), relative_spread(change))
    all_better = all(sign * (c - p) > 0 for c in change for p in parent)
    if win_fraction >= 0.9 and gain > (p3 - p1):
        outcome = "improved"
    elif spread > bound and not all_better:
        outcome = "unresolved"
    elif worsening > bound:
        outcome = "worse"
    else:
        outcome = "unchanged"
    return {"verdict": outcome,
            "parent": {"q1": p1, "median": p_med, "q3": p3, "runs": len(parent)},
            "change": {"q1": c1, "median": c_med, "q3": c3, "runs": len(change)},
            "win_fraction": win_fraction, "worsening": worsening,
            "spread": spread, "bound": bound}
