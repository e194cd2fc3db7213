"""In-memory span recording around calls into the program's layers.

A traced run installs :class:`Tracer` wrappers on the public functions each
layer exposes (see ``workloads.TRACE_POINTS``); untraced runs install
nothing, so the program runs exactly as it ships.  Every span keeps its
name, start, end and parent, and a layer's self time is its span minus the
part of that interval its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: Optional[int] = None
    children: List[int] = field(default_factory=list)

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered(intervals: Sequence[Tuple[float, float]], start: float,
            end: float) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    total = 0.0
    cursor = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, cursor), min(hi, end)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


class Tracer:
    """Records nested spans of one thread; ``on_exit`` hooks count work."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self._patches: List[Tuple[object, str, object]] = []
        #: ``{span name: hook(tracer, args, kwargs, result)}``, run when a
        #: span of that name closes.
        self.on_exit: Dict[str, Callable] = {}
        self.counts: Dict[str, float] = {}

    # -- recording -------------------------------------------------------
    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append(Span(name, perf_counter(), parent=parent))
        if parent is not None:
            self.spans[parent].children.append(index)
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index].end = perf_counter()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {self.spans[index].name!r} closed out "
                               f"of order")

    def inside(self, name: str) -> bool:
        """Whether a span called ``name`` is open on the stack."""
        return any(self.spans[index].name == name for index in self._stack)

    def count(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0.0) + value

    def wrap(self, name: str, function: Callable) -> Callable:
        tracer = self

        @functools.wraps(function)
        def traced(*args, **kwargs):
            index = tracer.open(name)
            try:
                result = function(*args, **kwargs)
            finally:
                tracer.close(index)
            hook = tracer.on_exit.get(name)
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result

        return traced

    # -- installing ------------------------------------------------------
    def patch(self, target: str, name: str) -> bool:
        """Wrap ``module:attr`` or ``module:Class.attr`` in a span ``name``.

        Returns ``False`` (and patches nothing) when the target no longer
        exists, so a program refactor leaves that layer's numbers at zero
        instead of breaking the benchmark.
        """
        module_name, _, attr_path = target.partition(":")
        try:
            owner = importlib.import_module(module_name)
        except ImportError:
            return False
        *owners, attr = attr_path.split(".")
        for part in owners:
            owner = getattr(owner, part, None)
            if owner is None:
                return False
        # A class is patched only where it defines the attribute itself.
        original = owner.__dict__.get(attr) if isinstance(owner, type) \
            else getattr(owner, attr, None)
        if original is None:
            return False
        setattr(owner, attr, self.wrap(name, original))
        self._patches.append((owner, attr, original))
        return True

    def unpatch(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- analysis --------------------------------------------------------
    def self_times(self, nested: Optional[Dict[str, float]] = None
                   ) -> Dict[str, float]:
        """Total self time per span name.

        ``nested`` maps a span name to seconds the program's own telemetry
        recorded strictly inside spans of that name; they count as further
        children (so the layer that recorded them owns that time instead).
        """
        totals: Dict[str, float] = {}
        for span in self.spans:
            kids = [(self.spans[c].start, self.spans[c].end)
                    for c in span.children]
            own = span.duration - covered(kids, span.start, span.end)
            totals[span.name] = totals.get(span.name, 0.0) + own
        for name, seconds in (nested or {}).items():
            if name in totals:
                totals[name] -= seconds
        return totals

    def call_counts(self) -> Dict[str, int]:
        calls: Dict[str, int] = {}
        for span in self.spans:
            calls[span.name] = calls.get(span.name, 0) + 1
        return calls

    def totals(self) -> Dict[str, float]:
        """Total inclusive duration per span name."""
        totals: Dict[str, float] = {}
        for span in self.spans:
            totals[span.name] = totals.get(span.name, 0.0) + span.duration
        return totals
