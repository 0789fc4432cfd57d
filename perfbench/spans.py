"""In-memory spans, self time, percentiles and the patching that records spans.

Nothing here imports sslab or numpy, so the arithmetic can be tested alone
and importing this module does not disturb the import-time measurement.
"""

from __future__ import annotations

import functools
import gzip
import math
import time
from array import array
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Sequence


class Tracer:
    """Records nested spans (name, start, end, parent) plus named counters.

    Spans live in flat arrays until ``summarize`` or ``write`` reads them.
    A span's parent is the span that was open when it started, so the
    children of one span never overlap and its self time is its duration
    minus the summed durations of its direct children.
    """

    def __init__(self, clock: Callable[[], float] = time.process_time):
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self._open: dict[str, int] = defaultdict(int)
        self.counters: dict[str, float] = defaultdict(float)

    def __len__(self) -> int:
        return len(self.start)

    def enter(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self._open[name] += 1
        self._stack.append(idx)
        self.end.append(0.0)
        self.start.append(self.clock())
        return idx

    def exit(self, idx: int) -> None:
        self.end[idx] = self.clock()
        self._stack.pop()
        self._open[self.names[self.name_id[idx]]] -= 1

    def is_open(self, name: str) -> bool:
        return self._open[name] > 0

    def duration(self, idx: int) -> float:
        return self.end[idx] - self.start[idx]

    def summarize(self) -> dict[str, "SpanStats"]:
        """Calls, self seconds and inclusive seconds per span name."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        stats = {name: SpanStats() for name in self.names}
        for i in range(n):
            s = stats[self.names[self.name_id[i]]]
            dur = self.end[i] - self.start[i]
            s.calls += 1
            s.self_s += dur - child[i]
            s.inclusive_s += dur
        return stats

    def write(self, path) -> None:
        """Write every span as ``name<TAB>start<TAB>end<TAB>parent`` (gzip text)."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("name\tstart\tend\tparent\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{self.names[self.name_id[i]]}\t{self.start[i]!r}\t{self.end[i]!r}\t{self.parent[i]}\n"
                )


@dataclass
class SpanStats:
    calls: int = 0
    self_s: float = 0.0
    inclusive_s: float = 0.0


Hook = Callable[[Tracer, int, tuple, dict, object], object]


def traced(tracer: Tracer, name: str, fn: Callable, hook: Hook | None = None) -> Callable:
    """``fn`` inside a span; ``hook`` sees the finished span and may replace the result."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = tracer.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit(idx)
        if hook is not None:
            result = hook(tracer, idx, args, kwargs, result)
        return result

    return wrapper


Undo = list[tuple[object, str, object]]


def rebind(owners: Iterable[object], original: object, replacement: object) -> Undo:
    """Point every attribute of ``owners`` that is ``original`` at ``replacement``.

    The package binds names with ``from .x import y``, so one function is
    reachable under the same object from several modules; each must be
    patched for every call to go through the replacement.
    """
    undo: Undo = []
    for owner in owners:
        for attr, value in list(vars(owner).items()):
            if value is original:
                setattr(owner, attr, replacement)
                undo.append((owner, attr, value))
    return undo


def restore(undo: Undo) -> None:
    for owner, attr, value in reversed(undo):
        setattr(owner, attr, value)


# ---------------------------------------------------------------------------
# percentiles
# ---------------------------------------------------------------------------

LADDER = ("50", "90", "99", "99.9")


def nearest_rank(sorted_values: Sequence[float], pct: str) -> float:
    rank = math.ceil(Fraction(pct) * len(sorted_values) / 100)
    return sorted_values[max(rank, 1) - 1]


def tail_percentile(samples: Sequence[float]) -> tuple[str, float, int] | None:
    """The highest percentile of ``LADDER`` with at least ten samples beyond it.

    Returns (percentile, nearest-rank value, sample count), or None when
    even the median has fewer than ten samples above it.
    """
    n = len(samples)
    best = None
    for pct in LADDER:
        if n - math.ceil(Fraction(pct) * n / 100) >= 10:
            best = pct
    if best is None:
        return None
    return best, nearest_rank(sorted(samples), best), n
