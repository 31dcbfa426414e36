"""Helpers shared by every workload: statistics, tracing, the result line.

Nothing here imports ``repro`` at module level except through
:class:`Patcher`/:class:`SpanTracer`, which take already-imported objects,
so the helpers stay testable on their own.
"""

from __future__ import annotations

import gc
import json
import math
import resource
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: Percentiles a tail may be reported at, highest first.
TAIL_LADDER: Tuple[float, ...] = (99.9, 99.0, 95.0, 90.0, 80.0, 75.0, 50.0)

#: A tail percentile needs at least this many samples beyond it.
MIN_BEYOND = 10


def samples_beyond(count: int, pct: float) -> float:
    """How many of ``count`` samples lie above the ``pct`` percentile."""
    return count * (100.0 - pct) / 100.0


def tail_percentile(count: int, ladder: Sequence[float] = TAIL_LADDER) -> Optional[float]:
    """Highest percentile of ``ladder`` with at least ``MIN_BEYOND`` samples beyond it.

    ``None`` when even the lowest rung is not supported by ``count``.
    """
    for pct in ladder:
        if samples_beyond(count, pct) >= MIN_BEYOND:
            return pct
    return None


def percentile(values: Sequence[float], pct: float) -> float:
    """Linear-interpolated percentile (numpy's default rule) of ``values``."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * pct / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    weight = rank - low
    return ordered[low] + (ordered[high] - ordered[low]) * weight


def median(values: Sequence[float]) -> float:
    """The 50th percentile."""
    return percentile(values, 50.0)


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean, 0.0 for an empty sample (a bypassed layer)."""
    return sum(values) / len(values) if values else 0.0


def histogram_percentile(snapshot: Dict[str, Any], pct: float) -> float:
    """Percentile of a ``MetricsRegistry`` histogram snapshot.

    Interpolates linearly inside the bucket that holds the rank; the
    first bucket starts at 0 and the overflow bucket is clamped to the
    last boundary.  Coarse by construction: it can only be as fine as
    the boundaries the program chose.
    """
    count = snapshot["count"]
    if not count:
        return 0.0
    boundaries = list(snapshot["boundaries"])
    buckets = list(snapshot["buckets"])
    target = count * pct / 100.0
    seen = 0.0
    lower = 0.0
    for index, bucket in enumerate(buckets):
        upper = boundaries[index] if index < len(boundaries) else boundaries[-1]
        if bucket and seen + bucket >= target:
            return lower + (upper - lower) * (target - seen) / bucket
        seen += bucket
        lower = upper
    return boundaries[-1]


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def cpu_seconds() -> float:
    """User plus system CPU time of this process."""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


# ----------------------------------------------------------------------
# the host's speed
# ----------------------------------------------------------------------
#: CPU seconds one :func:`reference_pass` took inside the workloads' runs
#: on the 2-vCPU VM the benchmark was written on, in its faster
#: stretches.  The timed end-to-end metrics are expressed at this speed.
#: Changing it rescales every such metric, so it stays fixed.
REFERENCE_PASS_S = 200e-6

#: Passes timed per speed sample (about 4 ms of work).
PASSES_PER_SAMPLE = 16


def reference_pass() -> float:
    """A fixed piece of pure-Python work like the program's inner loops.

    Tuple allocation, float arithmetic and a sort; it calls nothing of
    the program, so no change to the program can change its cost.
    """
    pairs = []
    for i in range(400):
        pairs.append(((i * 7919) % 1000 / 10.0, (i * 104729) % 1000 / 10.0))
    total = 0.0
    for x, y in pairs:
        total += (x * x + y * y) ** 0.5
    pairs.sort()
    return total


class SpeedProbe:
    """Samples how fast the host runs fixed work while a workload runs.

    The benchmark's host shares its cores with other tenants, and their
    load slows the cores by up to 2x for minutes at a time, in CPU time
    as well as wall time.  The program's timings all move with it.  The
    probe times :func:`reference_pass` between the workload's operations;
    :meth:`slowdown` is how much slower than the reference speed the host
    ran over the run, and a timing divided by it reads what the program
    would have taken at the reference speed.  A change to the program
    moves the rescaled timing by the same factor as the raw one.
    """

    def __init__(self, interval_s: float = 0.5) -> None:
        self.samples: List[float] = []
        self.interval_s = interval_s
        self._last = -math.inf

    def sample(self) -> None:
        """Time ``PASSES_PER_SAMPLE`` reference passes on the thread's CPU clock.

        The collector is off while they run, so the size of the
        program's heap cannot change what a pass costs.  An untimed pass
        first wakes a core that sat idle.
        """
        collecting = gc.isenabled()
        gc.disable()
        try:
            reference_pass()
            for _ in range(PASSES_PER_SAMPLE):
                started = time.thread_time()
                reference_pass()
                self.samples.append(time.thread_time() - started)
        finally:
            if collecting:
                gc.enable()
        self._last = time.perf_counter()

    def maybe_sample(self) -> None:
        """Sample when ``interval_s`` wall seconds have passed since the last sample."""
        if time.perf_counter() - self._last >= self.interval_s:
            self.sample()

    def slowdown(self) -> float:
        """Median pass time over :data:`REFERENCE_PASS_S` (1.0 at the reference speed)."""
        return median(self.samples) / REFERENCE_PASS_S


# ----------------------------------------------------------------------
# spans and self time
# ----------------------------------------------------------------------
def union_length(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping ``(start, end)`` intervals."""
    total = 0.0
    current_start: Optional[float] = None
    current_end = 0.0
    for start, end in sorted(intervals):
        if current_start is None or start > current_end:
            if current_start is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_start is not None:
        total += current_end - current_start
    return total


def self_times(records: Sequence[Any]) -> Dict[int, float]:
    """Self time of every span: its duration minus what its children cover.

    ``records`` are :class:`repro.obs.tracing.TraceRecord`-shaped objects
    (``kind``, ``span_id``, ``parent_id``, ``start``, ``end``).  Child
    intervals are clipped to the parent and merged, so overlapping
    children are not subtracted twice.
    """
    spans = {r.span_id: r for r in records if r.kind == "span"}
    children: Dict[int, List[Tuple[float, float]]] = {}
    for record in spans.values():
        parent = spans.get(record.parent_id) if record.parent_id is not None else None
        if parent is None:
            continue
        start = max(record.start, parent.start)
        end = min(record.end, parent.end)
        if end > start:
            children.setdefault(parent.span_id, []).append((start, end))
    return {
        span_id: (record.end - record.start)
        - union_length(children.get(span_id, ()))
        for span_id, record in spans.items()
    }


@dataclass
class LayerStat:
    """Calls, inclusive time and self time of one span name."""

    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0

    def mean_us(self) -> float:
        """Mean inclusive duration per call, in microseconds."""
        return 1e6 * self.total_s / self.calls if self.calls else 0.0

    def self_us(self) -> float:
        """Mean self time per call, in microseconds."""
        return 1e6 * self.self_s / self.calls if self.calls else 0.0


def layer_stats(records: Sequence[Any]) -> Dict[str, LayerStat]:
    """Aggregate spans by name into :class:`LayerStat`."""
    selfs = self_times(records)
    stats: Dict[str, LayerStat] = {}
    for record in records:
        if record.kind != "span":
            continue
        stat = stats.setdefault(record.name, LayerStat())
        stat.calls += 1
        stat.total_s += record.end - record.start
        stat.self_s += selfs[record.span_id]
    return stats


def root_coverage(records: Sequence[Any], root_name: str, layer_names: Iterable[str]) -> float:
    """Share of the ``root_name`` spans' time covered by layer self times.

    Sums the self times of every span named in ``layer_names`` that sits
    under a ``root_name`` span (the root itself included when named) and
    divides by the roots' total duration.
    """
    spans = {r.span_id: r for r in records if r.kind == "span"}
    selfs = self_times(records)
    wanted = set(layer_names)
    root_total = 0.0
    covered = 0.0
    for record in spans.values():
        if record.name == root_name:
            root_total += record.end - record.start
        if record.name not in wanted:
            continue
        node = record
        while node is not None and node.name != root_name:
            node = spans.get(node.parent_id) if node.parent_id is not None else None
        if node is not None:
            covered += selfs[record.span_id]
    return covered / root_total if root_total else 0.0


class TraceContext:
    """The trace id spans are stamped with (one per request or query)."""

    __slots__ = ("trace_id",)

    def __init__(self) -> None:
        self.trace_id = 0


class Patcher:
    """Wraps attributes of modules, classes or instances and restores them.

    The benchmark measures layers from outside: it replaces a layer's
    public entry point with a wrapper around the original and puts the
    original back afterwards.
    """

    def __init__(self) -> None:
        self._saved: List[Tuple[Any, str, Any, bool]] = []

    def wrap(self, owner: Any, attr: str, make: Callable[[Callable[..., Any]], Callable[..., Any]]) -> None:
        """Replace ``owner.attr`` by ``make(original)``."""
        had_own = attr in getattr(owner, "__dict__", {})
        original = getattr(owner, attr)
        self._saved.append((owner, attr, owner.__dict__.get(attr) if had_own else None, had_own))
        setattr(owner, attr, make(original))

    def restore(self) -> None:
        """Undo every wrap, newest first."""
        while self._saved:
            owner, attr, original, had_own = self._saved.pop()
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)


class SpanTracer:
    """A wall-clock :class:`repro.obs.tracing.Tracer` plus wrapping helpers."""

    def __init__(self, tracer: Any, context: TraceContext) -> None:
        self.tracer = tracer
        self.context = context

    def spanned(self, name: str) -> Callable[[Callable[..., Any]], Callable[..., Any]]:
        """Factory for :meth:`Patcher.wrap`: run the call inside a span."""
        tracer = self.tracer
        context = self.context

        def make(original: Callable[..., Any]) -> Callable[..., Any]:
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                with tracer.span(name, trace=context.trace_id):
                    return original(*args, **kwargs)

            return wrapper

        return make

    def spanned_stream(self, name: str) -> Callable[[Callable[..., Any]], Callable[..., Any]]:
        """Like :meth:`spanned` for a call returning an iterator: every
        ``next`` on the returned iterator runs inside its own span."""
        tracer = self.tracer
        context = self.context

        def make(original: Callable[..., Any]) -> Callable[..., Any]:
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                iterator = iter(original(*args, **kwargs))

                def pulls() -> Any:
                    try:
                        while True:
                            with tracer.span(name, trace=context.trace_id):
                                try:
                                    item = next(iterator)
                                except StopIteration:
                                    return
                            yield item
                    finally:
                        close = getattr(iterator, "close", None)
                        if close is not None:
                            close()

                return pulls()

            return wrapper

        return make


class CallTimer:
    """Count and total wall time of a high-frequency call (no span records)."""

    def __init__(self) -> None:
        self.calls = 0
        self.total_s = 0.0

    def timed(self, original: Callable[..., Any]) -> Callable[..., Any]:
        """Factory for :meth:`Patcher.wrap`."""
        clock = time.perf_counter

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            start = clock()
            try:
                return original(*args, **kwargs)
            finally:
                self.total_s += clock() - start
                self.calls += 1

        return wrapper

    def mean_us(self) -> float:
        """Mean microseconds per call (0.0 when never called)."""
        return 1e6 * self.total_s / self.calls if self.calls else 0.0


# ----------------------------------------------------------------------
# the result
# ----------------------------------------------------------------------
@dataclass
class WorkloadResult:
    """What one run measured.

    ``metrics`` holds the end-to-end metrics (untraced run) or the
    per-layer metrics (traced run) as ``name -> (value, unit)``;
    ``report`` holds every further workload metric, printed on the
    human-readable report line.
    """

    correct: bool
    attempted: int
    failed: int
    metrics: Dict[str, Tuple[float, str]]
    report: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)

    def result_line(self) -> str:
        """The contract's final JSON line."""
        return json.dumps(
            {
                "correct": self.correct,
                "attempted": self.attempted,
                "failed": self.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in self.metrics.items()
                },
            }
        )

    def report_line(self, workload: str) -> str:
        """One human-readable line: every metric with its unit."""
        merged = dict(self.report)
        merged.update(self.metrics)
        parts = [f"{name}={value:.6g} {unit}" for name, (value, unit) in sorted(merged.items())]
        return f"{workload}: " + ", ".join(parts)
