"""The ``sim-la`` workload: the paper's own simulator at LA Table-4 densities.

A density-preserving 6 x 6-mile window (``scaled_area(0.2)``: 4,860
hosts, 162 POIs, 5.4 queries per simulated second) with road-network
mobility and the server in-process.  After a fixed warm-up the
simulation advances in fixed 20-simulated-second segments until the
run's seconds are spent.  The timed operation is one
``MobileHost.query_knn`` call (SENN: peer discovery, Lemma 3.2/3.8
verification, the server when peers fall short).  The call is pure
computation in this thread, so it is timed on the thread's CPU clock:
its latency on a core of its own, without the time other tenants of a
shared host held the core.  The CPU-bound figures are rescaled to the
reference speed by a :class:`~perfbench.common.SpeedProbe` sampled
between segments and before every set-up.
"""

from __future__ import annotations

import dataclasses
import gc
import time
from pathlib import Path
from typing import Any, Dict, List, Tuple

from perfbench.common import (
    MIN_BEYOND,
    CallTimer,
    Patcher,
    SpanTracer,
    SpeedProbe,
    TraceContext,
    WorkloadResult,
    layer_stats,
    mean,
    median,
    peak_rss_mb,
    percentile,
    root_coverage,
    samples_beyond,
)

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"

SCALE = 0.2
WARMUP_S = 60.0
SEGMENT_S = 20.0
SETUPS = 5
#: Every this many queries one answer is checked against the reference.
CHECK_EVERY = 10
#: 5,000-10,000 queries per 30-second run leave >50 samples beyond p99.
TAIL_PCT = 99.0


def _config(seed: int) -> Any:
    from repro.sim.config import SimulationConfig, los_angeles_30x30

    return SimulationConfig(
        parameters=los_angeles_30x30().scaled_area(SCALE),
        seed=seed,
        t_execution_s=WARMUP_S,
        warmup_fraction=0.0,
    )


class _QueryProbe:
    """Times every ``query_knn`` and keeps a sample of answers to check."""

    def __init__(self) -> None:
        self.samples: List[float] = []
        self.checks: List[Tuple[Any, int, Any]] = []
        self.spans: Any = None

    def attach(self, host: Any) -> None:
        original = host.query_knn
        clock = time.thread_time

        def timed(*args: Any, **kwargs: Any) -> Any:
            position = host.position
            spans = self.spans
            if spans is None:
                started = clock()
                result = original(*args, **kwargs)
                self.samples.append(clock() - started)
            else:
                spans.context.trace_id += 1
                started = clock()
                with spans.tracer.span("core.senn", trace=spans.context.trace_id):
                    result = original(*args, **kwargs)
                self.samples.append(clock() - started)
            if len(self.samples) % CHECK_EVERY == 0:
                self.checks.append((position, kwargs.get("k"), result))
            return result

        host.query_knn = timed


def _advance(sim: Any, budget_s: float, speed: SpeedProbe) -> Tuple[float, float, float]:
    """Run whole segments until ``budget_s`` wall seconds pass.

    Samples the host's speed after every segment.  Returns the simulated
    seconds, the wall seconds and the process CPU seconds they took,
    less the samples' own.
    """
    simulated = 0.0
    started = time.perf_counter()
    cpu_started = time.process_time()
    while time.perf_counter() - started < budget_s:
        sim.run()
        simulated += SEGMENT_S
        speed.sample()
    cpu = time.process_time() - cpu_started - sum(speed.samples)
    return simulated, time.perf_counter() - started, cpu


def _check(sim: Any, probe: _QueryProbe, reference: Any) -> int:
    """Wrong answers among the sampled queries, plus a tier-sum mismatch."""
    wrong = 0
    for position, k, result in probe.checks:
        want = [n.distance for n in reference.knn_query(position, k)]
        # SENN answers are exact: certified distances equal the server's bit for bit.
        if [n.distance for n in result.neighbors] != want:
            wrong += 1
    counts = sim.metrics.tier_counts
    if sum(counts.values()) != len(probe.samples) or sim.metrics.total_queries != len(probe.samples):
        wrong += 1
    return wrong


def run(seed: int, seconds: float, trace: bool) -> WorkloadResult:
    """One run of ``sim-la``."""
    from repro.core.senn import ResolutionTier
    from repro.core.server import SpatialDatabaseServer
    from repro.obs import OBS
    from repro.sim.simulation import Simulation
    from repro.sim.stats import SimulationMetrics

    OBS.registry.reset()
    config = _config(seed)
    setups: List[float] = []
    snap_timer = CallTimer()
    patcher = Patcher()
    if trace:
        from repro.network.graph import SpatialNetwork

        patcher.wrap(SpatialNetwork, "snap", snap_timer.timed)
    sim = None
    setup_speed, run_speed = SpeedProbe(), SpeedProbe()
    for _ in range(SETUPS):
        sim = None
        gc.collect()
        setup_speed.sample()
        started = time.perf_counter()
        sim = Simulation(config)
        setups.append(time.perf_counter() - started)
    patcher.restore()
    assert sim is not None
    sim.run()  # warm-up: caches fill, hosts spread out
    reference = SpatialDatabaseServer.from_points(sim.pois)
    probe = _QueryProbe()
    for host in sim.hosts:
        probe.attach(host)
    sim.config = dataclasses.replace(config, t_execution_s=SEGMENT_S)
    sim.metrics = SimulationMetrics()
    gc.collect()

    simulated, wall, cpu = _advance(sim, seconds / 3.0 if trace else seconds, run_speed)
    untraced = list(probe.samples)
    wrong = _check(sim, probe, reference)
    attempted = len(untraced)
    report: Dict[str, Tuple[float, str]] = {
        "sim_speed": (simulated / wall, "sim_s/s"),
        "setup_raw_s": (median(setups), "s"),
        "query_p50_raw_ms": (1e3 * median(untraced), "ms"),
        "ops_raw_per_s": (attempted / cpu, "1/s"),
        "host_slowdown": (run_speed.slowdown(), "ratio"),
        "server_share": (sim.metrics.server_share, "ratio"),
        "simulated_s": (simulated, "s"),
        "query_tail_pct": (TAIL_PCT, "pct"),
        "query_tail_ms": (1e3 * percentile(untraced, TAIL_PCT), "ms"),
    }
    notes: List[str] = []
    if not trace:
        if samples_beyond(attempted, TAIL_PCT) < MIN_BEYOND:
            notes.append(f"warning: {attempted} samples do not support p{TAIL_PCT:g}")
        report["error_rate"] = (wrong / attempted if attempted else 0.0, "ratio")
        e2e = {
            "setup_s": (median(setups) / setup_speed.slowdown(), "s"),
            "query_p50_ms": (1e3 * median(untraced) / run_speed.slowdown(), "ms"),
            "ops_per_s": (attempted / cpu * run_speed.slowdown(), "1/s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        }
        return WorkloadResult(wrong == 0, attempted, wrong, e2e, report, notes)

    # ---- traced phase ------------------------------------------------
    import repro.core.senn as senn_module
    import repro.sim.mobility as mobility_module
    from repro.geometry.coverage import CertainRegion
    from repro.obs import Tracer

    spans = SpanTracer(Tracer(clock=time.perf_counter), TraceContext())
    grid_timer = CallTimer()
    route_timer = CallTimer()
    patcher.wrap(senn_module, "verify_single_peer", spans.spanned("core.verify_single"))
    patcher.wrap(senn_module, "verify_multi_peer", spans.spanned("core.verify_multi"))
    patcher.wrap(CertainRegion, "covers_disk", spans.spanned("geometry.coverage"))
    patcher.wrap(sim.server, "knn_query_detailed", spans.spanned("index.knn"))
    patcher.wrap(sim.grid, "update", grid_timer.timed)
    patcher.wrap(sim.grid, "within_range", grid_timer.timed)
    patcher.wrap(mobility_module, "shortest_path", route_timer.timed)
    probe.spans = spans
    probe.samples = []
    probe.checks = []
    sim.metrics = SimulationMetrics()
    OBS.registry.reset()
    history_before = len(sim.server.counter.history)
    received_before = sum(h.peer_caches_received for h in sim.hosts)
    try:
        _advance(sim, seconds - seconds / 3.0, SpeedProbe())
    finally:
        patcher.restore()
    traced = probe.samples
    wrong += _check(sim, probe, reference)
    attempted += len(traced)
    OUT.mkdir(parents=True, exist_ok=True)
    with open(OUT / f"sim-la-seed{seed}.trace.jsonl", "w", encoding="utf-8") as stream:
        spans.tracer.export_jsonl(stream)

    records = spans.tracer.records
    stats = layer_stats(records)
    queries = len(traced)
    metrics = sim.metrics
    history = sim.server.counter.history[history_before:]
    registry = OBS.registry
    snapshot = registry.snapshot()

    def ratio(lemma: str) -> float:
        certain = registry.value("verify.candidates", lemma=lemma, outcome="certain")
        uncertain = registry.value("verify.candidates", lemma=lemma, outcome="uncertain")
        return certain / (certain + uncertain) if certain + uncertain else 0.0

    def phase_ms(name: str) -> float:
        hist = snapshot.get(name)
        return 1e3 * hist["sum"] / hist["count"] if hist and hist["count"] else 0.0

    def stat_us(name: str, self_time: bool = False) -> float:
        stat = stats.get(name)
        if stat is None:
            return 0.0
        return stat.self_us() if self_time else stat.mean_us()

    layers = {
        "index.knn_us": (stat_us("index.knn"), "us"),
        "index.pages_per_knn": (mean([b.total for b in history]), "count"),
        "index.entries_scanned_per_knn": (mean([b.entries_scanned for b in history]), "count"),
        "core.senn_self_us": (stat_us("core.senn", self_time=True), "us"),
        "core.verify_single_us": (stat_us("core.verify_single"), "us"),
        "core.verify_multi_us": (stat_us("core.verify_multi"), "us"),
        "core.peer_caches_per_query": (
            (sum(h.peer_caches_received for h in sim.hosts) - received_before) / queries if queries else 0.0,
            "count",
        ),
        "core.tier_share.local-cache": (metrics.share(ResolutionTier.LOCAL_CACHE), "ratio"),
        "core.tier_share.single-peer": (metrics.share(ResolutionTier.SINGLE_PEER), "ratio"),
        "core.tier_share.multi-peer": (metrics.share(ResolutionTier.MULTI_PEER), "ratio"),
        "core.tier_share.server": (metrics.share(ResolutionTier.SERVER), "ratio"),
        "core.certified_ratio.lemma-3.2": (ratio("3.2"), "ratio"),
        "core.certified_ratio.lemma-3.8": (ratio("3.8"), "ratio"),
        "geometry.coverage_us": (stat_us("geometry.coverage"), "us"),
        "sim.tick_ms": (phase_ms("sim.phase.advance"), "ms"),
        "sim.query_phase_ms": (phase_ms("sim.phase.query"), "ms"),
        "sim.grid_us": (grid_timer.mean_us(), "us"),
        "network.route_us": (route_timer.mean_us(), "us"),
        "network.snap_ms": (snap_timer.mean_us() / 1e3, "ms"),
        "trace.overhead_ms": (1e3 * (median(traced) - median(untraced)) if traced and untraced else 0.0, "ms"),
        "trace.coverage": (root_coverage(records, "core.senn", stats), "ratio"),
    }
    report["error_rate"] = (wrong / attempted if attempted else 0.0, "ratio")
    return WorkloadResult(wrong == 0, attempted, wrong, layers, report, notes)
