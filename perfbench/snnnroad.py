"""The ``snnn-road`` workload: SNNN (Algorithm 2) on the bundled LA extract.

The committed ~5k-node extract with a :class:`HierarchicalIndex`, 600
POIs placed on edges (about the Table-4 LA POI density over the
extract) and 800 hosts on the roads of a 3 x 3-mile window.  Each query
moves one host to a fresh road position; it answers from its own cache
and the caches of hosts within 200 m (their earlier results), then the
server.  The timed operation is one ``snnn_query`` call.  A sample of
answers is recomputed without the index (the per-candidate Dijkstra
path) and must agree exactly.  The call is pure computation in this
thread, so it is timed on the thread's CPU clock: its latency on a core
of its own, without the time other tenants of a shared host held the
core.  The CPU-bound figures are rescaled to the reference speed by a
:class:`~perfbench.common.SpeedProbe` sampled between queries and before
every set-up.
"""

from __future__ import annotations

import gc
import time
from pathlib import Path
from typing import Any, Dict, List, Tuple

import numpy as np

from perfbench.common import (
    MIN_BEYOND,
    LayerStat,
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

K = 5  # Table-4 lambda_knn
CACHE_SIZE = 20
POIS = 600
HOSTS = 800
#: About 40 POIs fall inside the window, so the local POI layout, and with
#: it the work per query, varies little from seed to seed.
WINDOW_MILES = 3.0
TX_RANGE_MILES = 200.0 / 1609.344
SETUPS = 5
CHECK_EVERY = 4
#: 120-210 queries per 30-second run: p90 is the highest percentile that
#: keeps 10 samples beyond it on every run.
TAIL_PCT = 90.0


def build(seed: int) -> Tuple[Any, Any, Any]:
    """Network, registered hierarchy and server: the timed set-up."""
    from repro.core.server import SpatialDatabaseServer
    from repro.network.index import HierarchicalIndex
    from repro.network.loaders import load_bundled_extract

    network = load_bundled_extract()
    index = HierarchicalIndex(network, leaf_size=64)
    rng = np.random.default_rng([seed, 3])
    edges = list(network.edges())
    pois = []
    for number in range(POIS):
        edge = edges[int(rng.integers(len(edges)))]
        pois.append((network.location_at(edge, float(rng.uniform(0.0, edge.length))), f"poi-{number}"))
    index.register_pois(pois)
    server = SpatialDatabaseServer.from_points([(location.point, payload) for location, payload in pois])
    return network, index, server


class _Hosts:
    """Host positions (on roads inside the window) and their caches."""

    def __init__(self, network: Any, rng: np.random.Generator) -> None:
        from repro.core.cache import QueryCache

        xs = [network.node_position(n).x for n in network.node_ids()]
        ys = [network.node_position(n).y for n in network.node_ids()]
        cx, cy = (min(xs) + max(xs)) / 2.0, (min(ys) + max(ys)) / 2.0
        half = WINDOW_MILES / 2.0

        def inside(node: int) -> bool:
            p = network.node_position(node)
            return abs(p.x - cx) <= half and abs(p.y - cy) <= half

        self.network = network
        self.rng = rng
        self.edges = [e for e in network.edges() if inside(e.u) and inside(e.v)]
        self.positions = [self.road_point() for _ in range(HOSTS)]
        self.caches = [QueryCache(CACHE_SIZE) for _ in range(HOSTS)]

    def road_point(self) -> Any:
        edge = self.edges[int(self.rng.integers(len(self.edges)))]
        return self.network.location_at(edge, float(self.rng.uniform(0.0, edge.length))).point

    def peer_caches(self, host: int) -> List[Any]:
        here = self.positions[host]
        caches = []
        for other, position in enumerate(self.positions):
            if other != host and here.distance_to(position) <= TX_RANGE_MILES:
                snapshot = self.caches[other].get()
                if snapshot is not None and not snapshot.is_empty():
                    caches.append(snapshot)
        return caches


def run(seed: int, seconds: float, trace: bool) -> WorkloadResult:
    """One run of ``snnn-road``."""
    import repro.core.senn as senn_module
    import repro.core.snnn as snnn_module
    from repro.core.senn import ResolutionTier, SennConfig
    from repro.core.snnn import snnn_query
    from repro.geometry.coverage import CertainRegion
    from repro.obs import OBS, Tracer

    OBS.registry.reset()
    setups: List[float] = []
    built: Any = None
    setup_speed, run_speed = SpeedProbe(), SpeedProbe()
    for _ in range(SETUPS):
        built = None
        gc.collect()
        setup_speed.sample()
        started = time.perf_counter()
        built = build(seed)
        setups.append(time.perf_counter() - started)
    network, index, server = built
    hosts = _Hosts(network, np.random.default_rng([seed, 4]))
    config = SennConfig(k=K, transmission_range=TX_RANGE_MILES, cache_capacity=CACHE_SIZE)
    clock = time.perf_counter
    cpu_clock = time.thread_time

    samples: List[float] = []
    checks: List[Tuple[Any, Any, List[Any], List[Tuple[Any, float]]]] = []
    tiers: Dict[Any, int] = {tier: 0 for tier in ResolutionTier}
    used_server = 0
    candidates: List[int] = []
    peer_counts: List[int] = []
    spans: Any = None

    def one_query() -> None:
        nonlocal used_server
        host = int(hosts.rng.integers(HOSTS))
        hosts.positions[host] = hosts.road_point()
        point = hosts.positions[host]
        own = hosts.caches[host].get()
        peers = hosts.peer_caches(host)
        peer_counts.append(len(peers))
        started = cpu_clock()
        if spans is None:
            result = snnn_query(point, K, network, own, peers, config, server=server, index=index)
        else:
            spans.context.trace_id += 1
            with spans.tracer.span("core.snnn", trace=spans.context.trace_id):
                result = snnn_query(point, K, network, own, peers, config, server=server, index=index)
        samples.append(cpu_clock() - started)
        answer = [(n.payload, n.network_distance) for n in result.neighbors]
        if len(samples) % CHECK_EVERY == 0:
            checks.append((point, own, peers, answer))
        tiers[result.senn_result.tier] += 1
        used_server += int(result.used_server)
        candidates.append(result.candidates_from_peers + result.candidates_from_server)
        if result.senn_result.cacheable:
            hosts.caches[host].store(point, result.senn_result.cacheable)

    def loop(budget: float) -> float:
        """Query until ``budget`` wall seconds pass; the CPU seconds taken.

        The host's speed is sampled between queries every half second;
        the samples' own CPU time is left out.
        """
        started = clock()
        cpu_started = time.process_time()
        sampled = sum(run_speed.samples)
        while clock() - started < budget:
            one_query()
            run_speed.maybe_sample()
        return time.process_time() - cpu_started - (sum(run_speed.samples) - sampled)

    gc.collect()
    budget = seconds / 3.0 if trace else seconds
    cpu = loop(budget)
    untraced = list(samples)
    report: Dict[str, Tuple[float, str]] = {
        "setup_raw_s": (median(setups), "s"),
        "query_p50_raw_ms": (1e3 * median(untraced), "ms"),
        "ops_raw_per_s": (len(untraced) / cpu, "1/s"),
        "host_slowdown": (run_speed.slowdown(), "ratio"),
        "query_tail_pct": (TAIL_PCT, "pct"),
        "query_tail_ms": (1e3 * percentile(untraced, TAIL_PCT), "ms"),
    }
    notes: List[str] = []
    layers: Dict[str, Tuple[float, str]] = {}
    if trace:
        spans = SpanTracer(Tracer(clock=time.perf_counter), TraceContext())
        patcher = Patcher()
        patcher.wrap(snnn_module, "senn_query", spans.spanned("core.senn"))
        patcher.wrap(senn_module, "verify_single_peer", spans.spanned("core.verify_single"))
        patcher.wrap(senn_module, "verify_multi_peer", spans.spanned("core.verify_multi"))
        patcher.wrap(CertainRegion, "covers_disk", spans.spanned("geometry.coverage"))
        patcher.wrap(server, "knn_query_detailed", spans.spanned("index.knn"))
        patcher.wrap(server, "incremental_query", spans.spanned_stream("index.stream"))
        patcher.wrap(network, "snap", spans.spanned("network.snap"))
        patcher.wrap(index, "network_distance", spans.spanned("network.distance"))
        settled_before = index.stats.settled_vertices
        history_before = len(server.counter.history)
        first = len(samples)
        for tier in tiers:
            tiers[tier] = 0
        used_server = 0
        OBS.registry.reset()
        try:
            loop(seconds - budget)
        finally:
            patcher.restore()
        traced = samples[first:]
        OUT.mkdir(parents=True, exist_ok=True)
        with open(OUT / f"snnn-road-seed{seed}.trace.jsonl", "w", encoding="utf-8") as stream:
            spans.tracer.export_jsonl(stream)
        records = spans.tracer.records
        stats = layer_stats(records)
        queries = len(traced)
        registry = OBS.registry

        def ratio(lemma: str) -> float:
            certain = registry.value("verify.candidates", lemma=lemma, outcome="certain")
            uncertain = registry.value("verify.candidates", lemma=lemma, outcome="uncertain")
            return certain / (certain + uncertain) if certain + uncertain else 0.0

        def stat(name: str) -> LayerStat:
            return stats.get(name, LayerStat())

        snap = stat("network.snap")
        history = server.counter.history[history_before:]
        layers = {
            "index.knn_us": (stat("index.knn").mean_us(), "us"),
            "index.pages_per_knn": (mean([b.total for b in history]), "count"),
            "index.entries_scanned_per_knn": (mean([b.entries_scanned for b in history]), "count"),
            "core.peer_caches_per_query": (mean(peer_counts[first:]), "count"),
            "core.senn_self_us": (stat("core.senn").self_us(), "us"),
            "core.verify_single_us": (stat("core.verify_single").mean_us(), "us"),
            "core.verify_multi_us": (stat("core.verify_multi").mean_us(), "us"),
            "geometry.coverage_us": (stat("geometry.coverage").mean_us(), "us"),
            "core.tier_share.local-cache": (tiers[ResolutionTier.LOCAL_CACHE] / queries, "ratio"),
            "core.tier_share.single-peer": (tiers[ResolutionTier.SINGLE_PEER] / queries, "ratio"),
            "core.tier_share.multi-peer": (tiers[ResolutionTier.MULTI_PEER] / queries, "ratio"),
            "core.tier_share.server": (tiers[ResolutionTier.SERVER] / queries, "ratio"),
            "core.certified_ratio.lemma-3.2": (ratio("3.2"), "ratio"),
            "core.certified_ratio.lemma-3.8": (ratio("3.8"), "ratio"),
            "network.snap_ms": (snap.mean_us() / 1e3, "ms"),
            "network.snap_calls_per_query": (snap.calls / queries, "count"),
            "network.distance_us": (stat("network.distance").mean_us(), "us"),
            "network.settled_per_query": ((index.stats.settled_vertices - settled_before) / queries, "count"),
            "network.candidates_per_query": (mean(candidates[first:]), "count"),
            "trace.overhead_ms": (1e3 * (median(traced) - median(untraced)), "ms"),
            "trace.coverage": (root_coverage(records, "core.snnn", stats), "ratio"),
        }
    attempted = len(samples)
    report["server_share"] = (used_server / max(1, len(samples) - (len(untraced) if trace else 0)), "ratio")

    # Correctness: the sampled answers recomputed along the Dijkstra path.
    wrong = 0
    for point, own, peers, answer in checks:
        result = snnn_query(point, K, network, own, peers, config, server=server)
        # The index contract: network distances bit-identical to Dijkstra.
        if [(n.payload, n.network_distance) for n in result.neighbors] != answer:
            wrong += 1
    report["error_rate"] = (wrong / attempted if attempted else 0.0, "ratio")
    report["checked_answers"] = (float(len(checks)), "count")
    if trace:
        return WorkloadResult(wrong == 0, attempted, wrong, layers, report, notes)
    if samples_beyond(len(untraced), TAIL_PCT) < MIN_BEYOND:
        notes.append(f"warning: {len(untraced)} samples do not support p{TAIL_PCT:g}")
    e2e = {
        "setup_s": (median(setups) / setup_speed.slowdown(), "s"),
        "query_p50_ms": (1e3 * median(untraced) / run_speed.slowdown(), "ms"),
        "ops_per_s": (len(untraced) / cpu * run_speed.slowdown(), "1/s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    return WorkloadResult(wrong == 0, attempted, wrong, e2e, report, notes)
