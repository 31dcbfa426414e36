"""The metric catalogue: what every run prints, by name and unit.

``BENCHMARK.json`` lists the same metrics (a test keeps the two in
step).  ``perfbench/METRICS.md`` says which end-to-end metric each
per-layer metric should move and on which workload.
"""

from __future__ import annotations

from typing import Dict, Tuple

#: Printed by every untraced run: ``name -> (unit, better)``.
END_TO_END: Dict[str, Tuple[str, str]] = {
    "setup_s": ("s", "lower"),
    "query_p50_ms": ("ms", "lower"),
    "ops_per_s": ("1/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}

#: Printed by every traced run.  A layer a workload bypasses reads 0.
PER_LAYER: Dict[str, Tuple[str, str]] = {
    "loadgen.lag_p99_ms": ("ms", "lower"),
    "service.wave_size_mean": ("count", "higher"),
    "service.shared_share": ("ratio", "higher"),
    "service.execute_us_per_query": ("us", "lower"),
    "service.inline_us": ("us", "lower"),
    "service.codec_us_per_frame": ("us", "lower"),
    "service.queue_wait_ms": ("ms", "lower"),
    "service.reply_wait_ms": ("ms", "lower"),
    "service.transport_in_ms": ("ms", "lower"),
    "service.transport_out_ms": ("ms", "lower"),
    "service.server_latency_p50_ms": ("ms", "lower"),
    "service.server_latency_p99_ms": ("ms", "lower"),
    "service.cpu_ms_per_request": ("ms", "lower"),
    "service.timeouts": ("count", "lower"),
    "service.errors": ("count", "lower"),
    "index.pages_per_knn": ("count", "lower"),
    "index.entries_scanned_per_knn": ("count", "lower"),
    "index.pages_per_range": ("count", "lower"),
    "index.range_us": ("us", "lower"),
    "index.knn_us": ("us", "lower"),
    "core.senn_self_us": ("us", "lower"),
    "core.verify_single_us": ("us", "lower"),
    "core.verify_multi_us": ("us", "lower"),
    "core.peer_caches_per_query": ("count", "higher"),
    "core.tier_share.local-cache": ("ratio", "higher"),
    "core.tier_share.single-peer": ("ratio", "higher"),
    "core.tier_share.multi-peer": ("ratio", "higher"),
    "core.tier_share.server": ("ratio", "lower"),
    "core.certified_ratio.lemma-3.2": ("ratio", "higher"),
    "core.certified_ratio.lemma-3.8": ("ratio", "higher"),
    "geometry.coverage_us": ("us", "lower"),
    "sim.tick_ms": ("ms", "lower"),
    "sim.query_phase_ms": ("ms", "lower"),
    "sim.grid_us": ("us", "lower"),
    "network.route_us": ("us", "lower"),
    "network.snap_ms": ("ms", "lower"),
    "network.snap_calls_per_query": ("count", "lower"),
    "network.distance_us": ("us", "lower"),
    "network.settled_per_query": ("count", "lower"),
    "network.candidates_per_query": ("count", "lower"),
    "trace.overhead_ms": ("ms", "lower"),
    "trace.coverage": ("ratio", "higher"),
}


def complete_layers(measured: Dict[str, Tuple[float, str]]) -> Dict[str, Tuple[float, str]]:
    """Every per-layer metric in catalogue order; bypassed layers read 0.

    Raises ``KeyError`` on a name outside the catalogue or a unit that
    disagrees with it, so a typo cannot silently drop a metric.
    """
    for name, (_value, unit) in measured.items():
        if PER_LAYER[name][0] != unit:
            raise KeyError(f"{name}: unit {unit!r} is not {PER_LAYER[name][0]!r}")
    return {
        name: (float(measured[name][0]) if name in measured else 0.0, unit)
        for name, (unit, _better) in PER_LAYER.items()
    }
