"""Tests of the benchmark's own helpers.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np
import pytest

from perfbench import catalog, loadgen, serve
from perfbench.common import (
    PASSES_PER_SAMPLE,
    REFERENCE_PASS_S,
    SpeedProbe,
    histogram_percentile,
    layer_stats,
    percentile,
    root_coverage,
    samples_beyond,
    self_times,
    tail_percentile,
    union_length,
)

ROOT = Path(__file__).resolve().parents[2]


# ----------------------------------------------------------------------
# the tail percentile rule
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "count, expected",
    [
        (20_000, 99.9),  # 20 samples beyond p99.9
        (9_999, 99.0),  # 9.999 beyond p99.9 is not enough
        (1_000, 99.0),  # exactly 10 beyond p99
        (999, 95.0),
        (70, 80.0),  # snnn-road's fixed tail
        (100, 90.0),
        (20, 50.0),
        (19, None),
    ],
)
def test_tail_percentile_keeps_ten_samples_beyond(count: int, expected: Optional[float]) -> None:
    assert tail_percentile(count) == expected
    if expected is not None:
        assert samples_beyond(count, expected) >= 10


def test_workload_tails_follow_the_rule_at_their_sample_counts() -> None:
    from perfbench import simla, snnnroad

    # The fewest samples a 30-second run gives: 3,000 open-loop kNN
    # requests (serve), 5,000 queries (sim-la), 120 queries (snnn-road).
    # The tail is p99 where those support it, else the highest rung they do.
    for fewest, fixed in ((3000, serve.TAIL_PCT), (5000, simla.TAIL_PCT), (120, snnnroad.TAIL_PCT)):
        assert fixed == min(99.0, tail_percentile(fewest))


def test_percentile_matches_numpy_linear_rule() -> None:
    values = list(np.random.default_rng(3).exponential(size=257))
    for pct in (0.0, 12.5, 50.0, 80.0, 99.0, 100.0):
        assert percentile(values, pct) == pytest.approx(float(np.percentile(values, pct)), rel=1e-12)


def test_histogram_percentile_interpolates_inside_the_bucket() -> None:
    snapshot = {"count": 10, "boundaries": [1.0, 2.0, 4.0], "buckets": [0, 5, 5, 0]}
    assert histogram_percentile(snapshot, 50.0) == pytest.approx(2.0)
    assert histogram_percentile(snapshot, 75.0) == pytest.approx(3.0)
    assert histogram_percentile({"count": 0, "boundaries": [1.0], "buckets": [0, 0]}, 50.0) == 0.0


# ----------------------------------------------------------------------
# self time
# ----------------------------------------------------------------------
@dataclass
class _Span:
    span_id: int
    parent_id: Optional[int]
    start: float
    end: float
    name: str = "x"
    kind: str = "span"


def test_union_length_merges_overlaps() -> None:
    assert union_length([(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)]) == pytest.approx(4.0)
    assert union_length([]) == 0.0


def test_self_time_subtracts_children_once() -> None:
    records = [
        _Span(0, None, 0.0, 10.0, "root"),
        _Span(1, 0, 1.0, 4.0, "a"),
        _Span(2, 0, 3.0, 6.0, "b"),  # overlaps a: covered 1..6 once
        _Span(3, 1, 2.0, 3.0, "c"),
        _Span(4, 0, 9.0, 12.0, "d"),  # sticks out of the root: clipped to 9..10
    ]
    selfs = self_times(records)
    assert selfs[0] == pytest.approx(10.0 - 5.0 - 1.0)
    assert selfs[1] == pytest.approx(3.0 - 1.0)
    assert selfs[3] == pytest.approx(1.0)
    assert selfs[4] == pytest.approx(3.0)


def test_self_times_of_a_tree_sum_to_the_root_duration() -> None:
    records = [
        _Span(0, None, 0.0, 8.0, "root"),
        _Span(1, 0, 1.0, 5.0, "a"),
        _Span(2, 1, 2.0, 3.0, "b"),
        _Span(3, 0, 6.0, 7.0, "b"),
    ]
    stats = layer_stats(records)
    assert sum(s.self_s for s in stats.values()) == pytest.approx(8.0)
    assert stats["b"].calls == 2
    assert root_coverage(records, "root", stats) == pytest.approx(1.0)
    assert root_coverage(records, "root", ["a"]) == pytest.approx(3.0 / 8.0)


def test_self_time_on_real_tracer_records() -> None:
    from repro.obs import Tracer

    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    with tracer.span("root"):
        with tracer.span("child"):
            pass
    selfs = self_times(tracer.records)
    by_name = {r.name: selfs[r.span_id] for r in tracer.records}
    assert by_name == {"child": 1.0, "root": 2.0}


# ----------------------------------------------------------------------
# inputs come from the seed
# ----------------------------------------------------------------------
def test_poisson_schedule_is_determined_by_the_seed() -> None:
    first = loadgen.poisson_schedule(np.random.default_rng(7), 500.0, 4.0)
    again = loadgen.poisson_schedule(np.random.default_rng(7), 500.0, 4.0)
    other = loadgen.poisson_schedule(np.random.default_rng(8), 500.0, 4.0)
    assert first == again
    assert first != other
    assert all(b > a for a, b in zip(first, first[1:]))
    assert 0.0 < first[0] and first[-1] < 4.0
    assert abs(len(first) - 2000) < 5 * math.sqrt(2000)
    assert loadgen.poisson_schedule(np.random.default_rng(7), 0.0, 4.0) == []


def _small_reference(seed: int = 5, count: int = 400, side: float = 10.0):
    coords = np.random.default_rng(seed).uniform(0.0, side, size=(count, 2))
    return coords, serve.build_reference(coords)


def test_fig17_request_carries_verified_partial_knowledge() -> None:
    from repro.service.protocol import KnnRequest

    _, reference = _small_reference()
    rng = np.random.default_rng(1)
    made = 0
    for _ in range(200):
        query = (float(rng.uniform(1, 9)), float(rng.uniform(1, 9)))
        k = int(rng.integers(4, 15))
        peers = [(p, int(rng.integers(1, 21))) for p in loadgen.peer_points(rng, query, int(rng.integers(0, 3)), 0.5)]
        for location, _size in peers:
            assert math.dist(location, query) <= 0.5 + 1e-12
        template = loadgen.knn_template(reference, query, k, peers)
        if template is None:
            continue
        made += 1
        request = template.message
        assert isinstance(request, KnnRequest) and template.kind == "knn"
        assert 4 <= request.k <= 14 and len(request.known_certain) < request.k
        assert request.bounds.lower <= request.bounds.upper
        # Certified entries are true neighbors of the query, in order.
        truth = reference.knn_query(request.query, request.k)
        assert [n.distance for n in request.known_certain] == [n.distance for n in truth[: len(request.known_certain)]]
        if not peers:
            assert request.known_certain == () and math.isinf(request.bounds.upper)
    assert made > 50


def test_fully_answered_queries_never_reach_the_server() -> None:
    _, reference = _small_reference()
    # A peer standing on the query point with 20 cached neighbors certifies k=4.
    assert loadgen.knn_template(reference, (5.0, 5.0), 4, [((5.0, 5.0), 20)]) is None


def test_serve_inputs_are_determined_by_the_seed() -> None:
    spec = serve.ServeSpec("t", pois=300, side=10.0, rate=100.0, hotspots=2, range_share=0.25, templates=60)

    def build(seed: int):
        coords, _, templates = serve.make_inputs(spec, np.random.default_rng(seed), [])
        return coords, [(t.kind, t.message) for t in templates]

    coords_a, templates_a = build(3)
    coords_b, templates_b = build(3)
    coords_c, templates_c = build(4)
    assert np.array_equal(coords_a, coords_b) and templates_a == templates_b
    assert not np.array_equal(coords_a, coords_c)
    kinds = {kind for kind, _ in templates_a}
    assert kinds == {"knn", "range", "window"}


# ----------------------------------------------------------------------
# the host speed probe
# ----------------------------------------------------------------------
def test_speed_probe_reports_median_pass_time_over_the_reference() -> None:
    probe = SpeedProbe()
    probe.samples = [3 * REFERENCE_PASS_S, REFERENCE_PASS_S, 2 * REFERENCE_PASS_S]
    assert probe.slowdown() == pytest.approx(2.0)


def test_speed_probe_samples_with_the_collector_off_and_restores_it() -> None:
    import gc

    probe = SpeedProbe(interval_s=3600.0)
    enabled = gc.isenabled()
    try:
        for state in (True, False):
            (gc.enable if state else gc.disable)()
            probe.sample()
            assert gc.isenabled() is state
    finally:
        (gc.enable if enabled else gc.disable)()
    assert len(probe.samples) == 2 * PASSES_PER_SAMPLE and min(probe.samples) > 0.0
    probe.maybe_sample()  # within the interval: no new sample
    assert len(probe.samples) == 2 * PASSES_PER_SAMPLE


# ----------------------------------------------------------------------
# the catalogue and BENCHMARK.json agree
# ----------------------------------------------------------------------
def test_benchmark_json_lists_the_catalogue() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == catalog.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == catalog.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == ["serve-hotspot", "sim-la", "snnn-road"]


def test_complete_layers_fills_bypassed_layers_and_rejects_typos() -> None:
    full = catalog.complete_layers({"index.knn_us": (3.5, "us")})
    assert list(full) == list(catalog.PER_LAYER)
    assert full["index.knn_us"] == (3.5, "us") and full["sim.tick_ms"] == (0.0, "ms")
    with pytest.raises(KeyError):
        catalog.complete_layers({"index.knn_ms": (1.0, "ms")})
    with pytest.raises(KeyError):
        catalog.complete_layers({"index.knn_us": (1.0, "ms")})
