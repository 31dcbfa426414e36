"""The ``serve-hotspot`` workload.

The system under test is an :class:`~repro.service.asyncserver.AsyncQueryServer`
with the default :class:`~repro.service.asyncserver.ServiceConfig` in one
child process (``perfbench/serve_child.py``).  The benchmark process
generates every input from the seed, sends the POIs to the child, and
drives it from one asyncio loop over two TCP connections: an open-loop
Poisson phase at a fixed offered rate (latency from each request's due
time) alternating with a closed-loop capacity phase.  Capacity is read
as requests answered per second of the server process's CPU time, so it
measures the server, not how much of the shared host's cores it was
given, and rescaled to the reference speed by the child's
:class:`~perfbench.common.SpeedProbe` of its own core.  Every reply is compared bit for bit with an in-process reference
``SpatialDatabaseServer`` built from the same POIs.
"""

from __future__ import annotations

import asyncio
import gc
import itertools
import json
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from perfbench.common import (
    WorkloadResult,
    histogram_percentile,
    mean,
    median,
    percentile,
    samples_beyond,
    MIN_BEYOND,
)
from perfbench.loadgen import (
    LoadGenerator,
    PhaseResult,
    Template,
    answer_key,
    expected_key,
    knn_template,
    peer_points,
    poisson_schedule,
)

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"

#: Table-4 Los Angeles: 4,050 POIs in 30 x 30 miles, 200 m radios,
#: 20-entry caches.
LA_POIS = 4050
LA_SIDE_MILES = 30.0
TX_RANGE_MILES = 200.0 / 1609.344
CACHE_SIZE = 20

#: Server set-ups per run; ``setup_s`` is their median.
SETUPS = 5

#: A run is rejected when the generator sent its p99 request later than this.
LAG_BOUND_MS = 20.0

#: Share of the run's seconds spent in the open loop (the rest measures
#: capacity).  Half a 30-second run still gives the p99 over 30 samples
#: beyond it, and capacity averages over as much of the host's drift.
OPEN_SHARE = 0.5

#: Unmeasured open-loop seconds before the measured phases.
WARMUP_S = 0.5

#: Closed-loop phases are cut into bins this long; the wall-clock
#: ``peak_qps`` is the median completion rate over all bins.
CAPACITY_BIN_S = 0.25

#: Untraced runs alternate open and closed loop in this many rounds, so
#: both phases sample the whole run's stretch of wall time.
ROUNDS = 4

#: The tail percentile of ``query_tail_ms`` (p99: >30 samples beyond it).
TAIL_PCT = 99.0


@dataclass(frozen=True)
class ServeSpec:
    """One serve workload's shape."""

    name: str
    pois: int
    side: float
    rate: float  # offered open-loop kNN+range+window requests per second
    hotspots: int  # batching cells the query points fall in
    range_share: float  # share of requests that are range or window queries
    templates: int  # distinct requests the stream draws from


HOTSPOT = ServeSpec(
    name="serve-hotspot",
    pois=LA_POIS,
    side=LA_SIDE_MILES,
    rate=300.0,
    hotspots=4,
    range_share=0.25,
    templates=3000,
)


# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------
def make_inputs(
    spec: ServeSpec, rng: np.random.Generator, verify_timer: List[float]
) -> Tuple[np.ndarray, Any, List[Template]]:
    """POIs, the reference server and the request templates."""
    from repro.geometry.bbox import BoundingBox
    from repro.geometry.point import Point
    from repro.service.protocol import RangeRequest, WindowRequest

    coords = rng.uniform(0.0, spec.side, size=(spec.pois, 2))
    reference = build_reference(coords)
    cell = 0.25  # the default ServiceConfig.batch_cell_size
    centers = [
        (
            (int(rng.integers(4, int(spec.side / cell) - 4)) + 0.5) * cell,
            (int(rng.integers(4, int(spec.side / cell) - 4)) + 0.5) * cell,
        )
        for _ in range(spec.hotspots)
    ]

    def query_point() -> Tuple[float, float]:
        cx, cy = centers[int(rng.integers(len(centers)))]
        return (
            cx + float(rng.uniform(-0.45, 0.45)) * cell,
            cy + float(rng.uniform(-0.45, 0.45)) * cell,
        )

    templates: List[Template] = []
    while len(templates) < spec.templates:
        query = query_point()
        if rng.uniform() < spec.range_share:
            if rng.uniform() < 0.5:
                radius = float(rng.uniform(0.1, 0.6))
                templates.append(Template("range", RangeRequest(0, Point(*query), radius)))
            else:
                half = float(rng.uniform(0.1, 0.5))
                window = BoundingBox(query[0] - half, query[1] - half, query[0] + half, query[1] + half)
                templates.append(Template("window", WindowRequest(0, window)))
            continue
        k = int(rng.integers(4, 15))
        peers = [
            (location, int(rng.integers(1, CACHE_SIZE + 1)))
            for location in peer_points(rng, query, int(rng.integers(0, 3)), TX_RANGE_MILES)
        ]
        template = knn_template(reference, query, k, peers, verify_timer)
        if template is not None:
            templates.append(template)
    return coords, reference, templates


def build_reference(coords: np.ndarray) -> Any:
    """The in-process reference server over the same POIs."""
    from repro.core.server import SpatialDatabaseServer
    from repro.geometry.point import Point

    return SpatialDatabaseServer.from_points(
        [(Point(x, y), f"poi-{index}") for index, (x, y) in enumerate(coords.tolist())]
    )


# ----------------------------------------------------------------------
# the child process
# ----------------------------------------------------------------------
class ServerChild:
    """One ``serve_child.py`` process and its stdin/stdout protocol."""

    def __init__(self, coords: np.ndarray, trace_out: Optional[Path]) -> None:
        started = time.perf_counter()
        self.process = subprocess.Popen(
            [sys.executable, str(ROOT / "perfbench" / "serve_child.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            cwd=str(ROOT),
        )
        try:
            header = {"count": len(coords), "trace_out": str(trace_out) if trace_out else None}
            assert self.process.stdin is not None and self.process.stdout is not None
            self.process.stdin.write((json.dumps(header) + "\n").encode())
            self.process.stdin.write(np.ascontiguousarray(coords, dtype="<f8").tobytes())
            self.process.stdin.flush()
            line = self.process.stdout.readline().decode().split()
            if len(line) != 3 or line[0] != "READY":
                raise RuntimeError(f"server child failed to start: {line!r}")
        except BaseException:
            self.kill()
            raise
        self.setup_s = time.perf_counter() - started
        self.host, self.port = line[1], int(line[2])

    def cpu_seconds(self) -> float:
        """The child's CPU time so far (user plus system)."""
        assert self.process.stdout is not None
        self.command("cpu")
        line = self.process.stdout.readline().decode().split()
        if len(line) != 2 or line[0] != "CPU":
            raise RuntimeError(f"server child answered {line!r} to cpu")
        return float(line[1])

    def command(self, word: str) -> None:
        """Send one command line."""
        assert self.process.stdin is not None
        self.process.stdin.write(f"{word}\n".encode())
        self.process.stdin.flush()

    def stop(self) -> Dict[str, Any]:
        """Shut the server down and return its harvest."""
        assert self.process.stdout is not None
        try:
            self.command("stop")
            output, _ = self.process.communicate(timeout=30)
        except BaseException:
            self.kill()
            raise
        lines = output.decode().strip().splitlines()
        if self.process.returncode != 0 or not lines:
            raise RuntimeError(f"server child exited with {self.process.returncode}")
        return json.loads(lines[-1])

    def kill(self) -> None:
        """Kill the child and wait for it (error paths)."""
        if self.process.poll() is None:
            self.process.kill()
        self.process.wait(timeout=30)


# ----------------------------------------------------------------------
# the run
# ----------------------------------------------------------------------
def _check(
    phases: Sequence[PhaseResult], templates: Sequence[Template], reference: Any
) -> Tuple[int, int]:
    """(attempted, failed) over all phases; every reply checked bit for bit."""
    from repro.service.protocol import Answer

    expected: Dict[int, Any] = {}
    attempted = 0
    failed = 0
    for phase in phases:
        attempted += len(phase.completions) + phase.unanswered
        failed += phase.unanswered
        for completion in phase.completions:
            reply = completion.reply
            if not isinstance(reply, Answer):
                failed += 1
                continue
            index = completion.template
            if index not in expected:
                expected[index] = expected_key(reference, templates[index])
            # Served answers must equal the in-process answer to the last bit.
            if answer_key(reply.neighbors) != expected[index]:
                failed += 1
    return attempted, failed


def capacity_bins(phase: PhaseResult) -> List[float]:
    """Completions per second in each closed-loop bin of ``phase``."""
    bins = max(1, int((phase.ended - phase.started) / CAPACITY_BIN_S))
    counts = [0] * bins
    for completion in phase.completions:
        index = int((completion.done - phase.started) / CAPACITY_BIN_S)
        if 0 <= index < bins:
            counts[index] += 1
    return [count / CAPACITY_BIN_S for count in counts]


def _by_kind(phase: PhaseResult, templates: Sequence[Template], kinds: Tuple[str, ...]) -> List[Any]:
    return [c for c in phase.completions if templates[c.template].kind in kinds]


def run(spec: ServeSpec, seed: int, seconds: float, trace: bool) -> WorkloadResult:
    """One run of a serve workload."""
    from repro.obs import OBS, records_from_jsonl

    OBS.registry.reset()
    rng = np.random.default_rng([seed, 1])
    verify_timer: List[float] = []
    coords, reference, templates = make_inputs(spec, rng, verify_timer)

    # The plan: (kind, phase name, seconds).  Untraced runs alternate
    # open and closed loop in rounds; traced runs measure an untraced
    # open loop, then everything traced.
    open_s, closed_s = seconds * OPEN_SHARE, seconds * (1.0 - OPEN_SHARE)
    if trace:
        plan = [("open", "open0", open_s / 2), ("trace", "", 0.0),
                ("open", "open_traced", open_s / 2), ("closed", "closed0", closed_s)]
    else:
        plan = [("open", "warmup", WARMUP_S)]
        for number in range(ROUNDS):
            plan += [("open", f"open{number}", open_s / ROUNDS), ("closed", f"closed{number}", closed_s / ROUNDS)]
    schedules: Dict[str, Any] = {}
    for kind, name, length in plan:
        if kind == "open":
            offsets = poisson_schedule(rng, spec.rate, length)
            schedules[name] = (offsets, rng.integers(len(templates), size=len(offsets)).tolist())
    closed_choices = np.random.default_rng([seed, 2]).integers(len(templates), size=1 << 16).tolist()
    cursor = itertools.cycle(closed_choices)

    # (wall seconds, the child's host slowdown) of every set-up.
    setups: List[Tuple[float, float]] = []
    for _ in range(SETUPS - 1):
        child = ServerChild(coords, None)
        setups.append((child.setup_s, float(child.stop()["setup_slowdown"])))
    trace_out = None
    if trace:
        OUT.mkdir(parents=True, exist_ok=True)
        trace_out = OUT / f"{spec.name}-seed{seed}-server.trace.jsonl"
    child = ServerChild(coords, trace_out)

    # The client's own heap (the reference R-tree, then the replies it
    # collects) must not stall the generator with full collections while
    # it keeps the schedule: collect once now, then not until the load ends.
    gc.collect()
    gc.disable()
    generator = LoadGenerator(templates, window=32)  # ServiceConfig.max_inflight
    phases: Dict[str, PhaseResult] = {}
    closed_cpu: List[float] = []

    async def drive() -> None:
        await generator.connect(child.host, child.port)
        try:
            for kind, name, length in plan:
                # Between phases nothing is in flight, so neither the
                # child's speed sample of its own core nor the blocking
                # CPU reads stall a request.
                child.command("speed")
                if kind == "open":
                    phases[name] = await generator.open_loop(*schedules[name])
                    if name == "warmup":
                        child.command("mark")
                elif kind == "closed":
                    before = child.cpu_seconds()
                    phases[name] = await generator.closed_loop(length, lambda: next(cursor))
                    closed_cpu.append(child.cpu_seconds() - before)
                else:
                    child.command("trace")
                    child.command("mark")
                    await asyncio.sleep(0.05)
        finally:
            await generator.close()

    try:
        asyncio.run(drive())
    except BaseException:
        child.kill()
        raise
    finally:
        gc.enable()
    harvest = child.stop()
    setups.append((child.setup_s, float(harvest["setup_slowdown"])))

    attempted, failed = _check(list(phases.values()), templates, reference)
    correct = failed == 0
    opens = [phases[name] for kind, name, _ in plan if kind == "open" and name.startswith("open") and name != "open_traced"]
    closeds = [phases[name] for kind, name, _ in plan if kind == "closed"]

    def ms(phase: PhaseResult, kinds: Tuple[str, ...]) -> List[float]:
        return [1e3 * (c.done - c.due) for c in _by_kind(phase, templates, kinds)]

    knn_ms = [value for phase in opens for value in ms(phase, ("knn",))]
    range_ms = [value for phase in opens for value in ms(phase, ("range", "window"))]
    lag_p99 = percentile([1e3 * (c.sent - c.due) for phase in opens for c in phase.completions], 99.0)
    peak_qps = median([rate for phase in closeds for rate in capacity_bins(phase)])
    closed_answered = sum(len(phase.completions) for phase in closeds)

    report: Dict[str, Tuple[float, str]] = {
        "peak_qps": (peak_qps, "1/s"),
        "setup_raw_s": (median([wall for wall, _ in setups]), "s"),
        "ops_raw_per_s": (closed_answered / sum(closed_cpu), "1/s"),
        "host_slowdown": (float(harvest["slowdown"]), "ratio"),
        "error_rate": (failed / attempted if attempted else 0.0, "ratio"),
        "offered_rate": (spec.rate, "1/s"),
        "open_loop_requests": (float(sum(len(phase.completions) for phase in opens)), "count"),
        "loadgen.lag_p99_ms": (lag_p99, "ms"),
        "query_tail_pct": (TAIL_PCT, "pct"),
        "query_tail_ms": (percentile(knn_ms, TAIL_PCT), "ms"),
    }
    if range_ms:
        report["range_p50_ms"] = (median(range_ms), "ms")
        report["range_tail_ms"] = (percentile(range_ms, 99.0), "ms")
    notes: List[str] = []
    if not trace:
        if report["loadgen.lag_p99_ms"][0] > LAG_BOUND_MS:
            notes.append(
                f"rejected: loadgen.lag_p99_ms {report['loadgen.lag_p99_ms'][0]:.3f} > {LAG_BOUND_MS} ms"
            )
        if samples_beyond(len(knn_ms), TAIL_PCT) < MIN_BEYOND:
            notes.append(f"warning: {len(knn_ms)} samples do not support p{TAIL_PCT:g}")
        metrics = {
            "setup_s": (median([wall / slowdown for wall, slowdown in setups]), "s"),
            "query_p50_ms": (median(knn_ms), "ms"),
            "ops_per_s": (closed_answered / sum(closed_cpu) * float(harvest["slowdown"]), "1/s"),
            "peak_rss_mb": (float(harvest["rss_mb"]), "MB"),
        }
        return WorkloadResult(correct, attempted, failed, metrics, report, notes)

    records = records_from_jsonl(Path(harvest["trace_path"]).read_text(encoding="utf-8"))
    layers = layer_metrics(
        phases, templates, records, harvest, verify_timer, untraced_knn_ms=knn_ms,
        client_trace=OUT / f"{spec.name}-seed{seed}-client.trace.jsonl",
    )
    return WorkloadResult(correct, attempted, failed, layers, report, notes)


def layer_metrics(
    phases: Dict[str, PhaseResult],
    templates: Sequence[Template],
    records: Sequence[Any],
    harvest: Dict[str, Any],
    verify_timer: Sequence[float],
    untraced_knn_ms: Sequence[float],
    client_trace: Path,
) -> Dict[str, Tuple[float, str]]:
    """The per-layer metrics of a traced serve run.

    Each traced request's timeline, from its due time to its decoded
    reply, is cut at the boundaries both processes stamped on the same
    monotonic clock.  The client-side pieces are written to
    ``client_trace`` as spans under one ``client.request`` root per
    request; the server's spans carry the same trace id.
    """
    from repro.obs import OBS, TraceRecord
    from repro.service.protocol import Answer

    from perfbench.common import layer_stats, self_times

    stats = layer_stats(records)
    selfs = self_times(records)
    traced = phases["open_traced"]
    # Server-side boundaries of each traced request.
    decode: Dict[int, Any] = {}
    encode: Dict[int, Any] = {}
    inline: Dict[int, Any] = {}
    wave_of: Dict[int, Any] = {}
    wave_sizes: List[int] = []
    execute_self = 0.0
    for record in records:
        if record.name == "service.decode":
            decode[record.attrs.get("trace", 0)] = record
        elif record.name == "service.encode":
            encode[record.attrs.get("trace", 0)] = record
        elif record.name == "service.inline":
            inline[record.attrs.get("trace", 0)] = record
        elif record.name == "service.wave":
            ids = record.attrs.get("ids", [])
            wave_sizes.append(len(ids))
            for request_id in ids:
                wave_of[request_id] = record
        elif record.name == "service.execute":
            execute_self += selfs[record.span_id]

    segments: Dict[str, List[float]] = {
        "lag": [], "transport_in": [], "decode": [], "queue": [], "wave": [],
        "inline": [], "reply_wait": [], "encode": [], "transport_out": [], "client": [],
    }
    latency_total = 0.0
    covered_total = 0.0
    client_records: List[Any] = []
    for completion in traced.completions:
        rid = completion.request_id
        latency = completion.done - completion.due
        latency_total += latency
        dec, enc = decode.get(rid), encode.get(rid)
        work = wave_of.get(rid) or inline.get(rid)
        if dec is None or enc is None or work is None:
            continue
        parts = {
            "lag": completion.sent - completion.due,
            "transport_in": dec.start - completion.sent,
            "decode": dec.end - dec.start,
            "queue": work.start - dec.end,
            "wave" if rid in wave_of else "inline": work.end - work.start,
            "reply_wait": enc.start - work.end,
            "encode": enc.end - enc.start,
            "transport_out": completion.received - enc.end,
            "client": completion.done - completion.received,
        }
        if min(parts.values()) < -1e-4:
            continue  # boundaries out of order: leave the request unattributed
        for name, value in parts.items():
            segments[name].append(value)
        covered_total += sum(parts.values())
        root = len(client_records)
        client_records.append(TraceRecord("span", "client.request", completion.due, completion.done, root, None, {"trace": rid}))
        for name, start, end in (
            ("loadgen.lag", completion.due, completion.sent),
            ("transport.in", completion.sent, dec.start),
            ("transport.out", enc.end, completion.received),
            ("client.decode", completion.received, completion.done),
        ):
            client_records.append(TraceRecord("span", name, start, end, len(client_records), root, {"trace": rid}))

    with open(client_trace, "w", encoding="utf-8") as stream:
        stream.write("".join(record.to_json() + "\n" for record in client_records))
    knn_traced = [
        1e3 * (c.done - c.due) for c in traced.completions if templates[c.template].kind == "knn"
    ]
    answers = [
        c.reply
        for phase in phases.values()
        for c in phase.completions
        if templates[c.template].kind == "knn" and isinstance(c.reply, Answer)
    ]
    range_answers = [
        c.reply
        for phase in phases.values()
        for c in phase.completions
        if templates[c.template].kind != "knn" and isinstance(c.reply, Answer)
    ]
    obs = harvest["obs"]
    latency_hist = obs.get("service.request_latency_s", {"count": 0})
    knn_requests = sum(wave_sizes)
    answered_since_mark = sum(
        len(phases[name].completions) for name in ("open_traced", "closed0")
    )
    registry = OBS.registry
    certain_32 = registry.value("verify.candidates", lemma="3.2", outcome="certain")
    uncertain_32 = registry.value("verify.candidates", lemma="3.2", outcome="uncertain")
    peers = [t.peers for t in templates if t.kind == "knn"]
    lag_ms = [1e3 * (c.sent - c.due) for c in traced.completions]

    def seg_ms(name: str) -> float:
        return 1e3 * mean(segments[name])

    def stat_us(name: str) -> float:
        stat = stats.get(name)
        return stat.mean_us() if stat else 0.0

    codec = [stats.get("service.decode"), stats.get("service.encode")]
    codec_calls = sum(s.calls for s in codec if s)
    codec_time = sum(s.total_s for s in codec if s)
    return {
        "loadgen.lag_p99_ms": (percentile(lag_ms, 99.0) if lag_ms else 0.0, "ms"),
        "service.wave_size_mean": (mean(wave_sizes), "count"),
        "service.shared_share": (
            sum(1 for a in answers if a.batch_size > 1) / len(answers) if answers else 0.0,
            "ratio",
        ),
        "service.execute_us_per_query": (1e6 * execute_self / knn_requests if knn_requests else 0.0, "us"),
        "service.inline_us": (stat_us("service.inline"), "us"),
        "service.codec_us_per_frame": (1e6 * codec_time / codec_calls if codec_calls else 0.0, "us"),
        "service.queue_wait_ms": (seg_ms("queue"), "ms"),
        "service.reply_wait_ms": (seg_ms("reply_wait"), "ms"),
        "service.transport_in_ms": (seg_ms("transport_in"), "ms"),
        "service.transport_out_ms": (seg_ms("transport_out"), "ms"),
        "service.server_latency_p50_ms": (1e3 * histogram_percentile(latency_hist, 50.0), "ms"),
        "service.server_latency_p99_ms": (1e3 * histogram_percentile(latency_hist, 99.0), "ms"),
        "service.cpu_ms_per_request": (
            1e3 * harvest["cpu_s"] / answered_since_mark if answered_since_mark else 0.0,
            "ms",
        ),
        "service.timeouts": (float(obs.get("service.timeouts", 0.0)), "count"),
        "service.errors": (
            float(sum(v for k, v in obs.items() if k.startswith("service.errors"))),
            "count",
        ),
        "index.pages_per_knn": (mean([a.breakdown.total for a in answers]), "count"),
        "index.entries_scanned_per_knn": (mean([a.breakdown.entries_scanned for a in answers]), "count"),
        "index.pages_per_range": (mean([a.breakdown.total for a in range_answers]), "count"),
        "index.range_us": (stat_us("index.range"), "us"),
        "index.knn_us": (stat_us("index.knn"), "us"),
        "core.verify_single_us": (1e6 * mean(verify_timer), "us"),
        "core.peer_caches_per_query": (mean(peers), "count"),
        "core.certified_ratio.lemma-3.2": (
            certain_32 / (certain_32 + uncertain_32) if certain_32 + uncertain_32 else 0.0,
            "ratio",
        ),
        "trace.overhead_ms": (
            median(knn_traced) - median(untraced_knn_ms) if knn_traced and untraced_knn_ms else 0.0,
            "ms",
        ),
        "trace.coverage": (covered_total / latency_total if latency_total else 0.0, "ratio"),
    }
