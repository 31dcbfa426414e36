"""The system under test of the serve workload, in its own process.

Protocol with the parent (``perfbench/serve.py``) over stdin/stdout:

* stdin: one JSON header line ``{"count": n, "trace_out": path}``, then
  ``n`` little-endian ``(x, y)`` float64 pairs -- the POIs, whose
  payloads are ``poi-<index>``;
* stdout: ``READY <host> <port>`` once the R-tree is bulk-loaded and the
  :class:`~repro.service.asyncserver.AsyncQueryServer` (default
  :class:`~repro.service.asyncserver.ServiceConfig`) is bound;
* stdin commands, one per line: ``mark`` (restart the CPU-time count),
  ``cpu`` (answer ``CPU <seconds>``, the process's CPU time so far),
  ``speed`` (sample the host's speed on this process's core),
  ``trace`` (wrap the service's entry points in spans from now on),
  ``stop`` (shut down);
* stdout at shutdown: one JSON line with the OBS registry snapshot, the
  CPU seconds since ``mark``, the peak RSS, the host slowdown sampled
  right after ``READY`` (``setup_slowdown``), the one the ``speed``
  samples measured (``slowdown``, 1.0 without samples) and, when
  tracing, the path the spans were written to.
"""

from __future__ import annotations

import asyncio
import json
import sys
import time
from pathlib import Path
from typing import Any, Dict, Optional

ROOT = Path(__file__).resolve().parent.parent


def _install_tracing(patcher: Any, spans: Any) -> None:
    """Wrap the service layer's entry points (this process only)."""
    from repro.core.server import SpatialDatabaseServer
    from repro.service import asyncserver
    from repro.service.batching import BatchExecutor
    from repro.service.engine import QueryService, ServiceSession

    tracer = spans.tracer

    def decode(original: Any) -> Any:
        def wrapper(frame: bytes) -> Any:
            with tracer.span("service.decode") as record:
                message = original(frame)
                record.attrs["trace"] = getattr(message, "request_id", 0)
            return message

        return wrapper

    def encode(original: Any) -> Any:
        def wrapper(message: Any) -> bytes:
            with tracer.span("service.encode", trace=getattr(message, "request_id", 0)):
                return original(message)

        return wrapper

    def wave(original: Any) -> Any:
        def wrapper(self: Any, requests: Any) -> Any:
            with tracer.span("service.wave", ids=[r.request_id for r in requests]):
                return original(self, requests)

        return wrapper

    def inline(original: Any) -> Any:
        def wrapper(self: Any, message: Any) -> Any:
            with tracer.span("service.inline", trace=getattr(message, "request_id", 0)):
                return original(self, message)

        return wrapper

    patcher.wrap(asyncserver, "decode_message", decode)
    patcher.wrap(asyncserver, "encode_message", encode)
    patcher.wrap(QueryService, "execute_knn_batch", wave)
    patcher.wrap(ServiceSession, "handle", inline)
    patcher.wrap(BatchExecutor, "execute", spans.spanned("service.execute"))
    patcher.wrap(SpatialDatabaseServer, "knn_query_detailed", spans.spanned("index.knn"))
    patcher.wrap(SpatialDatabaseServer, "range_query_detailed", spans.spanned("index.range"))
    patcher.wrap(SpatialDatabaseServer, "window_query_detailed", spans.spanned("index.range"))


async def _serve(server: Any, trace_out: Optional[str]) -> Dict[str, Any]:
    from perfbench.common import Patcher, SpanTracer, SpeedProbe, TraceContext, cpu_seconds, peak_rss_mb
    from repro.obs import OBS, Tracer
    from repro.service.asyncserver import AsyncQueryServer

    running = AsyncQueryServer(server)
    await running.start()
    host, port = running.address
    print(f"READY {host} {port}", flush=True)
    # Sampled once the parent has stopped its set-up clock.
    setup_speed = SpeedProbe()
    setup_speed.sample()
    loop = asyncio.get_running_loop()
    cpu_mark = cpu_seconds()
    patcher = Patcher()
    speed = SpeedProbe()
    spans: Optional[SpanTracer] = None
    try:
        while True:
            command = (await loop.run_in_executor(None, sys.stdin.readline)).strip()
            if command == "mark":
                cpu_mark = cpu_seconds()
            elif command == "cpu":
                print(f"CPU {cpu_seconds()!r}", flush=True)
            elif command == "speed":
                speed.sample()
            elif command == "trace" and spans is None:
                spans = SpanTracer(Tracer(clock=time.perf_counter), TraceContext())
                _install_tracing(patcher, spans)
            else:  # "stop" or end of input
                break
    finally:
        await running.stop()
        patcher.restore()
    harvest: Dict[str, Any] = {
        "obs": OBS.registry.snapshot(),
        "cpu_s": cpu_seconds() - cpu_mark,
        "rss_mb": peak_rss_mb(),
        "setup_slowdown": setup_speed.slowdown(),
        "slowdown": speed.slowdown() if speed.samples else 1.0,
    }
    if spans is not None and trace_out:
        with open(trace_out, "w", encoding="utf-8") as stream:
            spans.tracer.export_jsonl(stream)
        harvest["trace_path"] = trace_out
    return harvest


def main() -> int:
    """Read the POIs, serve until told to stop, report the harvest."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    import numpy as np

    from repro.core.server import SpatialDatabaseServer
    from repro.geometry.point import Point

    header = json.loads(sys.stdin.buffer.readline())
    count = int(header["count"])
    raw = sys.stdin.buffer.read(16 * count)
    coords = np.frombuffer(raw, dtype="<f8").reshape(count, 2).tolist()
    server = SpatialDatabaseServer.from_points(
        [(Point(x, y), f"poi-{index}") for index, (x, y) in enumerate(coords)]
    )
    harvest = asyncio.run(_serve(server, header.get("trace_out")))
    print(json.dumps(harvest), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
