"""Request generation and the asyncio load generator for the serve workload.

Inputs come only from the workload seed: POIs, Fig-17-style kNN
requests (0-2 in-range peer caches verified client-side with Lemma 3.2,
pruning bounds derived from the heap), range/window requests and the
Poisson arrival schedule.  The load generator pipelines requests over
at most two TCP connections, never holding more than the server's
``max_inflight`` outstanding on one connection.

Open loop: each request is due at its scheduled time and its latency is
timed from that due time, so a stall also charges the requests it
delayed; ``lag`` is how late the generator actually sent.  Closed loop:
each connection keeps a fixed window of requests outstanding, and the
completions per second measure capacity.
"""

from __future__ import annotations

import asyncio
import math
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

#: Connections the generator opens (the machine has two cores).
CONNECTIONS = 2

#: Seconds a phase waits for stragglers before counting them as failed.
DRAIN_TIMEOUT_S = 10.0


def poisson_schedule(rng: np.random.Generator, rate: float, seconds: float) -> List[float]:
    """Arrival offsets (seconds from phase start) of a Poisson process."""
    if rate <= 0.0 or seconds <= 0.0:
        return []
    # Draw in blocks until the horizon is passed; the same rng state
    # gives the same schedule.
    offsets: List[float] = []
    now = 0.0
    block = max(16, int(rate * seconds * 1.2) + 16)
    while True:
        for gap in rng.exponential(1.0 / rate, size=block).tolist():
            now += gap
            if now >= seconds:
                return offsets
            offsets.append(now)


@dataclass
class Template:
    """One distinct request; the stream draws from a pool of these."""

    kind: str  # "knn", "range" or "window"
    message: Any  # protocol request with request_id 0
    peers: int = 0


def peer_points(
    rng: np.random.Generator, query: Tuple[float, float], count: int, tx_range: float
) -> List[Tuple[float, float]]:
    """``count`` peer locations uniform in the disk of radius ``tx_range``."""
    points = []
    for _ in range(count):
        angle = float(rng.uniform(0.0, 2.0 * math.pi))
        radius = tx_range * math.sqrt(float(rng.uniform(0.0, 1.0)))
        points.append((query[0] + radius * math.cos(angle), query[1] + radius * math.sin(angle)))
    return points


def knn_template(
    reference: Any,
    query: Tuple[float, float],
    k: int,
    peers: Sequence[Tuple[Tuple[float, float], int]],
    verify_timer: Optional[List[float]] = None,
) -> Optional[Template]:
    """A Fig-17 kNN request, or ``None`` when the peers already certify k.

    ``peers`` are ``(location, cache size)`` pairs: each peer caches the
    true kNN of its own location (what the caching policies guarantee);
    the client verifies each cache with Lemma 3.2 and forwards the
    pruning bounds and the certified partial result.  Such fully answered
    queries never reach the server, so they are dropped like Fig. 17 does.
    """
    from repro.core.bounds import derive_pruning_bounds
    from repro.core.cache import CachedQueryResult
    from repro.core.heap import CandidateHeap
    from repro.core.verification import verify_single_peer
    from repro.geometry.point import Point
    from repro.index.knn import NeighborResult
    from repro.service.protocol import KnnRequest

    point = Point(query[0], query[1])
    heap = CandidateHeap(k)
    for (px, py), size in peers:
        location = Point(px, py)
        cache = CachedQueryResult(location, tuple(reference.knn_query(location, size)))
        started = time.perf_counter()
        verify_single_peer(point, cache, heap)
        if verify_timer is not None:
            verify_timer.append(time.perf_counter() - started)
    known = tuple(
        NeighborResult(entry.point, entry.payload, entry.distance)
        for entry in heap.certain_entries()
    )
    if len(known) >= k:
        return None
    request = KnnRequest(0, point, k, derive_pruning_bounds(heap), known)
    return Template("knn", request, peers=len(peers))


def answer_key(neighbors: Sequence[Any]) -> Tuple[Tuple[float, float, Any, float], ...]:
    """Bit-exact comparison key of an answer."""
    return tuple((n.point.x, n.point.y, n.payload, n.distance) for n in neighbors)


def expected_key(reference: Any, template: Template) -> Tuple[Tuple[float, float, Any, float], ...]:
    """The in-process reference answer for ``template``."""
    message = template.message
    if template.kind == "knn":
        answer = reference.knn_query_detailed(
            message.query, message.k, message.bounds, message.known_certain
        )
    elif template.kind == "range":
        answer = reference.range_query_detailed(message.center, message.radius)
    else:
        answer = reference.window_query_detailed(message.window)
    return answer_key(answer.neighbors)


# ----------------------------------------------------------------------
# the generator
# ----------------------------------------------------------------------
@dataclass
class Completion:
    """One request's life as the client saw it (perf_counter seconds)."""

    request_id: int
    template: int
    due: float
    sent: float
    received: float = 0.0
    done: float = 0.0
    reply: Any = None


@dataclass
class PhaseResult:
    """Everything one load phase produced."""

    completions: List[Completion] = field(default_factory=list)
    unanswered: int = 0
    started: float = 0.0
    ended: float = 0.0


class _Connection:
    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter, window: int) -> None:
        self.reader = reader
        self.writer = writer
        self.window = asyncio.Semaphore(window)
        self.pending: Dict[int, Completion] = {}
        self.finished: List[Completion] = []
        self.task: Optional["asyncio.Task[None]"] = None

    async def read_replies(self) -> None:
        from repro.service.protocol import HEADER_SIZE, decode_message, parse_header

        clock = time.perf_counter
        reader = self.reader
        while True:
            try:
                header = await reader.readexactly(HEADER_SIZE)
                _, length = parse_header(header)
                payload = await reader.readexactly(length)
            except (asyncio.IncompleteReadError, ConnectionError):
                return
            received = clock()
            reply = decode_message(header + payload)
            done = clock()
            item = self.pending.pop(getattr(reply, "request_id", -1), None)
            if item is None:
                continue
            item.received = received
            item.done = done
            item.reply = reply
            self.finished.append(item)
            self.window.release()


class LoadGenerator:
    """Drives one server over ``CONNECTIONS`` pipelined TCP connections."""

    def __init__(self, templates: Sequence[Template], window: int) -> None:
        self.templates = templates
        self.window = window
        self._connections: List[_Connection] = []
        self._next_id = 1

    async def connect(self, host: str, port: int) -> None:
        """Open the connections and start their reply readers."""
        for _ in range(CONNECTIONS):
            reader, writer = await asyncio.open_connection(host, port)
            connection = _Connection(reader, writer, self.window)
            connection.task = asyncio.get_running_loop().create_task(connection.read_replies())
            self._connections.append(connection)

    async def close(self) -> None:
        """Close the connections and wait for their readers to end."""
        for connection in self._connections:
            connection.writer.close()
        for connection in self._connections:
            try:
                await connection.writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            if connection.task is not None:
                connection.task.cancel()
                try:
                    await connection.task
                except asyncio.CancelledError:
                    pass

    def _frame(self, template_index: int) -> Tuple[int, bytes]:
        from dataclasses import replace

        from repro.service.protocol import encode_message

        request_id = self._next_id
        self._next_id += 1
        message = replace(self.templates[template_index].message, request_id=request_id)
        return request_id, encode_message(message)

    async def _send(self, connection: _Connection, item: Completion, frame: bytes) -> None:
        await connection.window.acquire()
        item.sent = time.perf_counter()
        connection.pending[item.request_id] = item
        connection.writer.write(frame)
        await connection.writer.drain()

    async def _drain(self, deadline: float) -> int:
        while any(c.pending for c in self._connections) and time.perf_counter() < deadline:
            await asyncio.sleep(0.002)
        return sum(len(c.pending) for c in self._connections)

    def _collect(self, phase: PhaseResult) -> PhaseResult:
        for connection in self._connections:
            phase.completions.extend(connection.finished)
            connection.finished = []
            connection.pending.clear()
        phase.completions.sort(key=lambda c: c.request_id)
        return phase

    async def open_loop(self, offsets: Sequence[float], choices: Sequence[int]) -> PhaseResult:
        """Send request ``i`` (template ``choices[i]``) at ``offsets[i]``.

        Requests alternate between the connections; frames are encoded
        before the clock starts so the schedule is not paced by encoding.
        """
        planned: List[List[Tuple[int, float, int, bytes]]] = [[] for _ in self._connections]
        for index, (offset, choice) in enumerate(zip(offsets, choices)):
            request_id, frame = self._frame(choice)
            planned[index % len(self._connections)].append((request_id, offset, choice, frame))
        phase = PhaseResult()
        start = time.perf_counter() + 0.02
        phase.started = start

        async def sender(connection: _Connection, items: List[Tuple[int, float, int, bytes]]) -> None:
            for request_id, offset, choice, frame in items:
                due = start + offset
                delay = due - time.perf_counter()
                if delay > 0.0:
                    await asyncio.sleep(delay)
                await self._send(connection, Completion(request_id, choice, due, 0.0), frame)

        await asyncio.gather(*(sender(c, items) for c, items in zip(self._connections, planned)))
        phase.ended = time.perf_counter()
        phase.unanswered = await self._drain(phase.ended + DRAIN_TIMEOUT_S)
        return self._collect(phase)

    async def closed_loop(self, seconds: float, choose: Callable[[], int]) -> PhaseResult:
        """Keep every connection's window full for ``seconds``."""
        phase = PhaseResult()
        phase.started = time.perf_counter()
        end = phase.started + seconds

        async def sender(connection: _Connection) -> None:
            while time.perf_counter() < end:
                choice = choose()
                request_id, frame = self._frame(choice)
                now = time.perf_counter()
                await self._send(connection, Completion(request_id, choice, now, now), frame)

        await asyncio.gather(*(sender(c) for c in self._connections))
        phase.ended = end
        phase.unanswered = await self._drain(time.perf_counter() + DRAIN_TIMEOUT_S)
        return self._collect(phase)
