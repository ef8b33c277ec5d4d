"""Single-process asyncio HTTP load generator: an open and a closed loop.

The open loop sends each request at its due time, whatever the server is
doing, through at most ``connections`` concurrent connections. Latency is
timed from the due time, not from the send, so a stalled server inflates
every request queued behind the stall, as it would for independent users.
The closed loop keeps ``connections`` clients each sending the next
request when the previous one completes; its completion rate is the most
the server sustains.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from .tracer import OP, Recorder

#: The open loop starts this long after it is called, so the first due
#: times are not already in the past.
LEAD_S = 0.05


@dataclass
class Request:
    cls: str  # "hot", "cold" or "store"
    key: str  # responses with equal keys must have equal bodies
    method: str
    path: str
    body: bytes = b""
    due: float = 0.0  # seconds after the open loop's origin


@dataclass
class Response:
    request: Request
    due: float  # absolute perf_counter() times from here on
    start: float
    connected: float
    sent: float
    first_byte: float
    done: float
    status: int
    body: bytes
    error: str = ""

    @property
    def latency(self) -> float:
        return self.done - self.due

    @property
    def late(self) -> float:
        return self.start - self.due


def _record(recorder: Recorder, r: Response) -> None:
    root = recorder.add(OP, r.due, r.done, None)
    recorder.add("loadgen.wait", r.due, r.start, root)
    recorder.add("client.connect", r.start, r.connected, root)
    recorder.add("client.send", r.connected, r.sent, root)
    recorder.add("server.respond", r.sent, r.first_byte, root)
    recorder.add("client.read", r.first_byte, r.done, root)


async def fetch(
    host: str,
    port: int,
    request: Request,
    due: Optional[float] = None,
    recorder: Optional[Recorder] = None,
) -> Response:
    """One HTTP/1.1 exchange on a fresh connection (the server closes it)."""
    clock = time.perf_counter
    start = clock()
    connected = sent = first_byte = start
    status, body, error = 0, b"", ""
    try:
        reader, writer = await asyncio.open_connection(host, port)
        connected = clock()
        try:
            head = (
                f"{request.method} {request.path} HTTP/1.1\r\n"
                f"Host: {host}:{port}\r\n"
                f"Content-Type: application/json\r\n"
                f"Content-Length: {len(request.body)}\r\n"
                "Connection: close\r\n\r\n"
            ).encode("latin-1")
            writer.write(head + request.body)
            await writer.drain()
            sent = clock()
            chunks = [await reader.read(65536)]
            first_byte = clock()
            while chunks[-1]:
                chunks.append(await reader.read(65536))
        finally:
            writer.close()
        data = b"".join(chunks)
        status_line, _, rest = data.partition(b"\r\n")
        body = rest.partition(b"\r\n\r\n")[2]
        status = int(status_line.split(b" ", 2)[1])
    except (OSError, ValueError, IndexError) as exc:
        error = repr(exc)
    done = clock()
    response = Response(
        request, start if due is None else due, start, connected, sent,
        max(first_byte, sent), done, status, body, error,
    )
    if recorder is not None:
        _record(recorder, response)
    return response


async def open_loop(
    host: str,
    port: int,
    requests: Sequence[Request],
    connections: int,
    recorder: Optional[Recorder] = None,
) -> List[Response]:
    """Send each request at ``origin + request.due``; never more than
    ``connections`` at once, so a request that finds them all busy waits
    (and its wait counts in its latency)."""
    slots = asyncio.Semaphore(connections)
    origin = time.perf_counter() + LEAD_S
    tasks = []

    async def one(request: Request, due: float) -> Response:
        try:
            return await fetch(host, port, request, due, recorder)
        finally:
            slots.release()

    for request in requests:
        due = origin + request.due
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        await slots.acquire()
        tasks.append(asyncio.create_task(one(request, due)))
    return list(await asyncio.gather(*tasks))


async def closed_loop(
    host: str,
    port: int,
    make: Callable[[int, int], Request],
    connections: int,
    seconds: float,
    recorder: Optional[Recorder] = None,
) -> Tuple[List[Response], float]:
    """``connections`` clients back to back for ``seconds``; returns the
    responses and the wall time until the last one completed."""
    results: List[Response] = []
    start = time.perf_counter()
    stop = start + seconds

    async def client(index: int) -> None:
        sequence = 0
        while time.perf_counter() < stop:
            results.append(await fetch(host, port, make(index, sequence), None, recorder))
            sequence += 1

    await asyncio.gather(*(client(i) for i in range(connections)))
    return results, max(r.done for r in results) - start
