"""Single-process load generator: closed-loop and open-loop phases.

A deliberately small HTTP/1.1 keep-alive client, so the measuring
instrument does not change when the server's own client code does.
Each connection carries one request at a time (no pipelining).

* Closed loop: every connection sends its next request as soon as the
  previous answer arrives; latency runs from send to answer.
* Open loop: requests are due on a fixed schedule.  A free connection
  takes the next request, waits until it is due, and sends it; the
  latency runs from the *due* time, so a stall also charges the
  requests queued behind it.  ``late`` records how far behind its
  schedule the generator sent each request.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field

import numpy as np

now = time.perf_counter


class TransportError(Exception):
    pass


class Connection:
    def __init__(self, host: str, port: int):
        self.host = host
        self.port = port
        self._reader = None
        self._writer = None

    async def request(self, method: str, path: str, body: bytes = b""):
        """Returns ``(status, headers, body)``; raises TransportError."""
        try:
            if self._writer is None:
                self._reader, self._writer = await asyncio.open_connection(
                    self.host, self.port
                )
            head = (
                f"{method} {path} HTTP/1.1\r\nHost: {self.host}\r\n"
                f"Content-Length: {len(body)}\r\n\r\n"
            ).encode("latin-1")
            self._writer.write(head + body)
            status_line = await self._reader.readline()
            if not status_line:
                raise ConnectionError("connection closed before a response")
            status = int(status_line.split()[1])
            headers = {}
            while True:
                line = await self._reader.readline()
                if line in (b"\r\n", b"\n", b""):
                    break
                name, _, value = line.decode("latin-1").partition(":")
                headers[name.strip().lower()] = value.strip()
            payload = await self._reader.readexactly(
                int(headers.get("content-length", 0))
            )
        except (OSError, ConnectionError, asyncio.IncompleteReadError,
                ValueError, IndexError) as exc:
            await self.close()
            raise TransportError(repr(exc)) from None
        if headers.get("connection", "").lower() == "close":
            await self.close()
        return status, headers, payload

    async def close(self) -> None:
        if self._writer is not None:
            writer, self._writer, self._reader = self._writer, None, None
            writer.close()
            try:
                await writer.wait_closed()
            except OSError:
                pass


@dataclass
class Record:
    """One request as the generator saw it."""

    index: int  # position in the phase's request list
    status: int  # 0 on transport error
    latency_ms: float
    late_ms: float = 0.0
    headers: dict = field(default_factory=dict)
    body: bytes = b""

    @property
    def ok(self) -> bool:
        return 200 <= self.status < 300


@dataclass
class PhaseResult:
    name: str
    records: list
    elapsed_s: float

    @property
    def sent(self) -> int:
        return len(self.records)

    @property
    def failed(self) -> int:
        return sum(1 for r in self.records if not r.ok)

    def summary(self) -> dict:
        late = [r.late_ms for r in self.records]
        return {
            "sent": self.sent,
            "succeeded": self.sent - self.failed,
            "failed": self.failed,
            "elapsed_s": round(self.elapsed_s, 3),
            "late_p99_ms": round(float(np.percentile(late, 99)), 3) if late else 0.0,
        }


def merged(name: str, parts) -> PhaseResult:
    """One phase made of several timed parts."""
    return PhaseResult(
        name, [r for part in parts for r in part.records],
        sum(part.elapsed_s for part in parts),
    )


async def closed_loop(connections, requests, seconds=None, keep_body=True):
    """Send ``requests`` (``(method, path, body)``) back to back.

    With ``seconds`` the phase stops at the deadline and running out of
    requests first is an error; without, every request is sent once.
    """
    records: list[Record] = []
    cursor = iter(range(len(requests)))
    deadline = float("inf") if seconds is None else now() + seconds
    started = now()

    async def worker(conn):
        while now() < deadline:
            try:
                index = next(cursor)
            except StopIteration:
                if seconds is None:
                    return
                raise RuntimeError("closed-loop phase ran out of requests")
            method, path, body = requests[index]
            t0 = now()
            try:
                status, headers, payload = await conn.request(method, path, body)
            except TransportError:
                status, headers, payload = 0, {}, b""
            records.append(Record(
                index, status, (now() - t0) * 1e3, 0.0, headers,
                payload if keep_body else b"",
            ))

    await asyncio.gather(*(worker(c) for c in connections))
    return PhaseResult("closed", records, now() - started)


async def open_loop(connections, requests, rate: float, seconds: float,
                    keep_body=True, between=None, on_response=None, count=None):
    """Send ``requests`` at ``rate`` per second for ``seconds``.

    ``count`` (default ``rate * seconds``) is how many of them to send.

    ``between(conn, next_due)`` (optional) runs on a connection while it
    waits for its next due request, e.g. to poll for refit completion;
    ``on_response(record, done)`` sees each answer as it arrives.
    """
    if count is None:
        count = int(rate * seconds)
    if count > len(requests):
        raise RuntimeError("open-loop phase ran out of requests")
    records: list[Record] = []
    cursor = iter(range(count))
    started = now()

    async def worker(conn):
        for index in cursor:
            due = started + index / rate
            if between is not None:
                await between(conn, due)
            delay = due - now()
            if delay > 0:
                await asyncio.sleep(delay)
            sent = now()
            method, path, body = requests[index]
            try:
                status, headers, payload = await conn.request(method, path, body)
            except TransportError:
                status, headers, payload = 0, {}, b""
            done = now()
            record = Record(
                index, status, (done - due) * 1e3, (sent - due) * 1e3,
                headers, payload if keep_body else b"",
            )
            records.append(record)
            if on_response is not None:
                on_response(record, done)

    await asyncio.gather(*(worker(c) for c in connections))
    records.sort(key=lambda r: r.index)
    return PhaseResult("open", records, now() - started)


def percentile(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0
