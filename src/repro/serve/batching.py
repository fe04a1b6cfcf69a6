"""Request batching, driven by load: one model pass per object at a time.

Each key (an object id) has a *lane* that runs at most one executor pass
at a time.  A request for an idle key is dispatched at once — there is
no batching window, so light traffic pays no added delay.  Requests that
arrive while the key's pass runs queue behind it and go together into
the next pass, at most ``max_batch`` per pass and in arrival order, so
under load a batch grows exactly as large as the backlog.  A pass takes
the object lock once and lets requests that share a recent window share
one prepared plan.

A request identical to one already queued *or in flight* shares that
request's future instead of being computed again.  The executed
callable is synchronous CPU work; it runs on the event loop's default
executor so the loop stays responsive.
"""

from __future__ import annotations

import asyncio
from itertools import islice
from typing import Any, Callable, Hashable, Sequence

__all__ = ["RequestBatcher"]


class _Batch:
    __slots__ = ("futures",)

    def __init__(self) -> None:
        # request -> future; dict preserves arrival order and dedupes.
        self.futures: dict[Hashable, asyncio.Future] = {}


class _Lane:
    """One key's work: the pass in flight and the requests queued behind it."""

    __slots__ = ("queued", "running", "task")

    def __init__(self) -> None:
        # request -> future, in arrival order, waiting for the next pass.
        self.queued: dict[Hashable, asyncio.Future] = {}
        self.running: _Batch | None = None
        self.task: asyncio.Task | None = None


class RequestBatcher:
    """Run ``submit`` calls per key in passes that follow the backlog.

    Parameters
    ----------
    execute:
        ``execute(key, requests) -> list[result]`` — synchronous, called
        with the batch's distinct requests in arrival order; must return
        one result per request.  Runs in the default executor.
    max_batch:
        Most distinct requests one pass takes from a key's backlog.
    metrics:
        Optional :class:`~repro.serve.metrics.MetricsRegistry` for batch
        size / coalescing telemetry.
    """

    def __init__(
        self,
        execute: Callable[[Hashable, Sequence[Hashable]], Sequence[Any]],
        max_batch: int = 32,
        metrics=None,
    ):
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        self.execute = execute
        self.max_batch = max_batch
        self.metrics = metrics
        self._lanes: dict[Hashable, _Lane] = {}
        self.submitted = 0
        self.coalesced = 0
        self.batches = 0

    async def submit(self, key: Hashable, request: Hashable) -> Any:
        """Queue ``request`` under ``key``; resolves with its result."""
        self.submitted += 1
        if self.metrics is not None:
            self.metrics.counter("serve_batch_submitted_total").inc()
        lane = self._lanes.get(key)
        if lane is None:
            lane = self._lanes[key] = _Lane()
            lane.task = asyncio.get_running_loop().create_task(
                self._drive(key, lane)
            )
        future = lane.queued.get(request)
        if future is None and lane.running is not None:
            future = lane.running.futures.get(request)
        if future is None:
            future = asyncio.get_running_loop().create_future()
            lane.queued[request] = future
        else:
            # A twin request is queued or in flight: share its result.
            self.coalesced += 1
            if self.metrics is not None:
                self.metrics.counter("serve_batch_coalesced_total").inc()
        return await future

    async def drain(self) -> None:
        """Wait until no pass is queued or running (shutdown/tests)."""
        while self._lanes:
            await asyncio.wait([lane.task for lane in self._lanes.values()])

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    async def _drive(self, key: Hashable, lane: _Lane) -> None:
        """Run the lane's backlog, pass by pass, until it is empty."""
        try:
            while lane.queued:
                batch = lane.running = _Batch()
                for request in list(islice(lane.queued, self.max_batch)):
                    batch.futures[request] = lane.queued.pop(request)
                await self._run(key, batch)
        finally:
            del self._lanes[key]

    async def _run(self, key: Hashable, batch: _Batch) -> None:
        requests = list(batch.futures)
        self.batches += 1
        if self.metrics is not None:
            self.metrics.counter("serve_batches_total").inc()
            self.metrics.histogram(
                "serve_batch_size",
                buckets=(1, 2, 4, 8, 16, 32, 64, 128),
            ).observe(len(requests))
        loop = asyncio.get_running_loop()
        try:
            results = await loop.run_in_executor(
                None, self.execute, key, requests
            )
            if len(results) != len(requests):
                raise RuntimeError(
                    f"batch execute returned {len(results)} results "
                    f"for {len(requests)} requests"
                )
        except Exception as exc:  # propagate to every waiter
            for future in batch.futures.values():
                if not future.done():
                    future.set_exception(exc)
            return
        for future, result in zip(batch.futures.values(), results):
            if not future.done():
                future.set_result(result)
