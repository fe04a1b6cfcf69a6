"""Unit tests for load-driven request batching."""

import asyncio
import random
import threading
import time

import pytest

from repro.serve.batching import RequestBatcher


class Recorder:
    """A batch executor that records every (key, requests) pass."""

    def __init__(self, fail=False):
        self.calls = []
        self.fail = fail

    def __call__(self, key, requests):
        self.calls.append((key, list(requests)))
        if self.fail:
            raise RuntimeError("boom")
        return [f"{key}:{r}" for r in requests]


class Gate(Recorder):
    """A recorder whose passes for ``blocked`` keys wait for ``open()``."""

    def __init__(self, blocked=("obj",)):
        super().__init__()
        self.blocked = set(blocked)
        self.started = threading.Event()
        self.released = threading.Event()
        self.finished = threading.Event()

    def __call__(self, key, requests):
        if key not in self.blocked:
            return super().__call__(key, requests)
        self.started.set()
        assert self.released.wait(5.0), "gate never opened"
        try:
            return super().__call__(key, requests)
        finally:
            self.finished.set()

    async def wait_started(self):
        loop = asyncio.get_running_loop()
        assert await loop.run_in_executor(None, self.started.wait, 5.0)

    def open(self):
        self.blocked.clear()
        self.released.set()


def run(coro):
    return asyncio.run(coro)


async def settle():
    """Let every ready task run up to its next real wait."""
    for _ in range(5):
        await asyncio.sleep(0)


def passes(recorder):
    return [requests for _key, requests in recorder.calls]


class TestCoalescing:
    def test_concurrent_distinct_requests_share_one_pass(self):
        recorder = Recorder()

        async def scenario():
            batcher = RequestBatcher(recorder, max_batch=10)
            return await asyncio.gather(
                *(batcher.submit("obj", f"r{i}") for i in range(5))
            )

        results = run(scenario())
        assert results == [f"obj:r{i}" for i in range(5)]
        assert len(recorder.calls) == 1
        assert recorder.calls[0] == ("obj", [f"r{i}" for i in range(5)])

    def test_identical_requests_deduplicate(self):
        recorder = Recorder()

        async def scenario():
            batcher = RequestBatcher(recorder, max_batch=10)
            results = await asyncio.gather(
                *(batcher.submit("obj", "same") for _ in range(8))
            )
            return batcher, results

        batcher, results = run(scenario())
        assert results == ["obj:same"] * 8
        # One unique request computed once; seven waiters coalesced.
        assert recorder.calls == [("obj", ["same"])]
        assert batcher.coalesced == 7
        assert batcher.submitted == 8

    def test_keys_batch_independently(self):
        recorder = Recorder()

        async def scenario():
            batcher = RequestBatcher(recorder, max_batch=10)
            await asyncio.gather(
                batcher.submit("a", "r"), batcher.submit("b", "r")
            )

        run(scenario())
        assert sorted(key for key, _ in recorder.calls) == ["a", "b"]

    def test_max_batch_flushes_early(self):
        recorder = Recorder()

        async def scenario():
            batcher = RequestBatcher(recorder, max_batch=2)
            return await asyncio.gather(
                *(batcher.submit("obj", f"r{i}") for i in range(3))
            )

        assert run(scenario()) == ["obj:r0", "obj:r1", "obj:r2"]
        assert passes(recorder) == [["r0", "r1"], ["r2"]]

    def test_requests_after_flush_start_a_new_batch(self):
        recorder = Recorder()

        async def scenario():
            batcher = RequestBatcher(recorder, max_batch=10)
            first = await batcher.submit("obj", "r1")
            second = await batcher.submit("obj", "r2")
            return first, second

        assert run(scenario()) == ("obj:r1", "obj:r2")
        assert len(recorder.calls) == 2

    def test_executor_failure_propagates_to_all_waiters(self):
        recorder = Recorder(fail=True)

        async def scenario():
            batcher = RequestBatcher(recorder, max_batch=10)
            results = await asyncio.gather(
                batcher.submit("obj", "r1"),
                batcher.submit("obj", "r2"),
                return_exceptions=True,
            )
            return results

        results = run(scenario())
        assert all(isinstance(r, RuntimeError) for r in results)

    def test_result_count_mismatch_is_an_error(self):
        async def scenario():
            batcher = RequestBatcher(lambda key, requests: [], max_batch=10)
            with pytest.raises(RuntimeError, match="returned 0 results"):
                await batcher.submit("obj", "r1")

        run(scenario())

    def test_drain_flushes_pending_batches(self):
        recorder = Recorder()

        async def scenario():
            batcher = RequestBatcher(recorder, max_batch=10)
            pending = asyncio.ensure_future(batcher.submit("obj", "r1"))
            await asyncio.sleep(0)  # let submit enqueue
            await batcher.drain()
            assert pending.done()
            return await pending

        assert run(scenario()) == "obj:r1"
        assert len(recorder.calls) == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            RequestBatcher(lambda key, requests: [], max_batch=0)


class TestLoadDriven:
    """A key runs one pass at a time; what queues behind it batches."""

    def test_requests_queued_behind_a_running_pass_share_the_next(self):
        gate = Gate()

        async def scenario():
            batcher = RequestBatcher(gate, max_batch=10)
            first = asyncio.ensure_future(batcher.submit("obj", "r1"))
            await gate.wait_started()
            rest = [
                asyncio.ensure_future(batcher.submit("obj", r))
                for r in ("r2", "r3")
            ]
            await settle()
            gate.open()
            return await asyncio.gather(first, *rest)

        assert run(scenario()) == ["obj:r1", "obj:r2", "obj:r3"]
        assert passes(gate) == [["r1"], ["r2", "r3"]]

    def test_twin_of_an_in_flight_request_shares_its_result(self):
        gate = Gate()

        async def scenario():
            batcher = RequestBatcher(gate, max_batch=10)
            first = asyncio.ensure_future(batcher.submit("obj", "r1"))
            await gate.wait_started()
            twin = asyncio.ensure_future(batcher.submit("obj", "r1"))
            await settle()
            gate.open()
            return batcher, await asyncio.gather(first, twin)

        batcher, results = run(scenario())
        assert results == ["obj:r1", "obj:r1"]
        assert passes(gate) == [["r1"]]
        assert batcher.coalesced == 1
        assert batcher.submitted == 2

    def test_backlog_runs_in_passes_of_at_most_max_batch(self):
        gate = Gate()

        async def scenario():
            batcher = RequestBatcher(gate, max_batch=2)
            first = asyncio.ensure_future(batcher.submit("obj", "r0"))
            await gate.wait_started()
            rest = [
                asyncio.ensure_future(batcher.submit("obj", f"r{i}"))
                for i in range(1, 6)
            ]
            await settle()
            gate.open()
            return await asyncio.gather(first, *rest)

        assert run(scenario()) == [f"obj:r{i}" for i in range(6)]
        assert passes(gate) == [["r0"], ["r1", "r2"], ["r3", "r4"], ["r5"]]

    def test_slow_pass_on_one_key_does_not_delay_another(self):
        gate = Gate(blocked=("a",))

        async def scenario():
            batcher = RequestBatcher(gate, max_batch=10)
            slow = asyncio.ensure_future(batcher.submit("a", "r"))
            await gate.wait_started()
            # Key "b" answers while "a"'s pass is still blocked.
            fast = await asyncio.wait_for(batcher.submit("b", "r"), 5.0)
            assert not slow.done()
            gate.open()
            return fast, await slow

        assert run(scenario()) == ("b:r", "a:r")

    def test_drain_waits_for_a_running_pass(self):
        gate = Gate()

        async def scenario():
            batcher = RequestBatcher(gate, max_batch=10)
            pending = asyncio.ensure_future(batcher.submit("obj", "r1"))
            await gate.wait_started()
            asyncio.get_running_loop().call_later(0.05, gate.open)
            await batcher.drain()
            # drain() returned, so the pass it found running has ended.
            assert gate.finished.is_set()
            return await pending

        assert run(scenario()) == "obj:r1"


def test_stress_one_pass_per_key_at_a_time():
    """Many tasks over few keys: a key never runs two passes at once,
    no pass exceeds max_batch, and every waiter gets its own answer."""
    lock = threading.Lock()
    running: dict = {}
    overlaps = []
    sizes = []

    def execute(key, requests):
        with lock:
            running[key] = running.get(key, 0) + 1
            overlaps.append(running[key])
            sizes.append(len(requests))
        time.sleep(0.001)
        with lock:
            running[key] -= 1
        return [f"{key}:{r}" for r in requests]

    async def client(batcher, rng):
        for _ in range(20):
            key, request = rng.choice("abc"), rng.randrange(15)
            assert await batcher.submit(key, request) == f"{key}:{request}"
            await asyncio.sleep(rng.random() * 0.002)

    async def scenario():
        batcher = RequestBatcher(execute, max_batch=4)
        await asyncio.wait_for(
            asyncio.gather(
                *(client(batcher, random.Random(seed)) for seed in range(24))
            ),
            timeout=30.0,
        )
        await batcher.drain()
        return batcher

    batcher = run(scenario())
    assert batcher.submitted == 24 * 20
    assert max(overlaps) == 1
    assert max(sizes) <= 4
    assert batcher.batches == len(sizes)
