"""Span recorder for the benchmark's traced run.

``install()`` wraps the public entry points of each serving layer with
span recorders.  It is loaded by this directory's ``sitecustomize.py``
in every server process of a traced run (router and shard workers
inherit the environment), so nothing under ``src/`` changes.  Spans
stay in memory and are written to ``<trace dir>/spans-<pid>.json``
when the process exits.

A span is ``(id, parent, name, start, end, tag)``; times come from
``time.perf_counter``, which on Linux reads ``CLOCK_MONOTONIC`` and so
lines up across processes with the load generator's phase boundaries.
The parent is the span active in the same task or thread.  Work handed
across threads is joined by ``links`` (child, extra parent): the
executor's batch span is a child of every ``submit`` it serves, a
router hop a child of its ``submit``.  ``measures`` are
``(name, value, time)`` samples taken where no span fits (queue waits,
batch sizes, refit outcomes).
"""

from __future__ import annotations

import atexit
import contextvars
import functools
import inspect
import itertools
import json
import os
import sys
import time

_now = time.perf_counter
_ids = itertools.count(1)
_current = contextvars.ContextVar("perfbench_span", default=0)
_request = contextvars.ContextVar("perfbench_request", default=None)

SPANS: list = []
LINKS: list = []
MEASURES: list = []

_pending_submits: dict = {}  # batch request -> [(submit span, time)]
_flushes: dict = {}  # first request of a flushed batch -> flush time
_refit_requested: dict = {}  # object id -> time its refit was requested


def _span(name, root=False, tag=None):
    """Decorator factory: record ``name`` around each call."""

    def make(func):
        if inspect.iscoroutinefunction(func):
            async def wrapper(*args, **kwargs):
                sid = next(_ids)
                parent = 0 if root else _current.get()
                token = _current.set(sid)
                start = _now()
                try:
                    return await func(*args, **kwargs)
                finally:
                    SPANS.append((sid, parent, name, start, _now(),
                                  tag(args) if tag else None))
                    _current.reset(token)
        else:
            def wrapper(*args, **kwargs):
                sid = next(_ids)
                parent = 0 if root else _current.get()
                token = _current.set(sid)
                start = _now()
                try:
                    return func(*args, **kwargs)
                finally:
                    SPANS.append((sid, parent, name, start, _now(),
                                  tag(args) if tag else None))
                    _current.reset(token)
        return functools.wraps(func)(wrapper)

    return make


def _patch(owner, attr, make):
    """Wrap a method, keeping it a staticmethod when it was one."""
    raw = inspect.getattr_static(owner, attr)
    if isinstance(raw, staticmethod):
        setattr(owner, attr, staticmethod(make(raw.__func__)))
    else:
        setattr(owner, attr, make(raw))


def _patch_function(module, attr, make):
    """Wrap a module function everywhere ``repro`` imported it by name."""
    original = getattr(module, attr)
    wrapped = make(original)
    for name, loaded in list(sys.modules.items()):
        if loaded is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for key, value in list(vars(loaded).items()):
            if value is original:
                setattr(loaded, key, wrapped)


def _path_tag(index):
    return lambda args: str(args[index]).split("?", 1)[0]


# ----------------------------------------------------------------------
# serve.server: one span per request, from its request line to its reply
# ----------------------------------------------------------------------
def _read_line(func):
    async def wrapper(reader, timeout):
        line = await func(reader, timeout)
        if _request.get() is None and line.strip():
            sid = next(_ids)
            _request.set((sid, _now(), _current.set(sid)))
        return line

    return functools.wraps(func)(wrapper)


def _write_response(func):
    def wrapper(*args, **kwargs):
        try:
            return func(*args, **kwargs)
        finally:
            state = _request.get()
            if state is not None:
                sid, start, token = state
                SPANS.append((sid, 0, "serve.server.request", start, _now(), None))
                _request.set(None)
                _current.reset(token)

    return functools.wraps(func)(wrapper)


# ----------------------------------------------------------------------
# serve.batching / serve.executor: waits across the thread hand-off
# ----------------------------------------------------------------------
def _submit(func):
    async def wrapper(self, key, request):
        sid = next(_ids)
        parent = _current.get()
        token = _current.set(sid)
        start = _now()
        _pending_submits.setdefault(request, []).append((sid, start))
        try:
            return await func(self, key, request)
        finally:
            SPANS.append((sid, parent, "serve.batching.submit", start, _now(), None))
            _current.reset(token)

    return functools.wraps(func)(wrapper)


def _flush(func):
    async def wrapper(self, key, batch):
        if batch.futures:
            _flushes[next(iter(batch.futures))] = _now()
        return await func(self, key, batch)

    return functools.wraps(func)(wrapper)


def _execute_batch(func):
    def wrapper(self, object_id, requests):
        start = _now()
        flushed = _flushes.pop(requests[0], None) if requests else None
        if flushed is not None:
            MEASURES.append(("serve.executor.wait", start - flushed, start))
        MEASURES.append(("serve.batching.batch_size", len(requests), start))
        waiters = []
        for request in requests:
            for submit_sid, submitted in _pending_submits.pop(request, ()):
                waiters.append(submit_sid)
                MEASURES.append(("serve.batching.wait", start - submitted, start))
        sid = next(_ids)
        token = _current.set(sid)
        try:
            return func(self, object_id, requests)
        finally:
            SPANS.append((sid, 0, "serve.executor.batch", start, _now(), None))
            LINKS.extend((sid, waiter) for waiter in waiters)
            _current.reset(token)

    return functools.wraps(func)(wrapper)


# ----------------------------------------------------------------------
# core.fleet: time spent waiting for an object's lock
# ----------------------------------------------------------------------
class _TimedLock:
    """Delegating proxy over a fleet object lock (an ``RLock``)."""

    __slots__ = ("_lock",)

    def __init__(self, lock):
        self._lock = lock

    def acquire(self, blocking=True, timeout=-1):
        start = _now()
        acquired = self._lock.acquire(blocking, timeout)
        if blocking:
            SPANS.append((next(_ids), _current.get(), "core.fleet.lock_wait",
                          start, _now(), None))
        return acquired

    def release(self):
        self._lock.release()

    def __enter__(self):
        return self.acquire()

    def __exit__(self, *exc):
        self._lock.release()


def _object_lock(func):
    def wrapper(self, object_id):
        return _TimedLock(func(self, object_id))

    return functools.wraps(func)(wrapper)


# ----------------------------------------------------------------------
# core.refit / serve.refit
# ----------------------------------------------------------------------
def _prepare_update(func):
    inner = _span("core.refit.prepare")(func)

    def wrapper(self, *args, **kwargs):
        staged = inner(self, *args, **kwargs)
        when = _now()
        for phase, seconds in staged.phase_seconds.items():
            MEASURES.append((f"core.refit.{phase}", seconds, when))
        MEASURES.append((f"core.refit.index.{staged.refit.index}", 1, when))
        return staged

    return functools.wraps(func)(wrapper)


def _refit_request(func):
    def wrapper(self, object_id, payload):
        scheduled = func(self, object_id, payload)
        when = _now()
        if scheduled:
            _refit_requested.setdefault(object_id, when)
        else:
            MEASURES.append(("serve.refit.coalesced", 1, when))
        MEASURES.append(("serve.refit.depth", len(self._entries), when))
        return scheduled

    return functools.wraps(func)(wrapper)


def _refit_run(func):
    inner = _span("serve.refit.run", root=True)(func)

    async def wrapper(self, object_id, entry):
        start = _now()
        requested = _refit_requested.pop(object_id, None)
        if requested is not None:
            MEASURES.append(("serve.refit.queue_wait", start - requested, start))
        return await inner(self, object_id, entry)

    return functools.wraps(func)(wrapper)


# ----------------------------------------------------------------------
# serve.shard: queue wait and hop of each forwarded request
# ----------------------------------------------------------------------
def _offer(func):
    def wrapper(self, job):
        job._perfbench = (_now(), _current.get())
        return func(self, job)

    return functools.wraps(func)(wrapper)


def _run_job(func):
    async def wrapper(self, client, job):
        start = _now()
        offered, submit_sid = getattr(job, "_perfbench", (None, 0))
        if offered is not None:
            MEASURES.append(("serve.shard.forwarding.queue_wait", start - offered, start))
        sid = next(_ids)
        token = _current.set(sid)
        try:
            return await func(self, client, job)
        finally:
            SPANS.append((sid, 0, "serve.shard.forwarding.hop", start, _now(), None))
            if submit_sid:
                LINKS.append((sid, submit_sid))
            _current.reset(token)

    return functools.wraps(func)(wrapper)


# ----------------------------------------------------------------------
def install(trace_dir: str) -> None:
    import repro.cli  # noqa: F401  (loads every module patched below)
    from repro.core import persistence, scorekernel
    from repro.core.fleet import FleetPredictionModel
    from repro.core.model import HybridPredictionModel
    from repro.core.online import OnlineTracker
    from repro.core.plan import PreparedQuery
    from repro.core.regions import RegionSet
    from repro.serve import handlers
    from repro.serve.admission import AdmissionController
    from repro.serve.batching import RequestBatcher
    from repro.serve.cache import PredictionCache
    from repro.serve.metrics import Counter, Gauge, Histogram, MetricsRegistry
    from repro.serve.refit import RefitScheduler
    from repro.serve.server import PredictionServer, PredictionService
    from repro.serve.shard import forwarding, ring, router, worker  # noqa: F401

    _patch(PredictionServer, "_read_line", _read_line)
    _patch(PredictionServer, "_write_response", _write_response)
    _patch_function(handlers, "route", _span("serve.handlers.route", tag=_path_tag(2)))
    _patch_function(handlers, "render_predict_body", _span("serve.handlers.encode"))
    _patch_function(handlers, "encode_json", _span("serve.handlers.encode"))
    _patch(AdmissionController, "try_acquire", _span("serve.admission.try_acquire"))
    _patch(AdmissionController, "release", _span("serve.admission.release"))
    for method in ("predict", "ingest", "objects_summary"):
        _patch(PredictionService, method, _span(f"serve.service.{method}"))
    for method in ("make_key", "lookup", "put", "invalidate"):
        _patch(PredictionCache, method, _span(f"serve.cache.{method}"))
    _patch(RequestBatcher, "submit", _submit)
    _patch(RequestBatcher, "_run", _flush)
    _patch(PredictionService, "_execute_batch", _execute_batch)
    _patch(PredictionService, "_execute_refit", _span("serve.refit.execute"))
    _patch(FleetPredictionModel, "object_lock", _object_lock)
    _patch(HybridPredictionModel, "prepare", _span("core.plan.prepare"))
    _patch(HybridPredictionModel, "predict_prepared", _span("core.plan.answer"))
    _patch(PreparedQuery, "motion_prediction", _span("motion.fallback"))
    _patch_function(scorekernel, "prime_plan_queries", _span("core.scorekernel.prime"))
    _patch(RegionSet, "locate", _span("core.regions.locate"))
    _patch(RegionSet, "locate_uncached", _span("core.regions.locate_uncached"))
    for owner, method in ((Counter, "inc"), (Gauge, "set"), (Gauge, "inc"),
                          (Gauge, "dec"), (Histogram, "observe"),
                          (MetricsRegistry, "_get_or_create")):
        _patch(owner, method, _span("serve.metrics.op"))
    _patch(OnlineTracker, "observe", _span("core.online.observe"))
    _patch(OnlineTracker, "flush_updates", _span("core.online.flush"))
    _patch(HybridPredictionModel, "prepare_update", _prepare_update)
    _patch(HybridPredictionModel, "commit_update", _span("core.refit.commit"))
    _patch(RefitScheduler, "request", _refit_request)
    _patch(RefitScheduler, "_run", _refit_run)
    _patch(router.RouterService, "handle",
           _span("serve.shard.router.handle", tag=_path_tag(2)))
    _patch(ring.HashRing, "shard_for", _span("serve.shard.ring.shard_for"))
    _patch(forwarding.ShardForwarder, "submit", _span("serve.shard.forwarding.submit"))
    _patch(forwarding.ForwardQueue, "offer", _offer)
    _patch(forwarding.ShardForwarder, "_run_job", _run_job)
    _patch_function(persistence, "load_fleet", _span("core.persistence.load"))
    atexit.register(_dump, trace_dir)


def _dump(trace_dir: str) -> None:
    argv = sys.argv
    role = next((a for a in argv if a in ("serve", "shard-serve", "shard-worker")),
                "unknown")
    payload = {
        "pid": os.getpid(),
        "role": role,
        "spans": SPANS,
        "links": LINKS,
        "measures": MEASURES,
    }
    path = os.path.join(trace_dir, f"spans-{os.getpid()}.json")
    with open(path + ".tmp", "w") as handle:
        json.dump(payload, handle, separators=(",", ":"))
    os.replace(path + ".tmp", path)
