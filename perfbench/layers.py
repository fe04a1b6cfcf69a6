"""Per-layer metrics from the spans a traced run's servers wrote.

Self time of a span is its duration minus the part of its interval
covered by its children (children in the same task or thread, plus the
cross-thread links the hook records).  A router's hop to a shard also
counts the worker's request span it contains as a child, so the
worker's time is not charged to the router too.  A layer is a span name
minus its last component: ``serve.cache.lookup`` belongs to
``serve.cache``.
"""

from __future__ import annotations

import bisect
import json
from collections import defaultdict
from pathlib import Path

import numpy as np

#: layers whose self time is reported per edge request
LAYERS = (
    "serve.server", "serve.handlers", "serve.service", "serve.admission",
    "serve.cache", "serve.batching", "serve.executor", "serve.metrics",
    "serve.refit", "serve.shard.router", "serve.shard.ring",
    "serve.shard.forwarding", "core.fleet", "core.plan", "core.scorekernel",
    "core.regions", "core.online", "core.refit", "core.persistence", "motion",
)

_EDGE_ROLES = ("serve", "shard-serve")
_WORKER_ROLES = ("serve", "shard-worker")


def _p(values, q) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


class Process:
    """One server process's spans, indexed for self-time queries."""

    def __init__(self, dump: dict, windows):
        self.role = dump["role"]
        self.spans = {}
        for sid, parent, name, start, end, tag in dump["spans"]:
            self.spans[sid] = (parent, name, start, end, tag)
        self.children = defaultdict(list)
        for sid, (parent, *_rest) in self.spans.items():
            if parent:
                self.children[parent].append(sid)
        for child, parent in dump["links"]:
            self.children[parent].append(child)
        self.windows = windows
        self.measures = [m for m in dump["measures"] if self.in_window(m[2])]
        self.foreign: dict[int, tuple[float, float]] = {}

    def in_window(self, t: float) -> bool:
        return any(lo <= t <= hi for lo, hi in self.windows)

    def named(self, name: str):
        """Spans called ``name`` that started inside a measured window."""
        return [
            (sid, span) for sid, span in self.spans.items()
            if span[1] == name and self.in_window(span[2])
        ]

    def durations(self, name: str) -> list[float]:
        return [span[3] - span[2] for _sid, span in self.named(name)]

    def self_time(self, sid: int) -> float:
        _parent, _name, start, end, _tag = self.spans[sid]
        covered = [self.foreign[sid]] if sid in self.foreign else []
        for child in self.children.get(sid, ()):
            if child in self.spans:
                c_start, c_end = self.spans[child][2:4]
                lo, hi = max(start, c_start), min(end, c_end)
                if hi > lo:
                    covered.append((lo, hi))
        covered.sort()
        total, reach = 0.0, start
        for lo, hi in covered:
            if hi > reach:
                total += hi - max(lo, reach)
                reach = hi
        return (end - start) - total

    def child_named(self, sid: int, name: str):
        for child in self.children.get(sid, ()):
            span = self.spans.get(child)
            if span is not None and span[1] == name:
                yield child, span

    def descendants_named(self, sid: int, name: str):
        stack = list(self.children.get(sid, ()))
        while stack:
            child = stack.pop()
            span = self.spans.get(child)
            if span is None:
                continue
            if span[1] == name:
                yield span
            stack.extend(self.children.get(child, ()))

    def measure_values(self, name: str) -> list[float]:
        return [value for key, value, _t in self.measures if key == name]

    def predict_requests(self, route_name: str):
        """(request span id, request span, route span) of ``/predict``."""
        for sid, span in self.named("serve.server.request"):
            for _cid, route in self.child_named(sid, route_name):
                if route[4] == "/predict":
                    yield sid, span, route


def load_processes(trace_dir: Path, windows) -> list[Process]:
    processes = [
        Process(json.loads(path.read_text()), windows)
        for path in sorted(trace_dir.glob("spans-*.json"))
    ]
    _link_hops(processes)
    return processes


def _link_hops(processes: list[Process]) -> None:
    """Give each router hop the longest worker request it contains."""
    requests = sorted(
        (span[2], span[3])
        for proc in processes if proc.role == "shard-worker"
        for span in proc.spans.values() if span[1] == "serve.server.request"
    )
    starts = [start for start, _end in requests]
    for proc in processes:
        if proc.role != "shard-serve":
            continue
        for sid, span in proc.spans.items():
            if span[1] != "serve.shard.forwarding.hop":
                continue
            inside = [
                (start, end)
                for start, end in requests[bisect.bisect_left(starts, span[2]):
                                           bisect.bisect_right(starts, span[3])]
                if end <= span[3]
            ]
            if inside:
                proc.foreign[sid] = max(inside, key=lambda se: se[1] - se[0])


def per_layer(processes: list[Process], counters: dict, path_counts: dict) -> dict:
    """Every per-layer metric (see ``BENCHMARK.json``), in its unit."""
    workers = [p for p in processes if p.role in _WORKER_ROLES]
    routers = [p for p in processes if p.role == "shard-serve"]
    edge = [p for p in processes if p.role in _EDGE_ROLES]

    def gather(procs, fn):
        out = []
        for proc in procs:
            out.extend(fn(proc))
        return out

    def spans_ms(procs, name):
        return [d * 1e3 for d in gather(procs, lambda p: p.durations(name))]

    def measures(procs, name):
        return gather(procs, lambda p: p.measure_values(name))

    m: dict[str, float] = {}
    server_self = gather(workers, lambda p: [
        (span[3] - span[2]) - (route[3] - route[2])
        for _sid, span, route in p.predict_requests("serve.handlers.route")
    ])
    m["serve.server.self_p50_ms"] = _p(server_self, 50) * 1e3

    def handler_self(proc):
        out = []
        for sid, route in proc.named("serve.handlers.route"):
            if route[4] != "/predict":
                continue
            inner = sum(s[3] - s[2] for s in proc.descendants_named(sid, "serve.service.predict"))
            out.append((route[3] - route[2]) - inner)
        return out

    m["serve.handlers.self_p50_ms"] = _p(gather(workers, handler_self), 50) * 1e3

    def encode(proc):
        out = []
        for sid, route in proc.named("serve.handlers.route"):
            if route[4] == "/predict":
                out.extend(s[3] - s[2] for _c, s in proc.child_named(sid, "serve.handlers.encode"))
        return out

    m["serve.handlers.encode_p50_us"] = _p(gather(workers, encode), 50) * 1e6
    m["serve.admission.acquire_us"] = _p(spans_ms(workers, "serve.admission.try_acquire"), 50) * 1e3
    m["serve.admission.shed"] = counters.get("serve_shed_total", 0.0)
    hits = counters.get("serve_cache_hits_total", 0.0)
    misses = counters.get("serve_cache_misses_total", 0.0)
    m["serve.cache.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    m["serve.cache.invalidations"] = counters.get("serve_cache_invalidations_total", 0.0)
    m["serve.cache.lookup_us"] = _p(spans_ms(workers, "serve.cache.lookup"), 50) * 1e3
    m["serve.batching.wait_p50_ms"] = _p(measures(workers, "serve.batching.wait"), 50) * 1e3
    sizes = measures(workers, "serve.batching.batch_size")
    m["serve.batching.batch_size_mean"] = float(np.mean(sizes)) if sizes else 0.0
    m["serve.batching.coalesced"] = counters.get("serve_batch_coalesced_total", 0.0)
    m["serve.executor.wait_p50_ms"] = _p(measures(workers, "serve.executor.wait"), 50) * 1e3
    m["core.fleet.lock_wait_p99_ms"] = _p(spans_ms(workers, "core.fleet.lock_wait"), 99)
    m["core.plan.prepare_p50_us"] = _p(spans_ms(workers, "core.plan.prepare"), 50) * 1e3
    m["core.plan.answer_p50_us"] = _p(spans_ms(workers, "core.plan.answer"), 50) * 1e3
    total_paths = sum(path_counts.values())
    for path in ("fqp", "bqp", "motion"):
        m[f"core.plan.path_share.{path}"] = (
            path_counts.get(path, 0.0) / total_paths if total_paths else 0.0
        )
    m["core.scorekernel.prime_p50_us"] = _p(spans_ms(workers, "core.scorekernel.prime"), 50) * 1e3
    m["core.scorekernel.fallbacks"] = counters.get("predict_kernel_fallback_total", 0.0)
    locates = sum(len(p.named("core.regions.locate")) for p in workers)
    uncached = sum(len(p.named("core.regions.locate_uncached")) for p in workers)
    m["core.regions.locate_calls"] = float(locates)
    m["core.regions.locate_hit_ratio"] = 1.0 - uncached / locates if locates else 0.0
    m["motion.fallback_p50_us"] = _p(spans_ms(workers, "motion.fallback"), 50) * 1e3

    requests = sum(len(p.named("serve.server.request")) for p in edge)
    top_ops = gather(processes, lambda p: [
        span[3] - span[2] for _sid, span in p.named("serve.metrics.op")
        if p.spans.get(span[0], (None, ""))[1] != "serve.metrics.op"
    ])
    m["serve.metrics.ops_per_request"] = len(top_ops) / requests if requests else 0.0
    m["serve.metrics.us_per_request"] = sum(top_ops) * 1e6 / requests if requests else 0.0
    m["core.online.observe_us"] = _p(spans_ms(workers, "core.online.observe"), 50) * 1e3
    m["serve.refit.queue_wait_p50_ms"] = _p(measures(workers, "serve.refit.queue_wait"), 50) * 1e3
    depths = measures(workers, "serve.refit.depth")
    m["serve.refit.depth_max"] = float(max(depths)) if depths else 0.0
    m["serve.refit.coalesced"] = float(len(measures(workers, "serve.refit.coalesced")))
    m["core.refit.prepare_p50_ms"] = _p(spans_ms(workers, "core.refit.prepare"), 50)
    m["core.refit.cluster_p50_ms"] = _p(measures(workers, "core.refit.cluster"), 50) * 1e3
    m["core.refit.mine_p50_ms"] = _p(measures(workers, "core.refit.mine"), 50) * 1e3
    m["core.refit.commit_p50_ms"] = _p(spans_ms(workers, "core.refit.commit"), 50)
    outcomes = defaultdict(int)
    for proc in workers:
        for key, _value, _t in proc.measures:
            if key.startswith("core.refit.index."):
                outcomes[key.rsplit(".", 1)[1]] += 1
    refits = sum(outcomes.values())
    m["core.refit.patched_share"] = outcomes["patched"] / refits if refits else 0.0

    router_self = gather(routers, lambda p: [
        (span[3] - span[2]) - sum(
            s[3] - s[2] for s in p.descendants_named(sid, "serve.shard.forwarding.submit")
        )
        for sid, span, _route in p.predict_requests("serve.shard.router.handle")
    ])
    m["serve.shard.router.self_p50_ms"] = _p(router_self, 50) * 1e3
    m["serve.shard.ring.shard_for_us"] = _p(spans_ms(routers, "serve.shard.ring.shard_for"), 50) * 1e3
    m["serve.shard.forwarding.queue_wait_p50_ms"] = (
        _p(measures(routers, "serve.shard.forwarding.queue_wait"), 50) * 1e3
    )
    m["serve.shard.forwarding.hop_p50_ms"] = _p(spans_ms(routers, "serve.shard.forwarding.hop"), 50)

    self_totals = defaultdict(float)
    for proc in processes:
        for sid, span in proc.spans.items():
            if proc.in_window(span[2]):
                self_totals[span[1].rsplit(".", 1)[0]] += proc.self_time(sid)
    for layer in LAYERS:
        m[f"{layer}.self_us_per_req"] = (
            self_totals[layer] * 1e6 / requests if requests else 0.0
        )
    return m


def load_seconds(trace_dir: Path) -> float:
    """Longest snapshot load among the server processes (start-up)."""
    longest = 0.0
    for path in sorted(trace_dir.glob("spans-*.json")):
        for _sid, _parent, name, start, end, _tag in json.loads(path.read_text())["spans"]:
            if name == "core.persistence.load":
                longest = max(longest, end - start)
    return longest
