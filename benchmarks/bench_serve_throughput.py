"""Extension — serving throughput: prediction cache on vs. off.

The paper measures per-query model cost (Fig. 10); this bench measures
the *serving stack* wrapped around it.  One process runs the asyncio
HTTP server over a fitted commuter model and fires an identical
500-request workload at it twice: once with the LRU+TTL prediction
cache enabled, once with it disabled (every request pays a model pass).
Request batching is always on: it adds no delay to a lone request and
only batches the misses that queue behind an object's running pass.
Reported per mode: requests/sec and exact p95 latency from the load
generator's raw timings.

Finding: with repeating traffic (50 distinct queries in the pool) the
cache converts ~90% of requests into dictionary lookups.  A miss costs
only an executor hand-off around a sub-millisecond model pass, so the
throughput gain is modest and a single 500-request run is noisy; the
event loop's HTTP work, shared with the in-process load generator,
bounds both modes.
"""

import asyncio

import numpy as np
import pytest

from repro import FleetPredictionModel, HPMConfig, Trajectory
from repro.serve import (
    PredictionServer,
    PredictionService,
    ServeConfig,
    build_workload,
    run_loadgen,
)

from conftest import run_once

PERIOD = 24
REQUESTS = 500
CONCURRENCY = 16
DISTINCT = 50


def commuter_history(num_days: int = 40) -> Trajectory:
    rng = np.random.default_rng(7)
    base = np.zeros((PERIOD, 2))
    for t in range(PERIOD):
        if t < PERIOD // 2:
            base[t] = [400.0 * t, 0.0]
        else:
            base[t] = [400.0 * (PERIOD // 2), 400.0 * (t - PERIOD // 2)]
    days = [base + rng.normal(0, 20.0, base.shape) for _ in range(num_days)]
    return Trajectory(np.vstack(days))


def fitted_fleet(history: Trajectory) -> FleetPredictionModel:
    config = HPMConfig(
        period=PERIOD,
        eps=60.0,
        min_pts=4,
        min_confidence=0.3,
        distant_threshold=8,
        recent_window=4,
    )
    fleet = FleetPredictionModel(config)
    fleet.fit({"default": history})
    return fleet


async def measure(fleet, history, serve_config):
    service = PredictionService(fleet, serve_config)
    server = PredictionServer(service)
    await server.start()
    try:
        workload = build_workload(
            history,
            requests=REQUESTS,
            window=4,
            max_horizon=5,
            distinct=DISTINCT,
            rng=np.random.default_rng(0),
        )
        return await run_loadgen(
            "127.0.0.1", server.port, workload, concurrency=CONCURRENCY
        )
    finally:
        await server.close()


def test_serve_throughput_cache_ab(benchmark):
    history = commuter_history()
    fleet = fitted_fleet(history)
    modes = {
        "cache on": ServeConfig(),
        "cache off": ServeConfig(enable_cache=False),
    }

    def compute():
        # One untimed pass first: otherwise whichever mode runs first also
        # pays the process's one-time warm-up, and the A/B measures the
        # run order rather than the cache.
        asyncio.run(measure(fleet, history, modes["cache off"]))
        rows = []
        for label, serve_config in modes.items():
            report = asyncio.run(measure(fleet, history, serve_config))
            rows.append(
                {
                    "mode": label,
                    "req_per_s": round(report.throughput, 1),
                    "p95_ms": round(report.percentile(95), 2),
                    "cache_hits": report.cache_hits,
                    "errors": report.errors,
                }
            )
        return rows

    rows = run_once(benchmark, compute)

    print(f"\nServing throughput, {REQUESTS} requests @ concurrency {CONCURRENCY}")
    print(f"{'mode':<20} {'req/s':>10} {'p95 ms':>10} {'cache hits':>12}")
    for r in rows:
        print(
            f"{r['mode']:<20} {r['req_per_s']:>10} {r['p95_ms']:>10} "
            f"{r['cache_hits']:>12}"
        )

    on, off = rows
    assert on["errors"] == 0 and off["errors"] == 0
    assert on["cache_hits"] > 0
    assert off["cache_hits"] == 0
    # The whole point of the subsystem: the optimised stack is faster.
    assert on["req_per_s"] > off["req_per_s"]
