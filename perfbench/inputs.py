"""Seeded inputs for the serving benchmark: histories, queries, ingest.

The fleet's movement data is a fixed fixture: the paper's four
scenarios, two objects each, because pattern strength (Bike > Cow > Car
> Airplane) sets the mix of forward (FQP), backward (BQP) and
motion-fallback answers.  Keeping it fixed keeps set-up cost, memory
and refit cost comparable across runs.  The workload seed drives
everything sent to the server: query windows and horizons and the
interleaving of ingest posts.  The same ``--seed`` sends
byte-identical requests; the server only ever sees the requests.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

SCENARIOS = ("bike", "cow", "car", "airplane")
NUM_OBJECTS = 8
PERIOD = 96
SUBTRAJECTORIES = 20
#: sub-trajectories generated past the fitted history, fed through /ingest
CONTINUATION_SUBS = 2
#: data seed of the fleet fixture (object i uses DATA_SEED + i)
DATA_SEED = 1000
WINDOW = 4
DISTANT_THRESHOLD = PERIOD // 5
#: share of query windows pushed off every pattern (motion fallback)
OFF_PATTERN_SHARE = 0.15


def hpm_config(query_backend: str = "kernel"):
    from repro import HPMConfig

    return HPMConfig(
        query_backend=query_backend,
        period=PERIOD,
        eps=60.0,
        min_pts=4,
        min_confidence=0.3,
        distant_threshold=DISTANT_THRESHOLD,
        recent_window=WINDOW,
    )


@dataclass
class FleetInputs:
    """Fitted-history rows and the continuation fed through ingest."""

    histories: dict  # object id -> float64 (n, 2) positions, t = row index
    continuations: dict  # object id -> float64 (m, 2) positions

    def object_ids(self) -> list[str]:
        return sorted(self.histories)


def make_fleet_inputs() -> FleetInputs:
    from repro.datagen import make_dataset

    histories, continuations = {}, {}
    fitted_rows = SUBTRAJECTORIES * PERIOD
    for i in range(NUM_OBJECTS):
        scenario = SCENARIOS[i % len(SCENARIOS)]
        dataset = make_dataset(
            scenario,
            SUBTRAJECTORIES + CONTINUATION_SUBS,
            PERIOD,
            seed=DATA_SEED + i,
        )
        # Round once here so the wire JSON and the in-process reference
        # see exactly the same floats.
        positions = np.round(dataset.trajectory.positions, 2)
        object_id = f"{scenario}-{i}"
        histories[object_id] = positions[:fitted_rows]
        continuations[object_id] = positions[fitted_rows:]
    return FleetInputs(histories, continuations)


def trajectories(histories: dict) -> dict:
    from repro import Trajectory

    return {oid: Trajectory(rows) for oid, rows in histories.items()}


@dataclass(frozen=True)
class Query:
    """One ``POST /predict``: object, recent window, query time."""

    object_id: str
    recent: tuple  # ((t, x, y), ...)
    query_time: int

    def body(self) -> bytes:
        return json.dumps(
            {
                "object_id": self.object_id,
                "query_time": self.query_time,
                "recent": [list(fix) for fix in self.recent],
            },
            separators=(",", ":"),
        ).encode()


def unique_queries(inputs: FleetInputs, count: int, rng) -> list[Query]:
    """``count`` queries, no two alike under the server's cache key.

    Each query is a window cut at a random phase of a random object's
    history.  The cache key is (object, window timestamps and rounded
    coordinates, query time, k); a window is identified by its object
    and start row, so distinct (object, start, horizon) triples give
    distinct keys.  Horizons run from 1 to twice the distant-time
    threshold, so about half the queries take the FQP path and half
    BQP; a share of windows is shifted off every pattern so the motion
    fallback answers them.
    """
    ids = inputs.object_ids()
    seen: set = set()
    queries: list[Query] = []
    while len(queries) < count:
        object_id = ids[int(rng.integers(len(ids)))]
        rows = inputs.histories[object_id]
        start = int(rng.integers(len(rows) - WINDOW))
        horizon = int(rng.integers(1, 2 * DISTANT_THRESHOLD + 1))
        off_pattern = rng.random() < OFF_PATTERN_SHARE
        shift = rng.normal(0.0, 2000.0, size=2) if off_pattern else (0.0, 0.0)
        triple = (object_id, start, horizon)
        if triple in seen:
            continue
        seen.add(triple)
        recent = tuple(
            (
                start + j,
                round(float(rows[start + j, 0] + shift[0]), 2),
                round(float(rows[start + j, 1] + shift[1]), 2),
            )
            for j in range(WINDOW)
        )
        queries.append(Query(object_id, recent, start + WINDOW - 1 + horizon))
    return queries


def continuation_fixes(inputs: FleetInputs) -> dict[str, list]:
    """Each object's continuation as ``[t, x, y]`` fixes, in order.

    Timestamps continue right after the fitted history: the model's
    history is dense, so the first ingested fix of every object is row
    ``n`` of an ``n``-row history.
    """
    fixes = {}
    for object_id in inputs.object_ids():
        start = len(inputs.histories[object_id])
        fixes[object_id] = [
            [start + i, float(x), float(y)]
            for i, (x, y) in enumerate(inputs.continuations[object_id])
        ]
    return fixes


def grid_queries(histories: dict) -> list[Query]:
    """Fixed check grid: each object's newest window, many horizons."""
    queries = []
    for object_id in sorted(histories):
        rows = histories[object_id]
        start = len(rows) - WINDOW
        recent = tuple(
            (start + j, float(rows[start + j, 0]), float(rows[start + j, 1]))
            for j in range(WINDOW)
        )
        for horizon in (1, 2, 5, DISTANT_THRESHOLD - 1, DISTANT_THRESHOLD,
                        DISTANT_THRESHOLD + 7, PERIOD - 1):
            queries.append(Query(object_id, recent, start + WINDOW - 1 + horizon))
    return queries
