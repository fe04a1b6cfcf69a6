"""Fit a fleet and write its snapshot, in a process of its own.

    python3 perfbench/fit_fleet.py HISTORIES.npz SNAPSHOT_DIR TIMINGS.json

Run as a child of the benchmark so that fit and save time do not depend
on the benchmark process's own heap (the garbage collector's cost grows
with every object alive in the process).  Writes the fit time, its
cluster/mine/index split and the save time as JSON.
"""

import json
import sys
import time
from pathlib import Path

import numpy as np

import inputs


def main(histories_path: str, snapshot: str, timings_path: str) -> int:
    from repro import FleetPredictionModel
    from repro.core.persistence import save_fleet

    with np.load(histories_path) as archive:
        histories = {name: archive[name] for name in archive.files}
    started = time.perf_counter()
    fleet = FleetPredictionModel(inputs.hpm_config())
    fleet.fit(inputs.trajectories(histories))
    fitted = time.perf_counter()
    save_fleet(fleet, snapshot)
    saved = time.perf_counter()
    phases = fleet.fit_phase_totals()
    Path(timings_path).write_text(json.dumps({
        "fit_s": fitted - started,
        "fit_cluster_s": phases.get("cluster", 0.0),
        "fit_mine_s": phases.get("mine", 0.0),
        "fit_index_s": phases.get("index", 0.0),
        "save_s": saved - fitted,
        "patterns": fleet.total_patterns(),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
