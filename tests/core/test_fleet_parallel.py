"""Tests for the parallel fleet training pipeline.

The contract under test: ``fit(histories, max_workers=N)`` produces
models byte-identical to the serial path in every executor mode,
isolates per-object failures into a :class:`FleetFitError`, reports
progress, feeds the fleet metrics, and ships models across the pickle
boundary with metrics handles dropped.
"""

import pickle

import numpy as np
import pytest

from repro.core.config import HPMConfig
from repro.core.fleet import FleetFitError, FleetPredictionModel
from repro.serve.metrics import MetricsRegistry
from repro.trajectory import TimedPoint, Trajectory

PERIOD = 10


def make_history(route_y: float, num_subs=15, period=PERIOD, seed=0):
    """An object moving east along y = route_y each period."""
    rng = np.random.default_rng(seed)
    base = np.column_stack(
        [80.0 * np.arange(period), np.full(period, route_y)]
    )
    blocks = [base + rng.normal(0, 0.8, base.shape) for _ in range(num_subs)]
    return Trajectory(np.vstack(blocks))


@pytest.fixture(scope="module")
def histories():
    return {f"obj{i}": make_history(400.0 * i, seed=i) for i in range(4)}


@pytest.fixture(scope="module")
def recents(histories):
    return {
        f"obj{i}": [TimedPoint(200 + t, 80.0 * t, 400.0 * i) for t in range(3)]
        for i in range(len(histories))
    }


def fresh_fleet() -> FleetPredictionModel:
    return FleetPredictionModel(
        HPMConfig(
            period=PERIOD, eps=5.0, min_pts=4, distant_threshold=4, recent_window=3
        )
    )


def fingerprint(fleet, recents, query_time=205, k=3) -> bytes:
    """Byte-exact rendering of every object's predictions."""
    chunks = []
    for object_id in fleet.object_ids():
        predictions = fleet.predict(object_id, recents[object_id], query_time, k)
        chunks.append(f"{object_id}:{predictions!r}")
    return "\n".join(chunks).encode()


@pytest.fixture(scope="module")
def serial_fleet(histories):
    return fresh_fleet().fit(histories)


class TestParallelFitDeterminism:
    def test_thread_matches_serial(self, histories, recents, serial_fleet):
        fleet = fresh_fleet().fit(histories, max_workers=4, executor="thread")
        assert fingerprint(fleet, recents) == fingerprint(serial_fleet, recents)

    def test_process_matches_serial(self, histories, recents, serial_fleet):
        fleet = fresh_fleet().fit(histories, max_workers=2, executor="process")
        assert fingerprint(fleet, recents) == fingerprint(serial_fleet, recents)

    def test_max_workers_one_is_serial(self, histories, recents, serial_fleet):
        fleet = fresh_fleet().fit(histories, max_workers=1)
        assert fingerprint(fleet, recents) == fingerprint(serial_fleet, recents)

    def test_bad_executor_rejected(self, histories):
        with pytest.raises(ValueError, match="executor"):
            fresh_fleet().fit(histories, max_workers=2, executor="rayon")

    def test_bad_worker_count_rejected(self, histories):
        with pytest.raises(ValueError, match="max_workers"):
            fresh_fleet().fit(histories, max_workers=0)


class TestFailureIsolation:
    @pytest.mark.parametrize("executor", ["serial", "thread", "process"])
    def test_one_bad_trajectory_names_itself(self, histories, executor):
        bad = dict(histories)
        bad["broken"] = Trajectory(np.zeros((3, 2)))  # shorter than one period
        fleet = fresh_fleet()
        with pytest.raises(FleetFitError, match="broken") as excinfo:
            fleet.fit(bad, max_workers=2, executor=executor)
        assert set(excinfo.value.failures) == {"broken"}
        assert isinstance(excinfo.value.failures["broken"], ValueError)
        # Every healthy object was still installed and answers queries.
        assert fleet.object_ids() == sorted(histories)
        assert "broken" not in fleet
        # The failed object leaves no lock-table residue either.
        with pytest.raises(KeyError):
            fleet.object_lock("broken")

    def test_fit_object_failure_leaves_no_lock(self):
        fleet = fresh_fleet()
        with pytest.raises(ValueError):
            fleet.fit_object("stub", Trajectory(np.zeros((2, 2))))
        assert "stub" not in fleet
        with pytest.raises(KeyError):
            fleet.object_lock("stub")


class TestHooks:
    def test_progress_reports_every_object(self, histories):
        seen = []
        fresh_fleet().fit(
            histories,
            max_workers=2,
            executor="thread",
            progress=lambda oid, done, total: seen.append((oid, done, total)),
        )
        assert sorted(oid for oid, _, _ in seen) == sorted(histories)
        assert [done for _, done, _ in seen] == list(range(1, len(histories) + 1))
        assert all(total == len(histories) for _, _, total in seen)

    @pytest.mark.parametrize("executor", ["serial", "process"])
    def test_fit_metrics(self, histories, executor):
        fleet = fresh_fleet()
        registry = MetricsRegistry()
        fleet.bind_metrics(registry)
        fleet.fit(histories, max_workers=2, executor=executor)
        assert registry.counter("fleet_fit_objects_total").value == len(histories)
        histogram = registry.histogram("fleet_fit_seconds")
        assert histogram.count == len(histories)
        assert histogram.total > 0.0


class TestPickleSafety:
    def test_fitted_model_roundtrip_drops_metrics(self, serial_fleet, recents):
        registry = MetricsRegistry()
        serial_fleet.bind_metrics(registry)
        model = serial_fleet["obj0"]
        clone = pickle.loads(pickle.dumps(model))
        assert clone._metrics is None
        assert repr(clone.predict(recents["obj0"], 205, k=3)) == repr(
            model._predict(recents["obj0"], 205, k=3)
        )
        serial_fleet.bind_metrics(None)

    def test_adoption_rebinds_metrics(self, serial_fleet):
        registry = MetricsRegistry()
        fleet = fresh_fleet()
        fleet.bind_metrics(registry)
        clone = pickle.loads(pickle.dumps(serial_fleet["obj1"]))
        fleet.adopt_object("adopted", clone)
        assert clone._metrics is registry
