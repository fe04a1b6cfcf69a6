"""Fleet snapshots (format 2): packed columnar blocks, mmap loads.

The contract: a load — mmap or materialised, whole fleet or ring slice —
yields models whose state AND prediction fingerprints are byte-identical
to the in-memory models that were saved, with the score-kernel cache
already primed; and a delta refit on a loaded model stays
byte-identical to a fit from scratch.
"""

import json
import shutil

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.config import HPMConfig
from repro.core.fingerprint import model_fingerprint, prediction_fingerprint
from repro.core.fleet import FleetPredictionModel
from repro.core.model import HybridPredictionModel
from repro.core.persistence import (
    load_fleet,
    repack_snapshot,
    save_fleet,
    snapshot_stat,
)
from repro.trajectory import TimedPoint, Trajectory

PERIOD = 12


def make_config(**overrides) -> HPMConfig:
    params = dict(
        period=PERIOD, eps=5.0, min_pts=4, distant_threshold=5, recent_window=4
    )
    params.update(overrides)
    return HPMConfig(**params)


def make_route(num_blocks: int, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    base = np.column_stack(
        [70.0 * np.arange(PERIOD), 20.0 * np.arange(PERIOD)]
    )
    return np.vstack(
        [base + rng.normal(0, 0.6, base.shape) for _ in range(num_blocks)]
    )


def queries(model):
    positions = np.asarray(model.history_.positions)
    window = model.config.recent_window
    n = positions.shape[0]
    out = []
    for start in (0, n // 3):
        recent = [
            TimedPoint(
                n + t,
                float(positions[start + t, 0]),
                float(positions[start + t, 1]),
            )
            for t in range(window)
        ]
        t_now = recent[-1].t
        out.append((recent, t_now + 2))
        out.append((recent, t_now + model.config.distant_threshold + 3))
    return out


def fleet_fingerprints(fleet) -> list[tuple[str, str, str]]:
    return [
        (
            oid,
            model_fingerprint(fleet[oid]),
            prediction_fingerprint(fleet[oid], queries(fleet[oid])),
        )
        for oid in fleet.object_ids()
    ]


@pytest.fixture(scope="module")
def fitted_fleet():
    fleet = FleetPredictionModel(make_config())
    fleet.fit(
        {
            f"obj{i}": Trajectory(make_route(12, seed=i), 0)
            for i in range(3)
        }
    )
    return fleet


@pytest.fixture(scope="module")
def snapshots(fitted_fleet, tmp_path_factory):
    root = tmp_path_factory.mktemp("snapshots")
    save_fleet(fitted_fleet, root / "v2")
    return root


class TestRoundTripIdentity:
    def test_loads_match_original(self, fitted_fleet, snapshots):
        reference = fleet_fingerprints(fitted_fleet)
        assert fleet_fingerprints(load_fleet(snapshots / "v2")) == reference

    def test_mmap_matches_materialized(self, fitted_fleet, snapshots):
        mmapped = load_fleet(snapshots / "v2", mmap=True)
        materialized = load_fleet(snapshots / "v2", mmap=False)
        assert fleet_fingerprints(mmapped) == fleet_fingerprints(materialized)

    @pytest.mark.parametrize("mmap", [True, False])
    def test_pattern_free_and_delta_refitted_round_trip(self, tmp_path, mmap):
        fleet = FleetPredictionModel(make_config())
        rng = np.random.default_rng(5)
        positions = make_route(12, seed=7)
        fleet.fit(
            {
                "free": Trajectory(rng.uniform(0, 10000, (140, 2)), 0),
                "delta": Trajectory(positions[: 9 * PERIOD].copy(), 0),
            }
        )
        fleet["delta"].update(positions[9 * PERIOD :], refit="delta")
        assert fleet["free"].pattern_count == 0
        save_fleet(fleet, tmp_path / "snap")
        loaded = load_fleet(tmp_path / "snap", mmap=mmap)
        assert fleet_fingerprints(loaded) == fleet_fingerprints(fleet)

    def test_kernel_primed_on_load(self, fitted_fleet, snapshots):
        kind = fitted_fleet.config.weight_function
        fleet = load_fleet(snapshots / "v2")
        for oid in fleet.object_ids():
            tree = fleet[oid].tree_
            assert tree is not None
            assert tree._score_kernels.get(kind) is not None

    def test_region_points_are_mmap_views(self, snapshots):
        fleet = load_fleet(snapshots / "v2", mmap=True)
        model = fleet[fleet.object_ids()[0]]
        points = np.asarray(model.regions_[0].points)
        base = points
        while isinstance(getattr(base, "base", None), np.ndarray):
            base = base.base
        assert isinstance(base, np.memmap)

    def test_subset_load(self, fitted_fleet, snapshots):
        wanted = fitted_fleet.object_ids()[:2]
        fleet = load_fleet(snapshots / "v2", object_ids=wanted)
        assert fleet.object_ids() == wanted
        with pytest.raises(ValueError, match="not in the snapshot manifest"):
            load_fleet(snapshots / "v2", object_ids=["nope"])

    def test_parallel_save_identical_to_serial(
        self, fitted_fleet, snapshots, tmp_path
    ):
        save_fleet(fitted_fleet, tmp_path / "par", max_workers=3)
        serial = sorted((snapshots / "v2").iterdir())
        parallel = sorted((tmp_path / "par").iterdir())
        assert [p.name for p in serial] == [p.name for p in parallel]
        for a, b in zip(serial, parallel):
            assert a.read_bytes() == b.read_bytes(), a.name

    def test_snapshot_stat(self, snapshots):
        stat = snapshot_stat(snapshots / "v2")
        assert stat["format_version"] == 2
        assert stat["objects"] == 3
        assert stat["kernel_objects"] == 3
        assert stat["total_block_bytes"] > 0


class TestCorruptionPaths:
    def _copy(self, snapshots, tmp_path):
        dest = tmp_path / "snap"
        shutil.copytree(snapshots / "v2", dest)
        return dest

    def test_unknown_format_version_rejected(self, snapshots, tmp_path):
        dest = self._copy(snapshots, tmp_path)
        manifest_path = dest / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["format_version"] = 99
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="unsupported fleet format 99"):
            load_fleet(dest)

    def test_v1_manifest_rejected_naming_the_format(self, snapshots, tmp_path):
        # The retired layout: one .npz per object behind a version-1 manifest.
        dest = tmp_path / "v1"
        dest.mkdir()
        (dest / "manifest.json").write_text(
            json.dumps(
                {
                    "format_version": 1,
                    "config": {},
                    "objects": {"obj0": "object_0000.npz"},
                }
            )
        )
        with pytest.raises(ValueError, match="format 1 .*per-object .npz"):
            load_fleet(dest)

    def test_truncated_block_rejected(self, snapshots, tmp_path):
        dest = self._copy(snapshots, tmp_path)
        block = dest / "block_pattern_rows.npy"
        block.write_bytes(block.read_bytes()[: block.stat().st_size // 2])
        with pytest.raises(ValueError, match="truncated or corrupt"):
            load_fleet(dest)

    def test_missing_block_rejected(self, snapshots, tmp_path):
        dest = self._copy(snapshots, tmp_path)
        (dest / "block_region_points.npy").unlink()
        with pytest.raises(ValueError, match="truncated or corrupt"):
            load_fleet(dest)

    def test_manifest_shape_mismatch_rejected(self, snapshots, tmp_path):
        dest = self._copy(snapshots, tmp_path)
        manifest_path = dest / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["blocks"]["history"][0] += 7
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="does not match"):
            load_fleet(dest)


def as_parent_written(snapshots, dest, **config):
    """Copy the snapshot and add what snapshots written before the
    velocity filter and the refit staleness budget were removed carry:
    their four config keys and a listed ``kernel_minspeed`` block."""
    shutil.copytree(snapshots / "v2", dest)
    manifest_path = dest / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    retired = dict(
        velocity_filter=False, velocity_bands=4, velocity_slack=2.0, refit_full_every=2
    )
    manifest["config"].update(retired, **config)
    rows = manifest["blocks"]["kernel_rows"][0]
    np.save(dest / "block_kernel_minspeed.npy", np.ones(rows, dtype="<f8"))
    manifest["blocks"]["kernel_minspeed"] = [rows]
    manifest_path.write_text(json.dumps(manifest, indent=2))
    return dest


class TestParentWrittenSnapshots:
    @pytest.mark.parametrize("mmap", [True, False])
    def test_loads_with_identical_fingerprints(
        self, fitted_fleet, snapshots, tmp_path, mmap
    ):
        parent = as_parent_written(snapshots, tmp_path / "parent")
        loaded = load_fleet(parent, mmap=mmap)
        assert fleet_fingerprints(loaded) == fleet_fingerprints(fitted_fleet)

    def test_survives_repack(self, fitted_fleet, snapshots, tmp_path):
        parent = as_parent_written(snapshots, tmp_path / "parent")
        repack_snapshot([parent], tmp_path / "repacked")
        manifest = json.loads((tmp_path / "repacked" / "manifest.json").read_text())
        assert "kernel_minspeed" not in manifest["blocks"]
        assert "velocity_bands" not in manifest["config"]
        loaded = load_fleet(tmp_path / "repacked")
        assert fleet_fingerprints(loaded) == fleet_fingerprints(fitted_fleet)

    def test_velocity_filter_on_is_refused(self, snapshots, tmp_path):
        parent = as_parent_written(
            snapshots, tmp_path / "parent", velocity_filter=True
        )
        with pytest.raises(ValueError, match="velocity_filter"):
            load_fleet(parent)
        with pytest.raises(ValueError, match="velocity_filter"):
            repack_snapshot([parent], tmp_path / "repacked")


class TestCopyOnWriteRefit:
    def test_mmap_blocks_are_readonly(self, snapshots):
        fleet = load_fleet(snapshots / "v2", mmap=True)
        model = fleet[fleet.object_ids()[0]]
        points = np.asarray(model.regions_[0].points)
        with pytest.raises((ValueError, RuntimeError)):
            points[0, 0] = 1.0

    def test_delta_refit_on_v2_model_matches_scratch(self, tmp_path):
        config = make_config()
        positions = make_route(12, seed=7)
        prefix, tail = positions[: 9 * PERIOD], positions[9 * PERIOD :]

        fleet = FleetPredictionModel(config)
        fleet.fit({"obj": Trajectory(prefix.copy(), 0)})
        save_fleet(fleet, tmp_path / "snap")

        reloaded = load_fleet(tmp_path / "snap", mmap=True)["obj"]
        reloaded.update(tail, refit="delta")

        oracle = HybridPredictionModel(config).fit(
            Trajectory(positions.copy(), 0)
        )
        assert model_fingerprint(reloaded) == model_fingerprint(oracle)
        q = queries(oracle)
        assert prediction_fingerprint(reloaded, q) == prediction_fingerprint(
            oracle, q
        )


class TestProperty:
    @settings(
        max_examples=4,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        num_blocks=st.integers(min_value=8, max_value=12),
        seed=st.integers(min_value=0, max_value=50),
    )
    def test_save_load_roundtrip_identity(
        self, tmp_path_factory, num_blocks, seed
    ):
        tmp_path = tmp_path_factory.mktemp("prop")
        fleet = FleetPredictionModel(make_config())
        fleet.fit({"obj": Trajectory(make_route(num_blocks, seed=seed), 0)})
        save_fleet(fleet, tmp_path / "snap")
        reference = fleet_fingerprints(fleet)
        for mmap in (True, False):
            loaded = load_fleet(tmp_path / "snap", mmap=mmap)
            assert fleet_fingerprints(loaded) == reference
