"""The bench regression check: baseline-true flags gate, timings warn."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[2] / "tools" / "check_bench_regression.py"


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("check_bench_regression", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


BASELINE = {
    "identical_predictions": True,
    "kill_drill": {"worker_recovered": True},
    "gates": {"goodput_ok": True, "shed_before_timeout": False},
    "predict": {"latency_p50_ms": 2.0, "speedup": 3.0},
}


def run(tool, tmp_path, current, *flags):
    baseline = tmp_path / "baseline.json"
    baseline.write_text(json.dumps(BASELINE))
    path = tmp_path / "BENCH_x.json"
    path.write_text(json.dumps(current))
    return tool.main([str(path), "--baseline", str(baseline), *flags])


def with_changes(**paths):
    current = json.loads(json.dumps(BASELINE))
    for dotted, value in paths.items():
        node = current
        *parents, leaf = dotted.split("__")
        for key in parents:
            node = node[key]
        node[leaf] = value
    return current


def test_unchanged_report_passes(tool, tmp_path):
    assert run(tool, tmp_path, BASELINE) == 0


def test_flipped_identity_flag_fails_without_fail_flag(tool, tmp_path, capsys):
    current = with_changes(identical_predictions=False)
    assert run(tool, tmp_path, current) == 1
    assert "identical_predictions: flipped true -> false" in capsys.readouterr().out


@pytest.mark.parametrize(
    "change", ["kill_drill__worker_recovered", "gates__goodput_ok"]
)
def test_any_baseline_true_flag_must_hold(tool, tmp_path, change):
    assert run(tool, tmp_path, with_changes(**{change: False})) == 1


def test_baseline_false_flag_may_change(tool, tmp_path):
    current = with_changes(gates__shed_before_timeout=True)
    assert run(tool, tmp_path, current) == 0


def test_latency_drift_only_warns(tool, tmp_path, capsys):
    current = with_changes(predict__latency_p50_ms=20.0)
    assert run(tool, tmp_path, current) == 0
    assert "warning" in capsys.readouterr().out
    assert run(tool, tmp_path, current, "--fail") == 1
