"""Shared serve-suite fixtures: a small fitted commuter fleet, a watchdog.

The commuter history mirrors ``examples/quickstart.py`` — a daily
east-then-north route with mild GPS noise — small enough to fit in
milliseconds but rich enough that FQP/BQP answer most queries.

Every serve test runs under a hang watchdog: a test that outlives
``HANG_BUDGET_S`` dumps every thread's stack to the terminal and ends
the run with a non-zero exit, instead of idling until the CI job's own
timeout kills it without a trace.
"""

from __future__ import annotations

import contextlib
import faulthandler
import os
import sys

import numpy as np
import pytest

from repro import FleetPredictionModel, HPMConfig, Trajectory

PERIOD = 24
#: seconds one serve test may take; the slowest takes a few seconds
HANG_BUDGET_S = 120.0


@pytest.fixture(scope="session")
def terminal_stderr(pytestconfig):
    """A descriptor for the real stderr, which output capture leaves alone."""
    capman = pytestconfig.pluginmanager.getplugin("capturemanager")
    suspended = (
        capman.global_and_fixture_disabled()
        if capman is not None
        else contextlib.nullcontext()
    )
    with suspended:
        fd = os.dup(sys.stderr.fileno())
    yield fd
    os.close(fd)


@pytest.fixture(autouse=True)
def hang_watchdog(terminal_stderr):
    """Dump every thread's stack and exit if the test hangs."""
    faulthandler.dump_traceback_later(
        HANG_BUDGET_S, exit=True, file=terminal_stderr
    )
    yield
    faulthandler.cancel_dump_traceback_later()


def commuter_base(period: int = PERIOD) -> np.ndarray:
    base = np.zeros((period, 2))
    for t in range(period):
        if t < period // 2:
            base[t] = [400.0 * t, 0.0]
        else:
            base[t] = [400.0 * (period // 2), 400.0 * (t - period // 2)]
    return base


def commuter_history(num_days: int = 40, period: int = PERIOD, seed: int = 7) -> Trajectory:
    rng = np.random.default_rng(seed)
    base = commuter_base(period)
    days = [base + rng.normal(0, 20.0, base.shape) for _ in range(num_days)]
    return Trajectory(np.vstack(days))


@pytest.fixture(scope="session")
def history() -> Trajectory:
    return commuter_history()


@pytest.fixture(scope="session")
def hpm_config() -> HPMConfig:
    return HPMConfig(
        period=PERIOD,
        eps=60.0,
        min_pts=4,
        min_confidence=0.3,
        distant_threshold=8,
        recent_window=4,
    )


@pytest.fixture
def fleet(history, hpm_config) -> FleetPredictionModel:
    fleet = FleetPredictionModel(hpm_config)
    fleet.fit({"default": history})
    return fleet
