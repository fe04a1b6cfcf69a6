"""Fan-out machinery for fleet-scale parallel work.

Offline training is embarrassingly parallel: one DBSCAN + Apriori pass
per object, no shared state until the fitted model is installed.  This
module owns the ``concurrent.futures`` plumbing that
:class:`~repro.core.fleet.FleetPredictionModel` (parallel ``fit``),
:func:`~repro.core.persistence.save_fleet` and
:func:`~repro.core.persistence.load_fleet` fan keyed tasks out over:

* ``"process"`` — a :class:`~concurrent.futures.ProcessPoolExecutor`;
  the task function must be a picklable module-level callable and every
  argument/result must survive a pickle round-trip.  This is the mode
  that actually beats the GIL for pure-Python mining work.
* ``"thread"`` — a :class:`~concurrent.futures.ThreadPoolExecutor`;
  works everywhere (no fork, closures allowed) and still overlaps any
  GIL-releasing work (numpy, compression, I/O).
* ``"serial"`` — run inline in submission order.  This is the reference
  behaviour the parallel modes must reproduce exactly; it is also the
  automatic fallback for one-task batches and ``max_workers <= 1``.

Tasks are failure-isolated: one raising task never poisons the pool or
masks the other results.  Failures are collected per key and returned
alongside the successes so the caller decides the error policy
(:class:`~repro.core.fleet.FleetFitError` collects them for training).
"""

from __future__ import annotations

from concurrent.futures import (
    Executor,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
    as_completed,
)
from typing import Any, Callable, Iterable, Sequence

__all__ = ["EXECUTOR_KINDS", "run_keyed_tasks"]

EXECUTOR_KINDS = ("process", "thread", "serial")

ProgressHook = Callable[[Any, int, int], None]


def _effective_workers(max_workers: int | None, num_tasks: int) -> int:
    """Worker count actually worth spinning up for ``num_tasks`` tasks."""
    if max_workers is None:
        return 1
    if max_workers < 1:
        raise ValueError(f"max_workers must be >= 1, got {max_workers}")
    return min(max_workers, num_tasks)


def _make_pool(executor: str, workers: int) -> Executor:
    if executor == "process":
        return ProcessPoolExecutor(max_workers=workers)
    return ThreadPoolExecutor(max_workers=workers)


def run_keyed_tasks(
    fn: Callable[..., Any],
    jobs: Iterable[tuple[Any, Sequence[Any]]],
    *,
    max_workers: int | None = None,
    executor: str = "process",
    progress: ProgressHook | None = None,
) -> tuple[dict[Any, Any], dict[Any, BaseException]]:
    """Run ``fn(*args)`` for every ``(key, args)`` job; collect by key.

    Returns ``(results, failures)``.  ``results`` preserves the job
    submission order regardless of completion order, so downstream
    installs are deterministic; ``failures`` maps each failed key to the
    exception its task raised.  ``progress`` (if given) is called as
    ``progress(key, completed_so_far, total)`` after every task settles,
    successful or not.
    """
    if executor not in EXECUTOR_KINDS:
        raise ValueError(
            f"executor must be one of {EXECUTOR_KINDS}, got {executor!r}"
        )
    jobs = list(jobs)
    total = len(jobs)
    results: dict[Any, Any] = {}
    failures: dict[Any, BaseException] = {}
    workers = _effective_workers(max_workers, total)

    if executor == "serial" or workers <= 1 or total <= 1:
        for done, (key, args) in enumerate(jobs, 1):
            try:
                results[key] = fn(*args)
            except Exception as exc:
                failures[key] = exc
            if progress is not None:
                progress(key, done, total)
        return results, failures

    with _make_pool(executor, workers) as pool:
        pending = {pool.submit(fn, *args): key for key, args in jobs}
        done = 0
        for future in as_completed(pending):
            key = pending[future]
            done += 1
            try:
                results[key] = future.result()
            except Exception as exc:
                failures[key] = exc
            if progress is not None:
                progress(key, done, total)

    ordered = {key: results[key] for key, _ in jobs if key in results}
    return ordered, failures
