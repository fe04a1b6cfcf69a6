"""The serving benchmark: one command, socket to kernel.

Usage (from the repository root): ``BENCHMARK.json``'s ``command``, which
fixes the open-loop rates and the goodput latency limit, followed by
``--workload NAME --seed N --seconds S --trace 0|1``.

Each run generates its requests from ``--seed`` against a fixed 8-object
fleet fixture (two objects per paper scenario, see ``inputs.py``).  It
sets up three times — fit and snapshot in a child process, then the
real server in its own process (``repro serve``, or ``repro shard-serve
--shards 2`` for ``router_miss``) until ``/healthz`` is healthy — and
reports the median as ``setup_s``.  It drives the servers in turn from
this single process over two keep-alive connections and checks every
answer, untimed:

* ``predict_miss`` / ``router_miss``: every body is byte-identical to
  ``render_predict_body(fleet.predict(...))`` on the loaded snapshot,
  no answer is a cache hit, and ``serve_cache_hits_total`` stays 0.
* after the run's ingest traffic drains (every object's pending fixes
  folded in), a fixed query grid answers byte-identically to a model
  freshly fitted on the concatenated history.

Phases (``--seconds`` is split between the timed ones by ``SPLIT``): on
each server an untimed warm-up of fixed size, then closed-loop parts
(capacity, ``predict_rps``) and open-loop parts at a fixed rate
(latency from the due time, ``goodput``) in turn, ``CYCLES`` of each
over the run.  Each server then takes an ingest-only open loop,
polling ``/objects`` between posts for refit lag; it comes after the
predicts because refits change answers.  The last server's ingested
fixes are drained and checked.  ``predict_miss`` sends unique queries to
one process, ``router_miss`` the same queries through the shard router.

``--trace 1`` runs the workload twice, each on a fresh server: untraced,
then with span recorders installed into every server process
(``perfbench/trace_site``), and reports the per-layer metrics, the
tracing overhead and the unbounded end-to-end figures.  The last stdout
line is the result object; the line before it is a report with the
phase breakdown, the host and every parameter.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import gc
from collections import deque
import json
import os
import platform
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("predict_miss", "router_miss")
SETUP_REPEATS = 3
WARMUP_QUERIES = 200
#: closed/open alternations in the timed span (a multiple of SETUP_REPEATS)
CYCLES = 9
#: polls of /objects between ingest posts, at most this often, and only
#: while the next post is due later than a poll takes (the median of the
#: last POLL_HISTORY polls) plus the guard
POLL_INTERVAL_S = 0.003
POLL_GUARD_S = 0.002
POLL_HISTORY = 16
DRAIN_TIMEOUT_S = 60.0
#: time split of --seconds between the timed phases
SPLIT = {"closed": 0.22, "open": 0.42, "ingest": 0.36}

#: end-to-end metrics of an untraced run, with their units
END_TO_END = {
    "setup_s": "s", "predict_rps": "1/s", "predict_p50_ms": "ms",
    "goodput": "share", "ingest_p50_ms": "ms", "server_rss_mb": "MB",
}
#: end-to-end figures that do not repeat within any allowed bound from
#: run to run on a host whose speed drifts by a quarter: the p99s (a
#: handful of samples beyond them per run) and the refit lag (a median of
#: 8 to 24 refits, each CPU-bound).  They are in the report line, and among a
#: traced run's metrics (from its untraced pass) as ``e2e.<name>``.
UNBOUNDED = ("predict_p99_ms", "ingest_p99_ms", "refit_lag_ms")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--predict-rate", type=float, required=True,
                        help="open-loop /predict requests/s")
    parser.add_argument("--ingest-rate", type=float, required=True,
                        help="open-loop /ingest posts/s")
    parser.add_argument("--latency-limit-ms", type=float, required=True,
                        help="goodput latency limit for open-loop predicts")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    # On SIGTERM, unwind through the finally blocks that stop the servers.
    signal.signal(signal.SIGTERM, lambda signum, _frame: sys.exit(128 + signum))
    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    (work / "tmp").mkdir(parents=True)
    os.environ["TMPDIR"] = str(work / "tmp")
    try:
        result, report = asyncio.run(Bench(args, work).run())
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()
    print(json.dumps(report, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


class CheckFailed(Exception):
    pass


class Bench:
    def __init__(self, args, work: Path):
        import numpy as np

        import inputs

        started = time.perf_counter()
        self.args = args
        self.work = work
        self.kind = "router" if args.workload == "router_miss" else "single"
        self.inputs = inputs.make_fleet_inputs()
        rng = np.random.default_rng(args.seed)
        self.queries = inputs.unique_queries(self.inputs, 5_000, rng)
        self.ingest_order = [str(o) for o in rng.permutation(self.inputs.object_ids())]
        self.repeats = 1 if args.trace else SETUP_REPEATS
        # One fix per post, round-robin: a refit falls due every
        # ``update_after`` rounds, so each object refits once on each
        # server whatever the seed.
        rounds = (args.ingest_rate * self.ingest_s(args.seconds)
                  / len(self.ingest_order))
        self.update_after = int(rounds)
        if self.update_after < len(self.ingest_order):
            raise SystemExit("ingest rate too low: fewer rounds than objects")
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.histories = work / "histories.npz"
        np.savez(self.histories, **self.inputs.histories)
        self.wall_s = {"inputs": time.perf_counter() - started}

    def ingest_s(self, seconds: float) -> float:
        """Length of one server's ingest part."""
        return seconds * SPLIT["ingest"] / self.repeats

    # ------------------------------------------------------------------
    async def run(self):
        args = self.args
        report = {
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "host": {"cpus": os.cpu_count(), "python": platform.python_version(),
                     "platform": platform.platform()},
            "params": {
                "predict_rate": args.predict_rate, "ingest_rate": args.ingest_rate,
                "latency_limit_ms": args.latency_limit_ms,
                "update_after": self.update_after, "fixes_per_post": 1,
                "setup_repeats": self.repeats,
                "warmup_queries": WARMUP_QUERIES, "split": SPLIT,
                "objects": len(self.inputs.histories), "server": self.kind,
            },
        }
        passes = [None, self.work / "trace"] if args.trace else [None]
        outcomes = []
        for trace_dir in passes:
            try:
                outcomes.append(await self.one_pass(trace_dir))
            except CheckFailed as exc:
                self.errors.append(str(exc))
                break
        correct = not self.errors and len(outcomes) == len(passes)
        report["passes"] = [o["report"] for o in outcomes]
        report["errors"] = self.errors
        report["wall_s"] = self.wall_s
        metrics = {}
        if correct:
            untraced = outcomes[0]
            if args.trace:
                traced = outcomes[1]
                metrics = dict(traced["layers"])
                metrics["trace.untraced_predict_p50_ms"] = untraced["e2e"]["predict_p50_ms"]
                metrics["trace.traced_predict_p50_ms"] = traced["e2e"]["predict_p50_ms"]
                metrics["trace.overhead_share"] = (
                    traced["e2e"]["predict_p50_ms"] / untraced["e2e"]["predict_p50_ms"] - 1.0
                )
                for name in UNBOUNDED:
                    metrics[f"e2e.{name}"] = untraced["e2e"][name]
                metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in metrics.items()}
            else:
                metrics = {
                    k: {"value": untraced["e2e"][k], "unit": unit}
                    for k, unit in END_TO_END.items()
                }
        report["failed_share"] = self.failed / max(self.attempted, 1)
        result = {
            "correct": correct,
            "attempted": max(self.attempted, 1),
            "failed": self.failed,
            "metrics": metrics,
        }
        return result, report

    # ------------------------------------------------------------------
    async def one_pass(self, trace_dir: Path | None) -> dict:
        """Set up fresh servers in turn; drive each, stop it, check.

        The timed parts are spread over all the servers set up, so they
        sample the whole run (the host's speed drifts over seconds), and
        the last one adds the ingest figures.
        """
        from repro.core.persistence import load_fleet
        from servers import ServerRestarted, server_env

        repeats = self.repeats
        env = server_env(ROOT, self.work / "tmp", trace_dir)
        if trace_dir is not None:
            trace_dir.mkdir()
        traffic = Traffic(self)
        traffic.closed_s = self.args.seconds * SPLIT["closed"] / CYCLES
        traffic.open_s = self.args.seconds * SPLIT["open"] / CYCLES
        setups = []
        fleet = None
        marks = [time.perf_counter()]
        for rep in range(repeats):
            snapshot, server, timing = await self.setup(rep, env)
            setups.append(timing)
            last = rep == repeats - 1
            try:
                if fleet is None:
                    # The reference model: the snapshot the server loaded
                    # (every set-up fits the same fleet).
                    fleet = load_fleet(snapshot, mmap=False)
                await traffic.serve(server, CYCLES // repeats, last)
                if last:
                    try:
                        rss_mb = server.peak_rss_mb()
                    except ServerRestarted as exc:
                        raise CheckFailed(str(exc)) from None
            finally:
                code = server.stop()
            if code != 0:
                raise CheckFailed(f"server exited with {code}:\n{server.log_tail()}")
        marks.append(time.perf_counter())
        outcome = traffic.outcome()
        outcome["e2e"]["server_rss_mb"] = rss_mb
        outcome["e2e"]["setup_s"] = statistics.median(t["setup_s"] for t in setups)
        outcome["report"]["setups"] = setups
        self.check_predict_bodies(fleet, outcome)
        if trace_dir is not None:
            outcome["layers"] = self.layer_metrics(trace_dir, outcome, setups[-1])
        marks.append(time.perf_counter())
        pass_name = "untraced" if trace_dir is None else "traced"
        for step, (lo, hi) in zip(("serve", "check"), zip(marks, marks[1:])):
            self.wall_s[f"{pass_name}.{step}"] = hi - lo
        outcome["report"]["e2e"] = outcome["e2e"]
        return outcome

    async def setup(self, rep: int, env):
        """Histories → fit → snapshot → server answering /healthz.

        Fit and save run in a child process (``fit_fleet.py``), so their
        time does not depend on this process's heap.
        """
        import subprocess

        from servers import ServerProcess, server_command

        snapshot = self.work / f"snapshot-{rep}"
        run_dir = self.work / f"run-{rep}"
        shutil.rmtree(snapshot, ignore_errors=True)
        shutil.rmtree(run_dir, ignore_errors=True)
        run_dir.mkdir()
        timings = run_dir / "fit.json"
        fit_env = {k: v for k, v in env.items() if k != "PERFBENCH_TRACE_DIR"}
        started = time.perf_counter()
        fit = subprocess.run(
            [sys.executable, str(HERE / "fit_fleet.py"), str(self.histories),
             str(snapshot), str(timings)],
            env=fit_env, cwd=ROOT, capture_output=True, text=True,
        )
        if fit.returncode != 0:
            raise RuntimeError(f"fleet fit failed:\n{fit.stderr[-2000:]}")
        saved = time.perf_counter()
        server = ServerProcess(
            server_command(self.kind, snapshot, run_dir, self.update_after),
            env, run_dir / "server.log", ROOT,
        )
        try:
            await server.wait_ready(2 if self.kind == "router" else None)
        except BaseException:
            server.stop()
            raise
        ready = time.perf_counter()
        timing = json.loads(timings.read_text())
        timing.update({
            "setup_s": ready - started, "fit_process_s": saved - started,
            "ready_s": ready - saved,
            "snapshot_bytes": sum(
                p.stat().st_size for p in snapshot.rglob("*") if p.is_file()
            ),
        })
        return snapshot, server, timing

    def check_answers(self, phase) -> None:
        """Status and identity of every predict answer (untimed)."""
        for record in phase.records:
            if not record.ok:
                continue
            query = self.queries[record.index]
            answer = json.loads(record.body)
            if (answer.get("object_id"), answer.get("query_time")) != (
                    query.object_id, query.query_time):
                raise CheckFailed(f"answer for the wrong query: {record.body[:160]!r}")
            if record.headers.get("x-cache") != "miss":
                raise CheckFailed(f"X-Cache {record.headers.get('x-cache')!r} on a unique query")

    def check_predict_bodies(self, fleet, outcome) -> None:
        """predict_miss/router_miss bodies == in-process render (untimed).

        The same loop times in-process ``fleet.predict`` per query: the
        model floor the served latency is read against.
        """
        from repro.serve.handlers import render_predict_body
        from repro.trajectory.point import TimedPoint

        timings = []
        seen = set()
        for name in ("warmup", "closed", "open"):
            for record in outcome["phases"][name].records:
                query = self.queries[record.index]
                if query in seen:
                    continue
                seen.add(query)
                window = [TimedPoint(t, x, y) for t, x, y in query.recent]
                t0 = time.perf_counter()
                predictions = fleet.predict(query.object_id, window, query.query_time)
                timings.append(time.perf_counter() - t0)
                if not record.ok or record.headers.get("x-degraded") == "true":
                    continue
                expected = render_predict_body(query.object_id, query.query_time, predictions)
                if record.body != expected:
                    raise CheckFailed(
                        f"{name} answer differs from the in-process model: "
                        f"{record.body[:160]!r} != {expected[:160]!r}"
                    )
        outcome["model_predict_p50_us"] = statistics.median(timings) * 1e6

    def layer_metrics(self, trace_dir: Path, outcome: dict, setup: dict) -> dict:
        from layers import load_processes, load_seconds, per_layer

        processes = load_processes(trace_dir, outcome["windows"])
        metrics = per_layer(processes, outcome["counters"], outcome["path_counts"])
        metrics.update({
            "core.fleet.fit_s": setup["fit_s"],
            "core.fleet.fit_cluster_s": setup["fit_cluster_s"],
            "core.fleet.fit_mine_s": setup["fit_mine_s"],
            "core.fleet.fit_index_s": setup["fit_index_s"],
            "core.persistence.save_s": setup["save_s"],
            "core.persistence.load_s": load_seconds(trace_dir),
            "core.persistence.snapshot_bytes": float(setup["snapshot_bytes"]),
            "serve.startup.ready_s": setup["ready_s"],
            "core.model.predict_p50_us": outcome["model_predict_p50_us"],
            "loadgen.late_p99_ms": outcome["report"]["phases"]["open"]["late_p99_ms"],
        })
        return metrics


class Traffic:
    """One pass's requests, over one or more servers in turn."""

    def __init__(self, bench: Bench):
        self.bench = bench
        bodies = {}
        self.predict = [
            ("POST", "/predict", bodies.get(q) or bodies.setdefault(q, q.body()))
            for q in bench.queries
        ]
        self.used = 0
        self.parts = {"warmup": [], "closed": [], "open": [], "ingest": []}
        self.windows: list[tuple[float, float]] = []
        self.counters: dict[str, float] = {}
        self.path_counts: dict[str, float] | None = None
        self.lags_ms: list[float] = []
        self.polls: list = []
        self.ingested_fixes = 0
        self.after: dict = {}
        self.closed_s = self.open_s = 0.0  # length of one closed / open part

    def take(self, part) -> None:
        """Make a part's record indices absolute in the query list."""
        for record in part.records:
            record.index += self.used
        self.used += max((r.index - self.used for r in part.records), default=-1) + 1

    async def serve(self, server, parts: int, last: bool) -> None:
        """Warm-up, ``parts`` closed and open parts in turn, an ingest
        part, then (``last``) drain and grid check."""
        from loadgen import Connection, PhaseResult, closed_loop, open_loop
        from servers import scrape_counters

        args = self.bench.args
        conns = [Connection("127.0.0.1", server.port) for _ in range(2)]
        gc.collect()
        gc.disable()
        try:
            before = await scrape_counters(server.port)
            part = await closed_loop(conns, self.predict[self.used:][:WARMUP_QUERIES])
            self.take(part)
            self.parts["warmup"].append(part)
            after = await scrape_counters(server.port)
            if self.path_counts is None:
                self.path_counts = {
                    p: after.get(f"predict_path_total_{p}", 0.0)
                    - before.get(f"predict_path_total_{p}", 0.0)
                    for p in ("fqp", "bqp", "motion")
                }
            start = time.perf_counter()
            # Alternate closed and open loop, so that both sample the whole
            # timed span: the host's speed drifts over seconds.
            for _ in range(parts):
                part = await closed_loop(conns, self.predict[self.used:], self.closed_s)
                self.take(part)
                self.parts["closed"].append(part)
                part = await open_loop(conns, self.predict[self.used:], args.predict_rate,
                                       self.open_s)
                self.take(part)
                self.parts["open"].append(part)
            # Refits change answers: the byte-checked predicts come first.
            # Every server takes an ingest part, so that ingest latency too
            # samples the whole run.
            ingest = Ingest(self.bench)
            await ingest.prefill(conns[0])
            self.parts["ingest"].append(
                await ingest.phase(conns[0], self.bench.ingest_s(args.seconds))
            )
            self.lags_ms += ingest.lags_ms
            self.polls += ingest.poll_records
            self.ingested_fixes += sum(ingest.acked.values())
            self.windows.append((start, time.perf_counter()))
            end = await scrape_counters(server.port)
            gc.enable()
            if end.get("serve_cache_hits_total", 0.0):
                raise CheckFailed(
                    f"{end['serve_cache_hits_total']:.0f} cache hits on {args.workload}"
                )
            # Counters over the timed span only: from after the warm-up.
            for name, value in end.items():
                self.counters[name] = (
                    self.counters.get(name, 0.0) + value - after.get(name, 0.0)
                )
            if last:
                self.after["polls"] = PhaseResult("polls", self.polls, 0.0)
                self.after["drain"] = await ingest.drain(conns[0])
                self.after["grid"] = await ingest.check_grid(conns[0])
        finally:
            gc.enable()
            for conn in conns:
                await conn.close()

    def outcome(self) -> dict:
        """End-to-end figures and the report, after the last server."""
        from loadgen import merged, percentile

        bench = self.bench
        phases = {name: merged(name, parts) for name, parts in self.parts.items()}
        phases.update(self.after)
        for phase in phases.values():
            bench.attempted += phase.sent
            bench.failed += phase.failed
        for name in ("warmup", "closed", "open"):
            bench.check_answers(phases[name])
        opened = phases["open"]
        ok_open = [r for r in opened.records if r.ok]
        good = sum(
            1 for r in ok_open
            if r.headers.get("x-degraded") != "true"
            and r.latency_ms <= bench.args.latency_limit_ms
        )
        ok_ingest = [r.latency_ms for r in phases["ingest"].records if r.ok]
        lags = self.lags_ms
        e2e = {
            # Median over the cycles: one slow stretch of the host moves it less.
            "predict_rps": statistics.median(
                sum(1 for r in part.records if r.ok) / part.elapsed_s
                for part in self.parts["closed"]
            ),
            "predict_p50_ms": percentile([r.latency_ms for r in ok_open], 50),
            "predict_p99_ms": percentile([r.latency_ms for r in ok_open], 99),
            "goodput": good / max(opened.sent, 1),
            "ingest_p50_ms": percentile(ok_ingest, 50),
            "ingest_p99_ms": percentile(ok_ingest, 99),
            "refit_lag_ms": percentile(lags, 50),
        }
        report = {
            "phases": {name: p.summary() for name, p in phases.items()},
            "path_counts": self.path_counts,
            "refit_lag_samples": len(lags),
            "cache_hits": self.counters.get("serve_cache_hits_total", 0.0),
            "ingested_fixes": self.ingested_fixes,
        }
        return {
            "e2e": e2e, "report": report, "phases": phases,
            "counters": self.counters, "path_counts": self.path_counts,
            "windows": self.windows,
        }


class Ingest:
    """The ingest connection: posts, refit-lag polls, drain, final check.

    Posts carry one fix each and go round-robin over the objects in a
    seeded order.  A prefill (untimed) first gives the object at position
    ``j`` ``j * update_after / objects`` fixes, so refits fall due one at
    a time at a steady pace instead of all objects together.
    """

    def __init__(self, bench: Bench):
        import inputs

        self.bench = bench
        self.fixes = inputs.continuation_fixes(bench.inputs)
        self.order = bench.ingest_order
        self.cursor = {oid: 0 for oid in self.order}
        self.acked = {oid: 0 for oid in self.order}
        self.outstanding: list[tuple[str, int, float, bool]] = []
        self.lags_ms: list[float] = []
        self.poll_records: list = []
        self.last_poll = 0.0
        self.poll_times: deque = deque([0.0], maxlen=POLL_HISTORY)

    def take(self, object_id: str, count: int) -> list:
        start = self.cursor[object_id]
        if start + count > len(self.fixes[object_id]):
            raise RuntimeError(f"ingest stream of {object_id} ran out of fixes")
        self.cursor[object_id] = start + count
        return self.fixes[object_id][start:start + count]

    def body(self, object_id: str, fixes) -> bytes:
        return json.dumps({"object_id": object_id, "fixes": fixes},
                          separators=(",", ":")).encode()

    async def post(self, conn, object_id: str, count: int, records: list) -> None:
        """One untimed post of the object's next ``count`` fixes."""
        from loadgen import Record, TransportError, now

        fixes = self.take(object_id, count)
        t0 = now()
        try:
            status, _, body = await conn.request(
                "POST", "/ingest", self.body(object_id, fixes))
        except TransportError:
            status, body = 0, b""
        done = now()
        records.append(Record(len(records), status, (done - t0) * 1e3))
        if status == 200:
            self.on_ack(object_id, len(fixes), body, done, False)

    async def prefill(self, conn):
        from loadgen import PhaseResult

        records = []
        step = self.bench.update_after // len(self.order)
        for position, object_id in enumerate(self.order):
            if position * step:
                await self.post(conn, object_id, position * step, records)
        self.bench.attempted += len(records)
        self.bench.failed += sum(1 for r in records if not r.ok)

    def on_ack(self, object_id: str, fixes: int, body: bytes, done: float,
               timed: bool) -> None:
        self.acked[object_id] += fixes
        if json.loads(body).get("refit_scheduled"):
            self.outstanding.append((object_id, self.acked[object_id], done, timed))

    async def get(self, conn, path: str):
        from loadgen import Record, TransportError, now

        t0 = now()
        try:
            status, _, body = await conn.request("GET", path)
        except TransportError:
            status, body = 0, b""
        done = now()
        self.poll_records.append(Record(len(self.poll_records), status, (done - t0) * 1e3))
        return (body if status == 200 else None), done

    async def poll(self, conn, settle: bool = False):
        """Resolve refit lags; returns (pending by object, fixes in flight).

        ``/objects`` shows which fixes a refit has *claimed* (they leave
        ``pending`` when the flush starts).  They are *folded in* once
        committed, which only the global ``serve_refit_fixes_total``
        counter shows, so ``/metrics`` is read when a claim is in sight:
        an object's fixes up to ``target`` are committed once its claimed
        count, less every fix still in flight anywhere, reaches ``target``.
        """
        from loadgen import now

        started = now()
        try:
            return await self._poll(conn, settle)
        finally:
            self.poll_times.append(self.last_poll - started)

    async def _poll(self, conn, settle: bool):
        from servers import parse_counters

        body, done = await self.get(conn, "/objects")
        self.last_poll = done
        if body is None:
            return None, None
        pending = {row["object_id"]: row["pending"] for row in json.loads(body)["objects"]}
        claimed = {oid: self.acked[oid] - pending[oid] for oid in pending}
        if not settle and not any(
            claimed[oid] >= target for oid, target, *_ in self.outstanding
        ):
            return pending, None
        body, done = await self.get(conn, "/metrics")
        self.last_poll = done
        if body is None:
            return None, None
        folded = parse_counters(body).get("serve_refit_fixes_total", 0.0)
        in_flight = sum(claimed.values()) - folded
        still = []
        for object_id, target, acked_at, timed in self.outstanding:
            if claimed[object_id] - in_flight >= target:
                if timed:
                    self.lags_ms.append((done - acked_at) * 1e3)
            else:
                still.append((object_id, target, acked_at, timed))
        self.outstanding = still
        return pending, in_flight

    async def phase(self, conn, seconds: float):
        """Open-loop posts; polls /objects between them for refit lag."""
        from loadgen import now, open_loop

        rate = self.bench.args.ingest_rate
        count = int(rate * seconds)
        posts = []
        for k in range(count):
            object_id = self.order[k % len(self.order)]
            posts.append((object_id, self.take(object_id, 1)))
        requests = [("POST", "/ingest", self.body(o, f)) for o, f in posts]

        async def between(c, due):
            # One slow poll must not stop polling for the rest of the phase:
            # its cost is a median over the recent polls.
            cost = statistics.median(self.poll_times)
            while self.outstanding and due - now() > cost + POLL_GUARD_S:
                wait = self.last_poll + POLL_INTERVAL_S - now()
                if wait > 0:
                    await asyncio.sleep(wait)
                await self.poll(c)

        def on_response(record, done):
            if record.ok:
                object_id, fixes = posts[record.index]
                self.on_ack(object_id, len(fixes), record.body, done, True)

        result = await open_loop([conn], requests, rate, seconds, between=between,
                                 on_response=on_response, count=count)
        # Finish timing the refits this part made due before moving on.
        started = now()
        while self.outstanding:
            if now() - started > DRAIN_TIMEOUT_S:
                raise CheckFailed("a scheduled refit never completed")
            await between(conn, now() + 1.0)
        return result

    async def drain(self, conn):
        """Until every object's pending fixes are folded in (untimed).

        An object left with fewer pending fixes than ``update_after`` and
        no refit on its way gets topped up to exactly ``update_after``.
        """
        from loadgen import PhaseResult, now

        self.poll_records = []
        records = []
        started = now()
        while True:
            if now() - started > DRAIN_TIMEOUT_S:
                raise CheckFailed("ingested fixes were never folded in")
            pending, in_flight = await self.poll(conn, settle=True)
            if pending is None:
                await asyncio.sleep(0.05)
                continue
            if not self.outstanding and not any(pending.values()) and not in_flight:
                break
            waiting = {o for o, *_ in self.outstanding}
            for object_id, count in sorted(pending.items()):
                if 0 < count < self.bench.update_after and object_id not in waiting:
                    await self.post(conn, object_id, self.bench.update_after - count,
                                    records)
            await asyncio.sleep(0.02)
        return PhaseResult("drain", records + self.poll_records, now() - started)

    async def check_grid(self, conn):
        """Drained server == fresh fit on the concatenated history."""
        import numpy as np

        import inputs
        from loadgen import PhaseResult, Record, TransportError, now
        from repro import FleetPredictionModel
        from repro.serve.handlers import render_predict_body
        from repro.trajectory.point import TimedPoint

        histories = {
            oid: np.vstack([rows, self.bench.inputs.continuations[oid][: self.acked[oid]]])
            for oid, rows in self.bench.inputs.histories.items()
        }
        # The scan backend is the kernel's oracle (identical answers); it
        # skips building score kernels for a handful of queries.
        fresh = FleetPredictionModel(inputs.hpm_config(query_backend="scan"))
        fresh.fit(inputs.trajectories(histories))
        records = []
        started = now()
        for query in inputs.grid_queries(histories):
            t0 = now()
            try:
                status, _, body = await conn.request("POST", "/predict", query.body())
            except TransportError:
                status, body = 0, b""
            records.append(Record(len(records), status, (now() - t0) * 1e3))
            window = [TimedPoint(t, x, y) for t, x, y in query.recent]
            expected = render_predict_body(
                query.object_id, query.query_time,
                fresh.predict(query.object_id, window, query.query_time),
            )
            if body != expected:
                raise CheckFailed(
                    f"drained server differs from a fresh fit: {body[:160]!r} "
                    f"!= {expected[:160]!r}"
                )
        return PhaseResult("grid", records, now() - started)


def layer_unit(name: str) -> str:
    for suffix, unit in (("_ms", "ms"), ("_us", "us"), ("_s", "s"),
                         ("_bytes", "bytes"), ("_us_per_req", "us"),
                         ("us_per_request", "us")):
        if name.endswith(suffix):
            return unit
    if name.endswith(("share", "ratio")) or ".path_share." in name:
        return "share"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
