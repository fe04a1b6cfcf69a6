"""Start, probe and stop the real server processes.

The benchmark never imports the serving stack into its own process for
measurement: it runs ``python -m repro serve`` (one process) or
``python -m repro shard-serve`` (a router plus shard workers) and talks
to it over a socket, as a client would.
"""

from __future__ import annotations

import asyncio
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

from loadgen import Connection, TransportError

_PORT_LINE = re.compile(rb"http://[0-9.]+:(\d+)")
READY_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 20.0


class ServerRestarted(RuntimeError):
    """A child of the server was replaced after the server became ready."""


class ServerProcess:
    """One server deployment: the process we spawned and its children."""

    def __init__(self, command, env, log_path: Path, cwd: Path):
        self.log_path = log_path
        self._log = open(log_path, "wb")
        self.process = subprocess.Popen(
            command, stdout=self._log, stderr=subprocess.STDOUT, env=env,
            cwd=cwd,
        )
        self.port: int | None = None
        self.child_pids: list[int] = []

    def log_tail(self, lines: int = 30) -> str:
        try:
            text = self.log_path.read_bytes().decode("utf-8", "replace")
        except OSError:
            return ""
        return "\n".join(text.splitlines()[-lines:])

    async def wait_ready(self, shards: int | None) -> None:
        """Until ``/healthz`` answers and, for a router, every shard is up."""
        deadline = time.monotonic() + READY_TIMEOUT_S
        while self.port is None:
            if self.process.poll() is not None:
                raise RuntimeError(f"server exited early:\n{self.log_tail()}")
            match = _PORT_LINE.search(self.log_path.read_bytes())
            if match:
                self.port = int(match.group(1))
                break
            if time.monotonic() > deadline:
                raise RuntimeError(f"server never bound a port:\n{self.log_tail()}")
            await asyncio.sleep(0.005)
        conn = Connection("127.0.0.1", self.port)
        try:
            while True:
                try:
                    status, _, body = await conn.request("GET", "/healthz")
                    if status == 200 and (
                        shards is None
                        or f'"healthy":{shards},"total":{shards}'.encode() in body
                    ):
                        break
                except TransportError:
                    pass
                if time.monotonic() > deadline:
                    raise RuntimeError(f"server never became healthy:\n{self.log_tail()}")
                await asyncio.sleep(0.005)
        finally:
            await conn.close()
        self.child_pids = _children(self.process.pid)

    def peak_rss_mb(self) -> float:
        """VmHWM summed over the server and every child it runs now.

        Read from each process's own ``/proc/<pid>/status``; ``ru_maxrss``
        of a child would carry the parent's peak across fork+exec.  The
        children are listed again here: if any differ from those at ready
        (a supervisor restarted a worker), the replacement's peak covers
        only part of the run, so this raises ``ServerRestarted``.
        """
        current = _children(self.process.pid)
        if sorted(current) != sorted(self.child_pids):
            raise ServerRestarted(
                f"server children changed during the run: {sorted(self.child_pids)} "
                f"-> {sorted(current)}:\n{self.log_tail()}"
            )
        total_kb = 0
        for pid in [self.process.pid, *current]:
            try:
                with open(f"/proc/{pid}/status") as handle:
                    for line in handle:
                        if line.startswith("VmHWM:"):
                            total_kb += int(line.split()[1])
                            break
            except FileNotFoundError:
                raise ServerRestarted(f"server process {pid} exited during the run") from None
        return total_kb / 1024.0

    def stop(self) -> int:
        """SIGTERM (graceful drain), then SIGKILL stragglers; reap all."""
        if self.process.poll() is None:
            # Children started after ready (restarted workers) too.
            self.child_pids = sorted({*self.child_pids, *_children(self.process.pid)})
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        # Shard workers run in their own sessions: make sure none
        # outlives its router.
        for pid in self.child_pids:
            _kill_and_reap(pid)
        self._log.close()
        return self.process.returncode


def _children(pid: int) -> list[int]:
    found = []
    try:
        tasks = list(Path(f"/proc/{pid}/task").iterdir())
    except OSError:
        return found
    for task in tasks:
        try:
            found.extend(int(p) for p in (task / "children").read_text().split())
        except OSError:
            continue
    return found


def _kill_and_reap(pid: int) -> None:
    deadline = time.monotonic() + STOP_TIMEOUT_S
    while _alive(pid):
        if time.monotonic() > deadline:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                return
            deadline = float("inf")
        time.sleep(0.01)


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as handle:
            state = handle.read().rsplit(")", 1)[1].split()[0]
    except OSError:
        return False
    return state != "Z"


def server_command(kind: str, snapshot: Path, run_dir: Path,
                   update_after: int) -> list[str]:
    common = ["--host", "127.0.0.1", "--port", "0"]
    if kind == "single":
        return [sys.executable, "-m", "repro", "serve", str(snapshot), *common,
                "--update-after", str(update_after)]
    return [sys.executable, "-m", "repro", "shard-serve", str(snapshot), *common,
            "--shards", "2", "--run-dir", str(run_dir),
            f"--worker-arg=--update-after={update_after}"]


def server_env(root: Path, tmp: Path, trace_dir: Path | None) -> dict:
    env = dict(os.environ)
    paths = [str(root / "src")]
    if trace_dir is not None:
        paths.insert(0, str(root / "perfbench" / "trace_site"))
        env["PERFBENCH_TRACE_DIR"] = str(trace_dir)
    else:
        env.pop("PERFBENCH_TRACE_DIR", None)
    env["PYTHONPATH"] = os.pathsep.join(paths)
    env["PYTHONUNBUFFERED"] = "1"
    env["TMPDIR"] = str(tmp)
    return env


def parse_counters(body: bytes) -> dict[str, float]:
    """Plain ``name value`` samples of a ``/metrics`` text body."""
    values = {}
    for line in body.decode().splitlines():
        if line.startswith("#") or "{" in line:
            continue
        name, _, value = line.partition(" ")
        values[name] = float(value)
    return values


async def scrape_counters(port: int) -> dict[str, float]:
    conn = Connection("127.0.0.1", port)
    try:
        status, _, body = await conn.request("GET", "/metrics")
    finally:
        await conn.close()
    if status != 200:
        raise RuntimeError(f"/metrics answered {status}")
    return parse_counters(body)
