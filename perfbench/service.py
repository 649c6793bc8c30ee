"""The ``service`` workload: a cold ``repro serve`` daemon under a closed loop.

One rep starts a daemon with 2 local workers in its own process group,
drives it with 2 client threads (each: submit -> poll ``GET /jobs/ID``
every :data:`POLL_S` -> fetch the result -> next job), reads the
daemon's and workers' CPU and peak RSS from ``/proc``, and stops the
whole process group.  The daemon's access log goes to a file.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import select
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

#: Client poll interval on ``GET /jobs/ID``.
POLL_S = 0.025
#: Jobs per rep: six blocks of the 4:1:1 sweep/fleet/fig10 mix.
JOBS_PER_REP = 36
CLIENTS = 2
WORKERS = 2
#: Seconds a daemon may take to come up or to stop.
DAEMON_TIMEOUT_S = 30.0
#: Seconds the closed loop of one rep may take before it gives up.
LOAD_TIMEOUT_S = 60.0

_TERMINAL = ("done", "failed", "cancelled")


def job_specs(seed: int, count: int) -> list[dict]:
    """The job mix, a pure function of the seed (prefix-stable in ``count``).

    Each block of six holds four sweep jobs (``exhibit: fig6``), one
    fleet and one fig10 job in a seeded order, every one with its own
    seed; every fourth sweep job reuses the previous sweep job's config
    with another exhibit, so some work is shared across jobs.
    """
    rng = random.Random(seed)
    used: set[int] = set()

    def fresh_seed() -> int:
        while True:
            value = rng.randrange(1, 2**31)
            if value not in used:
                used.add(value)
                return value

    specs: list[dict] = []
    sweeps = 0
    previous: dict | None = None
    while len(specs) < count:
        block = ["sweep"] * 4 + ["fleet", "fig10"]
        rng.shuffle(block)
        for kind in block:
            if kind != "sweep":
                specs.append({"kind": kind, "config": {"seed": fresh_seed()}})
                continue
            sweeps += 1
            if sweeps % 4 == 0 and previous is not None:
                spec = {
                    "kind": "sweep",
                    "exhibit": rng.choice(("fig7", "fig8", "fig9")),
                    "config": dict(previous["config"]),
                }
            else:
                spec = {"kind": "sweep", "exhibit": "fig6", "config": {"seed": fresh_seed()}}
            previous = spec
            specs.append(spec)
    return specs[:count]


def read_line(stream, deadline: float) -> str:
    """One line from a child's pipe, or ``""`` once ``deadline`` passes."""
    while time.perf_counter() < deadline:
        ready, _, _ = select.select([stream], [], [], 0.5)
        if ready:
            return stream.readline()
    return ""


# ----------------------------------------------------------------------
# /proc accounting
# ----------------------------------------------------------------------


def _stat_fields(pid) -> list[str]:
    """The fields of ``/proc/PID/stat`` after the command name (state first)."""
    with open(f"/proc/{pid}/stat") as handle:
        return handle.read().rsplit(")", 1)[1].split()


def _children(pid: int) -> list[int]:
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            fields = _stat_fields(entry)
        except OSError:
            continue
        if int(fields[1]) == pid:
            found.append(int(entry))
    return found


def _cpu_s(pid: int) -> float:
    fields = _stat_fields(pid)
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def _peak_rss_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    return 0.0


# ----------------------------------------------------------------------
# HTTP client
# ----------------------------------------------------------------------


class Client:
    """Records every request's latency and status.

    Each request opens its own connection and closes it, as the
    ``repro jobs`` CLI does, so a client holds at most one connection.
    """

    def __init__(self, host: str, port: int) -> None:
        self.host, self.port = host, port
        self.latencies: list[float] = []
        self.errors = 0

    def request(self, method: str, path: str, body: dict | None = None) -> tuple[int, dict]:
        payload = None if body is None else json.dumps(body).encode("utf-8")
        headers = {"Connection": "close"}
        if payload is not None:
            headers["Content-Type"] = "application/json"
        start = time.perf_counter()
        connection = http.client.HTTPConnection(self.host, self.port, timeout=60)
        try:
            connection.request(method, path, body=payload, headers=headers)
            response = connection.getresponse()
            status, raw = response.status, response.read()
        except (OSError, http.client.HTTPException):
            status, raw = 0, b"{}"
        finally:
            connection.close()
        self.latencies.append(time.perf_counter() - start)
        if not 200 <= status < 300:
            self.errors += 1
        try:
            return status, json.loads(raw or b"{}")
        except ValueError:
            self.errors += 1
            return status, {}


def run_job(client: Client, spec: dict, deadline: float) -> dict:
    """Submit one job, poll it to a terminal state, fetch its result."""
    start = time.perf_counter()
    status, job = client.request("POST", "/jobs", spec)
    outcome = {"spec": spec, "state": "rejected", "polls": 0, "result": None}
    if status != 201:
        outcome["latency_s"] = time.perf_counter() - start
        return outcome
    path = f"/jobs/{job['id']}"
    while True:
        time.sleep(POLL_S)
        status, record = client.request("GET", path)
        outcome["polls"] += 1
        if status != 200 or record.get("state") in _TERMINAL:
            break
        if time.perf_counter() > deadline:
            record = {"state": "timed out"}
            break
    outcome["state"] = record.get("state", "lost")
    outcome["record"] = record
    if outcome["state"] == "done":
        status, result = client.request("GET", path + "/result")
        outcome["result"] = result if status == 200 else None
    outcome["latency_s"] = time.perf_counter() - start
    return outcome


# ----------------------------------------------------------------------
# One rep
# ----------------------------------------------------------------------


class Daemon:
    """A ``repro serve`` process group started cold, stopped completely."""

    def __init__(self, root: Path, work: Path, env: dict, spans: Path | None) -> None:
        self.state_dir = work / "service-state"
        shutil.rmtree(self.state_dir, ignore_errors=True)
        serve_args = ["--port", "0", "--workers", str(WORKERS), "--state-dir", str(self.state_dir)]
        if spans is None:
            command = [sys.executable, "-m", "repro", "serve", *serve_args]
        else:
            launcher = root / "perfbench" / "serve_traced.py"
            command = [sys.executable, str(launcher), str(spans), *serve_args]
        self.log = open(work / "service-access.log", "w")
        self.spawned = time.perf_counter()
        self.process = subprocess.Popen(
            command, cwd=root, env=env, stdout=subprocess.PIPE, stderr=self.log,
            text=True, start_new_session=True,
        )
        self.workers: list[int] = []

    def wait_ready(self) -> tuple[str, int]:
        """Block until the HTTP API answers and both workers joined."""
        deadline = self.spawned + DAEMON_TIMEOUT_S
        line = read_line(self.process.stdout, deadline)
        if "http://" not in line:
            raise RuntimeError(f"repro serve did not come up: {line.strip()!r}")
        host, port = line.split("http://", 1)[1].split()[0].rsplit(":", 1)
        probe = Client(host, int(port))
        while True:
            status, snapshot = probe.request("GET", "/status")
            if status == 200 and snapshot["fleet"]["size"] >= WORKERS:
                break
            if time.perf_counter() > deadline:
                raise RuntimeError("repro serve workers did not join")
            time.sleep(0.005)
        self.workers = _children(self.process.pid)
        return host, int(port)

    def pids(self) -> list[int]:
        return [self.process.pid, *self.workers]

    def stop(self) -> None:
        """SIGTERM the process group, wait for every member, escalate if stuck."""
        try:
            os.killpg(self.process.pid, signal.SIGTERM)
        except ProcessLookupError:
            pass
        try:
            self.process.wait(timeout=DAEMON_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(self.process.pid, signal.SIGKILL)
            self.process.wait()
        deadline = time.perf_counter() + DAEMON_TIMEOUT_S
        for pid in self.workers:
            while _state(pid) not in ("Z", "X"):
                if time.perf_counter() > deadline:
                    try:
                        os.kill(pid, signal.SIGKILL)
                    except ProcessLookupError:
                        break
                time.sleep(0.01)
        self.process.stdout.close()
        self.log.close()
        shutil.rmtree(self.state_dir, ignore_errors=True)


def _state(pid: int) -> str:
    """The process state letter from ``/proc``; ``"X"`` once it is gone."""
    try:
        return _stat_fields(pid)[0]
    except OSError:
        return "X"


def run_rep(root: Path, work: Path, env: dict, specs: list[dict], spans: Path | None) -> dict:
    """One cold daemon serving ``specs`` through the closed loop."""
    daemon = Daemon(root, work, env, spans)
    try:
        host, port = daemon.wait_ready()
        setup_s = time.perf_counter() - daemon.spawned
        cpu_before = {pid: _cpu_s(pid) for pid in daemon.pids()}
        clients = [Client(host, port) for _ in range(CLIENTS)]
        outcomes: list[dict | None] = [None] * len(specs)
        cursor = iter(range(len(specs)))
        lock = threading.Lock()
        deadline = time.perf_counter() + LOAD_TIMEOUT_S

        def loop(client: Client) -> None:
            while True:
                with lock:
                    index = next(cursor, None)
                if index is None:
                    return
                started = time.perf_counter()
                try:
                    outcomes[index] = run_job(client, specs[index], deadline)
                except Exception as error:  # noqa: BLE001 - a failed job, not a crash
                    outcomes[index] = {
                        "spec": specs[index], "state": f"client error: {error!r}",
                        "polls": 0, "result": None,
                        "latency_s": time.perf_counter() - started,
                    }

        threads = [threading.Thread(target=loop, args=(client,)) for client in clients]
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        end = time.perf_counter()
        cpu = {pid: _cpu_s(pid) - before for pid, before in cpu_before.items()}
        peak_rss = max(_peak_rss_mb(pid) for pid in daemon.pids())
        status, snapshot = Client(host, port).request("GET", "/status")
        if status != 200:
            raise RuntimeError(f"GET /status answered {status} after the load")
    finally:
        daemon.stop()
    wall = end - start
    return {
        "setup_s": setup_s,
        "start": start,
        "end": end,
        "wall_s": wall,
        "cpu_s": sum(cpu.values()),
        "peak_rss_mb": peak_rss,
        "pool": {
            "parent_cpu_s": cpu[daemon.process.pid],
            "worker_cpu_s": sum(cpu[pid] for pid in daemon.workers),
            "busy_ratio": sum(cpu[pid] for pid in daemon.workers) / (WORKERS * wall),
        },
        "fleet": snapshot,
        "outcomes": outcomes,
        "http": {
            "latencies": [value for client in clients for value in client.latencies],
            "errors": sum(client.errors for client in clients),
        },
    }
