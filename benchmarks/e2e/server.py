"""The ``repro serve`` subprocess and the one pinned HTTP client.

Process hygiene: an ephemeral port, readiness by polling ``/health`` (the
``serve`` banner is block-buffered when piped), every server killed and
waited for in the ``finally`` of ``harness.run``, and a parent-death signal
for the case where the harness itself is killed outright.
"""

from __future__ import annotations

import ctypes
import http.client
import json
import os
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, Optional, Tuple

HOST = "127.0.0.1"
REQUEST_TIMEOUT_S = 60.0
READY_TIMEOUT_S = 60.0
_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


def _die_with_parent() -> None:  # runs in the child between fork and exec
    try:
        ctypes.CDLL("libc.so.6", use_errno=True).prctl(1, signal.SIGKILL)
    except OSError:
        pass


def free_port() -> int:
    with socket.socket() as probe:
        probe.bind((HOST, 0))
        return int(probe.getsockname()[1])


class Server:
    """One ``python -m repro serve --durable-dir <dir>`` with server defaults."""

    def __init__(self, durable_dir: Path, src_dir: Path) -> None:
        self.port = free_port()
        env = dict(os.environ, PYTHONHASHSEED="0", PYTHONUNBUFFERED="1")
        env["PYTHONPATH"] = os.pathsep.join(
            [str(src_dir)] + [p for p in [os.environ.get("PYTHONPATH")] if p])
        self.spawned_at = time.perf_counter()
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--durable-dir", str(durable_dir), "--port", str(self.port)],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            preexec_fn=_die_with_parent)

    def wait_ready(self) -> float:
        """Seconds from spawn until ``/health`` answers 200."""
        deadline = self.spawned_at + READY_TIMEOUT_S
        while time.perf_counter() < deadline:
            if self.process.poll() is not None:
                raise RuntimeError(
                    f"server exited with code {self.process.returncode} "
                    "before it was ready")
            try:
                connection = http.client.HTTPConnection(HOST, self.port,
                                                        timeout=2.0)
                try:
                    connection.request("GET", "/health")
                    if connection.getresponse().status == 200:
                        return time.perf_counter() - self.spawned_at
                finally:
                    connection.close()
            except OSError:
                pass
            time.sleep(0.01)
        raise RuntimeError(f"server not ready after {READY_TIMEOUT_S:.0f} s")

    def _proc(self, name: str) -> str:
        return Path(f"/proc/{self.process.pid}/{name}").read_text()

    def peak_rss_mb(self) -> float:
        """``VmHWM`` of the server process."""
        for line in self._proc("status").splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def cpu_seconds(self) -> float:
        """utime + stime of the server process."""
        fields = self._proc("stat").rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS

    def stop(self) -> None:
        """SIGKILL and reap; the WAL must make that safe."""
        if self.process.poll() is None:
            self.process.kill()
        self.process.wait()


class Client:
    """One keep-alive ``http.client`` connection with default socket options.

    Reused for a whole run and reconnected only after an error, which the
    caller counts as a failed operation.  It sees what any keep-alive
    client of this server sees, the Nagle/delayed-ACK floor included.
    """

    def __init__(self, port: int) -> None:
        self.port = port
        self.attempted = 0
        self.failed = 0
        self._connection: Optional[http.client.HTTPConnection] = None

    def _connect(self) -> http.client.HTTPConnection:
        if self._connection is None:
            self._connection = http.client.HTTPConnection(
                HOST, self.port, timeout=REQUEST_TIMEOUT_S)
        return self._connection

    def close(self) -> None:
        if self._connection is not None:
            self._connection.close()
            self._connection = None

    def call(self, method: str, path: str, body: Optional[dict] = None
             ) -> Tuple[float, Optional[dict], int]:
        """``(latency in ms, reply JSON or None, reply bytes)``.

        Anything but a parsed 200 counts as a failed operation.
        """
        self.attempted += 1
        payload = None if body is None else json.dumps(body)
        headers = {} if body is None else {"Content-Type": "application/json"}
        started = time.perf_counter()
        try:
            connection = self._connect()
            connection.request(method, path, body=payload, headers=headers)
            response = connection.getresponse()
            raw = response.read()
            elapsed = (time.perf_counter() - started) * 1000.0
            if response.status != 200:
                raise ValueError(f"HTTP {response.status}: {raw[:200]!r}")
            return elapsed, json.loads(raw), len(raw)
        except (OSError, http.client.HTTPException, ValueError) as exc:
            print(f"FAILED {method} {path}: {exc}", file=sys.stderr)
            self.failed += 1
            self.close()
            return (time.perf_counter() - started) * 1000.0, None, 0

    def get(self, path: str) -> Dict:
        """A bookkeeping GET (``/health``, ``/stats``); must succeed."""
        _, reply, _ = self.call("GET", path)
        if reply is None:
            raise RuntimeError(f"GET {path} failed")
        return reply
