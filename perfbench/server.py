"""Start, probe and stop a ``damocles serve`` subprocess.

The server gets the CLI defaults plus ``--transport auto --journal DIR
--policy FILE`` (and ``--lazy`` where a workload says so).  A traced run
starts the same argv through ``perfbench/trace_boot.py``.
"""

from __future__ import annotations

import os
import re
import select
import signal
import socket
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BOOT = Path(__file__).resolve().with_name("trace_boot.py")
SERVING = re.compile(r"serving .* on ([\d.]+):(\d+)")
START_TIMEOUT = 60.0
STOP_TIMEOUT = 60.0


@contextmanager
def split_cpus():
    """Pin this process (the load generator) to the last CPU and yield
    the rest for the server, so the scheduler never stacks the two on
    one CPU while another idles.  Yields None when there is nothing to
    split.  The original affinity is restored on exit."""
    cpus = os.sched_getaffinity(0)
    ordered = sorted(cpus)
    pinned = False
    if len(ordered) > 1:
        try:
            os.sched_setaffinity(0, {ordered[-1]})
            pinned = True
        except OSError:  # not permitted here: leave placement to the scheduler
            pass
    try:
        yield set(ordered[:-1]) if pinned else None
    finally:
        if pinned:
            os.sched_setaffinity(0, cpus)


def stolen_seconds() -> float:
    """CPU time the hypervisor has taken from this machine (all CPUs)."""
    fields = Path("/proc/stat").read_text().split("\n", 1)[0].split()
    return int(fields[8]) / os.sysconf("SC_CLK_TCK")


def serve_args(files: dict[str, Path], lazy: bool) -> list[str]:
    """The ``damocles serve`` arguments every run uses."""
    args = [
        "serve", str(files["db"]), str(files["blueprint"]),
        "--transport", "auto",
        "--journal", str(files["journal"]),
        "--policy", str(files["policy"]),
    ]
    if lazy:
        args.append("--lazy")
    return args


class ServerProcess:
    """One ``damocles serve`` child: setup time, /proc gauges, shutdown."""

    def __init__(
        self,
        args: list[str],
        trace_path: Path | None = None,
        server_cpus: set[int] | None = None,
    ) -> None:
        env = dict(os.environ)
        src = str(ROOT / "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        env["PYTHONUNBUFFERED"] = "1"
        if trace_path is None:
            self.argv = [sys.executable, "-m", "repro.cli", *args]
        else:
            self.argv = [sys.executable, str(BOOT), str(trace_path), *args]
        self.output: list[str] = []
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            self.argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            preexec_fn=None if server_cpus is None else lambda: os.sched_setaffinity(0, server_cpus),
        )
        try:
            self.host, self.port = self._await_port(started + START_TIMEOUT)
            self._await_ping(started + START_TIMEOUT)
        except BaseException:
            self.kill()
            raise
        self.setup_s = time.perf_counter() - started

    def _await_port(self, deadline: float) -> tuple[str, int]:
        stream = self.proc.stdout
        while time.perf_counter() < deadline:
            ready, _, _ = select.select([stream], [], [], 0.5)
            if not ready:
                if self.proc.poll() is not None:
                    break
                continue
            line = stream.readline()
            if not line:
                break
            self.output.append(line)
            match = SERVING.search(line)
            if match:
                return match.group(1), int(match.group(2))
        raise RuntimeError(
            "damocles serve did not start:\n" + "".join(self.output[-20:])
        )

    def _await_ping(self, deadline: float) -> None:
        while time.perf_counter() < deadline:
            try:
                with socket.create_connection((self.host, self.port), timeout=5) as conn:
                    conn.sendall(b"ping\n")
                    if conn.makefile("rb").readline().strip() == b"PONG":
                        return
            except OSError:
                pass
            time.sleep(0.005)
        raise RuntimeError("damocles serve never answered ping")

    @property
    def pid(self) -> int:
        return self.proc.pid

    def cpu_seconds(self) -> float:
        """User + system CPU time of the server so far (all threads)."""
        fields = Path(f"/proc/{self.pid}/stat").read_text().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self) -> float:
        """Peak resident set size (``VmHWM``) in MiB."""
        for line in Path(f"/proc/{self.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> int:
        """Interrupt like Ctrl-C (final checkpoint runs) and wait."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
        try:
            rest, _ = self.proc.communicate(timeout=STOP_TIMEOUT)
        except subprocess.TimeoutExpired:
            self.kill()
            raise RuntimeError("damocles serve did not stop after SIGINT")
        self.output.append(rest or "")
        return self.proc.returncode

    def kill(self) -> None:
        if self.proc.returncode is not None:
            return  # already reaped
        self.proc.kill()
        self.proc.communicate()
