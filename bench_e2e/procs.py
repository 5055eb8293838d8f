"""The system under test as a subprocess, observed through ``/proc``.

``repro serve`` always runs in its own process group, exactly as an
operator starts it; the benchmark reads CPU time and peak memory of the
server and every process it spawned from ``/proc/<pid>`` and never
imports server code into the measuring process for these numbers.
"""

from __future__ import annotations

import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from config import SRC, WORK_DIR, Sizes, Workload

_SERVING = re.compile(r"^serving .* on [\d.]+:(\d+)")
_METRICS = re.compile(r"^metrics on http://[\d.]+:(\d+)/metrics")


def child_env() -> dict[str, str]:
    """Environment for every process the benchmark starts: the package
    from this checkout, kernel cache and temp files inside it."""
    tmp = WORK_DIR / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["REPRO_KERNEL_CACHE"] = str(WORK_DIR / "kernel-cache")
    env["TMPDIR"] = str(tmp)
    env.pop("REPRO_KERNEL_DISABLE", None)
    return env


def process_tree(root_pid: int) -> list[int]:
    """``root_pid`` and every live descendant (workers, the
    multiprocessing resource tracker)."""
    parent_of: dict[int, int] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as fh:
                tail = fh.read().rsplit(b")", 1)[1].split()
        except (OSError, IndexError):
            continue  # exited between listdir and open
        parent_of[int(entry)] = int(tail[1])
    tree = [root_pid]
    for pid in tree:
        tree.extend(p for p, parent in parent_of.items() if parent == pid)
    return tree


def _running(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat", "rb") as fh:
            return fh.read().rsplit(b")", 1)[1].split()[0] != b"Z"
    except OSError:
        return False


def cpu_seconds(pid: int) -> float:
    """CPU time another live process has used, from its POSIX CPU-time
    clock (``clock_getcpuclockid``: nanoseconds kept by the scheduler).
    ``utime + stime`` in ``/proc/<pid>/stat`` are charged a whole 10 ms
    tick at a time to whoever runs when the tick fires; over a 0.1 s
    pass that is a +-30% lottery."""
    return time.clock_gettime((~pid << 3) | 2)


def status_kb(pid: int, field: str) -> int:
    """A kB field (``VmHWM``, ``VmRSS``) of ``/proc/<pid>/status``."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith(field + ":"):
                return int(line.split()[1])
    raise RuntimeError(f"/proc/{pid}/status has no {field}")


class Server:
    """One ``repro serve`` subprocess on ephemeral ports."""

    def __init__(self, workload: Workload, sizes: Sizes) -> None:
        self.workload = workload
        self.dir = Path(
            tempfile.mkdtemp(prefix=workload.name + "-", dir=child_env()["TMPDIR"])
        )
        argv = [
            sys.executable, "-m", "repro", "serve",
            "--method", workload.spec,
            "--shards", str(workload.shards),
            "--epoch-length", str(sizes.epoch_length),
            "--port", "0",
            "--metrics-port", "0",
        ]  # fmt: skip
        if workload.workers:
            # The WAL exists only when --checkpoint is given; a fresh
            # directory per server keeps restores out of the picture.
            argv += [
                "--workers", str(workload.workers),
                "--lease-length", str(sizes.lease_length),
                "--checkpoint", str(self.dir / "ck"),
            ]  # fmt: skip
        self._stderr = open(self.dir / "stderr.log", "wb")
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            argv,
            stdout=subprocess.PIPE,
            stderr=self._stderr,
            env=child_env(),
            cwd=self.dir,
            start_new_session=True,
        )
        self.port = self._read_port(_SERVING)
        self.metrics_port = self._read_port(_METRICS)

    def _read_port(self, pattern: re.Pattern) -> int:
        line = self.proc.stdout.readline().decode("utf-8", "replace")
        match = pattern.match(line)
        if match is None:
            self.stop()
            raise RuntimeError(
                f"{self.workload.name}: server did not start "
                f"(stdout {line!r}); stderr:\n{self.stderr_text()}"
            )
        return int(match.group(1))

    def stderr_text(self) -> str:
        self._stderr.flush()
        return (self.dir / "stderr.log").read_text("utf-8", "replace")[-2000:]

    def pids(self) -> list[int]:
        return process_tree(self.proc.pid)

    def cpu_by_pid(self) -> dict[int, float]:
        return {pid: cpu_seconds(pid) for pid in self.pids()}

    def cpu_since(self, before: dict[int, float]) -> dict[int, float]:
        """CPU seconds each process used since ``before = cpu_by_pid()``."""
        return {
            pid: cpu - before.get(pid, 0.0)
            for pid, cpu in self.cpu_by_pid().items()
        }

    def stop(self) -> None:
        """Kill the whole process group and see it gone. Nothing is
        measured after this point, and a graceful stop of a sharded
        server (drain, checkpoint, join) costs 1-3 s of wall time per
        pass that the driver's time cap has no room for."""
        pids = self.pids()
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait()
        # Workers are reparented when the coordinator dies, so they
        # cannot be waited on; watch them end (gone, or a zombie whose
        # new parent has not collected it yet) in /proc instead.
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline and any(
            _running(pid) for pid in pids[1:]
        ):
            time.sleep(0.005)
        self.proc.stdout.close()
        self._stderr.close()
        shutil.rmtree(self.dir, ignore_errors=True)
