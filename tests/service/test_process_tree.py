"""The sharded service's process tree, read from ``/proc`` (Linux only).

``repro serve --workers 2`` is a coordinator plus two plain
``python -m repro.service.worker`` subprocesses in one process group:
no helper process beside them, no numpy mapped into the coordinator
(it only resolves specs and relays bytes), the auth token on no
worker's command line, and a SIGKILLed worker reaped by the time its
replacement is serving.
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

import pytest

from repro.core.placement import make_placer
from repro.datasets.synthetic import synthetic_stream
from repro.service.client import BinaryPlacementClient
from repro.service.coordinator import ShardedPlacementServer

pytestmark = pytest.mark.skipif(
    not sys.platform.startswith("linux"), reason="reads /proc"
)

SRC = Path(__file__).resolve().parents[2] / "src"
WORKER_ARGV = ["-m", "repro.service.worker"]
N_SHARDS = 4
LEASE = 100
_BANNER = re.compile(r"on [\d.]+:(\d+) with 2 workers")


def _stat(pid: int) -> "tuple[str, int, int] | None":
    """(state, ppid, pgrp) of ``pid``, or None once it is gone."""
    try:
        with open(f"/proc/{pid}/stat", "rb") as fh:
            fields = fh.read().rsplit(b")", 1)[1].split()
    except OSError:
        return None
    return fields[0].decode(), int(fields[1]), int(fields[2])


def _group(pgid: int) -> list[int]:
    """Every process (zombies included) in process group ``pgid``."""
    members = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            stat = _stat(int(entry))
            if stat is not None and stat[2] == pgid:
                members.append(int(entry))
    return sorted(members)


def _cmdline(pid: int) -> list[str]:
    with open(f"/proc/{pid}/cmdline", "rb") as fh:
        return [arg.decode() for arg in fh.read().split(b"\0")[:-1]]


def _worker_pids(port: int) -> dict[str, int]:
    with BinaryPlacementClient(port=port) as client:
        ping = client.ping()
    assert not ping["recovering"] and ping["degraded"] is None, ping
    return ping["worker_pids"]


@pytest.fixture(scope="module")
def serve(tmp_path_factory):
    """``repro serve --workers 2`` as an operator starts it: its own
    session, so its process group is exactly its tree."""
    workdir = tmp_path_factory.mktemp("tree")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(SRC), env.get("PYTHONPATH")))
    )
    stderr = open(workdir / "stderr.log", "wb")
    process = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--workers", "2",
            "--port", "0",
            "--shards", str(N_SHARDS),
            "--lease-length", str(LEASE),
            "--checkpoint", str(workdir / "ck"),
        ],  # fmt: skip
        stdout=subprocess.PIPE,
        stderr=stderr,
        env=env,
        text=True,
        start_new_session=True,
    )
    try:
        banner = process.stdout.readline()
        match = _BANNER.search(banner)
        assert match, (banner, (workdir / "stderr.log").read_text())
        yield process, int(match.group(1))
    finally:
        process.terminate()
        try:
            process.wait(timeout=60)
        finally:
            try:
                os.killpg(process.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            process.wait()
            process.stdout.close()
            stderr.close()


class TestServeTree:
    def test_group_is_coordinator_and_its_workers(self, serve):
        process, port = serve
        members = _group(process.pid)
        assert len(members) == 1 + 2, [_cmdline(pid) for pid in members]
        workers = sorted(_worker_pids(port).values())
        assert members == sorted([process.pid, *workers])
        for pid in workers:
            state, ppid, _ = _stat(pid)
            assert ppid == process.pid and state != "Z"

    def test_coordinator_maps_no_numpy(self, serve):
        process, _ = serve
        with open(f"/proc/{process.pid}/maps") as fh:
            maps = fh.read()
        assert "python" in maps  # the read itself worked
        assert "numpy" not in maps

    def test_worker_argv_is_the_module_alone(self, serve):
        # Launch config (token included) travels over stdin.
        _, port = serve
        for pid in _worker_pids(port).values():
            argv = _cmdline(pid)
            assert argv[-2:] == WORKER_ARGV, argv
            assert not any(re.fullmatch(r"[0-9a-f]{32}", arg) for arg in argv)

    def test_killed_worker_is_reaped_after_respawn(self, serve):
        process, port = serve
        stream = synthetic_stream(600, seed=11)
        golden = make_placer("optchain", N_SHARDS).place_stream(stream)
        # Stop mid-lease (LEASE=100): no hand-off is in flight when the
        # idle worker dies, so its respawn is a plain WAL recovery.
        with BinaryPlacementClient(port=port) as client:
            assert client.place(stream[:250]) == golden[:250]
        victim = _worker_pids(port)["1"]
        os.kill(victim, signal.SIGKILL)
        deadline = time.monotonic() + 60
        while True:
            try:
                pids = _worker_pids(port)
                if pids["1"] != victim:
                    break
            except AssertionError:
                pass  # still recovering
            assert time.monotonic() < deadline, "worker never respawned"
            time.sleep(0.05)
        # Reaped, not a zombie still parented to the coordinator.
        assert _stat(victim) is None or _stat(victim)[1] != process.pid
        assert _group(process.pid) == sorted([process.pid, *pids.values()])
        with BinaryPlacementClient(port=port) as client:
            assert client.place(stream[250:]) == golden[250:]


def test_token_reaches_workers_only_over_stdin():
    """The literal token is in no worker's argv or environment."""

    async def main():
        server = ShardedPlacementServer(
            {"method": "optchain", "n_shards": N_SHARDS},
            2,
            port=0,
            lease_length=LEASE,
        )
        await server.start()
        try:
            token = server._token.encode()
            for handle in server._workers:
                pid = handle.process.pid
                for view in ("cmdline", "environ"):
                    with open(f"/proc/{pid}/{view}", "rb") as fh:
                        assert token not in fh.read(), view
        finally:
            await server.stop()
        for handle in server._workers:
            assert handle.process.returncode is not None

    asyncio.run(main())
