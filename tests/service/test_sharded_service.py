"""The sharded service end to end: coordinator + real worker processes.

Everything here runs over real sockets with real worker subprocesses
(``python -m repro.service.worker``), exactly as ``repro serve
--workers N`` does. Slowish per test (each spawns worker processes);
scales are kept small.
"""

from __future__ import annotations

import asyncio
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.core.placement import make_placer
from repro.datasets.synthetic import synthetic_stream
from repro.errors import ConfigurationError
from repro.service.client import (
    AsyncBinaryPlacementClient,
    AsyncPlacementClient,
    PlacementClient,
)
from repro.service.coordinator import ShardedPlacementServer
from repro.service.loadgen import run_loadgen_async

N_SHARDS = 4
LEASE = 600
SPEC = {"method": "optchain", "n_shards": N_SHARDS, "epoch_length": 500}


@pytest.fixture(scope="module")
def stream():
    return synthetic_stream(4_000, seed=7)


@pytest.fixture(scope="module")
def expected(stream):
    return make_placer("optchain", N_SHARDS).place_stream(stream)


def run_sharded(test_coro, n_workers=2, spec=SPEC, **kwargs):
    async def main():
        server = ShardedPlacementServer(
            dict(spec), n_workers, port=0, lease_length=LEASE, **kwargs
        )
        await server.start()
        try:
            await test_coro(server)
        finally:
            await server.stop()

    asyncio.run(main())


class TestGolden:
    @pytest.mark.parametrize("n_workers", [1, 2])
    def test_sharded_placements_bit_identical(
        self, stream, expected, n_workers
    ):
        """The acceptance gate: --workers 1 (and 2) must reproduce the
        monolithic engine's placements exactly."""
        served = []

        async def scenario(server):
            client = await AsyncBinaryPlacementClient.connect(
                port=server.port
            )
            for offset in range(0, len(stream), 250):
                served.extend(
                    await client.place(stream[offset : offset + 250])
                )
            await client.close()

        run_sharded(scenario, n_workers=n_workers)
        assert served == expected

    def test_json_clients_and_boundary_splits(self, stream, expected):
        """JSON codec through the coordinator, including a client batch
        that crosses a lease boundary (coordinator-side split+merge)."""
        served = []

        async def scenario(server):
            client = await AsyncPlacementClient.connect(port=server.port)
            # 450-tx chunks guarantee several lease-crossing requests
            # at LEASE=600.
            for offset in range(0, len(stream), 450):
                served.extend(
                    await client.place(stream[offset : offset + 450])
                )
            await client.close()

        run_sharded(scenario, n_workers=2)
        assert served == expected

    @pytest.mark.parametrize("codec", ["ndjson", "binary"])
    def test_output_content_survives_lease_splits(self, stream, codec):
        """A content-hashing strategy (``omniledger`` folds output
        values into its digest) through full-output requests: the
        coordinator forwards NDJSON batches, and slices binary frames
        that cross a lease boundary, with their output content - what
        the workers place must equal the monolithic placer. (A
        coordinator re-encoding segments count-only gets 920 of these
        1,200 shards wrong over NDJSON and 349 over binary frames.)"""
        txs = stream[:1_200]
        served = []

        async def scenario(server):
            if codec == "ndjson":
                client = await AsyncPlacementClient.connect(port=server.port)
            else:
                client = await AsyncBinaryPlacementClient.connect(
                    port=server.port
                )
            for offset in range(0, len(txs), 450):
                served.extend(
                    await client.place(
                        txs[offset : offset + 450], full_outputs=True
                    )
                )
            await client.close()

        run_sharded(
            scenario,
            n_workers=2,
            spec={"method": "omniledger", "n_shards": N_SHARDS},
        )
        assert served == make_placer("omniledger", N_SHARDS).place_stream(txs)

    def test_loadgen_through_sharded_service(self, stream):
        async def scenario(server):
            report = await run_loadgen_async(
                port=server.port,
                stream=stream[:2_000],
                n_users=4,
                chunk_size=100,
            )
            assert report.errors == 0
            client = await AsyncBinaryPlacementClient.connect(
                port=server.port
            )
            stats = await client.stats()
            assert stats["n_placed"] == 2_000
            await client.close()

        run_sharded(scenario, n_workers=3)

    def test_merged_stats_and_ping(self, stream):
        async def scenario(server):
            client = await AsyncBinaryPlacementClient.connect(
                port=server.port
            )
            for offset in range(0, 2_000, 250):
                await client.place(stream[offset : offset + 250])
            stats = await client.stats()
            assert stats["n_placed"] == 2_000
            assert stats["live_vectors"] is not None
            assert len(stats["partitions"]) == 2
            assert stats["support"]["live_vectors"] == stats[
                "live_vectors"
            ]
            ping = await client.ping()
            assert ping["workers"] == 2
            assert ping["degraded"] is None
            await client.close()

        run_sharded(scenario, n_workers=2)


class TestManifest:
    def test_spec_override_warned_and_stored_spec_wins(
        self, tmp_path, capsys
    ):
        """Restarting a checkpoint set with a different spec warns and
        adopts the stored configuration (the snapshots are what
        actually restore) - mirroring the single-process serve path."""
        base = str(tmp_path / "spec.snap")
        server = ShardedPlacementServer(
            dict(SPEC), 2, port=0, lease_length=LEASE,
            checkpoint_path=base,
        )
        server._cursor = 0
        server._write_manifest(0)

        requested = dict(SPEC, n_shards=8, method="optchain-topk")
        restarted = ShardedPlacementServer(
            requested, 2, port=0, lease_length=LEASE,
            checkpoint_path=base,
        )
        restarted._load_manifest()
        err = capsys.readouterr().err
        assert "n_shards=8" in err and "ignored" in err
        assert "method='optchain-topk'" in err
        # The stored spec is what the workers will be built from.
        assert restarted._spec["n_shards"] == SPEC["n_shards"]
        assert restarted._spec["method"] == "optchain"


class TestCheckpointRestart:
    def test_checkpoint_restart_continue(
        self, stream, expected, tmp_path
    ):
        base = str(tmp_path / "sharded.snap")
        served = []

        async def first_run(server):
            client = await AsyncBinaryPlacementClient.connect(
                port=server.port
            )
            for offset in range(0, 2_000, 250):
                served.extend(
                    await client.place(stream[offset : offset + 250])
                )
            report = await client.checkpoint()
            assert report["bytes"] > 0
            assert report["n_placed"] == 2_000
            await client.close()

        run_sharded(first_run, n_workers=2, checkpoint_path=base)
        assert os.path.exists(base + ".manifest.json")
        assert os.path.exists(base + ".p0")
        assert os.path.exists(base + ".p1")

        async def second_run(server):
            client = await AsyncBinaryPlacementClient.connect(
                port=server.port
            )
            ping = await client.ping()
            assert ping["n_placed"] == 2_000
            for offset in range(2_000, len(stream), 250):
                served.extend(
                    await client.place(stream[offset : offset + 250])
                )
            await client.close()

        run_sharded(second_run, n_workers=2, checkpoint_path=base)
        assert served == expected


class TestWorkerFailure:
    def test_idle_worker_killed_respawns_from_checkpoint(
        self, stream, expected, tmp_path
    ):
        base = str(tmp_path / "respawn.snap")
        served = []

        async def scenario(server):
            client = await AsyncBinaryPlacementClient.connect(
                port=server.port
            )
            for offset in range(0, 2_000, 250):
                served.extend(
                    await client.place(stream[offset : offset + 250])
                )
            await client.checkpoint()
            # Kill an *idle* worker (not the lease holder) with
            # SIGKILL - no goodbye, no flush.
            granted = (await client.ping())["granted"]
            victim = server._workers[1 - granted]
            old_pid = victim.process.pid
            victim.process.kill()
            # The coordinator respawns it from its checkpoint; the
            # stream continues bit-identically through both the
            # survivor and the respawned worker. Wait for the *new*
            # process to have said hello (the kill itself is only
            # noticed asynchronously).
            for _ in range(300):
                if (
                    victim.alive
                    and victim.process.pid != old_pid
                    and (await client.ping())["degraded"] is None
                ):
                    break
                await asyncio.sleep(0.1)
            else:
                raise AssertionError("worker never respawned")
            for offset in range(2_000, len(stream), 250):
                served.extend(
                    await client.place(stream[offset : offset + 250])
                )
            assert (await client.ping())["degraded"] is None
            await client.close()

        run_sharded(scenario, n_workers=2, checkpoint_path=base)
        assert served == expected

    def test_worker_killed_mid_batch_fails_request_not_service(
        self, stream, tmp_path
    ):
        base = str(tmp_path / "midbatch.snap")

        async def scenario(server):
            client = await AsyncBinaryPlacementClient.connect(
                port=server.port
            )
            await client.place(stream[:500])
            await client.checkpoint()
            # Kill the partition that owns the *next* range, then send
            # it a batch: the request must fail with an error (not
            # hang), and the coordinator must stay up.
            owner = server._owner_of(500)
            server._workers[owner].process.kill()
            result = await asyncio.wait_for(
                client.place_nowait(stream[500 : 500 + 100]), timeout=30
            )
            assert result["ok"] is False
            assert (await client.ping())["ok"]
            await client.close()

        run_sharded(scenario, n_workers=2, checkpoint_path=base)

    def test_worker_exiting_before_hello_fails_start_at_once(self):
        # An unknown strategy raises inside the worker's partition
        # build: start() must report the exit, not wait out the
        # 120 s start timeout.
        server = ShardedPlacementServer(
            {"method": "no-such-strategy", "n_shards": N_SHARDS},
            2,
            port=0,
            lease_length=LEASE,
        )
        started = time.monotonic()
        with pytest.raises(ConfigurationError, match="exited with status"):
            asyncio.run(server.start())
        assert time.monotonic() - started < 60
        for handle in server._workers:
            assert handle.process.returncode is not None

    def test_dead_worker_without_checkpoint_degrades(self, stream):
        # Without a checkpoint path there is no snapshot *and* no
        # journal. A worker that dies holding only unreconstructible
        # placed state (a full past lease, here [600, 1200) with
        # lease_length 600) must degrade the service, not silently
        # respawn empty. (A worker with nothing placed - expected
        # cursor 0 - is recoverable by a fresh respawn instead.)
        async def scenario(server):
            client = await AsyncBinaryPlacementClient.connect(
                port=server.port
            )
            await client.place(stream[:1500])
            granted = (await client.ping())["granted"]
            assert granted == 0  # owner of txid 1500 (lease 2)
            server._workers[1].process.kill()
            for _ in range(100):
                ping = await client.ping()
                if ping["degraded"]:
                    break
                await asyncio.sleep(0.1)
            assert ping["degraded"]
            assert "no checkpoint or journal" in ping["degraded"]
            result = await asyncio.wait_for(
                client.place_nowait(stream[1500:1600]), timeout=30
            )
            assert result["ok"] is False
            assert "degraded" in result["error"]
            await client.close()

        run_sharded(scenario, n_workers=2)


class TestSigtermCli:
    def test_sigterm_drain_with_multiple_workers(self, tmp_path):
        """`repro serve --workers 3` under SIGTERM: drain, checkpoint
        every partition, write the manifest, exit 0."""
        base = tmp_path / "cli.snap"
        src = Path(__file__).resolve().parents[2] / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = (
            f"{src}{os.pathsep}{env['PYTHONPATH']}"
            if env.get("PYTHONPATH")
            else str(src)
        )
        process = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro",
                "serve",
                "--port",
                "0",
                "--shards",
                "4",
                "--workers",
                "3",
                "--lease-length",
                "200",
                "--checkpoint",
                str(base),
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )
        try:
            banner = process.stdout.readline()
            assert "3 workers" in banner, banner
            port = int(banner.split(":")[-1].split()[0])
            batch = synthetic_stream(1_000, seed=5)
            deadline = time.time() + 60
            while True:
                try:
                    client = PlacementClient(port=port)
                    break
                except OSError:
                    assert time.time() < deadline
                    time.sleep(0.2)
            with client:
                shards = []
                for offset in range(0, 1_000, 150):
                    shards.extend(
                        client.place(batch[offset : offset + 150])
                    )
                assert len(shards) == 1_000
            process.send_signal(signal.SIGTERM)
            process.wait(timeout=60)
        finally:
            if process.poll() is None:
                process.kill()
                process.wait()
        assert process.returncode == 0, process.stderr.read()
        assert (tmp_path / "cli.snap.manifest.json").exists()
        for index in range(3):
            assert (tmp_path / f"cli.snap.p{index}").exists()
        # The checkpoints restore into a service that continues the
        # stream with the placements a monolithic engine would make.
        expected = make_placer("optchain", 4).place_stream(
            synthetic_stream(1_400, seed=5)
        )
        tail = synthetic_stream(1_400, seed=5)[1_000:]
        served = []

        async def resume(server):
            client = await AsyncBinaryPlacementClient.connect(
                port=server.port
            )
            assert (await client.ping())["n_placed"] == 1_000
            served.extend(await client.place(tail))
            await client.close()

        async def main():
            server = ShardedPlacementServer(
                {"method": "optchain", "n_shards": 4},
                3,
                port=0,
                lease_length=200,
                checkpoint_path=str(base),
            )
            await server.start()
            try:
                await resume(server)
            finally:
                await server.stop()

        asyncio.run(main())
        assert served == expected[1_000:]
