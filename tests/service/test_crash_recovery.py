"""End-to-end crash recovery: SIGKILL a non-idle worker mid-batch and
require the recovered service to finish the stream bit-identically to a
single uninterrupted engine.

Every scenario runs through :func:`repro.service.faults.run_chaos_scenario`
(the same harness behind ``repro chaos``): a golden single-engine run,
a sharded run with a deterministic fault plan and a retrying client,
and a placement-by-placement comparison. Real worker processes are
spawned and really SIGKILLed.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.core.backends import backend_available
from repro.datasets.synthetic import synthetic_stream
from repro.errors import OverloadError
from repro.service import channel as ch
from repro.service.channel import ChannelClosed
from repro.service.client import AsyncBinaryPlacementClient
from repro.service.coordinator import ShardedPlacementServer, _WorkerHandle
from repro.service.worker import build_partition
from repro.service.faults import FaultPlan, run_chaos_scenario
from repro.service.loadgen import run_loadgen_async

SPEC = {"method": "optchain", "n_shards": 4, "epoch_length": 500}
LEASE = 300


def chaos(tmp_path, **overrides):
    kwargs = dict(
        workdir=str(tmp_path),
        n_workers=2,
        n_txs=1_500,
        lease_length=LEASE,
        chunk_size=150,
        checkpoint_after_chunks=3,
        kill_partition=0,
        kill_after=2,
        kill_point="journal",
    )
    kwargs.update(overrides)
    return asyncio.run(run_chaos_scenario(**kwargs))


class TestKillMidBatch:
    @pytest.mark.parametrize("strategy", ["optchain", "optchain-topk"])
    @pytest.mark.parametrize("n_workers", [1, 2, 3])
    def test_recovers_bit_identically(
        self, tmp_path, n_workers, strategy
    ):
        verdict = chaos(
            tmp_path, n_workers=n_workers, strategy=strategy
        )
        assert verdict["bit_identical"], verdict
        assert verdict["degraded"] is None
        assert verdict["served"] == verdict["n_txs"] == 1_500
        # The crash actually happened and the client actually rode
        # through it - a retry-free run would mean the fault never fired.
        assert verdict["retries"] > 0

    @pytest.mark.parametrize("kill_point", ["place", "writeback"])
    def test_kill_points_after_placement(self, tmp_path, kill_point):
        # Partition 1's leases carry foreign-parent writebacks, so a
        # crash between placement and writeback delivery (or right
        # after delivery) exercises the replay-and-redeliver path.
        verdict = chaos(
            tmp_path, kill_partition=1, kill_point=kill_point
        )
        assert verdict["bit_identical"], verdict
        assert verdict["degraded"] is None
        assert verdict["retries"] > 0

    @pytest.mark.parametrize("backend", ["python", "numpy"])
    def test_kill_with_writebacks_carried(self, tmp_path, backend):
        # The holder replies before its writebacks leave the process
        # (the scenario pipelines four chunks, so runs queue behind
        # each other). It dies right there; only its journal still
        # knows them.
        if backend == "numpy" and not backend_available("numpy"):
            pytest.skip("numpy backend absent")
        verdict = chaos(
            tmp_path,
            n_txs=3_000,
            lease_length=600,
            chunk_size=250,
            kill_point="carry",
            strategy=f"optchain:backend={backend}",
        )
        assert verdict["killed"] and verdict["ok"], verdict
        assert verdict["retries"] > 0

    def test_kill_after_checkpoint(self, tmp_path):
        # Die on a later batch so recovery starts from the checkpoint
        # (cursor 600) plus a short WAL tail, not from genesis.
        verdict = chaos(tmp_path, kill_after=4)
        assert verdict["bit_identical"], verdict
        assert verdict["degraded"] is None


class TestTornTail:
    @pytest.mark.parametrize("torn_bytes", [25, 200])
    def test_torn_wal_tail_recovers(self, tmp_path, torn_bytes):
        # The host "crashed" between write and fsync: the journal loses
        # its tail bytes. CRC framing discards the torn record, the
        # worker comes back slightly behind, and the client's retried
        # submission replays the gap.
        verdict = chaos(tmp_path, torn_wal_bytes=torn_bytes)
        assert verdict["bit_identical"], verdict
        assert verdict["degraded"] is None
        assert verdict["retries"] > 0


class TestBackpressure:
    def test_overload_shed_when_window_full(self):
        async def scenario():
            server = ShardedPlacementServer(
                dict(SPEC),
                1,
                port=0,
                lease_length=LEASE,
                max_inflight=1,
            )
            await server.start()
            stream = synthetic_stream(300, seed=3)
            try:
                client = await AsyncBinaryPlacementClient.connect(
                    port=server.port
                )
                try:
                    # An out-of-order chunk parks in the worker's
                    # reorder buffer while holding the partition's only
                    # in-flight slot; the next request must be shed
                    # with an explicit overload reply, not queued.
                    parked = client.place_nowait(stream[150:300])
                    await asyncio.sleep(0.2)
                    with pytest.raises(OverloadError, match="limit 1"):
                        await client.place(stream[:150])
                finally:
                    await client.close()
                    await asyncio.gather(
                        parked, return_exceptions=True
                    )
            finally:
                await asyncio.wait_for(server.stop(), timeout=30)

        asyncio.run(scenario())

    def test_sequential_load_never_shed(self):
        async def scenario():
            server = ShardedPlacementServer(
                dict(SPEC),
                1,
                port=0,
                lease_length=LEASE,
                max_inflight=1,
            )
            await server.start()
            stream = synthetic_stream(600, seed=3)
            try:
                client = await AsyncBinaryPlacementClient.connect(
                    port=server.port
                )
                try:
                    shards = []
                    for offset in range(0, 600, 150):
                        shards.extend(
                            await client.place(
                                stream[offset : offset + 150]
                            )
                        )
                finally:
                    await client.close()
            finally:
                await server.stop()
            assert len(shards) == 600

        asyncio.run(scenario())


class TestLoadgenThroughChaos:
    def test_loadgen_rides_out_worker_crash(self, tmp_path):
        async def scenario():
            plan = FaultPlan(
                kill_partition=0,
                kill_after=2,
                kill_point="journal",
                once_dir=str(tmp_path),
            )
            server = ShardedPlacementServer(
                dict(SPEC),
                2,
                port=0,
                lease_length=LEASE,
                checkpoint_path=str(tmp_path / "loadgen.snap"),
                respawn_backoff=0.05,
                heartbeat_interval=1.0,
                faults=plan.to_spec(),
            )
            await server.start()
            try:
                report = await run_loadgen_async(
                    port=server.port,
                    n_txs=1_500,
                    n_users=2,
                    chunk_size=150,
                    seed=7,
                    max_retries=30,
                    request_timeout=60.0,
                    retry_backoff=0.05,
                )
            finally:
                await server.stop()
            assert report.errors == 0, report.last_error
            assert report.retries > 0
            assert report.n_txs == 1_500

        asyncio.run(scenario())


class TestGrantInFlight:
    """SIGKILL of the *next* lease owner while its ``W_GRANT`` is in
    flight - the release lands right after the reply of a batch ending
    on a lease boundary. Either the grant never reached the process
    (the coordinator parks it and delivers it after the respawn), or
    the process journaled the grant and died before its reply got out:
    replay then puts it at the granted cursor, which is the lease holder
    dying, not a stale checkpoint."""

    @pytest.mark.parametrize("landed", [False, True], ids=["lost", "journaled"])
    @pytest.mark.parametrize("nth", [1, 2])
    def test_next_owner_killed_with_grant_in_flight(
        self, tmp_path, monkeypatch, landed, nth
    ):
        # The first hand-off carries no writebacks (lease 0 has no
        # foreign parents); the second carries partition 1's last run's
        # writebacks to partition 0 inside the grant.
        stream = synthetic_stream(1_500, seed=7)
        golden_partition = build_partition(
            0, {**SPEC, "n_partitions": 1, "lease_length": LEASE, "checkpoint": None}
        )
        golden, _ = golden_partition.place_batch(stream)
        grants, victims = [], []
        request = _WorkerHandle.request

        async def grant_then_die(self, kind, payload):
            hot = None
            if kind == ch.W_GRANT:
                share, body = ch.uncarry(payload)
                hot = json.loads(body).get("hot")
            if hot is None or victims:
                return await request(self, kind, payload)
            grants.append(hot)
            if len(grants) < nth:
                return await request(self, kind, payload)
            victims.append((self.partition_id, hot["n_placed"], bool(share)))
            if landed:
                await request(self, kind, payload)
            self.process.kill()
            if landed:
                self.process.wait()
                raise ChannelClosed("the grant's reply died with the process")
            return await request(self, kind, payload)

        monkeypatch.setattr(_WorkerHandle, "request", grant_then_die)

        async def scenario():
            server = ShardedPlacementServer(
                dict(SPEC),
                2,
                port=0,
                lease_length=LEASE,
                checkpoint_path=str(tmp_path / "grant.snap"),
                respawn_backoff=0.05,
                heartbeat_interval=1.0,
            )
            await server.start()
            try:
                client = await AsyncBinaryPlacementClient.connect(
                    port=server.port, retries=40, request_timeout=60.0
                )
                served = []
                for first in range(0, len(stream), 150):
                    served += await client.place(stream[first : first + 150])
                ping = await client.ping()
                await client.close()
                return served, ping, server.metrics.respawns
            finally:
                await server.stop()

        served, ping, respawns = asyncio.run(scenario())
        assert victims == [(nth % 2, nth * LEASE, nth == 2)]
        assert respawns >= 1
        assert ping["degraded"] is None
        assert served == golden
