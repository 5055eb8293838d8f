"""Writebacks ride the next message: at most one coordinator round trip
per run.

A lease holder keeps a run's writebacks pending and sends them inside
its next ``W_ACQUIRE``, or in the ``W_RELEASE`` at the lease end; a
standalone ``W_WRITEBACK`` flush happens only before it answers
``W_STATS``, ``W_CHECKPOINT`` or a drain. Two pins on the exact
``writeback_round_trips`` counter: a pipelined in-process harness (the
real coordinator and worker code over loopback channels), and the real
process tree with one request in flight. Neither flushes while placing.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.core.placement import make_placer
from repro.datasets.synthetic import synthetic_stream
from repro.service import channel as ch
from repro.service.client import AsyncBinaryPlacementClient
from repro.service.coordinator import ShardedPlacementServer
from repro.service.wire import as_wire_batch, read_frame
from repro.service.worker import PlacementWorker, build_partition

N_SHARDS = 4
SPEC = {"method": "optchain", "n_shards": N_SHARDS, "epoch_length": 500}


@pytest.fixture(scope="module")
def stream():
    return synthetic_stream(2_400, seed=7)


@pytest.fixture(scope="module")
def golden(stream):
    return make_placer("optchain", N_SHARDS).place_stream(stream)


class Loopback:
    """A :class:`~repro.service.channel.FrameChannel` stand-in: a request
    runs the peer's handler in process and its response frame is parsed
    back, bytes and all."""

    def __init__(self, handler) -> None:
        self._handler = handler
        self.closed = False

    async def request(self, kind: int, payload: bytes = b""):
        reader = asyncio.StreamReader()
        reader.feed_data(await self._handler(kind, 0, payload))
        reader.feed_eof()
        response_kind, _, response = await read_frame(reader)
        return response_kind, response

    async def close(self) -> None:
        pass


class TestPipelinedHarness:
    """Coordinator + two workers in one event loop, every request of
    the stream queued before the first run: each run but a lease's
    last has a follower queued behind it."""

    def run(self, stream, lease, chunk):
        async def main():
            server = ShardedPlacementServer(
                dict(SPEC), 2, port=0, lease_length=lease, max_batch_txs=chunk
            )
            spec = {**SPEC, "n_partitions": 2, "lease_length": lease}
            workers, flushes, carried = [], [], []
            for handle in server._workers:
                worker = PlacementWorker(
                    build_partition(handle.partition_id, spec),
                    max_batch_txs=chunk,
                )

                async def to_coordinator(
                    kind, request_id, payload, handle=handle, worker=worker
                ):
                    if kind == ch.W_WRITEBACK:
                        flushes.append(worker.partition.n_placed)
                    elif kind in (ch.W_ACQUIRE, ch.W_RELEASE):
                        carried.append(len(ch.uncarry(payload)[0]))
                    return await server._handle_worker_request(
                        handle, kind, request_id, payload
                    )

                worker.channel = Loopback(to_coordinator)
                handle.channel = Loopback(worker.handle)
                handle.alive = True
                workers.append(worker)
            await workers[0].handle(ch.W_GRANT, 0, ch.carry(b"", b"{}"))
            for worker in workers:
                worker.start()
            try:
                replies = await asyncio.gather(
                    *(
                        server._place_request(
                            as_wire_batch(stream[first : first + chunk])
                        )
                        for first in range(0, len(stream), chunk)
                    )
                )
            finally:
                for worker in workers:
                    worker.stop()
                    await worker.join()
            metrics = [worker.metrics for worker in workers]
            return replies, flushes, carried, metrics

        return asyncio.run(main())

    def test_no_flush_while_a_follower_is_queued(self, stream, golden):
        replies, flushes, carried, metrics = self.run(stream, 600, 150)
        assert all(reply["ok"] for reply in replies)
        assert [s for reply in replies for s in reply["shards"]] == golden
        # Mid-lease runs handed theirs to the follower's acquire, a
        # lease's last run to the release: no standalone round trip.
        assert flushes == []
        assert sum(m.writeback_round_trips for m in metrics) == 0
        acquires = sum(m.acquire_round_trips for m in metrics)
        assert acquires > len(stream) // 600
        assert sum(1 for size in carried if size) >= acquires - 1
        assert sum(m.writeback_bytes for m in metrics) == sum(carried)


def test_one_request_in_flight_never_flushes_while_placing(stream, golden):
    """No follower is ever queued, yet no run flushes: each run that
    read (and so spent) a foreign parent hands its writebacks to the
    next run's acquire or to the release. A stats request flushes what
    is still pending - here the writebacks of a run that ended
    mid-lease - and the counter merges through W_STATS onto /metrics."""

    async def main():
        server = ShardedPlacementServer(dict(SPEC), 2, port=0, lease_length=600)
        await server.start()
        try:
            client = await AsyncBinaryPlacementClient.connect(port=server.port)
            served, metrics = [], []
            for end in (1_800, 2_000):
                for first in range(len(served), end, 250):
                    served += await client.place(
                        stream[first : min(first + 250, end)]
                    )
                stats = await client.request({"op": "stats"})
                metrics.append(stats["obs"]["metrics"])
            text = await server._render_metrics()
            await client.close()
        finally:
            await server.stop()
        return served, metrics, text

    served, (at_lease_end, mid_lease), text = asyncio.run(main())
    assert served == golden[:2_000]

    def wrote_back(first, end):
        return any(
            outpoint.txid < first
            and outpoint.txid // 600 % 2 != first // 600 % 2
            for tx in stream[first:end]
            for outpoint in tx.inputs
        )

    cuts = sorted({*range(0, 1_801, 250), 600, 1_200, 1_800, 2_000})
    runs_with_writebacks = sum(
        wrote_back(first, end) for first, end in zip(cuts, cuts[1:])
    )
    assert at_lease_end["acquire_round_trips"] == runs_with_writebacks - 1
    assert at_lease_end["writeback_round_trips"] == 0
    # The run 1,800-2,000 ends mid-lease; its writebacks were pending
    # until the stats request flushed them in one round trip.
    assert wrote_back(1_800, 2_000)
    assert mid_lease["acquire_round_trips"] == runs_with_writebacks
    assert mid_lease["writeback_round_trips"] == 1
    # Partition 1 holds the lease from 1,800.
    assert 'repro_writeback_round_trips_total{partition="0"} 0\n' in text
    assert 'repro_writeback_round_trips_total{partition="1"} 1\n' in text
