"""GET /metrics end to end: single-process server and the sharded
coordinator, plus the ``obs`` key on the stats op."""

from __future__ import annotations

import asyncio

import pytest

from repro.core.placement import make_placer
from repro.datasets.synthetic import synthetic_stream
from repro.obs.drift import DriftMonitor
from repro.obs.prom import quantile_from_scrape, sample_value, scrape_metrics
from repro.service.client import AsyncBinaryPlacementClient
from repro.service.coordinator import ShardedPlacementServer
from repro.service.engine import PlacementEngine
from repro.service.server import PlacementServer

N_SHARDS = 4
SPEC = {"method": "optchain", "n_shards": N_SHARDS, "epoch_length": 500}


#: ``repro_t2s_rows_resident`` after the fixture stream on a numpy
#: engine: the arena's high-water, above the live count it ends at.
RECORDED_ROWS_RESIDENT = 2_095
RECORDED_LIVE_VECTORS = 1_925


@pytest.fixture(scope="module")
def stream():
    return synthetic_stream(3_000, seed=7)


def _hist_count(families, **labels):
    return sample_value(
        families,
        "repro_batch_latency_seconds",
        "repro_batch_latency_seconds_count",
        **labels,
    )


class TestSingleProcess:
    def test_scrape_engine_and_drift(self, stream):
        async def scenario():
            engine = PlacementEngine(
                make_placer("optchain", N_SHARDS), epoch_length=500
            )
            engine.drift_monitor = DriftMonitor(
                N_SHARDS, method="optchain", sample_every=4
            )
            server = PlacementServer(engine, port=0, metrics_port=0)
            await server.start()
            try:
                client = await AsyncBinaryPlacementClient.connect(
                    port=server.port
                )
                for offset in range(0, len(stream), 250):
                    await client.place(stream[offset : offset + 250])

                families = await scrape_metrics(
                    "127.0.0.1", server.metrics_port
                )
                info = families["repro_service_info"]
                labels = dict(next(iter(info["samples"]))[1])
                assert labels["mode"] == "single"
                assert _hist_count(families, partition="0") == len(
                    stream
                ) // 250
                assert (
                    sample_value(
                        families, "repro_placed_total", partition="0"
                    )
                    == len(stream)
                )
                assert (
                    sample_value(
                        families, "repro_engine_placed", partition="0"
                    )
                    == len(stream)
                )
                assert (
                    sample_value(
                        families, "repro_live_vectors", partition="0"
                    )
                    is not None
                )
                p999 = quantile_from_scrape(
                    families,
                    "repro_batch_latency_seconds",
                    0.999,
                    partition="0",
                )
                assert p999 is not None and p999 > 0
                # Drift gauges present with derived rates.
                assert (
                    sample_value(
                        families, "repro_drift_delta", partition="0"
                    )
                    == 0.0
                )
                assert (
                    sample_value(
                        families,
                        "repro_drift_sampled_txs_total",
                        partition="0",
                    )
                    > 0
                )
                assert (
                    sample_value(
                        families, "repro_rss_kilobytes", process="worker-0"
                    )
                    > 0
                )

                # The stats op carries the same observability payload.
                reply = await client.request({"op": "stats"})
                obs = reply["obs"]
                assert obs["metrics"]["placed"] == len(stream)
                assert obs["metrics"]["batch_latency"]["count"] > 0
                assert obs["rss_kb"] > 0
                assert obs["drift"]["sampled_txs_total"] > 0
                await client.close()
            finally:
                await server.stop()

        asyncio.run(scenario())

    def test_t2s_rows_resident_gauge_is_exact(self, stream):
        """The numpy store's arena occupancy for one fixed single-client
        stream: a recorded value, identical on a second server."""
        from repro.core.backends import backend_unavailable_reason

        if backend_unavailable_reason("numpy") is not None:
            pytest.skip("numpy backend (compiled kernel) unavailable")

        async def scrape_once():
            engine = PlacementEngine(
                make_placer("optchain", N_SHARDS, backend="numpy"),
                epoch_length=500,
            )
            server = PlacementServer(engine, port=0, metrics_port=0)
            await server.start()
            try:
                client = await AsyncBinaryPlacementClient.connect(
                    port=server.port
                )
                for offset in range(0, len(stream), 250):
                    await client.place(stream[offset : offset + 250])
                families = await scrape_metrics(
                    "127.0.0.1", server.metrics_port
                )
                reply = await client.request({"op": "stats"})
                await client.close()
            finally:
                await server.stop()
            rows = sample_value(
                families, "repro_t2s_rows_resident", partition="0"
            )
            assert rows == reply["obs"]["rows_resident"]
            assert rows == engine.stats().rows_resident
            assert "rows_resident" not in reply["stats"]
            return rows, reply["stats"]["live_vectors"]

        first = asyncio.run(scrape_once())
        assert first == (RECORDED_ROWS_RESIDENT, RECORDED_LIVE_VECTORS)
        assert asyncio.run(scrape_once()) == first

    def test_metrics_port_off_by_default(self):
        async def scenario():
            engine = PlacementEngine(make_placer("optchain", N_SHARDS))
            server = PlacementServer(engine, port=0)
            await server.start()
            try:
                assert server.metrics_port is None
            finally:
                await server.stop()

        asyncio.run(scenario())


class TestSharded:
    def test_scrape_three_workers(self, stream, tmp_path):
        async def scenario():
            spec = dict(
                SPEC,
                drift_sample_every=4,
                drift_window=20_000,
                drift_threshold=0.5,
                drift_min_samples=100,
            )
            server = ShardedPlacementServer(
                spec,
                3,
                port=0,
                lease_length=600,
                checkpoint_path=str(tmp_path / "svc.ckpt"),
                metrics_port=0,
            )
            await server.start()
            try:
                client = await AsyncBinaryPlacementClient.connect(
                    port=server.port
                )
                for offset in range(0, len(stream), 250):
                    await client.place(stream[offset : offset + 250])
                await client.checkpoint()

                families = await scrape_metrics(
                    "127.0.0.1", server.metrics_port
                )
                # Per-partition histograms plus the merged "all" series;
                # batch counts over all partitions sum to the merged.
                per_part = [
                    _hist_count(families, partition=str(p))
                    for p in range(3)
                ]
                assert all(count is not None for count in per_part)
                assert _hist_count(families, partition="all") == sum(
                    per_part
                )
                placed = [
                    sample_value(
                        families, "repro_placed_total", partition=str(p)
                    )
                    for p in range(3)
                ]
                assert sum(placed) == len(stream)
                # p999 derivable from the merged scrape ladder.
                p999 = quantile_from_scrape(
                    families,
                    "repro_batch_latency_seconds",
                    0.999,
                    partition="all",
                )
                assert p999 is not None and p999 > 0
                # WAL counters flow up from the workers.
                wal_bytes = sum(
                    sample_value(
                        families,
                        "repro_wal_bytes_appended_total",
                        partition=str(p),
                    )
                    or 0
                    for p in range(3)
                )
                assert wal_bytes > 0
                # Coordinator gauges: lease state and health.
                assert sample_value(families, "repro_lease_cursor") == len(
                    stream
                )
                assert sample_value(
                    families, "repro_granted_partition"
                ) in (0.0, 1.0, 2.0)
                assert sample_value(families, "repro_degraded") == 0
                assert (
                    sample_value(
                        families,
                        "repro_worker_respawns_total",
                        partition="coordinator",
                    )
                    == 0
                )
                assert (
                    sample_value(
                        families,
                        "repro_rss_kilobytes",
                        process="coordinator",
                    )
                    > 0
                )
                # Drift rides the workers; merged "all" gauge exported.
                assert (
                    sample_value(
                        families, "repro_drift_delta", partition="all"
                    )
                    is not None
                )
                await client.close()
            finally:
                await server.stop()

        asyncio.run(scenario())

    def test_stats_op_obs_partitions(self, stream):
        async def scenario():
            server = ShardedPlacementServer(
                dict(SPEC), 2, port=0, lease_length=600, metrics_port=0
            )
            await server.start()
            try:
                client = await AsyncBinaryPlacementClient.connect(
                    port=server.port
                )
                for offset in range(0, 2_000, 250):
                    await client.place(stream[offset : offset + 250])
                reply = await client.request({"op": "stats"})
                obs = reply["obs"]
                assert obs["metrics"]["placed"] == 2_000
                assert len(obs["partitions"]) == 2
                assert sorted(
                    part["partition_id"] for part in obs["partitions"]
                ) == [0, 1]
                assert (
                    sum(
                        part["metrics"]["placed"]
                        for part in obs["partitions"]
                    )
                    == 2_000
                )
                # No checkpoint path: no WAL, and drift was not enabled.
                assert obs["wal"] is None
                # Every hand-off has a recorded price, and with one
                # request in flight it is an exact function of the
                # stream: one acquire per placed run that reads a parent
                # another partition owns, one ref per distinct parent.
                acquires = refs = 0
                cuts = sorted({*range(0, 2_001, 250), 600, 1_200, 1_800})
                for first, end in zip(cuts, cuts[1:]):
                    foreign = {
                        outpoint.txid
                        for tx in stream[first:end]
                        for outpoint in tx.inputs
                        if outpoint.txid < first
                        and outpoint.txid // 600 % 2 != first // 600 % 2
                    }
                    acquires += bool(foreign)
                    refs += len(foreign)
                metrics = obs["metrics"]
                assert refs > 0
                assert metrics["remote_parent_refs"] == refs
                assert metrics["acquire_round_trips"] == acquires
                # Per parent: 44 B of scalars + 12 B per vector entry
                # (at most the 4 shards here), and its share of the
                # frame's 16-byte header. JSON took ~394 B at k=16.
                assert 44 < metrics["parent_state_bytes"] / refs <= 44 + 48 + 16
                assert metrics["writeback_bytes"] > 0
                assert metrics["writeback_bytes"] % 8 == 0
                await client.close()
            finally:
                await server.stop()

        asyncio.run(scenario())
