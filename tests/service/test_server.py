"""Server protocol edges: malformed lines, limits, disconnects, drain.

Tests drive a real server over real sockets on an ephemeral port. The
plain-asyncio harness (``asyncio.run`` per test) keeps the suite free
of extra test dependencies.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.placement import make_placer
from repro.datasets.synthetic import synthetic_stream
from repro.errors import EngineError, ProtocolError, RetryLaterError
from repro.service.client import AsyncPlacementClient, PlacementClient
from repro.service.engine import PlacementEngine
from repro.service.server import PlacementServer
from repro.service.state import load_engine_snapshot
from repro.service.wire import encode_batch

N_SHARDS = 4


@pytest.fixture(scope="module")
def stream():
    return synthetic_stream(2_000, seed=31)


def run_with_server(test_coro, **server_kwargs):
    """Start a server on an ephemeral port, run ``test_coro(server)``,
    stop the server."""

    async def main():
        engine = server_kwargs.pop(
            "engine", None
        ) or PlacementEngine(
            make_placer("optchain", N_SHARDS), epoch_length=500
        )
        server = PlacementServer(engine, port=0, **server_kwargs)
        await server.start()
        try:
            await test_coro(server)
        finally:
            await server.stop()

    asyncio.run(main())


async def raw_roundtrip(port, payload: bytes) -> dict:
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(payload)
    await writer.drain()
    line = await asyncio.wait_for(reader.readline(), timeout=5)
    writer.close()
    return json.loads(line)


class TestProtocolEdges:
    def test_malformed_json_line(self, stream):
        async def scenario(server):
            response = await raw_roundtrip(
                server.port, b"this is not json{{{\n"
            )
            assert response["ok"] is False
            assert response["code"] == "protocol"
            assert "JSON" in response["error"]

        run_with_server(scenario)

    def test_connection_survives_bad_line(self, stream):
        async def scenario(server):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            writer.write(b"garbage\n")
            bad = json.loads(await reader.readline())
            assert bad["ok"] is False
            # Same connection, valid request right after.
            writer.write(
                json.dumps(
                    {
                        "op": "place",
                        "id": 2,
                        "txs": encode_batch(stream[:50]),
                    }
                ).encode()
                + b"\n"
            )
            good = json.loads(await reader.readline())
            assert good["ok"] is True
            assert len(good["shards"]) == 50
            writer.close()

        run_with_server(scenario)

    def test_non_object_and_unknown_op(self, stream):
        async def scenario(server):
            response = await raw_roundtrip(server.port, b"[1,2,3]\n")
            assert response["ok"] is False
            assert "JSON object" in response["error"]
            response = await raw_roundtrip(
                server.port, b'{"op":"fly","id":1}\n'
            )
            assert response["ok"] is False
            assert "unknown op" in response["error"]

        run_with_server(scenario)

    def test_oversized_batch_rejected(self, stream):
        async def scenario(server):
            client = await AsyncPlacementClient.connect(
                port=server.port
            )
            with pytest.raises(ProtocolError, match="max_batch_txs"):
                await client.place(stream[:200])
            # The engine is untouched and smaller batches still work.
            assert await client.place(stream[:100]) is not None
            await client.close()

        run_with_server(scenario, max_batch_txs=100)

    def test_oversized_line_closes_connection(self, stream):
        async def scenario(server):
            response = await raw_roundtrip(
                server.port, b"x" * 5_000 + b"\n"
            )
            assert response["ok"] is False
            assert "exceeds" in response["error"]

        run_with_server(scenario, max_line_bytes=1_024)

    def test_non_contiguous_txids_rejected(self, stream):
        async def scenario(server):
            encoded = encode_batch([stream[0], stream[2]])
            response = await raw_roundtrip(
                server.port,
                json.dumps(
                    {"op": "place", "id": 1, "txs": encoded}
                ).encode()
                + b"\n",
            )
            assert response["ok"] is False
            assert "contiguous" in response["error"]

        run_with_server(scenario)

    def test_empty_batch_rejected(self, stream):
        async def scenario(server):
            response = await raw_roundtrip(
                server.port,
                b'{"op":"place","id":1,"txs":[]}\n',
            )
            assert response["ok"] is False
            assert "empty" in response["error"]

        run_with_server(scenario)

    def test_already_placed_answered_idempotently(self, stream):
        # A full resubmission (client retry after a lost response)
        # gets the identical shards back, not an error; a *partial*
        # overlap is still rejected (see
        # test_overlapping_range_failed_not_hung).
        async def scenario(server):
            client = await AsyncPlacementClient.connect(
                port=server.port
            )
            original = await client.place(stream[:100])
            duplicate = await client.place(stream[:100])
            assert duplicate == original
            await client.close()

        run_with_server(scenario)

    def test_duplicate_queued_start_retryable(self, stream):
        async def scenario(server):
            client = await AsyncPlacementClient.connect(
                port=server.port
            )
            # Gap at 0 keeps both requests queued in the sequencer.
            first = client.place_nowait(stream[100:200])
            await asyncio.sleep(0.05)
            duplicate = await client.request(
                {"op": "ping"}
            )  # keepalive; now send the duplicate start
            assert duplicate["ok"]
            # The original is still queued: the duplicate is turned
            # away with a retryable error, not a hard protocol error.
            with pytest.raises(RetryLaterError, match="already queued"):
                await client.place(stream[100:150])
            # Fill the gap; the queued request completes.
            await client.place(stream[:100])
            result = await first
            assert result["ok"] is True
            await client.close()

        run_with_server(scenario)


class TestDispatcherResilience:
    def test_internal_placer_error_fails_request_not_dispatcher(
        self, stream
    ):
        async def scenario(server):
            client = await AsyncPlacementClient.connect(
                port=server.port
            )
            original = server.engine.place_wire_batch

            def explode(batch):
                server.engine.place_wire_batch = original
                raise RuntimeError("injected placer bug")

            server.engine.place_wire_batch = explode
            with pytest.raises(EngineError, match="internal error"):
                await client.place(stream[:50])
            # The dispatcher survived: the next request is served.
            shards = await client.place(stream[:50])
            assert len(shards) == 50
            await client.close()

        run_with_server(scenario)

    def test_overlapping_range_failed_not_hung(self, stream):
        async def scenario(server):
            client = await AsyncPlacementClient.connect(
                port=server.port
            )
            # Queue an overlapping range first (gap at 0 holds it),
            # then fill 0..99; the cursor passes 50 and the stale
            # request must be *failed*, not leaked.
            overlap = client.place_nowait(stream[50:150])
            await asyncio.sleep(0.05)
            await client.place(stream[:100])
            result = await asyncio.wait_for(overlap, timeout=5)
            assert result["ok"] is False
            assert "already placed" in result["error"]
            # The reorder slot was reclaimed; the stream continues.
            assert (
                len(await client.place(stream[100:150])) == 50
            )
            await client.close()

        run_with_server(scenario)


class TestDisconnectMidBatch:
    def test_disconnect_mid_batch_state_stays_consistent(self, stream):
        async def scenario(server):
            # Client sends a place request and vanishes immediately,
            # before the response can be written.
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            writer.write(
                json.dumps(
                    {
                        "op": "place",
                        "id": 1,
                        "txs": encode_batch(stream[:100]),
                    }
                ).encode()
                + b"\n"
            )
            await writer.drain()
            writer.close()
            # The request was already sequenced: the engine places it.
            for _ in range(100):
                if server.engine.n_placed == 100:
                    break
                await asyncio.sleep(0.01)
            assert server.engine.n_placed == 100
            # And the stream continues seamlessly for other clients.
            client = await AsyncPlacementClient.connect(
                port=server.port
            )
            shards = await client.place(stream[100:200])
            assert len(shards) == 100
            await client.close()

        run_with_server(scenario)


class TestShutdown:
    def test_shutdown_op_drains_and_checkpoints(self, tmp_path, stream):
        snapshot = tmp_path / "drain.snap"

        async def scenario(server):
            client = await AsyncPlacementClient.connect(
                port=server.port
            )
            await client.place(stream[:300])
            await client.shutdown()
            await server.wait_stopped()
            # New connections are refused after shutdown.
            with pytest.raises(OSError):
                await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
            await client.close()

        run_with_server(scenario, checkpoint_path=str(snapshot))
        restored = load_engine_snapshot(snapshot)
        assert restored.n_placed == 300

    def test_stats_op_reports_support_section(self, stream):
        async def scenario(server):
            client = await AsyncPlacementClient.connect(
                port=server.port
            )
            await client.place(stream[:300])
            stats = await client.stats()
            support = stats["support"]
            assert support["live_vectors"] > 0
            assert support["mean_nnz"] > 0.0
            assert support["max_nnz"] >= 1
            assert support["dropped_mass"] == 0.0
            assert support["support_cap"] is None
            await client.close()

        run_with_server(scenario)

    def test_compressed_checkpoint_on_shutdown(self, tmp_path, stream):
        snapshot = tmp_path / "packed.snap"

        async def scenario(server):
            client = await AsyncPlacementClient.connect(
                port=server.port
            )
            await client.place(stream[:300])
            await client.shutdown()
            await server.wait_stopped()
            await client.close()

        engine = PlacementEngine(
            make_placer("optchain-topk", N_SHARDS, support_cap=2),
            epoch_length=500,
        )
        run_with_server(
            scenario,
            engine=engine,
            checkpoint_path=str(snapshot),
            checkpoint_compress=True,
        )
        restored = load_engine_snapshot(snapshot)
        assert restored.n_placed == 300
        assert restored.placer.support_cap == 2

    def test_gapped_request_failed_on_shutdown(self, stream):
        async def scenario(server):
            client = await AsyncPlacementClient.connect(
                port=server.port
            )
            # txids 100.. can never dispatch (0..99 missing).
            future = client.place_nowait(stream[100:150])
            await asyncio.sleep(0.05)
            await server.stop()
            result = await asyncio.wait_for(future, timeout=5)
            assert result["ok"] is False
            assert result["code"] == "shutdown"
            await client.close()

        run_with_server(scenario)


class TestSigterm:
    def test_sigterm_drains_and_checkpoints(self, tmp_path):
        """End-to-end: `repro serve` under SIGTERM writes a restorable
        checkpoint (the satellite's checkpoint-on-SIGTERM drain)."""
        snapshot = tmp_path / "sigterm.snap"
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
                "--checkpoint",
                str(snapshot),
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )
        try:
            banner = process.stdout.readline()
            assert "serving" in banner, banner
            port = int(banner.rsplit(":", 1)[1])
            batch = synthetic_stream(400, seed=5)
            with PlacementClient(port=port) as client:
                shards = client.place(batch)
                assert len(shards) == 400
            process.send_signal(signal.SIGTERM)
            process.wait(timeout=30)
        finally:
            if process.poll() is None:
                process.kill()
                process.wait()
        assert process.returncode == 0, process.stderr.read()
        assert snapshot.exists()
        restored = load_engine_snapshot(snapshot)
        assert restored.n_placed == 400
        # The restored engine continues the same stream seamlessly.
        more = synthetic_stream(500, seed=5)[400:]
        assert len(restored.place_batch(more)) == 100


class TestLoadgenIntegration:
    def test_closed_and_open_loops_place_everything(self, stream):
        from repro.service.loadgen import run_loadgen_async

        async def scenario(server):
            report = await run_loadgen_async(
                port=server.port,
                stream=stream[:1_000],
                n_users=4,
                chunk_size=100,
            )
            assert report.errors == 0
            assert report.n_txs == 1_000
            assert server.engine.n_placed == 1_000

            open_report = await run_loadgen_async(
                port=server.port,
                stream=stream[1_000:2_000],
                n_users=4,
                chunk_size=100,
                mode="open",
                rate=200_000.0,
            )
            assert open_report.errors == 0
            assert server.engine.n_placed == 2_000
            assert open_report.target_rate == 200_000.0

        run_with_server(scenario)

    def test_served_placements_match_local(self, stream):
        from repro.service.loadgen import run_loadgen_async

        expected = make_placer("optchain", N_SHARDS).place_stream(
            stream
        )

        async def scenario(server):
            await run_loadgen_async(
                port=server.port,
                stream=stream,
                n_users=7,
                chunk_size=64,
            )
            assert server.engine.placer.assignment() == expected

        run_with_server(scenario)
