"""Placement-service benchmark - serving throughput + bounded memory.

This is where the repo's two perf frontiers meet a serving interface:

- **throughput**: placements/s through the engine's batched in-process
  path (validation + truncation bookkeeping + the fused ``place_batch``
  hot path) at k=16, with the raw placer lane alongside so the serving
  overhead is measured, not guessed;
- **numpy engine lanes** (``--numpy``): the same batched engine path on
  the vectorized backend vs python, per shard count (default k=16,64),
  bit-identity gated - the recorded run gates a >= 5x speedup (kernel
  validation + zero-copy placement; see PERFORMANCE.md "Vectorized
  backend"). When the lane is not requested the result records
  ``{"skipped": reason}`` - never a silently-empty list - and
  ``--check`` with ``--min-engine-speedup`` fails loudly on a skipped
  or empty lane;
- **wal overhead**: the same engine lane with the per-partition
  write-ahead batch journal on vs off (pre-encoded payloads, so the
  delta is journal I/O alone) - the crash-safety tax on serving
  throughput;
- **snapshot**: checkpoint cost at the midpoint plus a
  restore-then-continue equivalence check;
- **memory bound**: a 1M+ transaction stream through the epoch/horizon
  truncation policy, sampling live T2S vectors per epoch - the gated
  claim is that the live count is bounded by the horizon window, not
  O(total transactions) like the seed store;
- **quality drift**: cross-shard fraction of horizon-truncated vs exact
  placements (what the bounded memory costs in placement quality);
- **codec**: isolated CPU cost per transaction of one full wire round
  trip (client encode, server decode, response encode, response
  decode) for the NDJSON and binary codecs. This is the number the
  binary protocol changes, measured without the engine's fixed cost -
  end to end, Amdahl caps the visible speedup once the codec is no
  longer the bottleneck (see PERFORMANCE.md "Sharded serving");
- **loadgen**: end-to-end placements/s over real sockets (server +
  closed-loop load generator in one process), one lane per codec;
- **workers sweep**: the sharded service (``--workers N``) under the
  binary-codec load generator, one row per worker count.

Results land in ``BENCH_service.json``. Run it directly::

    PYTHONPATH=src python benchmarks/bench_service_throughput.py
    PYTHONPATH=src python benchmarks/bench_service_throughput.py --check
    PYTHONPATH=src python benchmarks/bench_service_throughput.py \
        --txs 20000 --memory-txs 60000 --loadgen-txs 5000 \
        --epoch-length 5000 --min-throughput 40000 \
        --check --out /tmp/smoke.json                          # CI smoke

``--check`` enforces the acceptance gates: engine throughput >=
``--min-throughput`` (100k/s by default) at k=16, the write-ahead
journal costing <= ``--max-wal-overhead-pct`` (15%) of engine
throughput, latency-histogram recording costing <=
``--max-hist-overhead-pct`` (5%), live vectors bounded
by the horizon window over the memory stream, snapshot round-trip
bit-identical (full and delta), engine placements identical to the raw
placer, binary codec CPU >= ``--min-codec-ratio`` (2.0x) cheaper than
JSON per round trip, binary socket lane >= the JSON lane, and the
sharded ``--workers 1`` lane error-free with every placement matching
the monolith's count.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import json
import platform
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core.placement import make_placer
from repro.datasets.replay import chunk_stream
from repro.datasets.synthetic import BitcoinLikeGenerator, synthetic_stream
from repro.partition.quality import cross_shard_fraction
from repro.service import wire
from repro.service.engine import PlacementEngine
from repro.service.loadgen import run_loadgen_async
from repro.service.server import PlacementServer
from repro.service.state import load_engine_snapshot

STREAM_SEED = 42
N_SHARDS = 16


def rss_kb() -> int:
    """Resident set size in kB (Linux; 0 where unsupported)."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def bench_throughput(stream, batch_size, repeats, epoch_length):
    """Best-of engine placements/s + raw placer lane + snapshot probe.

    Lanes alternate and the *gated* figure uses best-of CPU time
    (``process_time``), the same protocol the simulator bench adopted:
    wall-clock on this shared single-vCPU container fluctuates ±20%
    across runs with neighbor load, which is noise about the machine,
    not the code. Wall-clock is recorded alongside for context.
    """
    raw_cpu = raw_wall = float("inf")
    engine_cpu = engine_wall = float("inf")
    raw_assignment = None
    engine_assignment = None
    final_engine = None
    for _ in range(repeats):
        gc.collect()
        placer = make_placer("optchain", N_SHARDS)
        wall0 = time.perf_counter()
        cpu0 = time.process_time()
        raw_assignment = placer.place_stream(stream)
        raw_cpu = min(raw_cpu, time.process_time() - cpu0)
        raw_wall = min(raw_wall, time.perf_counter() - wall0)

        gc.collect()
        engine = PlacementEngine(
            make_placer("optchain", N_SHARDS), epoch_length=epoch_length
        )
        shards = []
        wall0 = time.perf_counter()
        cpu0 = time.process_time()
        for offset in range(0, len(stream), batch_size):
            shards.extend(
                engine.place_batch(stream[offset : offset + batch_size])
            )
        engine_cpu = min(engine_cpu, time.process_time() - cpu0)
        engine_wall = min(engine_wall, time.perf_counter() - wall0)
        engine_assignment = shards
        final_engine = engine

    n_tx = len(stream)
    stats = final_engine.stats()
    return {
        "n_tx": n_tx,
        "n_shards": N_SHARDS,
        "batch_size": batch_size,
        "repeats": repeats,
        "engine_tx_per_s": round(n_tx / engine_cpu, 1),
        "raw_placer_tx_per_s": round(n_tx / raw_cpu, 1),
        "engine_tx_per_s_wall": round(n_tx / engine_wall, 1),
        "raw_placer_tx_per_s_wall": round(n_tx / raw_wall, 1),
        "serving_overhead_pct": round(
            100.0 * (engine_cpu / raw_cpu - 1.0), 1
        ),
        "identical_to_raw_placer": engine_assignment == raw_assignment,
        "live_vectors": stats.live_vectors,
        "released_vectors": stats.released_vectors,
    }, raw_assignment


def bench_numpy_engine(stream, batch_size, repeats, epoch_length, shards):
    """Vectorized-backend engine lanes, python vs numpy per shard count.

    The same batched engine path as the gated throughput lane, run with
    ``backend=python`` and ``backend=numpy`` side by side. The identity
    bit is the backend contract (bit-identical placements); the speedup
    is the recorded claim (>= 5x engine placements/s at k=16 and
    k=64 on the 100k-tx run). CPU best-of per the bench protocol.
    """
    rows = []
    n_tx = len(stream)
    for n_shards in shards:
        cpu = {}
        assignments = {}
        for backend in ("python", "numpy"):
            best_cpu = float("inf")
            placed = None
            for _ in range(repeats):
                gc.collect()
                engine = PlacementEngine(
                    make_placer("optchain", n_shards, backend=backend),
                    epoch_length=epoch_length,
                )
                placed = []
                cpu0 = time.process_time()
                for offset in range(0, n_tx, batch_size):
                    placed.extend(
                        engine.place_batch(
                            stream[offset : offset + batch_size]
                        )
                    )
                best_cpu = min(best_cpu, time.process_time() - cpu0)
            cpu[backend] = best_cpu
            assignments[backend] = placed
        identical = assignments["python"] == assignments["numpy"]
        speedup = cpu["python"] / cpu["numpy"]
        rows.append(
            {
                "n_tx": n_tx,
                "n_shards": n_shards,
                "batch_size": batch_size,
                "python_tx_per_s": round(n_tx / cpu["python"], 1),
                "numpy_tx_per_s": round(n_tx / cpu["numpy"], 1),
                "speedup": round(speedup, 2),
                "identical_to_python": identical,
            }
        )
        print(
            f"  k={n_shards:<3} python "
            f"{n_tx / cpu['python']:>12,.0f} tx/s   numpy "
            f"{n_tx / cpu['numpy']:>12,.0f} tx/s   "
            f"({speedup:.2f}x)"
            + ("  [== python]" if identical else "  !! DIVERGED"),
            flush=True,
        )
    return rows


def bench_wal_overhead(stream, batch_size, repeats, epoch_length, tmp_dir):
    """Serving cost of the write-ahead batch journal at k=16.

    Same stream, same partition path, WAL off vs on; both lanes feed
    pre-decoded wire batches (as the worker does - the journal records
    their payloads, never re-encoding) and the encode/decode cost sits
    *outside* the timed loop so the delta is journal I/O alone: CRC,
    framing, buffered write, fsync every ``sync_every_bytes``. CPU
    best-of per the repo's bench protocol; wall recorded for context
    (fsync waits are invisible to ``process_time``).
    """
    from repro.service.journal import BatchJournal
    from repro.service.partition import EnginePartition
    from repro.service.wire import (
        FRAME_HEADER_BYTES,
        decode_place_arrays,
        encode_place_request,
    )

    batches = [
        decode_place_arrays(
            encode_place_request(0, stream[offset : offset + batch_size])[
                FRAME_HEADER_BYTES:
            ]
        )
        for offset in range(0, len(stream), batch_size)
    ]

    def build_partition():
        engine = PlacementEngine(
            make_placer("optchain", N_SHARDS), epoch_length=epoch_length
        )
        return EnginePartition(
            engine,
            partition_id=0,
            n_partitions=1,
            lease_length=len(stream),
        )

    off_cpu = off_wall = float("inf")
    on_cpu = on_wall = float("inf")
    wal_bytes = 0
    path = Path(tmp_dir) / "bench_service.wal"
    for _ in range(repeats):
        gc.collect()
        partition = build_partition()
        wall0 = time.perf_counter()
        cpu0 = time.process_time()
        for batch in batches:
            partition.place_batch(batch)
        off_cpu = min(off_cpu, time.process_time() - cpu0)
        off_wall = min(off_wall, time.perf_counter() - wall0)

        gc.collect()
        partition = build_partition()
        journal = BatchJournal(str(path), 0, 1, len(stream))
        journal.open(0, "")
        partition.journal = journal
        wall0 = time.perf_counter()
        cpu0 = time.process_time()
        for batch in batches:
            partition.place_batch(batch)
        on_cpu = min(on_cpu, time.process_time() - cpu0)
        on_wall = min(on_wall, time.perf_counter() - wall0)
        wal_bytes = journal.tell()
        journal.close()
        path.unlink()

    n_tx = len(stream)
    return {
        "n_tx": n_tx,
        "n_shards": N_SHARDS,
        "batch_size": batch_size,
        "wal_off_tx_per_s": round(n_tx / off_cpu, 1),
        "wal_on_tx_per_s": round(n_tx / on_cpu, 1),
        "wal_off_tx_per_s_wall": round(n_tx / off_wall, 1),
        "wal_on_tx_per_s_wall": round(n_tx / on_wall, 1),
        "overhead_pct": round(100.0 * (on_cpu / off_cpu - 1.0), 1),
        "overhead_pct_wall": round(
            100.0 * (on_wall / off_wall - 1.0), 1
        ),
        "wal_bytes": wal_bytes,
        "wal_bytes_per_tx": round(wal_bytes / n_tx, 1),
    }


def bench_hist_overhead(stream, repeats, epoch_length):
    """Serving cost of per-batch latency recording at k=16.

    The same batched engine loop with and without the bookkeeping the
    dispatcher does per micro-batch (two ``perf_counter`` reads, one
    log-histogram record, two counter bumps), at 256-tx batches - the
    loadgen chunk granularity, where the per-batch cost is most
    visible (at the 8192 coalescing ceiling it vanishes). The check
    gate holds it under ``--max-hist-overhead-pct`` (5%) of engine
    throughput. CPU best-of per the bench protocol.
    """
    from repro.obs.metrics import ServiceMetrics

    chunk = 256
    plain_cpu = timed_cpu = float("inf")
    metrics = None
    for _ in range(repeats):
        gc.collect()
        engine = PlacementEngine(
            make_placer("optchain", N_SHARDS), epoch_length=epoch_length
        )
        cpu0 = time.process_time()
        for offset in range(0, len(stream), chunk):
            engine.place_batch(stream[offset : offset + chunk])
        plain_cpu = min(plain_cpu, time.process_time() - cpu0)

        gc.collect()
        engine = PlacementEngine(
            make_placer("optchain", N_SHARDS), epoch_length=epoch_length
        )
        metrics = ServiceMetrics()
        cpu0 = time.process_time()
        for offset in range(0, len(stream), chunk):
            batch = stream[offset : offset + chunk]
            started = time.perf_counter()
            engine.place_batch(batch)
            metrics.record_batch(
                len(batch), time.perf_counter() - started
            )
        timed_cpu = min(timed_cpu, time.process_time() - cpu0)
    n_tx = len(stream)
    hist = metrics.batch_latency
    return {
        "n_tx": n_tx,
        "batch_size": chunk,
        "plain_tx_per_s": round(n_tx / plain_cpu, 1),
        "instrumented_tx_per_s": round(n_tx / timed_cpu, 1),
        "overhead_pct": round(100.0 * (timed_cpu / plain_cpu - 1.0), 2),
        "records": hist.count,
        "server_batch_ms_p50": round(hist.percentile(0.5) * 1e3, 3),
        "server_batch_ms_p99": round(hist.percentile(0.99) * 1e3, 3),
    }


def bench_snapshot(stream, tmp_dir, epoch_length):
    """Checkpoint cost at the midpoint + restore equivalence.

    Also measures the delta lane (format v3): a full snapshot at the
    40% mark, a delta after another 10% of stream - the delta write is
    O(activity since base) where the full write is O(n_placed), which
    is the bounded-checkpoint-cost claim.
    """
    split = len(stream) // 2
    base_at = int(len(stream) * 0.4)
    reference = make_placer("optchain", N_SHARDS)
    expected = reference.place_stream(stream)

    engine = PlacementEngine(
        make_placer("optchain", N_SHARDS), epoch_length=epoch_length
    )
    head = engine.place_batch(stream[:base_at])
    path = Path(tmp_dir) / "bench_service.snap"
    engine.checkpoint(path, track_delta=True)  # the delta's base
    head += engine.place_batch(stream[base_at:split])
    start = time.perf_counter()
    delta_size = engine.checkpoint(path, delta=True)
    delta_seconds = time.perf_counter() - start
    start = time.perf_counter()
    delta_restored = load_engine_snapshot(path)
    delta_load_seconds = time.perf_counter() - start
    delta_tail = delta_restored.place_batch(stream[split:])

    start = time.perf_counter()
    size = engine.checkpoint(path)
    save_seconds = time.perf_counter() - start
    start = time.perf_counter()
    restored = load_engine_snapshot(path)
    load_seconds = time.perf_counter() - start
    tail = restored.place_batch(stream[split:])
    loads_identical = (
        restored.placer._proxy.loads == reference._proxy.loads
    )
    path.unlink()
    return {
        "snapshot_at_tx": split,
        "bytes": size,
        "save_ms": round(save_seconds * 1e3, 2),
        "load_ms": round(load_seconds * 1e3, 2),
        "roundtrip_identical": head + tail == expected
        and loads_identical,
        "delta_base_at_tx": base_at,
        "delta_bytes": delta_size,
        "delta_save_ms": round(delta_seconds * 1e3, 2),
        "delta_load_ms": round(delta_load_seconds * 1e3, 2),
        "delta_roundtrip_identical": head + delta_tail == expected,
    }


def bench_memory_bound(n_tx, batch_size, epoch_length, horizon_epochs):
    """Stream n_tx through horizon truncation; sample live vectors."""
    generator = BitcoinLikeGenerator(seed=STREAM_SEED)
    engine = PlacementEngine(
        make_placer("optchain", N_SHARDS),
        epoch_length=epoch_length,
        horizon_epochs=horizon_epochs,
    )
    gc.collect()
    rss_start = rss_kb()
    samples = []
    sample_every = max(epoch_length, n_tx // 20)
    next_sample = sample_every
    start = time.perf_counter()
    for chunk in chunk_stream(generator.stream(n_tx), batch_size):
        engine.place_batch(chunk)
        if engine.n_placed >= next_sample:
            stats = engine.stats()
            samples.append(
                {
                    "n_placed": stats.n_placed,
                    "live_vectors": stats.live_vectors,
                    "rss_kb": rss_kb(),
                }
            )
            next_sample += sample_every
    elapsed = time.perf_counter() - start
    gc.collect()
    stats = engine.stats()
    live_bound = (horizon_epochs + 2) * epoch_length
    return {
        "n_tx": n_tx,
        "n_shards": N_SHARDS,
        "epoch_length": epoch_length,
        "horizon_epochs": horizon_epochs,
        "tx_per_s": round(n_tx / elapsed, 1),
        "final_live_vectors": stats.live_vectors,
        "peak_live_vectors": stats.peak_live_vectors,
        "released_vectors": stats.released_vectors,
        "live_vector_bound": live_bound,
        "rss_start_kb": rss_start,
        "rss_end_kb": rss_kb(),
        "samples": samples,
        # RSS caveat: the generator's wallet/UTXO model shares the
        # process and grows with the stream; the *gated* memory claim
        # is the live-vector bound, RSS is context.
    }


def bench_quality_drift(stream, raw_assignment, batch_size):
    """What the horizon policy costs in placement quality."""
    engine = PlacementEngine(
        make_placer("optchain", N_SHARDS),
        epoch_length=max(1_000, len(stream) // 20),
        horizon_epochs=4,
    )
    truncated = []
    for offset in range(0, len(stream), batch_size):
        truncated.extend(
            engine.place_batch(stream[offset : offset + batch_size])
        )
    exact_cross = cross_shard_fraction(stream, raw_assignment)
    truncated_cross = cross_shard_fraction(stream, truncated)
    changed = sum(
        1 for a, b in zip(raw_assignment, truncated) if a != b
    )
    return {
        "n_tx": len(stream),
        "epoch_length": engine.stats().epoch_length,
        "horizon_epochs": 4,
        "exact_cross_shard": round(exact_cross, 6),
        "truncated_cross_shard": round(truncated_cross, 6),
        "cross_shard_delta": round(truncated_cross - exact_cross, 6),
        "placements_changed_fraction": round(
            changed / len(stream), 6
        ),
    }


def bench_codec_cpu(n_tx, chunk_size):
    """CPU per transaction of one full wire round trip, per codec.

    Client-side request encode + server-side request decode +
    server-side response encode + client-side response decode, over
    the same chunked stream both socket lanes replay. CPU time
    (``process_time``), best of 3, per the repo's bench protocol.
    """
    stream = synthetic_stream(n_tx, seed=STREAM_SEED)
    chunks = [
        stream[offset : offset + chunk_size]
        for offset in range(0, n_tx, chunk_size)
    ]
    fake_shards = [
        [txid % N_SHARDS for txid in range(c[0].txid, c[-1].txid + 1)]
        for c in chunks
    ]

    def json_roundtrip():
        for chunk, shards in zip(chunks, fake_shards):
            line = json.dumps(
                {"op": "place", "id": 1, "txs": wire.encode_batch(chunk)},
                separators=(",", ":"),
            ).encode()
            wire.decode_batch(json.loads(line)["txs"])
            response = json.dumps(
                {"id": 1, "ok": True, "shards": shards},
                separators=(",", ":"),
            ).encode()
            json.loads(response)

    def binary_roundtrip():
        for chunk, shards in zip(chunks, fake_shards):
            frame = wire.encode_place_request(1, chunk)
            wire.decode_place_payload(frame[wire.FRAME_HEADER_BYTES :])
            response = wire.encode_shards_response(1, shards)
            wire.decode_response(
                wire.RESPONSE_FLAG | wire.STATUS_SHARDS,
                response[wire.FRAME_HEADER_BYTES :],
            )

    results = {}
    for name, fn in (("json", json_roundtrip), ("binary", binary_roundtrip)):
        best = float("inf")
        for _ in range(3):
            gc.collect()
            start = time.process_time()
            fn()
            best = min(best, time.process_time() - start)
        results[name] = best
    return {
        "n_tx": n_tx,
        "chunk_size": chunk_size,
        "json_us_per_tx": round(results["json"] / n_tx * 1e6, 3),
        "binary_us_per_tx": round(results["binary"] / n_tx * 1e6, 3),
        "cpu_ratio_json_over_binary": round(
            results["json"] / results["binary"], 2
        ),
    }


def bench_loadgen(n_tx, n_users, chunk_size, proto="json"):
    """End-to-end socket path: server + closed-loop loadgen."""
    stream = synthetic_stream(n_tx, seed=STREAM_SEED)

    async def run():
        engine = PlacementEngine(
            make_placer("optchain", N_SHARDS), epoch_length=25_000
        )
        server = PlacementServer(engine, port=0)
        await server.start()
        try:
            report = await run_loadgen_async(
                port=server.port,
                stream=stream,
                n_users=n_users,
                chunk_size=chunk_size,
                proto=proto,
            )
        finally:
            await server.stop()
        return report, server.metrics.batch_latency

    report, server_hist = asyncio.run(run())
    payload = report.as_dict()
    payload["transport"] = "tcp-localhost"
    # Server-side dispatch latency (engine place_batch per coalesced
    # micro-batch), from the always-on serving histogram - the other
    # side of the client-observed chunk latencies above.
    payload["server_batches"] = server_hist.count
    payload["server_batch_ms_p50"] = round(
        server_hist.percentile(0.5) * 1e3, 3
    )
    payload["server_batch_ms_p99"] = round(
        server_hist.percentile(0.99) * 1e3, 3
    )
    return payload


def bench_workers(workers_list, lease_length, n_tx, n_users, chunk_size):
    """Sharded-service sweep: loadgen through N worker processes.

    Single-vCPU caveat: this container cannot overlap worker decode
    with placement, so rows beyond one worker mostly measure protocol
    overhead (handoffs + cross-partition reads); on multi-core hosts
    the decode offload is real headroom. The per-row numbers are
    recorded as measured, with the remote-read context alongside.
    """
    from repro.service.coordinator import ShardedPlacementServer

    stream = synthetic_stream(n_tx, seed=STREAM_SEED)
    rows = []
    for n_workers in workers_list:
        async def run():
            server = ShardedPlacementServer(
                {
                    "method": "optchain",
                    "n_shards": N_SHARDS,
                    "epoch_length": 25_000,
                },
                n_workers,
                port=0,
                lease_length=lease_length,
            )
            await server.start()
            try:
                report = await run_loadgen_async(
                    port=server.port,
                    stream=stream,
                    n_users=n_users,
                    chunk_size=chunk_size,
                    proto="binary",
                )
                cursor = server._cursor
                # Merged worker histograms via the stats op - the same
                # aggregation a monitoring client sees.
                merged = await server._merged_stats()
                snap = merged["obs"]["metrics"]["batch_latency"]
            finally:
                await server.stop()
            return report, cursor, snap

        report, cursor, snap = asyncio.run(run())
        from repro.obs.hist import LogHistogram

        server_hist = LogHistogram.from_snapshot(snap)
        row = report.as_dict()
        row["workers"] = n_workers
        row["lease_length"] = lease_length
        row["placed_total"] = cursor
        row["server_batches"] = server_hist.count
        row["server_batch_ms_p50"] = round(
            server_hist.percentile(0.5) * 1e3, 3
        )
        row["server_batch_ms_p99"] = round(
            server_hist.percentile(0.99) * 1e3, 3
        )
        rows.append(row)
        print(
            f"  workers={n_workers}: "
            f"{row['placements_per_s']:>9,.0f} placements/s   "
            f"p50 {row['latency_ms_p50']}ms   errors {row['errors']}",
            flush=True,
        )
    return rows


def run(args):
    t0 = time.perf_counter()
    stream = synthetic_stream(args.txs, seed=STREAM_SEED)
    gen_seconds = time.perf_counter() - t0

    # Warm both lanes (allocator arenas + code paths) so the first
    # measured repeat is not penalized; 20k tx is enough to stabilize.
    warm = stream[: min(20_000, args.txs)]
    make_placer("optchain", N_SHARDS).place_stream(warm)
    warm_engine = PlacementEngine(make_placer("optchain", N_SHARDS))
    warm_engine.place_batch(warm)

    print(f"throughput (k={N_SHARDS}, {args.txs} tx) ...", flush=True)
    throughput, raw_assignment = bench_throughput(
        stream, args.batch_size, args.repeats, args.epoch_length
    )
    print(
        f"  engine {throughput['engine_tx_per_s']:>12,.0f} tx/s   "
        f"raw {throughput['raw_placer_tx_per_s']:>12,.0f} tx/s   "
        f"overhead {throughput['serving_overhead_pct']}%",
        flush=True,
    )

    # Never a silently-empty lane: unrequested records why it is
    # missing, and check() fails loudly when a speedup gate is set but
    # no rows exist to hold it (the BENCH_service.json regression).
    numpy_engine: "list | dict" = {
        "skipped": "lane not requested (pass --numpy)"
    }
    if args.numpy:
        from repro.core.backends import backend_unavailable_reason

        reason = backend_unavailable_reason("numpy")
        if reason is not None:
            print(
                f"--numpy requested but unavailable: {reason}",
                file=sys.stderr,
            )
            return 1
        shards = [int(item) for item in args.numpy_shards.split(",")]
        print(
            f"numpy engine lanes (k in {shards}, {args.txs} tx) ...",
            flush=True,
        )
        numpy_engine = bench_numpy_engine(
            stream, args.batch_size, args.repeats, args.epoch_length, shards
        )

    print("wal overhead ...", flush=True)
    wal_overhead = bench_wal_overhead(
        stream,
        args.batch_size,
        args.repeats,
        args.epoch_length,
        args.tmp_dir,
    )
    print(
        f"  off {wal_overhead['wal_off_tx_per_s']:>12,.0f} tx/s   "
        f"on {wal_overhead['wal_on_tx_per_s']:>12,.0f} tx/s   "
        f"overhead {wal_overhead['overhead_pct']}% "
        f"({wal_overhead['wal_bytes_per_tx']} B/tx journaled)",
        flush=True,
    )

    print("histogram recording overhead ...", flush=True)
    hist_overhead = bench_hist_overhead(
        stream, args.repeats, args.epoch_length
    )
    print(
        f"  plain {hist_overhead['plain_tx_per_s']:>12,.0f} tx/s   "
        f"instrumented {hist_overhead['instrumented_tx_per_s']:>12,.0f} "
        f"tx/s   overhead {hist_overhead['overhead_pct']}% "
        f"({hist_overhead['records']} records, server p50 "
        f"{hist_overhead['server_batch_ms_p50']}ms)",
        flush=True,
    )

    print("snapshot ...", flush=True)
    snapshot = bench_snapshot(stream, args.tmp_dir, args.epoch_length)
    print(
        f"  {snapshot['bytes']:,} bytes, save {snapshot['save_ms']}ms, "
        f"load {snapshot['load_ms']}ms, identical="
        f"{snapshot['roundtrip_identical']}",
        flush=True,
    )

    print("quality drift (horizon truncation) ...", flush=True)
    drift = bench_quality_drift(stream, raw_assignment, args.batch_size)
    print(
        f"  cross-shard {drift['exact_cross_shard']:.4f} -> "
        f"{drift['truncated_cross_shard']:.4f} "
        f"(delta {drift['cross_shard_delta']:+.4f})",
        flush=True,
    )

    print(f"memory bound ({args.memory_txs} tx stream) ...", flush=True)
    memory = bench_memory_bound(
        args.memory_txs,
        args.batch_size,
        args.epoch_length,
        args.horizon_epochs,
    )
    print(
        f"  {memory['tx_per_s']:,.0f} tx/s, live vectors "
        f"{memory['final_live_vectors']:,} (peak "
        f"{memory['peak_live_vectors']:,}, bound "
        f"{memory['live_vector_bound']:,}) of {args.memory_txs:,} tx; "
        f"rss {memory['rss_start_kb']//1024}->"
        f"{memory['rss_end_kb']//1024} MB",
        flush=True,
    )

    print("codec round-trip CPU ...", flush=True)
    codec = bench_codec_cpu(
        min(args.txs, 30_000), args.loadgen_chunk
    )
    print(
        f"  json {codec['json_us_per_tx']}us/tx   binary "
        f"{codec['binary_us_per_tx']}us/tx   ratio "
        f"{codec['cpu_ratio_json_over_binary']}x",
        flush=True,
    )

    loadgen = {}
    for proto in ("json", "binary"):
        print(
            f"loadgen over sockets ({args.loadgen_txs} tx, {proto}) ...",
            flush=True,
        )
        lane = bench_loadgen(
            args.loadgen_txs,
            args.loadgen_users,
            args.loadgen_chunk,
            proto=proto,
        )
        loadgen[proto] = lane
        print(
            f"  {lane['placements_per_s']:,.0f} placements/s, "
            f"p50 {lane['latency_ms_p50']}ms "
            f"p95 {lane['latency_ms_p95']}ms",
            flush=True,
        )

    workers_list = [
        int(item) for item in args.workers.split(",") if item
    ]
    workers_sweep = []
    if workers_list:
        print(
            f"sharded service sweep (workers {workers_list}, binary, "
            f"{args.loadgen_txs} tx) ...",
            flush=True,
        )
        workers_sweep = bench_workers(
            workers_list,
            args.lease_length,
            args.loadgen_txs,
            args.loadgen_users,
            args.loadgen_chunk,
        )

    payload = {
        "meta": {
            "stream_seed": STREAM_SEED,
            "python": platform.python_version(),
            "machine": platform.machine(),
            "stream_generation_seconds": round(gen_seconds, 2),
        },
        "throughput": throughput,
        "numpy_engine": numpy_engine,
        "wal_overhead": wal_overhead,
        "hist_overhead": hist_overhead,
        "snapshot": snapshot,
        "quality_drift": drift,
        "memory_bound": memory,
        "codec": codec,
        "loadgen": loadgen,
        "workers_sweep": workers_sweep,
    }
    out = Path(args.out)
    out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {out}")

    if args.check:
        failures = check(payload, args)
        if failures:
            for failure in failures:
                print(f"CHECK FAILED: {failure}", file=sys.stderr)
            return 1
        print("all checks passed")
    return 0


def check(payload, args):
    """The acceptance gates; returns a list of failure messages."""
    failures = []
    throughput = payload["throughput"]
    if throughput["engine_tx_per_s"] < args.min_throughput:
        failures.append(
            f"engine throughput {throughput['engine_tx_per_s']:,.0f} "
            f"tx/s < {args.min_throughput:,.0f} at k={N_SHARDS}"
        )
    if not throughput["identical_to_raw_placer"]:
        failures.append(
            "engine placements diverge from the raw placer (exact "
            "truncation must be invisible)"
        )
    numpy_rows = payload.get("numpy_engine") or []
    if isinstance(numpy_rows, dict):
        # A recorded skip marker; only a failure when the run demands
        # the lane.
        if args.min_numpy_speedup:
            failures.append(
                "numpy engine lane required (--min-engine-speedup "
                f"{args.min_numpy_speedup}) but skipped: "
                f"{numpy_rows.get('skipped', 'no rows recorded')}"
            )
        numpy_rows = []
    elif not numpy_rows and (args.numpy or args.min_numpy_speedup):
        failures.append(
            "numpy engine lane is empty - the lane ran no shard "
            "counts (or a stale result was recorded); rerun with "
            "--numpy"
        )
    for row in numpy_rows:
        if not row["identical_to_python"]:
            failures.append(
                f"numpy engine lane diverged from python at "
                f"k={row['n_shards']} (backend contract is bit-identity)"
            )
        if (
            args.min_numpy_speedup
            and row["speedup"] < args.min_numpy_speedup
        ):
            failures.append(
                f"numpy engine lane at k={row['n_shards']} is "
                f"{row['speedup']:.2f}x python < "
                f"{args.min_numpy_speedup}x"
            )
    wal_overhead = payload["wal_overhead"]
    if wal_overhead["overhead_pct"] > args.max_wal_overhead_pct:
        failures.append(
            f"write-ahead journal costs "
            f"{wal_overhead['overhead_pct']}% engine throughput "
            f"(> {args.max_wal_overhead_pct}% budget)"
        )
    hist_overhead = payload.get("hist_overhead")
    if (
        hist_overhead
        and hist_overhead["overhead_pct"] > args.max_hist_overhead_pct
    ):
        failures.append(
            f"latency-histogram recording costs "
            f"{hist_overhead['overhead_pct']}% engine throughput "
            f"(> {args.max_hist_overhead_pct}% budget)"
        )
    if not payload["snapshot"]["roundtrip_identical"]:
        failures.append("snapshot restore-then-continue diverged")
    if not payload["snapshot"]["delta_roundtrip_identical"]:
        failures.append(
            "delta-snapshot restore-then-continue diverged"
        )
    memory = payload["memory_bound"]
    if memory["peak_live_vectors"] > memory["live_vector_bound"]:
        failures.append(
            f"peak live vectors {memory['peak_live_vectors']:,} "
            f"exceed the horizon bound {memory['live_vector_bound']:,}"
        )
    if memory["final_live_vectors"] > 0.5 * memory["n_tx"]:
        failures.append(
            "live vectors are not meaningfully below the stream "
            "length - truncation is not bounding memory"
        )
    codec = payload["codec"]
    if codec["cpu_ratio_json_over_binary"] < args.min_codec_ratio:
        failures.append(
            f"binary codec is only "
            f"{codec['cpu_ratio_json_over_binary']}x cheaper than "
            f"JSON per round trip (< {args.min_codec_ratio}x)"
        )
    json_lane = payload["loadgen"]["json"]
    binary_lane = payload["loadgen"]["binary"]
    for name, lane in payload["loadgen"].items():
        if lane["errors"]:
            failures.append(
                f"{name} loadgen saw {lane['errors']} errors"
            )
    if (
        binary_lane["placements_per_s"]
        < json_lane["placements_per_s"]
    ):
        failures.append(
            "binary socket lane is slower than the JSON lane "
            f"({binary_lane['placements_per_s']:,.0f} vs "
            f"{json_lane['placements_per_s']:,.0f} placements/s)"
        )
    for row in payload["workers_sweep"]:
        if row["errors"]:
            failures.append(
                f"workers={row['workers']} sweep saw "
                f"{row['errors']} errors"
            )
        if row["placed_total"] < row["n_txs"]:
            failures.append(
                f"workers={row['workers']} placed "
                f"{row['placed_total']} of {row['n_txs']} transactions"
            )
    return failures


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--txs", type=int, default=100_000)
    parser.add_argument("--memory-txs", type=int, default=1_000_000)
    parser.add_argument("--loadgen-txs", type=int, default=20_000)
    parser.add_argument("--loadgen-users", type=int, default=8)
    parser.add_argument("--loadgen-chunk", type=int, default=256)
    # 8192 matches the server's max_batch_txs coalescing ceiling and
    # measures best on this container (see PERFORMANCE.md).
    parser.add_argument("--batch-size", type=int, default=8_192)
    parser.add_argument("--epoch-length", type=int, default=25_000)
    parser.add_argument("--horizon-epochs", type=int, default=8)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--min-throughput", type=float, default=100_000)
    parser.add_argument(
        "--max-wal-overhead-pct",
        type=float,
        default=15.0,
        help="gate: the write-ahead journal may cost at most this "
        "percentage of engine throughput (CPU time)",
    )
    parser.add_argument(
        "--max-hist-overhead-pct",
        type=float,
        default=5.0,
        help="gate: latency-histogram recording may cost at most this "
        "percentage of engine throughput (CPU time)",
    )
    parser.add_argument(
        "--min-codec-ratio",
        type=float,
        default=2.0,
        help="gate: binary codec must be this much cheaper than JSON "
        "per wire round trip (CPU time)",
    )
    parser.add_argument(
        "--workers",
        default="1,2,4",
        help="comma-separated worker counts for the sharded sweep "
        "(empty string skips it)",
    )
    parser.add_argument(
        "--lease-length",
        type=int,
        default=25_000,
        help="ownership lease length for the sharded sweep",
    )
    parser.add_argument(
        "--numpy",
        action="store_true",
        help="also run the vectorized-backend engine lanes "
        "(python vs numpy, bit-identity gated)",
    )
    parser.add_argument(
        "--numpy-shards",
        default="16,64",
        help="comma-separated shard counts for the numpy engine lanes",
    )
    parser.add_argument(
        "--min-engine-speedup",
        "--min-numpy-speedup",
        dest="min_numpy_speedup",
        type=float,
        default=0.0,
        help="--check: required numpy-vs-python engine speedup at "
        "every lane shard count (the recorded run gates 5x); fails "
        "loudly when the lane is skipped or empty",
    )
    parser.add_argument("--tmp-dir", default="/tmp")
    parser.add_argument(
        "--out",
        default=str(
            Path(__file__).resolve().parent.parent / "BENCH_service.json"
        ),
    )
    parser.add_argument("--check", action="store_true")
    args = parser.parse_args(argv)
    return run(args)


if __name__ == "__main__":
    raise SystemExit(main())
