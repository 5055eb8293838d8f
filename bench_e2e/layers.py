"""The traced run: every layer of the stack measured on the workload's
input, from the placer up to the socket.

Layers are module names. In-process layers are timed by calling their
public functions on the workload's own frames; live layers (``server``,
``coordinator``, ``worker``, ``client``, ``obs``) are read from a
mono and a sharded server replaying the same frames - from the ``stats``
op, one ``GET /metrics`` and ``/proc`` deltas at pass boundaries; the
``simulator`` layer from a run with a timing proxy around the placer.
Nothing here changes the program: spans are recorded by the benchmark
around its own calls.
"""

from __future__ import annotations

import asyncio
import gc
import os
import subprocess
import sys
import tempfile
import urllib.request
from array import array
from dataclasses import replace
from time import perf_counter

from repro.api import AsyncBinaryPlacementClient, PlacementEngine
from repro.experiments.configs import get_scale
from repro.experiments.runner import build_placer
from repro.obs.hist import LogHistogram
from repro.service.journal import BatchJournal
from repro.service.partition import EnginePartition, owner_of
from repro.service.wire import (
    FRAME_HEADER_BYTES,
    concat_wire_batches,
    decode_place_arrays,
    decode_place_payload,
    encode_place_request,
    encode_shards_response,
)
from repro.simulator import engine as sim_engine

import inproc
import loadgen
import serve
from config import SPEC_NUMPY, Sizes, Workload
from inputs import Inputs
from procs import child_env, status_kb
from spans import Tracer
from stats import over_limit_fraction, percentile


class NullTracer(Tracer):
    """Records nothing: the same code path with tracing off, which is
    what ``trace.overhead_pct`` compares against."""

    def begin(self, name: str, parent: int = -1, request: int = -1) -> int:
        return -1

    def end(self, index: int) -> None:
        pass


def _us_per_tx(seconds: float, n_txs: int) -> float:
    return seconds / n_txs * 1e6


def own_path(workload: Workload) -> str:
    """How the workload's deployment feeds its engine: the monolith and
    the python backend decode to ``Transaction`` objects, kernel-backed
    workers and the wire engine consume the frame's arrays."""
    if workload.spec != SPEC_NUMPY:
        return "obj"
    if workload.kind == "serve" and not workload.workers:
        return "obj"
    return "wire"


def reframed(inputs: Inputs, per_frame: int) -> Inputs:
    """The same stream and golden in ``per_frame``-transaction frames."""
    if per_frame == inputs.frame_txs:
        return inputs
    firsts = range(0, inputs.n_txs, per_frame)
    return replace(
        inputs,
        frames=[
            encode_place_request(index, inputs.stream[first : first + per_frame])
            for index, first in enumerate(firsts)
        ],
        replies=[
            inputs.golden[first : first + per_frame].tobytes() for first in firsts
        ],
        frame_txs=per_frame,
    )


def time_calls(obj, names, tracer: Tracer, span_name: str, context: list):
    """Pass-through timing proxy: shadow ``obj``'s methods with wrappers
    that record one span per call under ``context = [parent, request]``."""
    for name in names:
        inner = getattr(obj, name, None)
        if inner is None:
            continue

        def timed(*args, _inner=inner, **kwargs):
            span = tracer.begin(span_name, context[0], context[1])
            try:
                return _inner(*args, **kwargs)
            finally:
                tracer.end(span)

        setattr(obj, name, timed)


# -- in-process layers -------------------------------------------------------


def fastest_s(call, items: list, repeats: int = 3) -> float:
    """Seconds for ``call`` over ``items``, fastest of a few repeats:
    the host's neighbours only ever slow one down (README)."""
    best = float("inf")
    for _ in range(repeats):
        started = perf_counter()
        for item in items:
            call(item)
        best = min(best, perf_counter() - started)
    return best


def wire_layer(inputs: Inputs) -> dict:
    payloads = inputs.payloads
    n = inputs.n_txs
    replies = [
        (index, inputs.golden[first : first + inputs.frame_txs].tolist())
        for index, first in enumerate(range(0, n, inputs.frame_txs))
    ]
    return {
        "wire.encode_us_per_tx": _us_per_tx(inputs.encode_s, n),
        "wire.decode_obj_us_per_tx": _us_per_tx(
            fastest_s(decode_place_payload, payloads), n
        ),
        "wire.decode_arrays_us_per_tx": _us_per_tx(
            fastest_s(decode_place_arrays, payloads), n
        ),
        "wire.reply_us_per_tx": _us_per_tx(
            fastest_s(lambda reply: encode_shards_response(*reply), replies), n
        ),
        "wire.request_bytes_per_tx": sum(map(len, inputs.frames)) / n,
    }


def journal_layer(inputs: Inputs, sizes: Sizes) -> dict:
    payloads = inputs.payloads
    with tempfile.TemporaryDirectory(dir=child_env()["TMPDIR"]) as tmp:
        journal = BatchJournal(os.path.join(tmp, "wal"), 0, 1, sizes.lease_length)
        journal.open(0, "")
        elapsed = fastest_s(
            lambda payload: journal.append_batch((payload,), {}), payloads
        )
        journal.close()
        return {
            "journal.append_us_per_tx": _us_per_tx(elapsed, inputs.n_txs),
            "journal.bytes_per_tx": journal.bytes_appended
            / journal.records_appended
            * len(payloads)
            / inputs.n_txs,
        }


def replay(
    workload: Workload, sizes: Sizes, inputs: Inputs, tracer: Tracer
) -> tuple[float, int]:
    """The frames replayed in-process along the deployment's own path
    with a span around every layer call: ``wire.decode`` ->
    ``engine.place`` (child ``core.place``) -> ``journal.append`` ->
    ``wire.reply``. Returns ``(elapsed_s, mismatching frames)``."""
    wire = own_path(workload) == "wire"
    decode = decode_place_arrays if wire else decode_place_payload
    engine = inproc.new_engine(workload, sizes)
    place = engine.place_wire_batch if wire else engine.place_batch
    context = [-1, -1]
    time_calls(
        engine.placer,
        ("place_batch", "place_batch_raw"),
        tracer,
        "core.place",
        context,
    )
    failed = 0
    with tempfile.TemporaryDirectory(dir=child_env()["TMPDIR"]) as tmp:
        journal = BatchJournal(os.path.join(tmp, "wal"), 0, 1, sizes.lease_length)
        journal.open(0, "")
        gc.collect()
        gc.disable()
        try:
            started = perf_counter()
            for index in range(len(inputs.frames)):
                payload = inputs.payload(index)
                root = tracer.begin("inproc.request", request=index)
                span = tracer.begin("wire.decode", root, index)
                batch = decode(payload)
                tracer.end(span)
                span = tracer.begin("engine.place", root, index)
                context[:] = span, index
                shards = place(batch)
                tracer.end(span)
                span = tracer.begin("journal.append", root, index)
                journal.append_batch((payload,), {})
                tracer.end(span)
                span = tracer.begin("wire.reply", root, index)
                reply = encode_shards_response(index, shards)
                tracer.end(span)
                tracer.end(root)
                failed += reply[FRAME_HEADER_BYTES:] != inputs.replies[index]
            elapsed = perf_counter() - started
        finally:
            gc.enable()
            journal.close()
    return elapsed, failed


def engine_layers(workload: Workload, sizes: Sizes, inputs: Inputs) -> dict:
    """Untraced engine passes along both entry points, then one
    checkpoint + restore of the engine the wire pass leaves behind."""
    out = {}
    engine = None
    for path in ("obj", "wire"):
        variant = replace(workload, wire=path == "wire")
        batches = inproc.engine_batches(variant, inputs)
        inproc.engine_pass(variant, sizes, batches)  # warm-up
        result = min(
            (inproc.engine_pass(variant, sizes, batches) for _ in range(2)),
            key=lambda entry: entry["elapsed_s"],
        )
        out[f"engine.{path}_us_per_tx"] = _us_per_tx(result["elapsed_s"], inputs.n_txs)
        out[f"_failed_{path}"] = inproc.mismatches(result, inputs.replies)
        engine = result["engine"]
    stats = engine.stats()
    out["engine.live_vectors_end"] = stats.live_vectors
    out["engine.released_vectors"] = stats.released_vectors
    with tempfile.TemporaryDirectory(dir=child_env()["TMPDIR"]) as tmp:
        path = os.path.join(tmp, "engine.snap")
        started = perf_counter()
        size = engine.checkpoint(path)
        out["state.checkpoint_ms"] = (perf_counter() - started) * 1e3
        out["state.snapshot_mb"] = size / 1e6
        started = perf_counter()
        restored = PlacementEngine.restore(path)
        out["state.restore_ms"] = (perf_counter() - started) * 1e3
        out["_failed_restore"] = int(restored.n_placed != inputs.n_txs)
    return out


def coalesced_engine_us(
    workload: Workload, sizes: Sizes, rung: Inputs, path: str, group: int
) -> float:
    """Engine time alone when ``group`` frames are merged per call, as
    the server's dispatcher (and the worker's coalescer) merge them:
    the engine cost a server pays is this, not the frame-by-frame one."""
    if path == "wire":
        decoded = [decode_place_arrays(payload) for payload in rung.payloads]
        merge = concat_wire_batches
    else:
        decoded = [decode_place_payload(payload) for payload in rung.payloads]
        merge = lambda frames: [tx for frame in frames for tx in frame]  # noqa: E731
    batches = [
        merge(decoded[first : first + group])
        for first in range(0, len(decoded), group)
    ]
    best = float("inf")
    for _ in range(3):
        engine = inproc.new_engine(workload, sizes)
        place = engine.place_wire_batch if path == "wire" else engine.place_batch
        gc.collect()
        started = perf_counter()
        for batch in batches:
            place(batch)
        best = min(best, perf_counter() - started)
    return _us_per_tx(best, rung.n_txs)


def kernel_compile_s() -> float:
    """A cold ``REPRO_KERNEL_CACHE``: what the first numpy-backed placer
    on a new host pays, timed inside a child around ``load_kernel``."""
    with tempfile.TemporaryDirectory(dir=child_env()["TMPDIR"]) as tmp:
        env = child_env()
        env["REPRO_KERNEL_CACHE"] = tmp
        done = subprocess.run(
            [
                sys.executable,
                "-c",
                "from time import perf_counter as t\n"
                "from repro.core.backends.ckernel import load_kernel\n"
                "s = t(); lib = load_kernel(); e = t() - s\n"
                "assert lib is not None\n"
                "print(repr(e))",
            ],
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )
    if done.returncode != 0:
        raise RuntimeError(f"cold kernel build failed: {done.stderr[-500:]}")
    return float(done.stdout)


def partition_layer(workload: Workload, sizes: Sizes, rung: Inputs, n_txs: int) -> dict:
    """Two in-process partitions trading the write lease over the rung
    frames: hand-off cost, and the cost of a parent the active partition
    does not own (``read_parents`` at the owner + ``apply_writebacks``)."""
    lease = sizes.lease_length
    partitions = [
        EnginePartition(
            inproc.new_engine(workload, sizes),
            partition_id=index,
            n_partitions=2,
            lease_length=lease,
        )
        for index in range(2)
    ]
    decode = decode_place_arrays if workload.spec == SPEC_NUMPY else decode_place_payload
    active = 0
    handoff_s = remote_s = 0.0
    handoffs = remote_refs = failed = 0
    for index in range(n_txs // rung.frame_txs):
        batch = decode(rung.payload(index))
        owner = owner_of(index * rung.frame_txs, lease, 2)
        if owner != active:
            started = perf_counter()
            partitions[owner].import_hot_state(partitions[active].export_hot_state())
            handoff_s += perf_counter() - started
            handoffs += 1
            active = owner
        needed = partitions[owner].parents_needed(batch)
        started = perf_counter()
        states = partitions[1 - owner].read_parents(needed) if needed else {}
        remote_s += perf_counter() - started
        shards, writebacks = partitions[owner].place_batch(batch, states)
        started = perf_counter()
        partitions[1 - owner].apply_writebacks(writebacks)
        remote_s += perf_counter() - started
        remote_refs += len(needed)
        failed += array("i", shards).tobytes() != rung.replies[index]
    return {
        "partition.handoff_ms": handoff_s / max(1, handoffs) * 1e3,
        "partition.remote_us_per_ref": remote_s / max(1, remote_refs) * 1e6,
        "_failed_partition": failed,
    }


def lease_counts(workload: Workload, sizes: Sizes, inputs: Inputs, n_txs: int) -> dict:
    """Exact counts for the sharded rung's deployment, from the stream
    and the lease configuration alone: lease hand-offs, and parent
    references that cross to a partition other than the spender's."""
    workers = max(1, workload.workers)
    lease = sizes.lease_length
    remote = 0
    if workers > 1:
        for tx in inputs.stream[:n_txs]:
            mine = owner_of(tx.txid, lease, workers)
            remote += sum(
                owner_of(outpoint.txid, lease, workers) != mine
                for outpoint in tx.inputs
            )
    return {
        "partition.lease_handoffs": (n_txs - 1) // lease if workers > 1 else 0,
        "partition.remote_parent_refs_per_tx": remote / n_txs,
    }


# -- live layers -------------------------------------------------------------


def _batch_stats(prefix: str, metrics: dict, elapsed_s: float) -> dict:
    hist = LogHistogram.from_snapshot(metrics["batch_latency"])
    return {
        # Mean and max come from exact sums; the histogram's own
        # percentiles are bucket edges and repeat between runs.
        f"{prefix}.batch_ms_mean": hist.mean * 1e3,
        f"{prefix}.batch_ms_max": hist.max * 1e3,
        f"{prefix}.txs_per_batch": metrics["placed"] / max(1, metrics["batches"]),
        f"{prefix}.busy_frac": hist.sum / elapsed_s,
    }


async def _lib_vs_raw(
    port: int, rung: Inputs, first: int, half: int
) -> tuple[float, int]:
    """``client.lib_us_per_tx``: ``half`` sequential requests through
    the client library against ``half`` sequential raw frames, next to
    each other in the stream on one warm server. Returns ``(us_per_tx,
    retries)``."""
    step = rung.frame_txs
    client = await AsyncBinaryPlacementClient.connect(loadgen.HOST, port)
    try:
        started = perf_counter()
        for index in range(first, first + half):
            shards = await client.place(
                rung.stream[index * step : (index + 1) * step]
            )
            if array("i", shards).tobytes() != rung.replies[index]:
                raise RuntimeError("client library reply differs from golden")
        lib_s = perf_counter() - started
        retries = client.retries_used
    finally:
        await client.close()
    reader, writer = await asyncio.open_connection(loadgen.HOST, port)
    try:
        started = perf_counter()
        for index in range(first + half, first + 2 * half):
            writer.write(rung.frames[index])
            header = await reader.readexactly(FRAME_HEADER_BYTES)
            length = int.from_bytes(header[10:14], "little")
            if await reader.readexactly(length) != rung.replies[index]:
                raise RuntimeError("raw reply differs from golden")
        raw_s = perf_counter() - started
    finally:
        writer.close()
    return _us_per_tx(lib_s - raw_s, half * step), retries


def live_rung(
    deployment: Workload, sizes: Sizes, rung: Inputs, tracer: Tracer, own: bool
) -> tuple[dict, dict]:
    """One deployment replaying the rung frames; returns ``(metrics,
    counts)``. The workload's own rung adds the client-side numbers."""
    closed_idx = list(range(1, len(rung.frames) - sizes.lib_tail_frames))
    out: dict = {}
    passes = []
    with serve.Serving(deployment, sizes, rung) as serving:
        server = serving.server
        cpu_before = server.cpu_by_pid()
        result = asyncio.run(
            loadgen.closed_pass(server.port, rung, closed_idx, sizes, tracer)
        )
        cpu = server.cpu_since(cpu_before)
        passes.append(result)
        obs = serving.stats()["obs"]
        mtx = result.n_txs / 1e6
        front_cpu = cpu.pop(server.proc.pid)
        if deployment.workers:
            out["coordinator.cpu_s_per_mtx"] = front_cpu / mtx
            out["coordinator.rss_mb"] = status_kb(server.proc.pid, "VmRSS") / 1024
            for name in ("retry_replies", "overload_replies", "respawns"):
                out[f"coordinator.{name}"] = obs["metrics"][name]
            out["worker.cpu_s_per_mtx"] = sum(cpu.values()) / mtx
            out["worker.rss_mb"] = (
                sum(part.get("rss_kb") or 0 for part in obs["partitions"]) / 1024
            )
            out.update(_batch_stats("worker", obs["metrics"], result.elapsed_s))
            out["journal.records"] = obs["wal"]["records_appended"]
            out["journal.fsyncs"] = obs["wal"]["fsyncs"]
        else:
            out["server.cpu_s_per_mtx"] = front_cpu / mtx
            out.update(_batch_stats("server", obs["metrics"], result.elapsed_s))
            out["server.ping_rtt_us"] = loadgen.ping_rtt_us(server.port)
        if own:
            started = perf_counter()
            with urllib.request.urlopen(
                f"http://{loadgen.HOST}:{server.metrics_port}/metrics", timeout=30
            ) as response:
                body = response.read()
            out["obs.scrape_ms"] = (perf_counter() - started) * 1e3
            if b"repro_placed_total" not in body:
                raise RuntimeError("scrape has no repro_placed_total")
            out["client.lib_us_per_tx"], out["client.retries"] = asyncio.run(
                _lib_vs_raw(
                    server.port, rung, closed_idx[-1] + 1, sizes.lib_tail_frames // 2
                )
            )
    if own:
        # The same pass with no spans recorded, then a short open phase.
        plain = serve.closed_on_fresh_server(deployment, sizes, rung, closed_idx)[
            "result"
        ]
        open_idx = closed_idx[: sizes.open_txs // rung.frame_txs]
        with serve.Serving(deployment, sizes, rung) as serving:
            opened = asyncio.run(
                loadgen.open_pass(serving.server.port, rung, open_idx, sizes)
            )
        passes += [plain, opened]
        out["_closed_us_per_tx"] = 1e6 / max(plain.tx_per_s, result.tx_per_s)
        out["_serve_overhead_pct"] = (
            (plain.tx_per_s - result.tx_per_s) / plain.tx_per_s * 100
        )
        cap = sizes.pass_timeout_s * 1e3
        latency = [min(ms, cap) for ms in opened.latency_ms.values()]
        out["client.latency_ms_p50"] = percentile(latency, 0.50)
        out["client.latency_ms_p99"] = percentile(latency, 0.99)
        out["client.over_50ms_frac"] = over_limit_fraction(
            latency, sizes.latency_limit_ms
        )
        out["client.late_ms_p95"] = percentile(opened.late_ms, 0.95)
        out["client.requests"] = sum(r.attempted for r in passes)
    return out, {
        "attempted": sum(r.attempted for r in passes) + len(passes),
        "failed": sum(r.failed for r in passes),
    }


# -- the simulator -----------------------------------------------------------


def sim_rung(workload: Workload, sizes: Sizes, inputs: Inputs, tracer: Tracer) -> dict:
    """An OptChain run with a timing proxy around ``placer.place`` (and
    the same run without it), and an OmniLedger run, whose wall time is
    the event loop's."""
    n_txs = inputs.n_txs if workload.kind == "sim" else sizes.ladder_sim_txs
    stream = inputs.stream[:n_txs]
    scale = get_scale("default")
    config = scale.simulation(workload.shards, max(sizes.sim_rates))
    queues = []

    class CountingQueue(sim_engine.EventQueue):
        def __init__(self) -> None:
            super().__init__()
            queues.append(self)

    def simulate(method: str, run_tracer: Tracer):
        placer = build_placer(method, workload.shards, scale)
        root = run_tracer.begin("simulator.run")
        time_calls(placer, ("place",), run_tracer, "core.place", [root, -1])
        gc.collect()
        started = perf_counter()
        result = sim_engine.run_simulation(stream, placer, config)
        elapsed = perf_counter() - started
        run_tracer.end(root)
        if not result.drained:
            raise RuntimeError(f"simulator rung: {method} did not drain")
        return result, elapsed

    # The event count lives in run_simulation's local queue; observe it
    # through a counting subclass for the duration of these runs only.
    original = sim_engine.EventQueue
    sim_engine.EventQueue = CountingQueue
    try:
        _result, plain_s = simulate("optchain", NullTracer())
        first_span = len(tracer.spans)
        ours, traced_s = simulate("optchain", tracer)
        place_s = sum(
            end - start
            for name, start, end, _p, _r in tracer.spans[first_span:]
            if name == "core.place"
        )
        theirs, omni_s = simulate("omniledger", NullTracer())
    finally:
        sim_engine.EventQueue = original
    return {
        "simulator.events_per_s": queues[2].n_processed / omni_s,
        "simulator.events": queues[2].n_processed,
        "simulator.place_share": place_s / traced_s,
        "simulator.bandwidth_ratio": ours.bandwidth_ratio,
        "simulator.confirm_latency_s": ours.average_latency,
        "simulator.throughput_tps": ours.throughput,
        "_sim_overhead_pct": (traced_s - plain_s) / plain_s * 100,
        "_failed_ordering": int(ours.cross_fraction >= theirs.cross_fraction),
    }


# -- the traced run ----------------------------------------------------------


def run(workload: Workload, sizes: Sizes, inputs: Inputs, trace_path):
    """Returns ``(metrics, counts, detail)`` with every per-layer metric."""
    tracer = Tracer()
    n = inputs.n_txs
    out: dict = {"datasets.gen_us_per_tx": _us_per_tx(inputs.gen_s, n)}
    out.update(wire_layer(inputs))
    out.update(journal_layer(inputs, sizes))
    out.update(engine_layers(workload, sizes, inputs))
    plain_s, _failed = replay(workload, sizes, inputs, NullTracer())
    replay_s, out["_failed_replay"] = replay(workload, sizes, inputs, tracer)
    totals = tracer.totals()
    out["core.place_us_per_tx"] = _us_per_tx(totals["core.place"]["total_s"], n)
    # Every placement above was checked against the golden one, so its
    # balance is theirs. (An end-to-end metric would need it to repeat
    # across seeds; at k=64 on the fan-in stream three seeds in ten grow
    # one shard to twice its share.)
    out["core.shard_balance_ratio"] = inputs.quality(inputs.golden.tolist())[1]
    out["engine.self_us_per_tx"] = _us_per_tx(totals["engine.place"]["self_s"], n)
    out["backends.kernel_compile_s"] = kernel_compile_s()

    rung = reframed(inputs, sizes.frame_txs)
    closed_txs = (len(rung.frames) - sizes.lib_tail_frames) * rung.frame_txs
    sharded = replace(workload, kind="serve", workers=workload.workers or 1)
    mono = replace(workload, kind="serve", workers=0)
    own = sharded if workload.kind == "serve" and workload.workers else mono
    out.update(partition_layer(workload, sizes, rung, closed_txs))
    out.update(lease_counts(sharded, sizes, rung, closed_txs))
    counts = {"attempted": 2 * len(inputs.frames), "failed": 0}
    for deployment in (mono, sharded):
        metrics, rung_counts = live_rung(
            deployment, sizes, rung, tracer, deployment is own
        )
        out.update(metrics)
        for key, value in rung_counts.items():
            counts[key] += value
    out.update(sim_rung(workload, sizes, inputs, tracer))

    # What no in-process layer accounts for: the client-observed cost
    # of a transaction on the own rung minus the same frames' decode +
    # engine (+ WAL append where the deployment has one) + reply.
    # The engine is charged at the coalescing factor the server reached.
    path = own_path(own)
    decode = "arrays" if path == "wire" else "obj"
    merged = out[("worker" if own.workers else "server") + ".txs_per_batch"]
    out["engine.coalesced_us_per_tx"] = coalesced_engine_us(
        workload, sizes, rung, path, max(1, round(merged / rung.frame_txs))
    )
    out["ladder.transport_us_per_tx"] = out.pop("_closed_us_per_tx") - (
        out[f"wire.decode_{decode}_us_per_tx"]
        + out["engine.coalesced_us_per_tx"]
        + (out["journal.append_us_per_tx"] if own.workers else 0.0)
        + out["wire.reply_us_per_tx"]
    )
    # Tracing overhead, on the path the workload itself measures.
    overheads = {
        "serve": out.pop("_serve_overhead_pct"),
        "engine": (replay_s - plain_s) / plain_s * 100,
        "sim": out.pop("_sim_overhead_pct"),
    }
    out["trace.overhead_pct"] = overheads[workload.kind]
    for key in [key for key in out if key.startswith("_failed_")]:
        counts["failed"] += out.pop(key)

    tracer.write(
        trace_path,
        {key: value for key, value in out.items() if isinstance(value, int)},
    )
    detail = {"spans": len(tracer.spans), "span_totals": tracer.totals()}
    return out, counts, detail
