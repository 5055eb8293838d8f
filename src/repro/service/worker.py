"""Worker process of the sharded placement service.

One worker owns one :class:`~repro.service.partition.EnginePartition`
and a single duplex channel to the coordinator. The worker - not the
coordinator - pays the CPU-heavy work: payload decode, validation, the
fused placement loop, and checkpoint serialization. Its life cycle:

1. build the partition (fresh, or restored from its per-partition
   snapshot), connect, ``W_HELLO`` with its cursor;
2. queue ``W_PLACE`` batches in a local reorder buffer (decode happens
   immediately on arrival, *before* the worker necessarily holds the
   write lease - this is the decode/placement overlap the sharding
   buys);
3. while granted, place contiguous runs from the cursor, resolving
   foreign parents through ``W_ACQUIRE``; reorder, coalescing,
   atomic-reject replay and reply splitting are
   :mod:`repro.service.sequencer`, the same code the single-process
   server dispatches through. A run's mutations to foreign parents
   (its writebacks) stay pending and ride the next ``W_ACQUIRE`` or,
   when the lease ends, the ``W_RELEASE``, so a run costs at most one
   coordinator round trip. No other worker reads an owner until then.
   What can observe an owner between runs - this worker's answer to
   ``W_CHECKPOINT``, ``W_STATS`` or a drain - first flushes them in a
   standalone ``W_WRITEBACK``. A holder that dies with writebacks
   pending is healed from its journal (:mod:`repro.service.journal`);
4. on reaching its lease end, export the hot state and ``W_RELEASE``
   the lease; the coordinator grants the next owner.

The coordinator (:mod:`repro.service.coordinator`) starts each worker
as a plain subprocess, ``python -m repro.service.worker``, and writes
its launch config - coordinator address, auth token, partition id and
spec - as one JSON object to the worker's stdin, so the token never
shows in ``/proc/<pid>/cmdline`` or the environment. :func:`main`
reads it and runs the worker until the coordinator shuts it down.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import sys
from typing import Any

from repro.errors import EngineError, ProtocolError
from repro.obs.metrics import ServiceMetrics, rss_kb, t2s_rows_resident
from repro.service import channel as ch
from repro.service.channel import ChannelClosed, FrameChannel
from repro.service.engine import PlacementEngine
from repro.service.journal import (
    BatchJournal,
    journal_path_for,
    replay_journal,
)
from repro.service.partition import (
    EnginePartition,
    ParentStates,
    Writebacks,
    txids_from_bytes,
    txids_to_bytes,
)
from repro.service.sequencer import RunFailed, Sequencer, failure
from repro.service.wire import (
    WireBatch,
    decode_place_arrays,
    decode_response,
    encode_error_response,
    encode_frame,
    encode_response_for,
)


def build_partition(partition_id: int, spec: dict[str, Any]) -> EnginePartition:
    """Fresh-or-restored partition from the coordinator's spec."""
    n_partitions = spec["n_partitions"]
    lease_length = spec["lease_length"]
    path = spec.get("checkpoint")
    if path and os.path.exists(path):
        return EnginePartition.restore(
            path,
            partition_id=partition_id,
            n_partitions=n_partitions,
            lease_length=lease_length,
        )
    # Deferred import: make_placer pulls in the full strategy stack,
    # which the restore path above already loads lazily.
    from repro.core.placement import make_placer

    engine = PlacementEngine(
        make_placer(
            spec["method"],
            spec["n_shards"],
            **spec.get("placer_kwargs", {}),
        ),
        epoch_length=spec.get("epoch_length", 25_000),
        horizon_epochs=spec.get("horizon_epochs"),
        truncate_spent=spec.get("truncate_spent", True),
    )
    return EnginePartition(
        engine,
        partition_id=partition_id,
        n_partitions=n_partitions,
        lease_length=lease_length,
    )


class PlacementWorker:
    """The in-process runtime behind one worker process."""

    def __init__(
        self,
        partition: EnginePartition,
        *,
        max_batch_txs: int = 8192,
        max_reorder_requests: int = 1024,
        checkpoint_path: "str | None" = None,
        checkpoint_compress: bool = False,
    ) -> None:
        self._partition = partition
        self._checkpoint_path = checkpoint_path
        self._checkpoint_compress = checkpoint_compress
        self.channel: "FrameChannel | None" = None
        # Granted from birth when there is nothing to hand off.
        self._granted = partition.n_partitions == 1
        self._paused = False
        self._draining = False
        self._stopping = False
        self._engine_lock = asyncio.Lock()
        self._stopped = asyncio.Event()
        self._exit = asyncio.Event()
        self._dispatch_task: "asyncio.Task | None" = None
        # Optional deterministic fault injector (service.faults); duck
        # interface: maybe_kill(stage). None in production.
        self.faults: "Any | None" = None
        #: Per-partition serving metrics, shipped to the coordinator in
        #: every W_STATS reply (the scrape path).
        self.metrics = ServiceMetrics()
        self._sequencer = Sequencer(
            lambda: partition.n_placed,
            partition.assignment_slice,
            self.metrics,
            max_batch_txs=max_batch_txs,
            max_reorder=max_reorder_requests,
        )
        self._kick = self._sequencer.wakeup
        #: Writebacks of placed runs not yet handed to the coordinator,
        #: oldest first (see module docstring, step 3).
        self._writebacks: list[Writebacks] = []

    # -- lifecycle ---------------------------------------------------------

    @property
    def partition(self) -> EnginePartition:
        return self._partition

    def start(self) -> None:
        self._dispatch_task = asyncio.create_task(self._dispatch_loop())

    async def join(self) -> None:
        """Reap the dispatcher after :meth:`stop`."""
        if self._dispatch_task is None:
            return
        self._kick.set()
        try:
            await asyncio.wait_for(self._dispatch_task, timeout=10)
        except (asyncio.TimeoutError, asyncio.CancelledError):
            self._dispatch_task.cancel()

    async def wait_exit(self) -> None:
        await self._exit.wait()

    def drain(self) -> None:
        """Refuse new work; the dispatcher finishes the contiguous run
        from the cursor, then fails what is left (requests waiting on a
        txid gap that can no longer be filled). The process stays up -
        for checkpoints - until :meth:`stop`."""
        self._draining = True
        self._kick.set()

    def stop(self) -> None:
        self.drain()
        self._stopping = True
        self._kick.set()
        self._exit.set()

    def on_channel_closed(self) -> None:
        # The coordinator is gone: nothing can be granted, acquired, or
        # answered - exit so the process can die instead of hanging.
        self.stop()

    # -- channel handler ---------------------------------------------------

    async def handle(self, kind: int, request_id: int, payload: bytes) -> bytes:
        if kind == ch.W_PLACE:
            response = await self._handle_place(payload)
        elif kind == ch.W_GRANT:
            response = await self._handle_grant(payload)
        elif kind == ch.W_READ:
            updates, txids = ch.uncarry(payload)
            txids = txids_from_bytes(txids)
            async with self._engine_lock:
                if updates:
                    # The holder's carried writebacks land before the read.
                    self._partition.apply_writebacks(
                        Writebacks.from_bytes(updates)
                    )
                states = self._partition.read_parents(txids)
            return encode_frame(ch.STATUS_FRAME, request_id, states.to_bytes())
        elif kind == ch.W_APPLY:
            updates = Writebacks.from_bytes(payload)
            async with self._engine_lock:
                self._partition.apply_writebacks(updates)
            return ch.ack(request_id)
        elif kind == ch.W_STATS:
            async with self._engine_lock:
                await self._flush_writebacks()
                journal = self._partition.journal
                monitor = self._partition.engine.drift_monitor
                response = {
                    "ok": True,
                    "stats": self._partition.stats(),
                    "obs": {
                        "metrics": self.metrics.as_dict(),
                        "wal": (
                            journal.stats() if journal is not None else None
                        ),
                        "rss_kb": rss_kb(),
                        "rows_resident": t2s_rows_resident(
                            self._partition.engine
                        ),
                        "drift": (
                            monitor.as_dict() if monitor is not None else None
                        ),
                    },
                }
        elif kind == ch.W_CHECKPOINT:
            response = await self._handle_checkpoint(payload)
        elif kind == ch.W_RESUME:
            self._paused = False
            self._kick.set()
            response = {"ok": True}
        elif kind == ch.W_PING:
            # Liveness probe: answered from the event loop, so a hung
            # or livelocked worker times out at the coordinator.
            response = {"ok": True, "n_placed": self._partition.n_placed}
        elif kind == ch.W_SHUTDOWN:
            body = ch.parse_json_payload(payload)
            self.drain()
            # The dispatcher exits once everything dispatchable has
            # placed and the rest is failed; a drain response therefore
            # means "engine quiescent".
            await self._stopped.wait()
            async with self._engine_lock:
                await self._flush_writebacks()
            if not body.get("drain"):
                self._exit.set()
            response = {"ok": True, "n_placed": self._partition.n_placed}
        else:
            return encode_error_response(
                request_id,
                "protocol",
                f"unknown worker-channel kind 0x{kind:02x}",
            )
        return encode_response_for(request_id, response)

    async def _handle_place(self, payload: bytes) -> dict:
        if self._stopping or self._draining:
            return failure("shutdown", "worker is shutting down")
        try:
            batch = decode_place_arrays(payload)
        except ProtocolError as exc:
            return failure("protocol", str(exc))
        first = batch.first_txid
        partition = self._partition
        if not partition.owns_txid(first):
            return failure(
                "protocol",
                f"partition {partition.partition_id} does not own txid "
                f"{first} (coordinator routing bug)",
            )
        return await self._sequencer.submit(batch)

    async def _handle_grant(self, payload: bytes) -> dict:
        updates, body = ch.uncarry(payload)
        body = ch.parse_json_payload(body)
        async with self._engine_lock:
            if updates:
                # The previous holder's last writebacks land first.
                self._partition.apply_writebacks(Writebacks.from_bytes(updates))
            hot = body.get("hot")
            if hot is not None:
                self._partition.import_hot_state(hot)
            monitor = self._partition.engine.drift_monitor
            if monitor is not None:
                # A new lease starts a new contiguous txid run (the gap
                # is other partitions' leases): restart the shadow at
                # the granted cursor. See obs.drift "windowed mode".
                monitor.rebase(self._partition.n_placed)
        self._granted = True
        self._kick.set()
        return {"ok": True, "n_placed": self._partition.n_placed}

    async def _handle_checkpoint(self, payload: bytes) -> dict:
        body = ch.parse_json_payload(payload)
        if body.get("hold"):
            # Freeze dispatch before snapshotting so the coordinator
            # can take a consistent cross-partition checkpoint; resumed
            # by W_RESUME.
            self._paused = True
        path = body.get("path") or self._checkpoint_path
        if not path:
            return {
                "ok": False,
                "code": "protocol",
                "error": "worker has no checkpoint path",
            }
        async with self._engine_lock:
            await self._flush_writebacks()
            size = self._partition.checkpoint(
                path,
                compress=body.get(
                    "compress", self._checkpoint_compress
                ),
            )
            journal = self._partition.journal
            if journal is not None and str(path) == str(
                self._checkpoint_path
            ):
                # The snapshot is on disk; everything the WAL recorded
                # is inside it. Rebind the (truncated) journal to the
                # new snapshot's nonce - still under the engine lock,
                # so no mutation can slip between snapshot and reset.
                # A crash between the two renames leaves a new
                # snapshot beside an old-nonce WAL, which recovery
                # discards as stale - correctly, and losslessly.
                journal.reset(
                    self._partition.n_placed,
                    self._partition.engine.last_snapshot_nonce or "",
                )
        return {
            "ok": True,
            "path": str(path),
            "bytes": size,
            "n_placed": self._partition.n_placed,
        }

    # -- the dispatcher ----------------------------------------------------

    async def _dispatch_loop(self) -> None:
        try:
            while True:
                await self._kick.wait()
                self._kick.clear()
                if not self._stopping:
                    await self._dispatch_ready()
                if self._draining or self._stopping:
                    return
        finally:
            self._sequencer.fail_pending(
                "shutdown",
                "worker shut down before the txid gap before this "
                "request was filled",
            )
            self._stopped.set()

    async def _dispatch_ready(self) -> None:
        sequencer = self._sequencer
        while (
            self._granted and not self._paused and not self._stopping
        ):  # draining still dispatches the contiguous run
            # Lease release runs at the top of every iteration - not
            # after a batch - so it fires however the cursor reached
            # the boundary (fused batch, per-request replay after an
            # atomic reject, or an import that landed exactly on it),
            # and even when the queue is empty.
            await self._maybe_release_lease()
            if not self._granted:
                return
            group = sequencer.take_run()
            if group is None:
                return
            async with self._engine_lock:
                await sequencer.place_run(
                    group, self._place_with_remotes
                )
            await asyncio.sleep(0)
            if self.faults is not None and self._writebacks:
                # The run's replies went out during the yield above;
                # its writebacks are still pending.
                self.faults.maybe_kill("carry")

    async def _ask_coordinator(
        self, kind: int, payload: bytes
    ) -> tuple[int, bytes]:
        try:
            return await self.channel.request(kind, payload)
        except ChannelClosed:
            raise RunFailed("engine", "coordinator link lost")

    def _take_writebacks(self) -> bytes:
        """The pending writebacks as one frame (empty: none pending),
        from here on the coordinator's to deliver."""
        if not self._writebacks:
            return b""
        payload = Writebacks.merge(self._writebacks).to_bytes()
        self._writebacks = []
        self.metrics.writeback_bytes += len(payload)
        return payload

    async def _flush_writebacks(self) -> None:
        """Deliver the pending writebacks in a standalone round trip.

        The reply is not inspected. The runs are committed locally; a
        failed writeback means an owner is gone or forked. The
        coordinator buffers writebacks for a recovering owner (and
        degrades the service on a refusal), so subsequent placements
        are refused; surfacing an error here would mis-report runs that
        were already placed.
        """
        payload = self._take_writebacks()
        if payload:
            self.metrics.writeback_round_trips += 1
            await self._ask_coordinator(ch.W_WRITEBACK, payload)

    async def _place_with_remotes(self, batch: WireBatch) -> list[int]:
        """One batch through acquire -> place (the sequencer times it
        round trips included: the latency a client's batch actually
        observes at this partition). The acquire carries the pending
        writebacks; the batch's own join them."""
        partition = self._partition
        metrics = self.metrics
        needed = partition.parents_needed(batch)
        states = None
        if needed:
            kind, payload = await self._ask_coordinator(
                ch.W_ACQUIRE,
                ch.carry(self._take_writebacks(), txids_to_bytes(needed)),
            )
            if kind != ch.STATUS_FRAME:
                response = decode_response(kind, payload)
                message = (
                    "cross-partition parent lookup failed: "
                    + response.get("error", "unknown error")
                )
                if response.get("code") == "retry":
                    # The owner is recovering: nothing was placed and
                    # nothing journaled - the identical requests can be
                    # resubmitted once it is back.
                    raise RunFailed("retry", message)
                raise EngineError(message)
            # Decoded as views over the reply; the journal stores the
            # reply bytes themselves.
            states = ParentStates.from_bytes(payload)
            metrics.acquire_round_trips += 1
            metrics.remote_parent_refs += len(needed)
            metrics.parent_state_bytes += len(payload)
        shards, writebacks = partition.place_batch(batch, states)
        if self.faults is not None:
            self.faults.maybe_kill("place")
        if writebacks:
            self._writebacks.append(writebacks)
        if self.faults is not None:
            self.faults.maybe_kill("writeback")
        return shards

    async def _maybe_release_lease(self) -> None:
        partition = self._partition
        if partition.n_partitions == 1:
            return
        cursor = partition.n_placed
        if cursor % partition.lease_length != 0:
            return
        if partition.owns_txid(cursor):
            return
        hot = partition.export_hot_state()
        self._granted = False
        kind, payload = await self.channel.request(
            ch.W_RELEASE,
            ch.carry(self._take_writebacks(), ch.json_payload({"hot": hot})),
        )
        response = decode_response(kind, payload)
        if not response.get("ok"):
            # The coordinator could not pass the lease on; it owns
            # degradation policy. Nothing left for this worker to do.
            pass


async def _run_worker(
    host: str,
    port: int,
    token: str,
    partition_id: int,
    spec: dict[str, Any],
) -> None:
    partition = build_partition(partition_id, spec)
    checkpoint_path = spec.get("checkpoint")
    recovery: "dict[str, Any] | None" = None
    journal: "BatchJournal | None" = None
    if checkpoint_path and spec.get("wal", True):
        # Crash recovery: replay the WAL tail on top of whatever
        # build_partition restored (the checkpoint, or a fresh engine
        # when no checkpoint was ever written - the journal's base
        # nonce distinguishes the two), then keep appending to it.
        wal_path = journal_path_for(checkpoint_path)
        replay = replay_journal(wal_path, partition)
        if replay.replayed and (
            replay.n_batches or replay.n_grants or replay.n_applies
            or replay.torn_bytes
        ):
            recovery = {
                # The Writebacks frame, hex-armoured for the JSON hello.
                "writebacks": (
                    replay.writebacks.to_bytes().hex()
                    if replay.writebacks
                    else ""
                ),
                "n_batches": replay.n_batches,
                "n_grants": replay.n_grants,
                "n_applies": replay.n_applies,
                "torn_bytes": replay.torn_bytes,
            }
        journal = BatchJournal(
            wal_path,
            partition_id,
            spec["n_partitions"],
            spec["lease_length"],
            sync_every_bytes=spec.get("wal_sync_bytes", 1 << 20),
        )
        journal.open(
            partition.n_placed,
            partition.engine.last_snapshot_nonce or "",
        )
        partition.journal = journal
    sample_every = spec.get("drift_sample_every") or 0
    if sample_every > 0:
        # Attach after WAL replay: replay may import grants/pads that
        # bypass the engine's batch path, so the shadow starts at the
        # recovered cursor (a rebase also happens at every grant).
        from repro.obs.drift import DriftMonitor

        monitor = DriftMonitor(
            spec["n_shards"],
            method=spec["method"],
            sample_every=sample_every,
            window=spec.get("drift_window", 20_000),
            threshold=spec.get("drift_threshold", 0.01),
            min_samples=spec.get("drift_min_samples", 500),
        )
        if partition.n_placed:
            monitor.rebase(partition.n_placed)
        partition.engine.drift_monitor = monitor
    worker = PlacementWorker(
        partition,
        max_batch_txs=spec.get("max_batch_txs", 8192),
        max_reorder_requests=spec.get("max_reorder_requests", 1024),
        checkpoint_path=checkpoint_path,
        checkpoint_compress=spec.get("checkpoint_compress", False),
    )
    if spec.get("faults"):
        # Deferred import: production workers never pay for it.
        from repro.service.faults import FaultInjector, FaultPlan

        injector = FaultInjector(
            FaultPlan.from_spec(spec["faults"]), partition_id
        )
        if injector.active:
            worker.faults = injector
            if journal is not None:
                journal.on_batch_append = injector.on_batch_append
    reader, writer = await asyncio.open_connection(host, port)
    link = FrameChannel(
        reader, writer, worker.handle, on_close=worker.on_channel_closed
    )
    worker.channel = link
    hello: dict[str, Any] = {
        "partition_id": partition_id,
        "token": token,
        "n_placed": partition.n_placed,
        "pid": os.getpid(),
    }
    if recovery is not None:
        hello["recovery"] = recovery
    kind, payload = await link.request(
        ch.W_HELLO, ch.json_payload(hello)
    )
    response = decode_response(kind, payload)
    if not response.get("ok"):
        raise SystemExit(
            f"coordinator refused worker {partition_id}: "
            f"{response.get('error')}"
        )
    worker.start()
    await worker.wait_exit()
    await worker.join()
    await link.close()
    if journal is not None:
        journal.close()


def main() -> None:
    """``python -m repro.service.worker``: launch config on stdin."""
    config = json.loads(sys.stdin.buffer.read())
    sys.stdin.close()
    # The worker shares the coordinator's process group, so a terminal
    # ^C reaches it too; shutdown is the coordinator's to orchestrate
    # (drain, checkpoint, W_SHUTDOWN).
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    asyncio.run(
        _run_worker(
            config["host"],
            config["port"],
            config["token"],
            config["partition_id"],
            config["spec"],
        )
    )


if __name__ == "__main__":
    main()
