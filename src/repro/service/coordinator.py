"""The sharded placement service: a routing front-end over N workers.

``repro serve --workers N`` runs this instead of the single-process
:class:`~repro.service.server.PlacementServer`. The coordinator owns
the client port (both codecs, same as the monolith) but does **no
placement work itself**: a binary ``place`` request is routed to the
owning worker by peeking the txid range at a fixed offset in the
payload - the raw bytes are forwarded without decoding. Workers own
partitioned engines (:mod:`repro.service.partition`), decode and queue
batches on arrival, and place them when they hold the write lease; the
coordinator shepherds the lease (grant on ``W_RELEASE``), relays
cross-partition parent reads and writebacks between workers, merges
``stats``, and orchestrates cross-partition checkpoints (pause the
active worker, snapshot every partition, write a manifest, resume).

Differences from the monolith, stated plainly:

- A client batch that crosses a lease boundary is split and the
  segments commit independently (atomic validation holds *per
  segment*). With the default lease of 25k transactions and the 8192
  batch ceiling this affects at most one request per lease.
- On shutdown, queued requests still waiting for a txid gap are failed
  (as in the monolith); in-flight batches complete first.
- If a worker dies - idle or **active, mid-batch** - its in-flight
  requests fail with a retryable ``retry`` reply and the coordinator
  respawns it (bounded attempts, exponential backoff): the worker
  restores its per-partition checkpoint, replays its write-ahead
  journal tail (:mod:`repro.service.journal`) to the exact crash
  state, re-delivers the possibly-lost writebacks of its batches since
  its last grant (a lease holder defers them onto its next message),
  and rejoins; the active partition is then re-granted the lease.
  Requests targeting a recovering partition get ``retry`` replies;
  writebacks destined for it are buffered and flushed on respawn.
  **Degraded** mode - refusing placements with an explicit error - is
  reserved for truly unrecoverable state: checkpoint *and* journal
  both missing/destroyed for a partition that holds placed state,
  respawn attempts exhausted, or a respawn surfacing a forked cursor.
- Liveness is active: the coordinator heartbeats every worker
  (``W_PING``) and kills/recovers one that stops answering, so a hung
  worker is handled like a crashed one.
- Admission control: each partition has a bounded in-flight window;
  beyond it the coordinator replies ``overload`` instead of queueing
  without bound.
"""

from __future__ import annotations

import asyncio
import json
import os
import secrets
import subprocess
import sys
from array import array
from pathlib import Path
from typing import Any

from repro.errors import ConfigurationError, ProtocolError
from repro.obs.drift import merge_drift_dicts
from repro.obs.metrics import merge_metric_dicts, rss_kb, service_families
from repro.obs.prom import render_families
from repro.service import channel as ch
from repro.service.channel import ChannelClosed, FrameChannel
from repro.service.journal import journal_path_for
from repro.service.partition import (
    Writebacks,
    txids_from_bytes,
    txids_to_bytes,
)
from repro.service.server import DEFAULT_PORT, PlacementServer
from repro.service.wire import (
    PROTOCOL_VERSION,
    RESPONSE_FLAG,
    STATUS_ERROR_RETRY,
    WireBatch,
    decode_place_arrays,
    decode_response,
    encode_frame,
    encode_response_for,
    peek_place_header,
)

MANIFEST_FORMAT = 1

#: The directory ``repro`` is imported from, put first on every
#: worker's ``PYTHONPATH`` so ``-m repro.service.worker`` runs this
#: same package whatever the coordinator's working directory.
_IMPORT_ROOT = str(Path(os.path.abspath(__file__)).parents[2])


class _WorkerExited(ConfigurationError):
    """A worker process ended before it said hello."""


async def _reap(process: subprocess.Popen, timeout: float) -> bool:
    """Wait up to ``timeout`` s for ``process`` to exit, without
    blocking the event loop; True once it has been reaped."""
    loop = asyncio.get_running_loop()
    deadline = loop.time() + timeout
    while process.poll() is None:
        if loop.time() >= deadline:
            return False
        await asyncio.sleep(0.01)
    return True


async def _kill(process: subprocess.Popen) -> None:
    """SIGKILL ``process`` (unless it already exited) and reap it."""
    if process.poll() is None:
        process.kill()
    await _reap(process, 5.0)


class _WorkerHandle:
    """Coordinator-side view of one worker process."""

    __slots__ = (
        "partition_id",
        "process",
        "channel",
        "alive",
        "checkpoint_path",
        "_hello_cursor",
        "inflight",
        "recovering",
        "died_active",
        "pending_writebacks",
        "pending_grant",
        "pending_grant_share",
        "startup_writebacks",
    )

    def __init__(self, partition_id: int, checkpoint_path: "str | None"):
        self.partition_id = partition_id
        self.process: "subprocess.Popen | None" = None
        self.channel: "FrameChannel | None" = None
        self.alive = False
        self.checkpoint_path = checkpoint_path
        self._hello_cursor: "int | None" = None
        #: Outstanding W_PLACE round trips (admission control).
        self.inflight = 0
        #: True while the supervisor's recovery loop owns this worker.
        self.recovering = False
        #: Did the worker hold the write lease when it was lost? Only
        #: then are its replayed writebacks re-delivered.
        self.died_active = False
        #: Writebacks frames addressed to this worker while it was
        #: down, flushed (in order, one W_APPLY each - a later batch
        #: may rewrite a parent an earlier one wrote) on its respawn
        #: hello.
        self.pending_writebacks: list[bytes] = []
        #: A lease grant (hot state) that could not be delivered
        #: because this worker was down; flushed after respawn.
        self.pending_grant: "dict[str, Any] | None" = None
        #: This worker's share of the releasing holder's last
        #: writebacks, which rides the parked grant.
        self.pending_grant_share = b""
        #: Recovery writebacks (one frame) reported at startup, resolved
        #: once all workers are up (only the stream frontier holder's
        #: apply).
        self.startup_writebacks: "bytes | None" = None

    async def request(self, kind: int, payload: bytes) -> tuple[int, bytes]:
        """One raw round trip (raises ChannelClosed)."""
        if not self.alive or self.channel is None:
            raise ChannelClosed(
                f"worker {self.partition_id} is not connected"
            )
        return await self.channel.request(kind, payload)

    async def request_json(
        self, kind: int, body: "dict[str, Any] | None" = None
    ) -> dict:
        """One JSON request/response round trip (raises ChannelClosed)."""
        return decode_response(
            *await self.request(kind, ch.json_payload(body) if body else b"")
        )


class ShardedPlacementServer(PlacementServer):
    """Client front-end + worker supervisor of the sharded service."""

    def __init__(
        self,
        spec: dict[str, Any],
        n_workers: int,
        host: str = "127.0.0.1",
        port: int = DEFAULT_PORT,
        *,
        lease_length: int = 25_000,
        max_batch_txs: int = 8192,
        max_line_bytes: int = 8 * 1024 * 1024,
        checkpoint_path: "str | None" = None,
        checkpoint_compress: bool = False,
        worker_start_timeout: float = 120.0,
        max_inflight: int = 256,
        heartbeat_interval: float = 5.0,
        heartbeat_timeout: float = 30.0,
        max_respawns: int = 3,
        respawn_backoff: float = 0.25,
        wal: bool = True,
        wal_sync_bytes: int = 1 << 20,
        faults: "dict[str, Any] | None" = None,
        metrics_port: "int | None" = None,
        metrics_host: "str | None" = None,
    ) -> None:
        if n_workers < 1:
            raise ConfigurationError(
                f"n_workers must be >= 1, got {n_workers}"
            )
        super().__init__(
            engine=None,
            host=host,
            port=port,
            max_batch_txs=max_batch_txs,
            max_line_bytes=max_line_bytes,
            checkpoint_path=checkpoint_path,
            checkpoint_compress=checkpoint_compress,
            metrics_port=metrics_port,
            metrics_host=metrics_host,
        )
        self._spec = dict(spec)
        self._n_workers = n_workers
        self._lease_length = lease_length
        self._start_timeout = worker_start_timeout
        self._token = secrets.token_hex(16)
        self._workers = [
            _WorkerHandle(index, self._partition_path(index))
            for index in range(n_workers)
        ]
        self._hello_waiters: dict[int, asyncio.Future] = {}
        self._worker_server: "asyncio.AbstractServer | None" = None
        self._worker_port = 0
        self._cursor = 0
        self._granted = 0
        self._degraded: "str | None" = None
        self._handoff_lock = asyncio.Lock()
        self._respawn_tasks: set[asyncio.Task] = set()
        self._max_inflight = max_inflight
        self._heartbeat_interval = heartbeat_interval
        self._heartbeat_timeout = heartbeat_timeout
        self._max_respawns = max_respawns
        self._respawn_backoff = respawn_backoff
        self._wal = wal
        self._wal_sync_bytes = wal_sync_bytes
        self._faults = faults
        self._heartbeat_task: "asyncio.Task | None" = None

    # -- layout helpers ----------------------------------------------------

    def _partition_path(self, partition_id: int) -> "str | None":
        if self._checkpoint_path is None:
            return None
        return f"{self._checkpoint_path}.p{partition_id}"

    @property
    def _manifest_path(self) -> "str | None":
        if self._checkpoint_path is None:
            return None
        return f"{self._checkpoint_path}.manifest.json"

    def _owner_of(self, txid: int) -> int:
        return (txid // self._lease_length) % self._n_workers

    def _expected_cursor(
        self, partition_id: int, assume_idle: bool = False
    ) -> int:
        """Local cursor a healthy partition must be at, given the
        global cursor: the end of its last started lease, or the
        global cursor itself for the write-lease holder (which, at an
        exact lease boundary, is the *next* lease's owner - it has
        already imported the hot state and padded to the cursor).

        ``assume_idle`` computes the idle expectation even for the
        cursor's owner - used when that owner died *before* receiving
        its grant (the hot state is parked in ``pending_grant``), so
        its local cursor is still at its previous lease's end.
        """
        cursor = self._cursor
        if cursor == 0:
            return 0
        if not assume_idle and partition_id == self._owner_of(cursor):
            return cursor
        lease = (cursor - 1) // self._lease_length
        while lease >= 0:
            if lease % self._n_workers == partition_id:
                return min(cursor, (lease + 1) * self._lease_length)
            lease -= 1
        return 0

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        self._load_manifest()
        self._worker_server = await asyncio.start_server(
            self._on_worker_connection, "127.0.0.1", 0
        )
        self._worker_port = self._worker_server.sockets[0].getsockname()[1]
        hellos = [
            asyncio.ensure_future(self._start_worker(handle))
            for handle in self._workers
        ]
        try:
            await asyncio.wait_for(
                asyncio.gather(*hellos), self._start_timeout
            )
        except (asyncio.TimeoutError, _WorkerExited) as exc:
            for hello in hellos:
                hello.cancel()
            self._hello_waiters.clear()
            for handle in self._workers:
                if handle.process is not None:
                    await _kill(handle.process)
            self._worker_server.close()
            if isinstance(exc, _WorkerExited):
                raise
            raise ConfigurationError(
                f"workers did not all connect within "
                f"{self._start_timeout}s"
            ) from None
        self._validate_worker_cursors()
        await self._replay_startup_writebacks()
        # Hand the write lease to the owner of the cursor's lease. Its
        # own (fresh or restored) state is current, so no hot payload.
        self._granted = self._owner_of(self._cursor)
        await self._grant(self._workers[self._granted])
        if self._heartbeat_interval > 0:
            self._heartbeat_task = asyncio.create_task(
                self._heartbeat_loop()
            )
        self._server = await asyncio.start_server(
            self._on_connection,
            self._host,
            self._port,
            limit=self._max_line_bytes,
        )
        self._port = self._server.sockets[0].getsockname()[1]
        if self._metrics_server is not None:
            await self._metrics_server.start()

    def _spawn(self, handle: _WorkerHandle) -> None:
        spec = dict(self._spec)
        spec["n_partitions"] = self._n_workers
        spec["lease_length"] = self._lease_length
        spec["max_batch_txs"] = self._max_batch_txs
        spec["checkpoint"] = handle.checkpoint_path
        spec["checkpoint_compress"] = self._checkpoint_compress
        spec["wal"] = self._wal
        spec["wal_sync_bytes"] = self._wal_sync_bytes
        if self._faults:
            spec["faults"] = dict(self._faults)
        config = {
            "host": "127.0.0.1",
            "port": self._worker_port,
            "token": self._token,
            "partition_id": handle.partition_id,
            "spec": spec,
        }
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, (_IMPORT_ROOT, env.get("PYTHONPATH")))
        )
        # Same interpreter and flags, same process group; the config
        # (token included) goes over stdin, never argv or environment.
        process = subprocess.Popen(
            [
                sys.executable,
                *subprocess._args_from_interpreter_flags(),
                "-m",
                "repro.service.worker",
            ],
            stdin=subprocess.PIPE,
            env=env,
        )
        handle.process = process
        try:
            with process.stdin as stdin:
                stdin.write(json.dumps(config).encode())
        except BrokenPipeError:
            pass  # died at startup: _start_worker reports the exit

    async def _start_worker(self, handle: _WorkerHandle) -> None:
        """Spawn ``handle``'s worker and wait for its hello; raises
        :class:`_WorkerExited` as soon as the process ends first."""
        waiter = asyncio.get_running_loop().create_future()
        self._hello_waiters[handle.partition_id] = waiter
        self._spawn(handle)
        process = handle.process
        while not waiter.done():
            status = process.poll()
            if status is not None:
                raise _WorkerExited(
                    f"worker {handle.partition_id} exited with status "
                    f"{status} before connecting"
                )
            await asyncio.wait((waiter,), timeout=0.05)

    def _validate_worker_cursors(self) -> None:
        # The write-ahead journals can carry a partition past the
        # manifest cursor (the manifest is only rewritten at
        # checkpoints): after a hard stop of the whole service, replay
        # puts the last active partition at the true stream frontier.
        # Adopt that frontier, then require every partition to sit
        # exactly where a healthy stream at the adopted cursor puts it.
        frontier = max(
            (handle._hello_cursor or 0 for handle in self._workers),
            default=0,
        )
        self._cursor = max(self._cursor, frontier)
        for handle in self._workers:
            expected = self._expected_cursor(handle.partition_id)
            reported = getattr(handle, "_hello_cursor", None)
            if reported is not None and reported != expected:
                raise ConfigurationError(
                    f"worker {handle.partition_id} restored cursor "
                    f"{reported}, expected {expected}; delete the "
                    f"checkpoint set to start fresh"
                )

    async def _replay_startup_writebacks(self) -> None:
        """Re-deliver possibly-lost writebacks after a hard stop.

        Only the stream-frontier holder's batches since its last grant
        can have undelivered writebacks (nothing placed after them
        anywhere); every other partition's stash predates a completed
        lease handoff and is dropped.
        """
        for handle in self._workers:
            stashed = handle.startup_writebacks
            handle.startup_writebacks = None
            if (
                stashed
                and self._cursor > 0
                and (handle._hello_cursor or 0) == self._cursor
            ):
                await self._apply_updates_by_owner(handle, stashed)

    async def stop(self) -> None:
        """Drain, checkpoint (if configured), stop workers. Idempotent."""
        if self._stopping:
            await self._stopped.wait()
            return
        self._stopping = True
        if self._heartbeat_task is not None:
            self._heartbeat_task.cancel()
            self._heartbeat_task = None
        # 1. Drain: workers fail their gapped queues and finish the
        #    batch in flight; every outstanding client response then
        #    resolves.
        for handle in self._workers:
            if handle.alive:
                try:
                    await handle.request_json(
                        ch.W_SHUTDOWN, {"drain": True}
                    )
                except ChannelClosed:
                    pass
        if self._line_tasks:
            await asyncio.gather(
                *list(self._line_tasks), return_exceptions=True
            )
        # 2. Checkpoint the drained partitions.
        if self._checkpoint_path is not None and self._degraded is None:
            try:
                await self._checkpoint_all()
            except ChannelClosed:
                pass
        # 3. Exit the workers and reap the processes.
        for handle in self._workers:
            if handle.alive:
                try:
                    await handle.request_json(
                        ch.W_SHUTDOWN, {"exit": True}
                    )
                except ChannelClosed:
                    pass
        for handle in self._workers:
            if handle.channel is not None:
                await handle.channel.close()
            if handle.process is not None:
                if not await _reap(handle.process, 10.0):  # pragma: no cover
                    await _kill(handle.process)
        for task in list(self._respawn_tasks):
            task.cancel()
        if self._respawn_tasks:
            await asyncio.gather(
                *list(self._respawn_tasks), return_exceptions=True
            )
        if self._metrics_server is not None:
            await self._metrics_server.stop()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._worker_server is not None:
            self._worker_server.close()
            await self._worker_server.wait_closed()
        for writer in list(self._writers):
            writer.close()
        self._stopped.set()

    # -- worker links ------------------------------------------------------

    async def _on_worker_connection(self, reader, writer) -> None:
        holder: dict[str, Any] = {"handle": None}

        async def handle_frame(
            kind: int, request_id: int, payload: bytes
        ) -> bytes:
            if kind == ch.W_HELLO:
                return await self._handle_hello(
                    holder, channel, request_id, payload
                )
            handle = holder["handle"]
            if handle is None:
                raise ProtocolError("worker must W_HELLO first")
            return await self._handle_worker_request(
                handle, kind, request_id, payload
            )

        def on_close() -> None:
            handle = holder["handle"]
            if handle is not None:
                task = asyncio.get_running_loop().create_task(
                    self._on_worker_lost(handle)
                )
                self._respawn_tasks.add(task)
                task.add_done_callback(self._respawn_tasks.discard)

        channel = FrameChannel(
            reader, writer, handle_frame, on_close=on_close
        )

    async def _handle_hello(
        self, holder, channel: FrameChannel, request_id: int, payload: bytes
    ) -> bytes:
        body = ch.parse_json_payload(payload)
        if body.get("token") != self._token:
            raise ProtocolError("bad worker token")
        partition_id = body.get("partition_id")
        if (
            not isinstance(partition_id, int)
            or not 0 <= partition_id < self._n_workers
        ):
            raise ProtocolError(f"bad partition id {partition_id!r}")
        handle = self._workers[partition_id]
        handle.channel = channel
        handle._hello_cursor = body.get("n_placed", 0)
        recovery = body.get("recovery") or {}
        writebacks = bytes.fromhex(recovery.get("writebacks") or "")
        if writebacks:
            if handle.recovering:
                # A respawned worker replayed its journal; the
                # foreign-parent mutations of its batches since the
                # last grant may never have reached their owners.
                # Re-applying is idempotent (absolute values), but only
                # safe while no later placement could have advanced
                # those parents - i.e. when the worker died holding the
                # write lease.
                if handle.died_active or self._grant_landed(handle):
                    await self._apply_updates_by_owner(handle, writebacks)
            else:
                # Cold start: defer until every partition has said
                # hello and the true frontier is known.
                handle.startup_writebacks = writebacks
        while handle.pending_writebacks:
            try:
                response = decode_response(
                    *await channel.request(
                        ch.W_APPLY, handle.pending_writebacks[0]
                    )
                )
            except ChannelClosed:
                break
            del handle.pending_writebacks[0]
            if not response.get("ok"):
                self._degraded = (
                    f"partition {partition_id} rejected buffered "
                    f"writebacks ({response.get('error', 'unknown')}); "
                    "restart from the last checkpoint"
                )
        handle.alive = True
        holder["handle"] = handle
        waiter = self._hello_waiters.pop(partition_id, None)
        if waiter is not None and not waiter.done():
            waiter.set_result(handle)
        return encode_response_for(request_id, {"ok": True})

    async def _handle_worker_request(
        self,
        handle: _WorkerHandle,
        kind: int,
        request_id: int,
        payload: bytes,
    ) -> bytes:
        if kind == ch.W_ACQUIRE:
            updates, txids = ch.uncarry(payload)
            shares = self._shares_by_owner(handle, updates)
            reads = self._reads_by_owner(handle, txids)
            owners = sorted(reads)
            read_shares = {owner: shares.pop(owner, b"") for owner in owners}
            # Owners are read concurrently, each applying its share of
            # the carried writebacks first; an owner with a share and
            # nothing to read is sent it alongside. The read replies
            # are joined in owner order and never parsed here. The
            # first failure, in that order, is the reply.
            replies = await asyncio.gather(
                *(
                    self._read_owner(owner, read_shares[owner], reads[owner])
                    for owner in owners
                ),
                *(
                    self._apply_share(owner, share)
                    for owner, share in shares.items()
                ),
            )
            replies = replies[: len(owners)]
            for reply_kind, section in replies:
                if reply_kind != ch.STATUS_FRAME:
                    return encode_frame(reply_kind, request_id, section)
            return encode_frame(
                ch.STATUS_FRAME,
                request_id,
                b"".join(section for _, section in replies),
            )
        if kind == ch.W_WRITEBACK:
            failure = await self._apply_updates_by_owner(handle, payload)
            if failure is not None:
                return encode_response_for(request_id, failure)
            return ch.ack(request_id)
        if kind == ch.W_RELEASE:
            updates, body = ch.uncarry(payload)
            hot = ch.parse_json_payload(body)["hot"]
            async with self._handoff_lock:
                self._cursor = max(self._cursor, hot["n_placed"])
                next_owner = self._owner_of(hot["n_placed"])
                grantee = self._workers[next_owner]
                # The lease's last writebacks land before the grant:
                # other owners' shares first, the grantee's inside it.
                shares = self._shares_by_owner(handle, updates)
                share = shares.pop(next_owner, b"")
                for owner_id, owned in shares.items():
                    await self._apply_share(owner_id, owned)
                try:
                    await self._grant(grantee, hot, share)
                except ChannelClosed:
                    # Park the grant with its share; the supervisor
                    # delivers both once the next owner respawns. The
                    # release itself succeeds - the stream stalls
                    # (retry replies) instead of forking.
                    grantee.pending_grant = hot
                    grantee.pending_grant_share = share
                self._granted = next_owner
            return encode_response_for(request_id, {"ok": True})
        raise ProtocolError(f"unexpected worker request kind 0x{kind:02x}")

    async def _grant(
        self,
        handle: _WorkerHandle,
        hot: "dict[str, Any] | None" = None,
        share: bytes = b"",
    ) -> None:
        """One ``W_GRANT`` (raises ChannelClosed): the write lease, the
        hot state when it changes hands, and the grantee's share of the
        previous holder's last writebacks, applied before the import."""
        body = {} if hot is None else {"hot": hot}
        response = decode_response(
            *await handle.request(
                ch.W_GRANT, ch.carry(share, ch.json_payload(body))
            )
        )
        if share and not response.get("ok"):
            self._writeback_refused(handle.partition_id, response)

    def _reads_by_owner(
        self, holder: _WorkerHandle, txids: bytes
    ) -> dict[int, bytes]:
        """The acquired txid column split by owner. With two workers
        the column is forwarded untouched: a holder never reads its own
        parents, so the other partition owns every txid."""
        if not txids:
            return {}
        if self._n_workers == 2:
            return {1 - holder.partition_id: txids}
        by_owner: dict[int, array] = {}
        for txid in txids_from_bytes(txids).tolist():
            by_owner.setdefault(self._owner_of(txid), array("q")).append(txid)
        return {owner: txids_to_bytes(owned) for owner, owned in by_owner.items()}

    def _shares_by_owner(
        self, holder: _WorkerHandle, updates: bytes
    ) -> dict[int, bytes]:
        """One :class:`Writebacks` frame of ``holder``'s split into
        per-owner frames. The bytes are forwarded untouched when one
        partition owns every row: always with two workers (a holder
        writes back only parents it does not own)."""
        if not updates:
            return {}
        if self._n_workers == 2:
            return {1 - holder.partition_id: updates}
        by_owner = Writebacks.from_bytes(updates).by_owner(
            self._lease_length, self._n_workers
        )
        return {owner: frame.to_bytes() for owner, frame in by_owner.items()}

    async def _read_owner(
        self, owner_id: int, share: bytes, txids: bytes
    ) -> tuple[int, bytes]:
        """One ``W_READ`` carrying the owner's writebacks share; a lost
        owner reads as its ``retry`` reply."""
        owner = self._workers[owner_id]
        try:
            reply = await owner.request(ch.W_READ, ch.carry(share, txids))
        except ChannelClosed:
            # Owner is down/recovering: the active batch fails with a
            # retryable reply, no state was mutated. Its share is
            # buffered like any writeback addressed to a down owner.
            if share:
                owner.pending_writebacks.append(share)
            return (
                RESPONSE_FLAG | STATUS_ERROR_RETRY,
                f"partition {owner_id} is recovering; retry later".encode(),
            )
        if share and reply[0] != ch.STATUS_FRAME:
            self._writeback_refused(owner_id, decode_response(*reply))
        return reply

    async def _apply_share(
        self, owner_id: int, share: bytes
    ) -> "dict[str, Any] | None":
        """``W_APPLY`` one owner's share of the writebacks.

        A share addressed to a down partition is buffered on its handle
        and flushed when it rejoins (safe: the values are absolute, so
        re-application is idempotent). Returns a failure response if
        the owner *refused* its share - the partitions have forked and
        the service degrades - else ``None``.
        """
        owner = self._workers[owner_id]
        try:
            response = decode_response(*await owner.request(ch.W_APPLY, share))
        except ChannelClosed:
            owner.pending_writebacks.append(share)
            return None
        if not response.get("ok"):
            self._writeback_refused(owner_id, response)
            return response
        return None

    def _writeback_refused(self, owner_id: int, response: dict) -> None:
        # The batch already committed on the active partition; an owner
        # refusing its share of the mutations means the partitions have
        # forked. Serving on would silently return wrong results.
        self._degraded = (
            f"partition {owner_id} rejected a writeback "
            f"({response.get('error', 'unknown error')}); "
            "restart from the last checkpoint"
        )

    async def _apply_updates_by_owner(
        self, holder: _WorkerHandle, updates: bytes
    ) -> "dict[str, Any] | None":
        """Route one :class:`Writebacks` frame to the owning partitions,
        one :meth:`_apply_share` each; returns the first refusal."""
        for owner_id, share in self._shares_by_owner(holder, updates).items():
            failure = await self._apply_share(owner_id, share)
            if failure is not None:
                return failure
        return None

    async def _on_worker_lost(self, handle: _WorkerHandle) -> None:
        handle.alive = False
        handle.channel = None
        if (
            self._stopping
            or self._degraded is not None
            or handle.recovering
        ):
            return
        # Snapshot *now* whether the worker held the write lease: the
        # supervisor may re-grant to another partition while the
        # respawn is in flight.
        handle.died_active = (
            handle.partition_id == self._granted
            and handle.pending_grant is None
        )
        handle.recovering = True
        try:
            await self._recover_worker(handle)
        finally:
            handle.recovering = False
            handle.died_active = False

    async def _recover_worker(self, handle: _WorkerHandle) -> None:
        path = handle.checkpoint_path
        has_checkpoint = path is not None and os.path.exists(path)
        has_journal = path is not None and os.path.exists(
            journal_path_for(path)
        )
        expected = self._expected_cursor(
            handle.partition_id,
            assume_idle=handle.pending_grant is not None,
        )
        if not has_checkpoint and not has_journal and expected != 0:
            self._degraded = (
                f"partition {handle.partition_id} died with no "
                "checkpoint or journal to respawn from"
            )
            return
        for attempt in range(1, self._max_respawns + 1):
            if attempt > 1:
                await asyncio.sleep(
                    min(
                        self._respawn_backoff * 2 ** (attempt - 2), 5.0
                    )
                )
            if handle.process is not None:
                await _kill(handle.process)
            self.metrics.respawns += 1
            try:
                await asyncio.wait_for(
                    self._start_worker(handle), self._start_timeout
                )
            except (asyncio.TimeoutError, _WorkerExited):
                self._hello_waiters.pop(handle.partition_id, None)
                continue
            if await self._adopt_respawned(handle):
                return
            if self._degraded is not None:
                return
        if self._degraded is None:
            self._degraded = (
                f"partition {handle.partition_id} failed to respawn "
                f"after {self._max_respawns} attempts; restart from "
                "the last checkpoint"
            )

    async def _adopt_respawned(self, handle: _WorkerHandle) -> bool:
        """Validate a respawned worker's cursor and restore its role.

        Returns False to retry the respawn (transient failure); sets
        ``self._degraded`` for unrecoverable divergence.
        """
        # Computed now, not when the loss was noticed: a release that
        # was in flight then has since parked its grant here.
        expected = self._expected_cursor(
            handle.partition_id,
            assume_idle=handle.pending_grant is not None,
        )
        reported = handle._hello_cursor or 0
        hot = handle.pending_grant
        if hot is not None and not self._grant_landed(handle):
            # Died between release and grant: must sit exactly at its
            # previous lease end; deliver the parked hot state.
            if reported != expected:
                self._stale_cursor(handle, reported, expected)
                return False
            try:
                await self._grant(handle, hot, handle.pending_grant_share)
            except ChannelClosed:
                return False
            handle.pending_grant = None
            handle.pending_grant_share = b""
            return True
        if handle.died_active or hot is not None:
            # Died holding the write lease - or after its journal took
            # a grant (and the share before it) whose reply never
            # arrived, which is the same.
            # Journal replay may legitimately land anywhere between
            # the last acked batch (or the grant) and the end of the
            # lease (a batch could have committed to the journal +
            # engine without its response ever reaching the
            # coordinator).
            start = expected if hot is None else hot["n_placed"]
            lease_end = (
                start // self._lease_length + 1
            ) * self._lease_length
            if not start <= reported <= lease_end:
                self._stale_cursor(handle, reported, start)
                return False
            self._cursor = max(self._cursor, reported)
            try:
                await self._grant(handle)
            except ChannelClosed:
                return False
            handle.pending_grant = None
            handle.pending_grant_share = b""
            return True
        if reported != expected:
            self._stale_cursor(handle, reported, expected)
            return False
        return True

    @staticmethod
    def _grant_landed(handle: _WorkerHandle) -> bool:
        """Did a respawned worker's journal take the grant parked for
        it? Its W_GRANT was processed but the reply was lost with the
        process: replay puts it at or past the granted cursor."""
        hot = handle.pending_grant
        return hot is not None and (handle._hello_cursor or 0) >= hot["n_placed"]

    def _stale_cursor(
        self, handle: _WorkerHandle, reported: int, expected: int
    ) -> None:
        self._degraded = (
            f"partition {handle.partition_id} respawned at cursor "
            f"{reported} but the stream is at {expected}; its "
            "checkpoint is stale - restart the service from a "
            "consistent checkpoint set"
        )

    # -- liveness ----------------------------------------------------------

    async def _heartbeat_loop(self) -> None:
        while not self._stopping:
            await asyncio.sleep(self._heartbeat_interval)
            for handle in list(self._workers):
                if not handle.alive or handle.channel is None:
                    continue
                try:
                    await asyncio.wait_for(
                        handle.request_json(ch.W_PING),
                        self._heartbeat_timeout,
                    )
                except asyncio.TimeoutError:
                    # A hung worker is handled like a crashed one:
                    # killing it closes the channel, which fires the
                    # normal on-lost recovery path.
                    self.metrics.heartbeat_timeouts += 1
                    if handle.process is not None:
                        handle.process.kill()
                except ChannelClosed:
                    pass

    # -- checkpoint orchestration ------------------------------------------

    async def _checkpoint_all(self) -> dict[str, Any]:
        """Pause-the-world cross-partition snapshot + manifest."""
        if any(not handle.alive for handle in self._workers):
            return {
                "ok": False,
                "code": "retry",
                "error": (
                    "a worker is recovering; retry the checkpoint later"
                ),
            }
        async with self._handoff_lock:
            active = self._workers[self._granted]
            total = 0
            cursor = self._cursor
            try:
                response = await active.request_json(
                    ch.W_CHECKPOINT,
                    {"hold": True, "compress": self._checkpoint_compress},
                )
                if not response.get("ok"):
                    return response
                total += response["bytes"]
                cursor = response["n_placed"]
                for handle in self._workers:
                    if handle is active:
                        continue
                    response = await handle.request_json(
                        ch.W_CHECKPOINT,
                        {"compress": self._checkpoint_compress},
                    )
                    if not response.get("ok"):
                        return response
                    total += response["bytes"]
                self._cursor = max(self._cursor, cursor)
                self._write_manifest(cursor)
            finally:
                if active.alive:
                    try:
                        await active.request_json(ch.W_RESUME, {})
                    except ChannelClosed:
                        pass
            return {
                "ok": True,
                "path": str(self._checkpoint_path),
                "bytes": total,
                "n_placed": cursor,
                "partitions": self._n_workers,
            }

    def _write_manifest(self, cursor: int) -> None:
        manifest = {
            "format": MANIFEST_FORMAT,
            "n_partitions": self._n_workers,
            "lease_length": self._lease_length,
            "cursor": cursor,
            "spec": self._spec,
            "files": [
                os.path.basename(self._partition_path(index))
                for index in range(self._n_workers)
            ],
        }
        path = Path(self._manifest_path)
        tmp = path.with_name(path.name + ".tmp")
        tmp.write_text(json.dumps(manifest, indent=2) + "\n")
        os.replace(tmp, path)

    def _load_manifest(self) -> None:
        path = self._manifest_path
        if path is None or not os.path.exists(path):
            return
        manifest = json.loads(Path(path).read_text())
        if manifest.get("format") != MANIFEST_FORMAT:
            raise ConfigurationError(
                f"unsupported checkpoint manifest format "
                f"{manifest.get('format')!r}"
            )
        if manifest["n_partitions"] != self._n_workers:
            raise ConfigurationError(
                f"checkpoint set was taken with "
                f"{manifest['n_partitions']} workers, requested "
                f"{self._n_workers}; delete it to repartition"
            )
        if manifest["lease_length"] != self._lease_length:
            raise ConfigurationError(
                f"checkpoint set was taken with lease_length "
                f"{manifest['lease_length']}, requested "
                f"{self._lease_length}"
            )
        # The snapshots' configuration wins on restore (each worker is
        # rebuilt entirely from its partition file); flag whatever the
        # requested spec silently overrides - same principle as the
        # single-process serve restore warnings.
        stored_spec = manifest.get("spec", {})
        for key in sorted(set(stored_spec) | set(self._spec)):
            stored = stored_spec.get(key)
            wanted = self._spec.get(key)
            if stored != wanted:
                print(
                    f"warning: {key}={wanted!r} ignored; the "
                    f"checkpoint set was taken with {stored!r} "
                    "(delete the checkpoints to reconfigure)",
                    file=sys.stderr,
                    flush=True,
                )
        self._spec = dict(stored_spec) or self._spec
        self._cursor = manifest["cursor"]

    # -- client request handling -------------------------------------------

    async def _handle(self, message: Any) -> dict:
        if not isinstance(message, dict):
            raise ProtocolError("request must be a JSON object")
        op = message.get("op")
        if op == "place":
            return await self._handle_place(message)
        if op == "stats":
            return await self._merged_stats()
        if op == "checkpoint":
            if self._checkpoint_path is None:
                raise ProtocolError(
                    "no checkpoint path: start the server with one "
                    "(per-request paths are not supported with "
                    "--workers)"
                )
            return await self._checkpoint_all()
        if op == "ping":
            return {
                "ok": True,
                "protocol": PROTOCOL_VERSION,
                "n_placed": self._cursor,
                "workers": self._n_workers,
                "granted": self._granted,
                "degraded": self._degraded,
                "max_inflight": self._max_inflight,
                "recovering": [
                    handle.partition_id
                    for handle in self._workers
                    if handle.recovering
                ],
                # partition id -> OS pid, for ops tooling (and the CI
                # kill-a-worker smoke).
                "worker_pids": {
                    str(handle.partition_id): (
                        handle.process.pid if handle.process else None
                    )
                    for handle in self._workers
                },
            }
        if op == "shutdown":
            asyncio.get_running_loop().create_task(self.stop())
            return {"ok": True}
        raise ProtocolError(
            f"unknown op {op!r}; expected one of place, stats, "
            "checkpoint, ping, shutdown"
        )

    async def _place_frame(self, payload: bytes) -> dict:
        first, count = peek_place_header(payload)
        if count > self._max_batch_txs:
            raise ProtocolError(
                f"batch of {count} exceeds max_batch_txs="
                f"{self._max_batch_txs}"
            )
        last = first + count - 1
        if first // self._lease_length == last // self._lease_length:
            # Entirely inside one lease: forward the raw bytes.
            return await self._route_segments([(first, count, payload)])
        return await self._place_request(decode_place_arrays(payload))

    async def _place_request(self, batch: WireBatch) -> dict:
        if len(batch) > self._max_batch_txs:
            raise ProtocolError(
                f"batch of {len(batch)} exceeds max_batch_txs="
                f"{self._max_batch_txs}"
            )
        return await self._route_segments(self._split_segments(batch))

    def _split_segments(
        self, batch: WireBatch
    ) -> list[tuple[int, int, bytes]]:
        """``(first_txid, count, payload)`` per lease the batch touches:
        column slices, output content included."""
        segments = []
        lease_length = self._lease_length
        start = 0
        while start < len(batch):
            first = batch.first_txid + start
            stop = min(
                len(batch),
                (first // lease_length + 1) * lease_length - batch.first_txid,
            )
            segments.append((first, stop - start, batch.payload(start, stop)))
            start = stop
        return segments

    async def _route_segments(
        self, segments: list[tuple[int, int, bytes]]
    ) -> dict:
        if self._stopping:
            return {
                "ok": False,
                "code": "shutdown",
                "error": "server is shutting down",
            }
        if self._degraded is not None:
            return {
                "ok": False,
                "code": "engine",
                "error": f"service is degraded: {self._degraded}",
            }
        shards: list[int] = []
        for first, count, payload in segments:
            handle = self._workers[self._owner_of(first)]
            if not handle.alive or handle.channel is None:
                self.metrics.retry_replies += 1
                return {
                    "ok": False,
                    "code": "retry",
                    "error": (
                        f"partition {handle.partition_id} is "
                        "unavailable (worker recovering); retry later"
                    ),
                }
            if handle.inflight >= self._max_inflight:
                self.metrics.overload_replies += 1
                return {
                    "ok": False,
                    "code": "overload",
                    "error": (
                        f"partition {handle.partition_id} has "
                        f"{handle.inflight} requests in flight "
                        f"(limit {self._max_inflight}); retry later"
                    ),
                }
            handle.inflight += 1
            try:
                kind, response_payload = await handle.channel.request(
                    ch.W_PLACE, payload
                )
            except (ChannelClosed, AttributeError):
                if self._degraded is not None:
                    return {
                        "ok": False,
                        "code": "engine",
                        "error": f"service is degraded: {self._degraded}",
                    }
                self.metrics.retry_replies += 1
                return {
                    "ok": False,
                    "code": "retry",
                    "error": (
                        f"partition {handle.partition_id} is "
                        "unavailable (worker recovering); retry later"
                    ),
                }
            finally:
                handle.inflight -= 1
            response = decode_response(kind, response_payload)
            if not response.get("ok"):
                return response
            shards.extend(response["shards"])
            self._cursor = max(self._cursor, first + count)
        return {"ok": True, "shards": shards}

    # -- stats merge -------------------------------------------------------

    async def _collect_worker_stats(
        self,
    ) -> "tuple[list[dict[str, Any]], list[dict[str, Any]]]":
        """One W_STATS fan-out: (engine stats, obs bundles) per worker.

        A dead worker contributes a ``dead`` stats marker and no obs
        entry - the scrape simply goes quiet for that partition until
        it rejoins, which is itself a useful signal next to the
        coordinator's ``recovering`` gauge.
        """
        per_partition: list[dict[str, Any]] = []
        obs_entries: list[dict[str, Any]] = []
        for handle in self._workers:
            try:
                response = await handle.request_json(ch.W_STATS)
            except ChannelClosed:
                per_partition.append(
                    {"partition_id": handle.partition_id, "dead": True}
                )
                continue
            if response.get("ok"):
                per_partition.append(response["stats"])
                obs = dict(response.get("obs") or {})
                obs["partition_id"] = handle.partition_id
                obs["engine"] = response["stats"]
                obs_entries.append(obs)
        return per_partition, obs_entries

    def _merged_obs(
        self, obs_entries: "list[dict[str, Any]]"
    ) -> dict[str, Any]:
        """Service-level observability sidecar of the ``stats`` reply.

        Same shape as the monolith's (metrics/wal/rss_kb/drift) so
        clients need no mode switch, plus the raw per-partition
        bundles. The merged metrics fold the coordinator's own
        counters (retry/overload/respawn/heartbeat) in with the
        workers' - the histogram percentiles are exactly those of the
        union of all workers' batches.
        """
        metric_dicts = [
            entry.get("metrics")
            for entry in obs_entries
            if entry.get("metrics")
        ]
        metric_dicts.append(self.metrics.as_dict())
        wal_dicts = [
            entry.get("wal") for entry in obs_entries if entry.get("wal")
        ]
        merged_wal: "dict[str, int] | None" = None
        if wal_dicts:
            merged_wal = {
                key: sum(int(data.get(key, 0)) for data in wal_dicts)
                for key in (
                    "bytes_appended",
                    "records_appended",
                    "fsyncs",
                    "resets",
                )
            }
        drift_dicts = [
            entry.get("drift")
            for entry in obs_entries
            if entry.get("drift")
        ]
        per_partition = []
        for entry in obs_entries:
            slim = dict(entry)
            slim.pop("engine", None)
            per_partition.append(slim)
        rows = [entry.get("rows_resident") for entry in obs_entries]
        rows = [count for count in rows if count is not None]
        return {
            "metrics": merge_metric_dicts(metric_dicts),
            "wal": merged_wal,
            "rss_kb": rss_kb(),
            "rows_resident": sum(rows) if rows else None,
            "drift": (
                merge_drift_dicts(drift_dicts) if drift_dicts else None
            ),
            "partitions": per_partition,
        }

    async def _merged_stats(self) -> dict:
        per_partition, obs_entries = await self._collect_worker_stats()
        merged = merge_partition_stats(
            per_partition, self._cursor, self._granted
        )
        merged["degraded"] = self._degraded
        return {
            "ok": True,
            "stats": merged,
            "obs": self._merged_obs(obs_entries),
        }

    async def _render_metrics(self) -> str:
        """Scrape body for the sharded service: per-partition worker
        bundles plus coordinator-side counters and lease/health gauges."""
        _, obs_entries = await self._collect_worker_stats()
        partitions = [
            {
                "partition": str(entry.get("partition_id", index)),
                "engine": entry.get("engine"),
                "metrics": entry.get("metrics"),
                "wal": entry.get("wal"),
                "drift": entry.get("drift"),
                "rss_kb": entry.get("rss_kb"),
                "rows_resident": entry.get("rows_resident"),
            }
            for index, entry in enumerate(obs_entries)
        ]
        families = service_families(
            {
                "spec": str(self._spec.get("method", "")),
                "mode": "sharded",
                "workers": self._n_workers,
            },
            partitions,
            coordinator={
                "metrics": self.metrics.as_dict(),
                "rss_kb": rss_kb(),
                "granted": self._granted,
                "cursor": self._cursor,
                "degraded": 0 if self._degraded is None else 1,
                "recovering": sum(
                    1 for handle in self._workers if handle.recovering
                ),
            },
        )
        return render_families(families)


def merge_partition_stats(
    per_partition: list[dict[str, Any]], cursor: int, granted: int
) -> dict[str, Any]:
    """Combine per-partition stats into one monolith-shaped view.

    Counters (live/released vectors, tracked unspent) are sums over the
    disjoint slices; stream-position fields (epoch, horizon) come from
    the partition holding the write lease, whose view is current.
    """
    alive = [
        stats for stats in per_partition if not stats.get("dead")
    ]
    active = next(
        (
            stats
            for stats in alive
            if stats.get("partition_id") == granted
        ),
        alive[0] if alive else {},
    )

    def _sum(key: str):
        values = [
            stats.get(key) for stats in alive if stats.get(key) is not None
        ]
        return sum(values) if values else None

    support = None
    supports = [
        stats["support"] for stats in alive if stats.get("support")
    ]
    if supports:
        live = sum(entry["live_vectors"] for entry in supports)
        support = {
            "live_vectors": live,
            "mean_nnz": (
                sum(
                    entry["mean_nnz"] * entry["live_vectors"]
                    for entry in supports
                )
                / live
                if live
                else 0.0
            ),
            "max_nnz": max(entry["max_nnz"] for entry in supports),
            "dropped_mass": active.get("support", {}).get(
                "dropped_mass", 0.0
            ),
            "truncated_vectors": active.get("support", {}).get(
                "truncated_vectors", 0
            ),
            "support_cap": active.get("support", {}).get("support_cap"),
        }
    return {
        "strategy": active.get("strategy"),
        "n_shards": active.get("n_shards"),
        "n_placed": cursor,
        "live_vectors": _sum("live_vectors"),
        "released_vectors": _sum("released_vectors"),
        "peak_live_vectors": _sum("peak_live_vectors"),
        "horizon_start": active.get("horizon_start", 0),
        "epoch": active.get("epoch", 0),
        "tracked_unspent": _sum("tracked_unspent"),
        "epoch_length": active.get("epoch_length"),
        "horizon_epochs": active.get("horizon_epochs"),
        "support": support,
        "partitions": per_partition,
    }


async def start_sharded_server(
    spec: dict[str, Any],
    n_workers: int,
    host: str = "127.0.0.1",
    port: int = DEFAULT_PORT,
    **kwargs: Any,
) -> ShardedPlacementServer:
    """Construct and start a :class:`ShardedPlacementServer`."""
    server = ShardedPlacementServer(
        spec, n_workers, host, port, **kwargs
    )
    await server.start()
    return server
