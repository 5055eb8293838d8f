"""Duplex frame-RPC channel between the coordinator and its workers.

Both ends of a worker link initiate requests: the coordinator pushes
placements, grants, and checkpoints down; the active worker pulls
foreign parent state and pushes writebacks back up *while a placement
is in flight* - which is exactly why this is a full-duplex channel with
per-side correlation ids rather than a request/response pipe. Frames
reuse the binary wire format (:mod:`repro.service.wire`); response
frames have bit 7 of the kind set and echo the request id, and each
side only ever resolves ids it allocated, so the two counters cannot
collide.

The inter-worker request kinds (0x10..0x1F, reserved by wire.py):

====================  ====================================================
``W_HELLO``           worker -> coordinator: partition id, cursor, token
``W_PLACE``           coordinator -> owner: one place payload (raw bytes)
``W_GRANT``           coordinator -> next owner: writebacks, lease + hot state
``W_RELEASE``         active worker -> coordinator: writebacks, hot state
``W_ACQUIRE``         active worker -> coordinator: writebacks, parent txids
``W_READ``            coordinator -> owning worker: writebacks, parent txids
``W_WRITEBACK``       active worker -> coordinator: flush pending writebacks
``W_APPLY``           coordinator -> owning worker: apply writebacks
``W_STATS``           coordinator -> worker: partition stats
``W_CHECKPOINT``      coordinator -> worker: snapshot (optionally pause)
``W_RESUME``          coordinator -> worker: resume after a held snapshot
``W_SHUTDOWN``        coordinator -> worker: drain queued work and exit
``W_PING``            coordinator -> worker: liveness probe (heartbeat)
====================  ====================================================

The parent-state kinds carry typed-array payloads, not JSON (layouts
in :mod:`repro.service.partition`; everything little-endian):

- **Carried writebacks.** The lease holder does not wait out a round
  trip per run to return its mutations: they stay pending and ride the
  next message it sends anyway. ``W_ACQUIRE`` and ``W_RELEASE``
  payloads therefore lead with one length-prefixed
  :class:`~repro.service.partition.Writebacks` section - ``u32``
  length, then the frame; length 0 when nothing is pending - built and
  split by :func:`carry` / :func:`uncarry`. The coordinator applies a
  carried frame before it reads from or grants to any owner, and
  passes each owner its share the same way: inside that owner's
  ``W_READ`` or ``W_GRANT`` (applied under the same engine-lock
  acquisition, before the read or the hot-state import), or as a
  ``W_APPLY`` to an owner with nothing to read or be granted.
- ``W_ACQUIRE`` / ``W_READ`` request, after the writebacks section: a
  bare ``i64[n]`` column of distinct parent txids. The coordinator
  reads it to group txids by owner and sends each owner its share;
  when one partition owns them all (always, with two workers) the
  column is forwarded untouched.
- ``W_READ`` reply (:data:`STATUS_FRAME`): one
  :class:`~repro.service.partition.ParentStates` frame - 16-byte header
  (rows, flags, spilled masks, vector entries), then the columns
  ``txids``, ``assignment``, ``mask`` (``i64[rows]``), with a scorer
  ``spender_count`` ``i64``, ``min_mass`` ``f64``, optional
  ``output_count`` ``i64``, the vectors as CSR (``mass`` ``f64[entries]``,
  ``nnz`` ``i32[rows]`` with -1 for "no vector", ``shard``
  ``i32[entries]``, entries in the owner's iteration order), then each
  mask wider than 62 bits (slot -1 in ``mask``) as a length-prefixed
  little-endian integer. The ``W_ACQUIRE`` reply is the owners' reply
  payloads joined in owner order - the coordinator never parses them,
  and the worker journals those bytes as they are.
- ``W_WRITEBACK`` / ``W_APPLY`` request: one
  :class:`~repro.service.partition.Writebacks` frame (same header;
  ``txids``, ``spender_count``, ``mask`` columns, mask slot 0 = fully
  spent; spill as above). The coordinator forwards it untouched when
  one partition owns every row - with two workers without reading it,
  else after reading the txid column - and splits it otherwise.
  Success is the empty :func:`ack` frame. ``W_WRITEBACK`` is only the
  flush of writebacks still pending when the holder answers
  ``W_CHECKPOINT``, ``W_STATS`` or a drain; otherwise they ride its
  next ``W_ACQUIRE`` or ``W_RELEASE``.
- ``W_RELEASE`` / ``W_GRANT`` request, after the writebacks section:
  the JSON ``{"hot": ...}`` body (``{}`` for a grant that hands over
  no hot state).
"""

from __future__ import annotations

import asyncio
import json
import struct
from typing import Any, Awaitable, Callable

from repro.errors import ProtocolError, ServiceError
from repro.service.wire import (
    RESPONSE_FLAG,
    STATUS_JSON,
    encode_error_response,
    encode_frame,
    read_frame,
)

W_HELLO = 0x10
W_PLACE = 0x11
W_GRANT = 0x12
W_RELEASE = 0x13
W_ACQUIRE = 0x14
W_READ = 0x15
W_WRITEBACK = 0x16
W_APPLY = 0x17
W_STATS = 0x18
W_CHECKPOINT = 0x19
W_RESUME = 0x1A
W_SHUTDOWN = 0x1B
W_PING = 0x1C

#: Response kind whose payload is typed-array frame bytes (the success
#: reply of ``W_READ`` / ``W_ACQUIRE``). Statuses below 0x10 are the
#: client protocol's (wire.py); this one never leaves the worker links.
STATUS_FRAME = RESPONSE_FLAG | 0x10


def ack(request_id: int) -> bytes:
    """The bare success reply of ``W_APPLY`` / ``W_WRITEBACK``: an empty
    JSON-status frame, which decodes as ``{"ok": True}`` with no JSON
    call at either end."""
    return encode_frame(RESPONSE_FLAG | STATUS_JSON, request_id)


_U32 = struct.Struct("<I")


def carry(writebacks: bytes, body: bytes) -> bytes:
    """A payload led by its writebacks section (``writebacks`` may be
    empty: nothing pending)."""
    return b"".join((_U32.pack(len(writebacks)), writebacks, body))


def uncarry(payload: bytes) -> tuple[bytes, bytes]:
    """``(writebacks, body)`` of a :func:`carry` payload."""
    if len(payload) < _U32.size:
        raise ProtocolError("payload too short for its writebacks section")
    (length,) = _U32.unpack_from(payload, 0)
    end = _U32.size + length
    if end > len(payload):
        raise ProtocolError(
            f"writebacks section of {length} bytes overruns the payload"
        )
    return payload[_U32.size : end], payload[end:]


#: handler(kind, request_id, payload) -> complete response frame bytes.
Handler = Callable[[int, int, bytes], Awaitable[bytes]]


def json_payload(obj: Any) -> bytes:
    """JSON request payload (floats round-trip exactly via repr)."""
    return json.dumps(obj, separators=(",", ":")).encode()


def parse_json_payload(payload: bytes) -> Any:
    try:
        return json.loads(payload) if payload else {}
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ProtocolError(f"malformed JSON payload: {exc}")


class ChannelClosed(ServiceError):
    """The peer is gone; in-flight requests cannot complete."""


class FrameChannel:
    """One duplex coordinator<->worker link.

    Incoming *request* frames are dispatched to ``handler`` as tasks
    (so a handler that blocks on its own outbound request cannot
    deadlock the read loop); incoming *response* frames resolve the
    matching local future. ``on_close`` fires exactly once when the
    link dies, after all in-flight futures have been failed.
    """

    def __init__(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        handler: "Handler | None" = None,
        on_close: "Callable[[], None] | None" = None,
    ) -> None:
        self._reader = reader
        self._writer = writer
        self._handler = handler
        self._on_close = on_close
        self._inflight: dict[int, asyncio.Future] = {}
        self._next_id = 0
        self._closed = False
        self._write_lock = asyncio.Lock()
        self._handler_tasks: set[asyncio.Task] = set()
        self._read_task = asyncio.create_task(self._read_loop())

    @property
    def closed(self) -> bool:
        return self._closed

    # -- outbound ----------------------------------------------------------

    async def request(
        self, kind: int, payload: bytes = b""
    ) -> tuple[int, bytes]:
        """Send one request; returns ``(response_kind, payload)``."""
        if self._closed:
            raise ChannelClosed("channel is closed")
        self._next_id += 1
        request_id = self._next_id
        future: asyncio.Future = (
            asyncio.get_running_loop().create_future()
        )
        self._inflight[request_id] = future
        await self._send(encode_frame(kind, request_id, payload))
        return await future

    async def _send(self, frame: bytes) -> None:
        try:
            async with self._write_lock:
                self._writer.write(frame)
                await self._writer.drain()
        except (ConnectionError, RuntimeError):
            raise ChannelClosed("peer closed the channel mid-write")

    async def respond(self, frame: bytes) -> None:
        """Write one (already encoded) response frame."""
        try:
            async with self._write_lock:
                self._writer.write(frame)
                await self._writer.drain()
        except (ConnectionError, RuntimeError):
            pass  # requester is gone; nothing to deliver to

    # -- inbound -----------------------------------------------------------

    async def _read_loop(self) -> None:
        try:
            while True:
                frame = await read_frame(self._reader)
                if frame is None:
                    break
                kind, request_id, payload = frame
                if kind & RESPONSE_FLAG:
                    future = self._inflight.pop(request_id, None)
                    if future is not None and not future.done():
                        future.set_result((kind, payload))
                    continue
                task = asyncio.create_task(
                    self._dispatch(kind, request_id, payload)
                )
                self._handler_tasks.add(task)
                task.add_done_callback(self._handler_tasks.discard)
        except (ProtocolError, ConnectionError, asyncio.CancelledError):
            pass
        finally:
            self._shutdown_inflight()

    async def _dispatch(
        self, kind: int, request_id: int, payload: bytes
    ) -> None:
        handler = self._handler
        if handler is None:
            await self.respond(
                encode_error_response(
                    request_id, "protocol", "channel has no handler"
                )
            )
            return
        try:
            frame = await handler(kind, request_id, payload)
        except Exception as exc:  # noqa: BLE001 - a handler bug must
            # fail the one request, not the whole link.
            frame = encode_error_response(
                request_id,
                "engine",
                f"internal error handling channel request: {exc!r}",
            )
        await self.respond(frame)

    def _shutdown_inflight(self) -> None:
        if self._closed:
            return
        self._closed = True
        for future in self._inflight.values():
            if not future.done():
                future.set_exception(
                    ChannelClosed("channel closed before response")
                )
        self._inflight.clear()
        if self._on_close is not None:
            callback = self._on_close
            self._on_close = None
            callback()

    async def close(self) -> None:
        self._read_task.cancel()
        try:
            await self._read_task
        except asyncio.CancelledError:
            pass
        if self._handler_tasks:
            await asyncio.gather(
                *list(self._handler_tasks), return_exceptions=True
            )
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionError, OSError):
            pass
