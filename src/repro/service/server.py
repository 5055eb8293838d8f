"""Asyncio placement server: dual-codec protocol, micro-batched dispatch.

Architecture (single process, single event loop):

- **Connection handlers** sniff the first byte to pick the codec -
  binary frames (:data:`~repro.service.wire.BIN_MAGIC`) or NDJSON - and
  spawn a task per request, so one slow ``place`` does not stall a
  pipelining client's later lines (responses carry the request ``id``).
- **The sequencer and dispatcher** (:mod:`repro.service.sequencer`,
  shared with the sharded service's workers): ``place`` requests wait
  in a reorder buffer keyed by first txid; one task pops the contiguous
  run at the engine's ``n_placed`` cursor, coalesces it into a single
  micro-batch (up to ``max_batch_txs``) and replays it request by
  request if the engine rejects it, so only the offender fails.
- **Shutdown** (``shutdown`` op, SIGTERM, or SIGINT via the CLI) stops
  accepting work, drains every dispatchable request, answers the rest
  with a ``shutdown`` error, writes a checkpoint when a path is
  configured, and only then closes - a restarted server resumes from
  the checkpoint bit-identically.

All traffic rides one path. A binary ``place`` payload decodes to a
zero-copy :class:`~repro.service.wire.WireBatch` (numpy-free typed
columns over the payload bytes); an NDJSON request decodes to
``Transaction`` objects and becomes a ``WireBatch`` at once
(:func:`~repro.service.wire.as_wire_batch`). Requests wait, coalesce
(by joining columns) and enter
:meth:`~repro.service.engine.PlacementEngine.place_wire_batch` in that
one form, full-output frames included. The engine decides what the
batch needs: a kernel-validating engine (e.g. ``optchain:backend=numpy``)
views the columns in C without building a ``Transaction``; python
backends and drift-monitored engines (the shadow placer reads objects)
materialize the batch there, as does a kernel ``FALLBACK`` (>62-bit
spend masks). Replies are byte-identical whichever engine serves.

Placement intentionally runs *on* the event loop: decode, sequencing
and the python backends are GIL-bound, so a worker thread would
serialize anyway and add handoff latency. Micro-batches keep each
blocking stretch short.
"""

from __future__ import annotations

import asyncio
import json
from typing import Any

from repro.errors import EngineError, ProtocolError
from repro.obs.metrics import (
    ServiceMetrics, rss_kb, service_families, t2s_rows_resident,
)
from repro.obs.prom import MetricsServer, render_families
from repro.service.engine import PlacementEngine
from repro.service.sequencer import Sequencer, failure
from repro.service.wire import (
    BIN_MAGIC,
    KIND_PLACE,
    OPS,
    PROTOCOL_VERSION,
    WireBatch,
    as_wire_batch,
    decode_batch,
    decode_place_arrays,
    encode_error_response,
    encode_response_for,
    op_of_kind,
    read_frame,
)

DEFAULT_PORT = 9171


class PlacementServer:
    """A long-lived placement service over one :class:`PlacementEngine`."""

    def __init__(
        self,
        engine: PlacementEngine,
        host: str = "127.0.0.1",
        port: int = DEFAULT_PORT,
        *,
        max_batch_txs: int = 8192,
        max_reorder_requests: int = 1024,
        max_line_bytes: int = 8 * 1024 * 1024,
        checkpoint_path: "str | None" = None,
        checkpoint_compress: bool = False,
        checkpoint_delta_every: "int | None" = None,
        metrics_port: "int | None" = None,
        metrics_host: "str | None" = None,
    ) -> None:
        self._engine = engine
        self._host = host
        self._port = port
        self._max_batch_txs = max_batch_txs
        self._max_line_bytes = max_line_bytes
        self._checkpoint_path = checkpoint_path
        self._checkpoint_compress = checkpoint_compress
        # Delta cadence: with N, checkpoints 1..N-1 after each full
        # write ``<path>.delta`` (O(activity since base)); every Nth is
        # a full compaction. None = always full.
        self._checkpoint_delta_every = checkpoint_delta_every
        self._checkpoints_since_full = 0
        self._server: asyncio.AbstractServer | None = None
        self._dispatcher: asyncio.Task | None = None
        self._stopping = False
        self._stopped = asyncio.Event()
        self._line_tasks: set[asyncio.Task] = set()
        self._writers: set[asyncio.StreamWriter] = set()
        #: Live serving metrics (always on: one histogram record and
        #: two integer bumps per dispatched micro-batch, bench-gated
        #: under 5% of engine throughput).
        self.metrics = ServiceMetrics()
        self._sequencer = Sequencer(
            lambda: engine.n_placed,
            lambda first, count: list(
                engine.placer._assignment[first : first + count]
            ),
            self.metrics,
            max_batch_txs=max_batch_txs,
            max_reorder=max_reorder_requests,
        )
        self._metrics_server: "MetricsServer | None" = (
            MetricsServer(
                self._render_metrics,
                host=metrics_host if metrics_host is not None else host,
                port=metrics_port,
            )
            if metrics_port is not None
            else None
        )

    # -- lifecycle ---------------------------------------------------------

    @property
    def engine(self) -> PlacementEngine:
        return self._engine

    @property
    def port(self) -> int:
        """The bound port (useful when constructed with port 0)."""
        return self._port

    @property
    def metrics_port(self) -> "int | None":
        """Bound ``/metrics`` port, None when the endpoint is off."""
        if self._metrics_server is None:
            return None
        return self._metrics_server.port

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._on_connection,
            self._host,
            self._port,
            limit=self._max_line_bytes,
        )
        self._port = self._server.sockets[0].getsockname()[1]
        if self._metrics_server is not None:
            await self._metrics_server.start()
        self._dispatcher = asyncio.create_task(self._dispatch_loop())

    async def stop(self) -> None:
        """Drain, checkpoint (if configured), close. Idempotent."""
        if self._stopping:
            await self._stopped.wait()
            return
        self._stopping = True
        self._sequencer.wakeup.set()
        if self._dispatcher is not None:
            try:
                await self._dispatcher
            except Exception:  # noqa: BLE001 - a dead dispatcher must
                # not block the drain/checkpoint sequence below.
                pass
        self._sequencer.fail_pending(
            "shutdown",
            "server shut down before the txid gap before this request "
            "was filled",
        )
        if self._checkpoint_path is not None:
            self._do_checkpoint(self._checkpoint_path)
        if self._metrics_server is not None:
            await self._metrics_server.stop()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._line_tasks:
            await asyncio.gather(
                *list(self._line_tasks), return_exceptions=True
            )
        for writer in list(self._writers):
            writer.close()
        self._stopped.set()

    async def wait_stopped(self) -> None:
        await self._stopped.wait()

    # -- connection handling -----------------------------------------------

    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._writers.add(writer)
        write_lock = asyncio.Lock()
        try:
            # Protocol sniff: binary frames open with BIN_MAGIC (0xF5),
            # NDJSON with a printable byte. One connection speaks one
            # protocol; both coexist on the port.
            try:
                first = await reader.readexactly(1)
            except (EOFError, ConnectionError):
                return
            if first[0] == BIN_MAGIC:
                await self._binary_loop(first, reader, writer, write_lock)
            else:
                await self._json_loop(first, reader, writer, write_lock)
        finally:
            self._writers.discard(writer)
            # In-flight requests from this connection stay in the
            # sequencer: their txids are part of the global order, so
            # they are placed (or failed) normally - only the response
            # write is skipped once the peer is gone.
            if not writer.is_closing():
                writer.close()

    async def _json_loop(
        self,
        first: bytes,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        write_lock: asyncio.Lock,
    ) -> None:
        prefix = first
        while True:
            try:
                line = prefix + await reader.readline()
                prefix = b""
            except (ValueError, asyncio.LimitOverrunError):
                # Line overran the stream limit; the framing is now
                # unrecoverable on this connection.
                await self._write(
                    writer,
                    write_lock,
                    {
                        "id": None,
                        "ok": False,
                        "code": "protocol",
                        "error": (
                            "request line exceeds "
                            f"{self._max_line_bytes} bytes"
                        ),
                    },
                )
                return
            except ConnectionError:
                return
            if not line:
                return
            data = line.strip()
            if not data:
                continue
            task = asyncio.create_task(
                self._serve_line(data, writer, write_lock)
            )
            self._line_tasks.add(task)
            task.add_done_callback(self._line_tasks.discard)

    async def _binary_loop(
        self,
        first: bytes,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        write_lock: asyncio.Lock,
    ) -> None:
        while True:
            try:
                frame = await read_frame(reader, first_byte=first)
            except ProtocolError as exc:
                # Framing is unrecoverable (bad magic mid-stream,
                # oversized payload, EOF inside a frame): report once
                # and close, mirroring the NDJSON overrun path.
                await self._write_frame(
                    writer,
                    write_lock,
                    encode_error_response(0, "protocol", str(exc)),
                )
                return
            except ConnectionError:
                return
            first = b""
            if frame is None:
                return
            kind, request_id, payload = frame
            task = asyncio.create_task(
                self._serve_frame(
                    kind, request_id, payload, writer, write_lock
                )
            )
            self._line_tasks.add(task)
            task.add_done_callback(self._line_tasks.discard)

    async def _serve_frame(
        self,
        kind: int,
        request_id: int,
        payload: bytes,
        writer: asyncio.StreamWriter,
        write_lock: asyncio.Lock,
    ) -> None:
        try:
            if kind == KIND_PLACE:
                response = await self._place_frame(payload)
            else:
                op = op_of_kind(kind)
                message: dict[str, Any] = {"op": op}
                if payload:
                    try:
                        body = json.loads(payload)
                    except (
                        json.JSONDecodeError,
                        UnicodeDecodeError,
                    ) as exc:
                        raise ProtocolError(
                            f"request payload is not valid JSON: {exc}"
                        )
                    if not isinstance(body, dict):
                        raise ProtocolError(
                            "request payload must be a JSON object"
                        )
                    message.update(body)
                response = await self._handle(message)
        except ProtocolError as exc:
            response = {"ok": False, "code": "protocol", "error": str(exc)}
        except EngineError as exc:
            response = {"ok": False, "code": "engine", "error": str(exc)}
        except Exception as exc:  # noqa: BLE001 - one bad frame must not
            # take the server down; report and keep serving.
            response = {
                "ok": False,
                "code": "protocol",
                "error": f"internal error handling request: {exc!r}",
            }
        await self._write_frame(
            writer, write_lock, encode_response_for(request_id, response)
        )

    async def _write_frame(
        self,
        writer: asyncio.StreamWriter,
        write_lock: asyncio.Lock,
        frame: bytes,
    ) -> None:
        try:
            async with write_lock:
                writer.write(frame)
                await writer.drain()
        except (ConnectionError, RuntimeError):
            # Peer vanished mid-response; state already advanced and
            # the stream stays consistent for everyone else.
            pass

    async def _serve_line(
        self,
        data: bytes,
        writer: asyncio.StreamWriter,
        write_lock: asyncio.Lock,
    ) -> None:
        request_id: Any = None
        try:
            try:
                message = json.loads(data)
            except json.JSONDecodeError as exc:
                raise ProtocolError(f"request is not valid JSON: {exc}")
            if isinstance(message, dict):
                request_id = message.get("id")
            response = await self._handle(message)
        except ProtocolError as exc:
            response = {"ok": False, "code": "protocol", "error": str(exc)}
        except EngineError as exc:
            response = {"ok": False, "code": "engine", "error": str(exc)}
        except Exception as exc:  # noqa: BLE001 - one bad line must not
            # take the server down; report and keep serving.
            response = {
                "ok": False,
                "code": "protocol",
                "error": f"internal error handling request: {exc!r}",
            }
        response["id"] = request_id
        await self._write(writer, write_lock, response)

    async def _write(
        self,
        writer: asyncio.StreamWriter,
        write_lock: asyncio.Lock,
        response: dict,
    ) -> None:
        payload = json.dumps(response, separators=(",", ":")).encode()
        try:
            async with write_lock:
                writer.write(payload + b"\n")
                await writer.drain()
        except (ConnectionError, RuntimeError):
            # Peer vanished mid-response; nothing to do - state already
            # advanced and the stream stays consistent for everyone else.
            pass

    # -- request handling --------------------------------------------------

    async def _handle(self, message: Any) -> dict:
        if not isinstance(message, dict):
            raise ProtocolError("request must be a JSON object")
        op = message.get("op")
        if op not in OPS:
            raise ProtocolError(
                f"unknown op {op!r}; expected one of {', '.join(OPS)}"
            )
        if op == "place":
            return await self._handle_place(message)
        if op == "stats":
            return {
                "ok": True,
                "stats": self._engine.stats().as_dict(),
                "obs": self._obs_dict(),
            }
        if op == "checkpoint":
            path = message.get("path") or self._checkpoint_path
            if not path:
                raise ProtocolError(
                    "no checkpoint path: pass \"path\" or start the "
                    "server with one"
                )
            size = self._do_checkpoint(path)
            return {"ok": True, "path": str(path), "bytes": size}
        if op == "ping":
            return {
                "ok": True,
                "protocol": PROTOCOL_VERSION,
                "n_placed": self._engine.n_placed,
            }
        # shutdown: ack first, then stop out-of-band so this handler
        # (a line task stop() would otherwise wait on) can finish.
        asyncio.get_running_loop().create_task(self.stop())
        return {"ok": True}

    def _obs_dict(self) -> dict[str, Any]:
        """Observability sidecar of the ``stats`` reply."""
        monitor = self._engine.drift_monitor
        return {
            "metrics": self.metrics.as_dict(),
            "wal": None,
            "rss_kb": rss_kb(),
            "rows_resident": t2s_rows_resident(self._engine),
            "drift": monitor.as_dict() if monitor is not None else None,
        }

    async def _render_metrics(self) -> str:
        """Scrape body for the single-process server (overridden by the
        sharded coordinator, which aggregates worker stats)."""
        engine_stats = self._engine.stats().as_dict()
        monitor = self._engine.drift_monitor
        families = service_families(
            {
                "spec": engine_stats.get("spec", ""),
                "mode": "single",
                "workers": 0,
            },
            [
                {
                    "partition": "0",
                    "engine": engine_stats,
                    "metrics": self.metrics.as_dict(),
                    "drift": (
                        monitor.as_dict() if monitor is not None else None
                    ),
                    "rss_kb": rss_kb(),
                    "rows_resident": t2s_rows_resident(self._engine),
                }
            ],
        )
        return render_families(families)

    def _do_checkpoint(self, path: "str | pathlib.Path") -> int:
        """One checkpoint at the configured full/delta cadence.

        An explicit non-configured ``path`` always gets a full
        snapshot (deltas only make sense against a stable base file).
        """
        every = self._checkpoint_delta_every
        base = self._engine._delta_base
        tracking = self._engine._dirty_parents is not None
        delta = (
            every is not None
            and every > 1
            and str(path) == str(self._checkpoint_path)
            and base is not None
            and tracking
            and base["path"] == str(path)
            and self._checkpoints_since_full % every != 0
        )
        size = self._engine.checkpoint(
            path,
            compress=self._checkpoint_compress,
            delta=delta,
            # Full saves start (or continue) the dirty journal only
            # when the delta cadence is configured.
            track_delta=(
                None if delta else every is not None and every > 1
            ),
        )
        if delta:
            self._checkpoints_since_full += 1
        else:
            self._checkpoints_since_full = 1
        return size

    async def _handle_place(self, message: dict) -> dict:
        return await self._place_request(
            as_wire_batch(decode_batch(message.get("txs")))
        )

    async def _place_frame(self, payload: bytes) -> dict:
        """Binary ``place``: decode here, place locally. The sharded
        coordinator overrides this to route the *raw payload* to the
        owning worker without decoding it."""
        return await self._place_request(decode_place_arrays(payload))

    async def _place_request(self, batch: WireBatch) -> dict:
        """Sequence one decoded ``place`` batch (both codecs land here)."""
        if self._stopping:
            return failure("shutdown", "server is shutting down")
        if len(batch) > self._max_batch_txs:
            raise ProtocolError(
                f"batch of {len(batch)} exceeds max_batch_txs="
                f"{self._max_batch_txs}"
            )
        return await self._sequencer.submit(batch)

    # -- the dispatcher ----------------------------------------------------

    async def _dispatch_loop(self) -> None:
        wakeup = self._sequencer.wakeup
        while True:
            await wakeup.wait()
            wakeup.clear()
            await self._dispatch_ready()
            if self._stopping:
                return

    async def _dispatch_ready(self) -> None:
        """Place every currently dispatchable request.

        Yields to the event loop between coalesced micro-batches so a
        large dispatchable backlog cannot starve pings, new lines, or
        the blocking client's socket timeout; the engine is quiescent
        at every yield point, which is what keeps mid-backlog
        checkpoints consistent.
        """
        sequencer = self._sequencer
        while True:
            group = sequencer.take_run()
            if group is None:
                return
            await sequencer.place_run(group, self._place)
            await asyncio.sleep(0)

    async def _place(self, batch: WireBatch) -> list[int]:
        return self._engine.place_wire_batch(batch)


async def start_server(
    engine: PlacementEngine,
    host: str = "127.0.0.1",
    port: int = DEFAULT_PORT,
    **kwargs: Any,
) -> PlacementServer:
    """Construct and start a :class:`PlacementServer`."""
    server = PlacementServer(engine, host, port, **kwargs)
    await server.start()
    return server
