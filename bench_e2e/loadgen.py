"""Raw-frame load generator: one process, ``connections`` sockets,
PLACE frames encoded before the clock starts, every reply compared
byte-for-byte with the golden placement.

It deliberately does not use :mod:`repro.service.client`: the client
library's own cost is a per-layer metric (``client.lib_us_per_tx``),
not part of the server's numbers.
"""

from __future__ import annotations

import asyncio
import json
import math
import socket
from dataclasses import dataclass, field
from time import perf_counter

from repro.errors import ProtocolError
from repro.service.wire import (
    FRAME_HEADER_BYTES,
    RESPONSE_FLAG,
    STATUS_JSON,
    STATUS_SHARDS,
    decode_frame_header,
    encode_control_request,
)

from config import Sizes
from inputs import Inputs
from spans import Tracer
from stats import lateness_ms

_OK_SHARDS = RESPONSE_FLAG | STATUS_SHARDS
HOST = "127.0.0.1"


@dataclass
class PassResult:
    attempted: int
    n_txs: int
    elapsed_s: float = 0.0
    failed: int = 0
    #: request index -> ms from send (closed) or due time (open) to
    #: reply; a failed request keeps ``inf`` and so misses any limit.
    latency_ms: dict[int, float] = field(default_factory=dict)
    late_ms: list[float] = field(default_factory=list)
    #: reply payloads by request index (the placements returned)
    payloads: dict[int, bytes] = field(default_factory=dict)
    error: str = ""

    @property
    def tx_per_s(self) -> float:
        return self.n_txs / self.elapsed_s


def _recv_frame(sock: socket.socket) -> tuple[int, int, bytes]:
    def exactly(n: int) -> bytes:
        chunks = []
        while n:
            chunk = sock.recv(n)
            if not chunk:
                raise ConnectionError("server closed the connection")
            chunks.append(chunk)
            n -= len(chunk)
        return b"".join(chunks)

    kind, request_id, length = decode_frame_header(exactly(FRAME_HEADER_BYTES))
    return kind, request_id, exactly(length)


def roundtrip(port: int, frame: bytes, timeout: float = 30.0):
    """One blocking request on a fresh connection."""
    with socket.create_connection((HOST, port), timeout=timeout) as sock:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sock.sendall(frame)
        return _recv_frame(sock)


def first_reply_ok(port: int, inputs: Inputs) -> bool:
    """Send frame 0 and check its reply: the end of set-up."""
    kind, _rid, payload = roundtrip(port, inputs.frames[0])
    return kind == _OK_SHARDS and payload == inputs.replies[0]


def control(port: int, op: str) -> dict:
    """A ``stats``/``ping`` control op; returns the JSON reply."""
    kind, _rid, payload = roundtrip(port, encode_control_request(1, op))
    if kind != RESPONSE_FLAG | STATUS_JSON:
        raise RuntimeError(f"{op} failed: {payload[:200]!r}")
    return json.loads(payload) if payload else {}


def ping_rtt_us(port: int, n: int = 200) -> float:
    """Median round trip of an empty frame on one warm connection: the
    server's per-frame floor."""
    frame = encode_control_request(1, "ping")
    samples = []
    with socket.create_connection((HOST, port), timeout=30) as sock:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        for _ in range(n):
            started = perf_counter()
            sock.sendall(frame)
            _recv_frame(sock)
            samples.append(perf_counter() - started)
    samples.sort()
    return samples[len(samples) // 2] * 1e6


async def _receive(reader, count, result, inputs, on_reply) -> None:
    """Read ``count`` replies; verify each against the golden reply."""
    for _ in range(count):
        header = await reader.readexactly(FRAME_HEADER_BYTES)
        kind, index, length = decode_frame_header(header)
        payload = await reader.readexactly(length) if length else b""
        now = perf_counter()
        if kind == _OK_SHARDS and payload == inputs.replies[index]:
            result.payloads[index] = payload
            on_reply(index, now, True)
        else:
            result.failed += 1
            result.error = result.error or (
                f"request {index}: kind 0x{kind:02x}, "
                f"{payload[:120]!r}"
                if kind != _OK_SHARDS
                else f"request {index}: reply differs from golden"
            )
            on_reply(index, now, False)


async def _run_pass(port, sizes, indexes, result, inputs, drive) -> None:
    """Open the connections, run ``drive`` with receivers attached, and
    count whatever is still unanswered at the timeout as failed."""
    conns = [
        await asyncio.open_connection(HOST, port)
        for _ in range(sizes.connections)
    ]
    for _reader, writer in conns:
        writer.get_extra_info("socket").setsockopt(
            socket.IPPROTO_TCP, socket.TCP_NODELAY, 1
        )
    answered = 0

    def count_reply(on_reply):
        def wrapped(index, now, ok):
            nonlocal answered
            answered += 1
            on_reply(index, now, ok)

        return wrapped

    try:
        await asyncio.wait_for(drive(conns, count_reply), sizes.pass_timeout_s)
    except (
        asyncio.TimeoutError,
        ConnectionError,
        EOFError,
        ProtocolError,
    ) as exc:
        result.failed += len(indexes) - answered
        result.error = result.error or f"{type(exc).__name__}: {exc}"
    finally:
        for _reader, writer in conns:
            writer.close()


async def closed_pass(
    port: int,
    inputs: Inputs,
    indexes: list[int],
    sizes: Sizes,
    tracer: "Tracer | None" = None,
) -> PassResult:
    """Closed loop: every connection keeps ``window`` requests in
    flight and sends the next one when a reply arrives."""
    frames = inputs.frames
    result = PassResult(len(indexes), len(indexes) * inputs.frame_txs)
    result.latency_ms = dict.fromkeys(indexes, math.inf)
    sent: dict[int, float] = {}
    spans: dict[int, int] = {}

    async def drive(conns, count_reply):
        async def user(reader, writer, mine):
            slots = asyncio.Semaphore(sizes.window)

            def on_reply(index, now, ok):
                if tracer is not None:
                    tracer.end(spans[index])
                if ok:
                    result.latency_ms[index] = (now - sent[index]) * 1e3
                slots.release()

            async def send():
                for index in mine:
                    await slots.acquire()
                    if tracer is not None:
                        spans[index] = tracer.begin(
                            "client.request", request=index
                        )
                    sent[index] = perf_counter()
                    writer.write(frames[index])

            sender = asyncio.create_task(send())
            try:
                await _receive(
                    reader, len(mine), result, inputs, count_reply(on_reply)
                )
            finally:
                sender.cancel()

        started = perf_counter()
        await asyncio.gather(
            *(
                user(reader, writer, indexes[c :: len(conns)])
                for c, (reader, writer) in enumerate(conns)
            )
        )
        result.elapsed_s = perf_counter() - started

    await _run_pass(port, sizes, indexes, result, inputs, drive)
    return result


async def open_pass(
    port: int, inputs: Inputs, indexes: list[int], sizes: Sizes
) -> PassResult:
    """Open loop: request ``i`` is due ``i * frame_txs / rate`` seconds
    after the start whatever the server does; latency runs from the
    *due* time, so a stall is charged to every request it delays."""
    frames = inputs.frames
    result = PassResult(len(indexes), len(indexes) * inputs.frame_txs)
    result.latency_ms = dict.fromkeys(indexes, math.inf)
    interval = inputs.frame_txs / sizes.open_rate_tps
    due: dict[int, float] = {}
    sent: list[float] = []

    async def drive(conns, count_reply):
        def on_reply(index, now, ok):
            if ok:
                result.latency_ms[index] = (now - due[index]) * 1e3

        receivers = [
            asyncio.create_task(
                _receive(
                    reader,
                    len(indexes[c :: len(conns)]),
                    result,
                    inputs,
                    count_reply(on_reply),
                )
            )
            for c, (reader, _writer) in enumerate(conns)
        ]
        started = perf_counter()
        try:
            for slot, index in enumerate(indexes):
                due[index] = started + slot * interval
                # The loop's timer rounds up to a millisecond: sleep
                # coarsely, then yield (replies keep flowing) until due.
                delay = due[index] - perf_counter()
                if delay > 0.002:
                    await asyncio.sleep(delay - 0.002)
                while perf_counter() < due[index]:
                    await asyncio.sleep(0)
                sent.append(perf_counter())
                conns[slot % len(conns)][1].write(frames[index])
            await asyncio.gather(*receivers)
        finally:
            for task in receivers:
                task.cancel()
        result.elapsed_s = perf_counter() - started

    await _run_pass(port, sizes, indexes, result, inputs, drive)
    result.late_ms = lateness_ms([due[i] for i in indexes[: len(sent)]], sent)
    return result
