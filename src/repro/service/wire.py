"""Wire codecs for the placement service: NDJSON and binary frames.

Two interchangeable codecs share one request/response model. The server
sniffs the first byte of each connection (:data:`BIN_MAGIC` vs anything
else) and speaks whichever protocol the client opened with, so old JSON
clients and new binary clients coexist on one port.

**NDJSON** (protocol 1, the compat codec): one request or response per
line. Every request carries an ``op`` and a client-chosen ``id`` that
the response echoes, so clients may pipeline.

Transactions travel in a compact array form::

    [txid, [[parent_txid, output_index], ...], n_outputs]

``n_outputs`` may instead be a list of ``[value, address]`` pairs
(``encode_tx(..., full_outputs=True)``) when output *content* matters -
placement itself only reads the output count, but hash-based strategies
(``omniledger``) fold output values into the transaction digest, so
replaying through the wire with bare counts would change their
placements. OptChain and the capped baselines are count-only.

Requests::

    {"op": "place",      "id": 1, "txs": [...]}        -> {"id": 1, "ok": true, "shards": [...]}
    {"op": "stats",      "id": 2}                      -> {"id": 2, "ok": true, "stats": {...}}
    {"op": "checkpoint", "id": 3, "path": "x.snap"?}   -> {"id": 3, "ok": true, "path": ..., "bytes": n}
    {"op": "ping",       "id": 4}                      -> {"id": 4, "ok": true, "n_placed": n}
    {"op": "shutdown",   "id": 5}                      -> {"id": 5, "ok": true}  (then drain + close)

Errors: ``{"id": ..., "ok": false, "error": "...", "code": "protocol" |
"engine" | "shutdown"}``. Protocol errors are the client's fault (bad
JSON, unknown op, oversized batch); engine errors are serving-contract
violations (out-of-order txids, double spends) - both leave the server
serving.

**Binary frames** (protocol 2, the fast codec). The JSON socket path is
codec-bound (~31k placements/s against ~105k in-process - see
PERFORMANCE.md "Serving"): every transaction pays ``json.loads`` plus
per-element type checks. The binary codec moves the bulk payload into
packed typed arrays decoded at C speed, and puts the routing facts (op,
request id, first txid, batch length) at fixed offsets so a front-end
can route a ``place`` request **without decoding its payload at all**
(:func:`peek_place_header` - how the sharded coordinator stays thin).

Frame layout (everything little-endian)::

    1 byte   magic 0xF5
    1 byte   kind (request op, or response status with bit 7 set)
    8 bytes  request id u64 (echoed by the response)
    4 bytes  payload length u32
    N bytes  payload

``place`` payload::

    13 bytes  first_txid u64, n_txs u32, flags u8 (bit 0: full outputs)
    array u32[n_txs]    inputs per transaction
    array u32[n_txs]    outputs per transaction
    (full outputs only)
    array i64[sum outs] output values
    array i64[sum outs] output addresses
    array u64[sum ins]  parent txids, concatenated
    array u32[sum ins]  output indexes, concatenated

Txids inside one request are implicitly dense (``first_txid + i``), so
contiguity - which :func:`decode_batch` must check entry by entry on
the JSON path - holds by construction. Control ops (``stats``,
``checkpoint``, ``ping``, ``shutdown``) carry a small JSON object (or
nothing); they are not hot. Responses: a ``shards`` payload is one
packed i32 array, a JSON payload is the response object minus the
``id`` (which travels in the header), an error payload is the UTF-8
message with the code in the kind byte. Both codecs surface the same
response dict shape, so client error mapping is shared.

Past the codec, a ``place`` batch has one form: :class:`WireBatch`,
numpy-free typed columns. Binary payloads decode straight to it
(:func:`decode_place_arrays`); NDJSON objects become one at the edge
(:func:`as_wire_batch`).
"""

from __future__ import annotations

import json
import struct
import sys
from array import array
from typing import Any, Sequence

from repro.errors import ProtocolError, ValidationError
from repro.utxo.transaction import OutPoint, Transaction, TxOutput

#: Wire-format/protocol revision, echoed by ``ping``. 2 = binary frames
#: available (NDJSON remains accepted on the same port).
PROTOCOL_VERSION = 2

#: Output-count ceiling per transaction: far above any real workload
#: (the generator's exchange payouts top out at 40) while keeping a
#: hostile count from ballooning the decoded tuple and the engine's
#: per-output spend bitmask.
MAX_OUTPUTS_PER_TX = 65_536

OPS = ("place", "stats", "checkpoint", "ping", "shutdown")


def encode_tx(tx: Transaction, full_outputs: bool = False) -> list[Any]:
    """Compact array form of one transaction."""
    outputs: Any
    if full_outputs:
        outputs = [[out.value, out.address] for out in tx.outputs]
    else:
        outputs = len(tx.outputs)
    return [
        tx.txid,
        [[op.txid, op.index] for op in tx.inputs],
        outputs,
    ]


def decode_tx(obj: Any) -> Transaction:
    """Rebuild a :class:`Transaction` from the wire form.

    Raises :class:`~repro.errors.ProtocolError` on malformed input; the
    message is safe to echo back to the client.
    """
    if not isinstance(obj, (list, tuple)) or len(obj) != 3:
        raise ProtocolError(
            "transaction must be [txid, inputs, outputs], got "
            f"{type(obj).__name__}"
        )
    txid, inputs, outputs = obj
    if not isinstance(txid, int) or isinstance(txid, bool) or txid < 0:
        raise ProtocolError(f"txid must be a non-negative int, got {txid!r}")
    if not isinstance(inputs, (list, tuple)):
        raise ProtocolError("inputs must be a list of [txid, index] pairs")
    decoded_inputs = []
    for entry in inputs:
        if (
            not isinstance(entry, (list, tuple))
            or len(entry) != 2
            or not isinstance(entry[0], int)
            or not isinstance(entry[1], int)
            or isinstance(entry[0], bool)
            or isinstance(entry[1], bool)
            or entry[0] < 0
            or entry[1] < 0
        ):
            raise ProtocolError(
                f"input must be [parent_txid, output_index], got {entry!r}"
            )
        decoded_inputs.append(OutPoint(entry[0], entry[1]))
    if isinstance(outputs, int) and not isinstance(outputs, bool):
        if not 0 <= outputs <= MAX_OUTPUTS_PER_TX:
            raise ProtocolError(
                f"n_outputs must be in [0, {MAX_OUTPUTS_PER_TX}], "
                f"got {outputs}"
            )
        decoded_outputs = zero_outputs(outputs)
    elif isinstance(outputs, (list, tuple)):
        if len(outputs) > MAX_OUTPUTS_PER_TX:
            raise ProtocolError(
                f"transaction has {len(outputs)} outputs; the limit "
                f"is {MAX_OUTPUTS_PER_TX}"
            )
        decoded = []
        for entry in outputs:
            if (
                not isinstance(entry, (list, tuple))
                or len(entry) != 2
                or not isinstance(entry[0], int)
                or not isinstance(entry[1], int)
            ):
                raise ProtocolError(
                    f"output must be [value, address], got {entry!r}"
                )
            decoded.append(TxOutput(value=entry[0], address=entry[1]))
        decoded_outputs = tuple(decoded)
    else:
        raise ProtocolError(
            "outputs must be an int count or a list of [value, address]"
        )
    return Transaction(
        txid=txid, inputs=tuple(decoded_inputs), outputs=decoded_outputs
    )


def decode_batch(objs: Any) -> list[Transaction]:
    """Decode a ``place`` payload; enforces a contiguous txid run.

    The server's reorder buffer keys each request by its first txid and
    merges contiguous runs, so a request with internal gaps could never
    be dispatched - rejected here with a precise message instead.
    """
    if not isinstance(objs, (list, tuple)):
        raise ProtocolError("txs must be a list")
    if not objs:
        raise ProtocolError("txs must not be empty")
    batch = [decode_tx(entry) for entry in objs]
    _check_contiguous([tx.txid for tx in batch])
    return batch


def _check_contiguous(txids: list[int]) -> None:
    first = txids[0]
    if txids != list(range(first, first + len(txids))):
        for index, txid in enumerate(txids):
            if txid != first + index:
                raise ProtocolError(
                    f"txs must form a contiguous txid run: position "
                    f"{index} has txid {txid}, expected {first + index}"
                )


def encode_batch(
    txs: Sequence[Transaction], full_outputs: bool = False
) -> list[list[Any]]:
    """Encode a batch for a ``place`` request."""
    return [encode_tx(tx, full_outputs) for tx in txs]


# -- binary frames ---------------------------------------------------------

#: First byte of every binary frame. NDJSON requests start with a
#: printable character (``{``), so one sniffed byte routes a connection.
BIN_MAGIC = 0xF5

#: Frame header: magic u8, kind u8, request id u64, payload length u32.
_HEADER = struct.Struct("<BBQI")
FRAME_HEADER_BYTES = _HEADER.size

#: ``place`` payload prefix: first_txid u64, n_txs u32, flags u8.
_PLACE_HEADER = struct.Struct("<QIB")
PLACE_HEADER_BYTES = _PLACE_HEADER.size

#: Hard ceiling on one frame's payload (matches the NDJSON line limit).
MAX_FRAME_BYTES = 8 * 1024 * 1024

# Request kinds (the op byte). Kinds >= 0x10 are reserved for the
# inter-worker channel of the sharded service (see service.coordinator).
KIND_PLACE = 0x01
KIND_STATS = 0x02
KIND_CHECKPOINT = 0x03
KIND_PING = 0x04
KIND_SHUTDOWN = 0x05

_KIND_TO_OP = {
    KIND_PLACE: "place",
    KIND_STATS: "stats",
    KIND_CHECKPOINT: "checkpoint",
    KIND_PING: "ping",
    KIND_SHUTDOWN: "shutdown",
}
_OP_TO_KIND = {op: kind for kind, op in _KIND_TO_OP.items()}

#: Bit 7 marks a response frame; low bits carry the status.
RESPONSE_FLAG = 0x80
STATUS_SHARDS = 0x01
STATUS_JSON = 0x02
STATUS_ERROR_PROTOCOL = 0x03
STATUS_ERROR_ENGINE = 0x04
STATUS_ERROR_SHUTDOWN = 0x05
STATUS_ERROR_RETRY = 0x06
STATUS_ERROR_OVERLOAD = 0x07

_STATUS_TO_CODE = {
    STATUS_ERROR_PROTOCOL: "protocol",
    STATUS_ERROR_ENGINE: "engine",
    STATUS_ERROR_SHUTDOWN: "shutdown",
    STATUS_ERROR_RETRY: "retry",
    STATUS_ERROR_OVERLOAD: "overload",
}
_CODE_TO_STATUS = {code: status for status, code in _STATUS_TO_CODE.items()}

_LITTLE_ENDIAN = sys.byteorder == "little"
_ITEMSIZE = {"q": 8, "Q": 8, "d": 8, "i": 4, "I": 4}


# -- typed columns -----------------------------------------------------------
#
# ``place`` payloads here and the parent-state / writeback frames of
# :mod:`repro.service.partition` are a header plus little-endian typed
# columns; these helpers read and write both, without numpy, and
# reading is zero-copy.


def column(typecode: str, values):
    """A typed column: arrays and buffer views pass through, anything
    else packs into an ``array``."""
    if not hasattr(values, "tolist"):
        return array(typecode, values)
    if memoryview(values).itemsize != _ITEMSIZE[typecode]:
        raise TypeError(f"column is not of type '{typecode}'")
    return values


def column_bytes(values) -> memoryview:
    """Little-endian bytes of a typed column (byteswapped on BE hosts)."""
    view = memoryview(values)
    if not _LITTLE_ENDIAN:  # pragma: no cover - no BE host in CI
        swapped = array(view.format, view)
        swapped.byteswap()
        view = memoryview(swapped)
    return view.cast("B")


class ColumnReader:
    """Sequential typed columns out of one buffer, as zero-copy
    ``memoryview`` casts: iteration and ``.tolist()`` feed plain loops
    and the buffer protocol feeds ``np.frombuffer`` views, so reading
    needs no numpy. Every cut is bounds-checked; ``what`` names the
    buffer in the :class:`~repro.errors.ProtocolError` texts."""

    __slots__ = ("_view", "offset", "_what")

    def __init__(self, buf, what: str = "frame", offset: int = 0) -> None:
        self._view = memoryview(buf)
        self.offset = offset
        self._what = what

    def advance(self, nbytes: int, detail: str) -> memoryview:
        end = self.offset + nbytes
        if end > len(self._view):
            raise ProtocolError(
                f"{self._what} truncated: wanted {nbytes} bytes for "
                f"{detail}, had {len(self._view) - self.offset}"
            )
        chunk = self._view[self.offset : end]
        self.offset = end
        return chunk

    def header(self, layout: struct.Struct) -> tuple:
        return layout.unpack(self.advance(layout.size, "a header"))

    def take(self, typecode: str, count: int):
        values = self.advance(
            count * _ITEMSIZE[typecode], f"{count} '{typecode}' entries"
        ).cast(typecode)
        if not _LITTLE_ENDIAN:  # pragma: no cover - no BE host in CI
            values = array(typecode, values)
            values.byteswap()
        return values

    def done(self) -> None:
        trailing = len(self._view) - self.offset
        if trailing:
            raise ProtocolError(
                f"{self._what} has {trailing} trailing bytes"
            )


def encode_frame(kind: int, request_id: int, payload: bytes = b"") -> bytes:
    """One complete binary frame."""
    return _HEADER.pack(BIN_MAGIC, kind, request_id, len(payload)) + payload


def decode_frame_header(header: bytes) -> tuple[int, int, int]:
    """``(kind, request_id, payload_length)`` of one frame header.

    Raises :class:`~repro.errors.ProtocolError` on a bad magic byte or
    an oversized payload - the framing is unrecoverable either way.
    """
    magic, kind, request_id, length = _HEADER.unpack(header)
    if magic != BIN_MAGIC:
        raise ProtocolError(
            f"bad frame magic 0x{magic:02x} (expected 0x{BIN_MAGIC:02x})"
        )
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame payload of {length} bytes exceeds {MAX_FRAME_BYTES}"
        )
    return kind, request_id, length


async def read_frame(reader, *, first_byte: bytes = b""):
    """Read one frame from an asyncio stream.

    Returns ``(kind, request_id, payload)``, or ``None`` on clean EOF at
    a frame boundary. ``first_byte`` re-injects the protocol-sniffing
    byte the connection handler already consumed.
    """
    header = first_byte
    try:
        header += await reader.readexactly(
            FRAME_HEADER_BYTES - len(header)
        )
    except EOFError as exc:
        # asyncio raises IncompleteReadError (an EOFError) with the
        # partial read attached; mid-header EOF is a protocol error,
        # boundary EOF (nothing of the frame read at all) is a clean
        # close.
        if not first_byte and not getattr(exc, "partial", b""):
            return None
        raise ProtocolError("connection closed inside a frame header")
    kind, request_id, length = decode_frame_header(header)
    try:
        payload = await reader.readexactly(length) if length else b""
    except EOFError:
        raise ProtocolError("connection closed inside a frame payload")
    return kind, request_id, payload


def op_of_kind(kind: int) -> str:
    """Request-op name of a kind byte (raises on unknown/response kinds)."""
    try:
        return _KIND_TO_OP[kind]
    except KeyError:
        raise ProtocolError(f"unknown frame kind 0x{kind:02x}")


def _place_header(payload) -> tuple[int, int, int]:
    """``(first_txid, n_txs, flags)`` of a ``place`` payload, checked."""
    if len(payload) < PLACE_HEADER_BYTES:
        raise ProtocolError(
            f"place payload of {len(payload)} bytes is shorter than "
            f"its {PLACE_HEADER_BYTES}-byte header"
        )
    first, n_txs, flags = _PLACE_HEADER.unpack_from(payload)
    if n_txs == 0:
        raise ProtocolError("txs must not be empty")
    return first, n_txs, flags


def peek_place_header(payload: bytes) -> tuple[int, int]:
    """``(first_txid, n_txs)`` without decoding the payload.

    This is the whole point of the fixed prefix: a routing front-end
    sequences and forwards ``place`` requests by their txid range while
    the owning worker pays the actual decode.
    """
    first, n_txs, _flags = _place_header(payload)
    return first, n_txs


# Count-only outputs carry no content, and TxOutput is immutable, so
# every decoded transaction with n zero-value outputs can share one
# tuple. Saves ~2 object constructions per transaction on the serving
# hot path; bounded by MAX_OUTPUTS_PER_TX. Grown one step at a time on
# demand (real workloads top out at a few dozen outputs).
_ZERO_OUTPUT = TxOutput(0)
_ZERO_OUTPUT_TUPLES: list[tuple[TxOutput, ...]] = [()]


def zero_outputs(count: int) -> tuple[TxOutput, ...]:
    """Shared tuple of ``count`` zero-value outputs (both codecs)."""
    cache = _ZERO_OUTPUT_TUPLES
    while len(cache) <= count:
        cache.append(cache[-1] + (_ZERO_OUTPUT,))
    return cache[count]


class WireBatch:
    """One ``place`` batch as typed columns - the only form a batch
    takes inside the service, from the socket to the kernel.

    Columns are little-endian ``memoryview`` casts over the payload
    bytes, or ``array`` joins of several coalesced batches: per
    transaction ``n_inputs`` / ``n_outputs`` (u32), per input
    ``parents`` (u64) / ``indexes`` (u32), per output ``values`` /
    ``addresses`` (i64) when the batch carries output content (``None``
    otherwise: every output is a zero-value output). Txids are dense
    from ``first_txid``. ``payloads`` are the raw payloads the batch
    was decoded from, which the write-ahead journal records verbatim.
    Nothing here needs numpy: the kernel's validation driver copies the
    columns into its own buffers (one ``memoryview`` slice assignment
    each, which is why they are typed ``Q`` / ``I`` / ``q``), everything
    else iterates them.
    """

    __slots__ = (
        "first_txid",
        "n_txs",
        "n_inputs",
        "n_outputs",
        "values",
        "addresses",
        "parents",
        "indexes",
        "payloads",
    )

    def __init__(
        self,
        first_txid: int,
        n_txs: int,
        n_inputs,
        n_outputs,
        values,
        addresses,
        parents,
        indexes,
        payloads: "tuple[bytes, ...]",
    ) -> None:
        self.first_txid = first_txid
        self.n_txs = n_txs
        self.n_inputs = n_inputs
        self.n_outputs = n_outputs
        self.values = values
        self.addresses = addresses
        self.parents = parents
        self.indexes = indexes
        self.payloads = payloads

    def __len__(self) -> int:
        return self.n_txs

    def transactions(self) -> list[Transaction]:
        """The batch as :class:`Transaction` objects, for the consumers
        that read objects (the python placers, a drift monitor's shadow,
        the python spend journal behind a kernel ``FALLBACK``).

        Written for C-level bulk operations: one ``map`` constructs
        every outpoint (the u64/u32 columns are never negative, so
        OutPoint's own validation cannot fire), inputs come out as list
        slices, and count-only outputs are shared tuples - the
        python-level loop runs once per *transaction*, not per element.
        """
        txs: list[Transaction] = []
        append = txs.append
        outpoints = list(map(OutPoint, self.parents, self.indexes))
        in_cursor = 0
        txid = self.first_txid
        if self.values is not None:
            outputs = list(map(TxOutput, self.values, self.addresses))
            out_cursor = 0
            for count_in, count_out in zip(self.n_inputs, self.n_outputs):
                in_end = in_cursor + count_in
                out_end = out_cursor + count_out
                append(
                    Transaction(
                        txid,
                        tuple(outpoints[in_cursor:in_end]),
                        tuple(outputs[out_cursor:out_end]),
                    )
                )
                in_cursor = in_end
                out_cursor = out_end
                txid += 1
            return txs
        zero_outputs(max(self.n_outputs))  # grow the shared cache once
        shared = _ZERO_OUTPUT_TUPLES
        for count_in, count_out in zip(self.n_inputs, self.n_outputs):
            in_end = in_cursor + count_in
            append(
                Transaction(
                    txid, tuple(outpoints[in_cursor:in_end]), shared[count_out]
                )
            )
            in_cursor = in_end
            txid += 1
        return txs

    def payload(self, start: int = 0, stop: "int | None" = None) -> bytes:
        """The ``place`` payload of transactions ``[start, stop)``:
        column slices, output content included. A whole one-payload
        batch is its payload, unre-encoded."""
        if stop is None:
            stop = self.n_txs
        if start == 0 and stop == self.n_txs and len(self.payloads) == 1:
            return self.payloads[0]
        in_start = sum(self.n_inputs[:start])
        in_stop = in_start + sum(self.n_inputs[start:stop])
        values = addresses = None
        if self.values is not None:
            out_start = sum(self.n_outputs[:start])
            out_stop = out_start + sum(self.n_outputs[start:stop])
            values = self.values[out_start:out_stop]
            addresses = self.addresses[out_start:out_stop]
        return _payload_of(
            self.first_txid + start,
            stop - start,
            (
                self.n_inputs[start:stop],
                self.n_outputs[start:stop],
                values,
                addresses,
                self.parents[in_start:in_stop],
                self.indexes[in_start:in_stop],
            ),
        )


def _payload_of(first: int, n_txs: int, columns) -> bytes:
    """Header + columns (in :class:`WireBatch` order; ``values`` None
    means count-only)."""
    full = columns[2] is not None
    return b"".join(
        [
            _PLACE_HEADER.pack(first, n_txs, 1 if full else 0),
            *(column_bytes(part) for part in columns if part is not None),
        ]
    )


def _columns_of(txs: Sequence[Transaction], full_outputs: bool) -> tuple:
    """The :class:`WireBatch` columns of an object batch."""
    if not txs:
        raise ProtocolError("txs must not be empty")
    inputs = [tx.inputs for tx in txs]
    outputs = [tx.outputs for tx in txs]
    values = addresses = None
    if full_outputs:
        try:
            values = array("q", [out.value for outs in outputs for out in outs])
            addresses = array(
                "q", [out.address for outs in outputs for out in outs]
            )
        except OverflowError:
            raise ProtocolError(
                "output value/address exceeds the binary codec's i64 "
                "range; use the JSON protocol for this stream"
            )
    outpoints = [outpoint for ins in inputs for outpoint in ins]
    try:
        parents = array("Q", [outpoint.txid for outpoint in outpoints])
        indexes = array("I", [outpoint.index for outpoint in outpoints])
    except OverflowError:
        raise ProtocolError(
            "an input exceeds the binary codec's range (parent txid "
            "u64, output index u32)"
        )
    return (
        array("I", map(len, inputs)),
        array("I", map(len, outputs)),
        values,
        addresses,
        parents,
        indexes,
    )


def encode_place_request(
    request_id: int, txs: Sequence[Transaction], full_outputs: bool = False
) -> bytes:
    """A complete ``place`` frame for a contiguous batch."""
    columns = _columns_of(txs, full_outputs)
    payload = _payload_of(txs[0].txid, len(txs), columns)
    if len(payload) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"place payload of {len(payload)} bytes exceeds "
            f"{MAX_FRAME_BYTES}; split the batch"
        )
    return encode_frame(KIND_PLACE, request_id, payload)


def as_wire_batch(
    txs: "Sequence[Transaction] | WireBatch",
    full_outputs: "bool | None" = None,
) -> WireBatch:
    """The one edge where ``Transaction`` objects become a
    :class:`WireBatch` - NDJSON requests, the
    :class:`~repro.service.partition.EnginePartition` API and the
    engine's kernel marshal; a :class:`WireBatch` passes through.

    ``full_outputs=None`` carries output content exactly when some
    output has any, so the batch materializes back into equal
    transactions (a count-only batch is the payload a count-only client
    sends). Raises :class:`ProtocolError` for an empty or non-contiguous
    batch and for ids or content beyond the binary columns.
    """
    if isinstance(txs, WireBatch):
        return txs
    if not txs:
        raise ProtocolError("txs must not be empty")
    _check_contiguous([tx.txid for tx in txs])
    if full_outputs is None:
        full_outputs = any(
            out.value or out.address for tx in txs for out in tx.outputs
        )
    first = txs[0].txid
    if first >= 1 << 64:
        raise ProtocolError(f"txid {first} exceeds the binary codec's u64")
    columns = _columns_of(txs, full_outputs)
    payload = _payload_of(first, len(txs), columns)
    return WireBatch(first, len(txs), *columns, (payload,))


def decode_place_arrays(payload: bytes) -> WireBatch:
    """The typed columns of one ``place`` payload - the one PLACE
    parser, numpy-free and zero-copy.

    Header, bounds, the output-count ceiling and the content check on
    full-output values all run here, in one order, so every consumer
    (the kernel, :meth:`WireBatch.transactions`,
    :func:`decode_place_payload`, the coordinator's lease splitter)
    answers the same bytes with the same
    :class:`~repro.errors.ProtocolError` text.
    """
    first, n_txs, flags = _place_header(payload)
    if n_txs > MAX_FRAME_BYTES // 8:
        raise ProtocolError(
            f"place batch of {n_txs} transactions cannot fit a "
            f"{MAX_FRAME_BYTES}-byte frame"
        )
    reader = ColumnReader(payload, "place payload", PLACE_HEADER_BYTES)
    n_inputs = reader.take("I", n_txs)
    n_outputs = reader.take("I", n_txs)
    most = max(n_outputs)
    if most > MAX_OUTPUTS_PER_TX:
        raise ProtocolError(
            f"n_outputs must be in [0, {MAX_OUTPUTS_PER_TX}], got {most}"
        )
    values = addresses = None
    if flags & 1:
        total_outputs = sum(n_outputs)
        values = reader.take("q", total_outputs)
        addresses = reader.take("q", total_outputs)
    total_inputs = sum(n_inputs)
    parents = reader.take("Q", total_inputs)
    indexes = reader.take("I", total_inputs)
    reader.done()
    if values and min(values) < 0:
        # Content bytes the model refuses (a negative value) are
        # malformed input to the wire, reported as TxOutput words it.
        try:
            TxOutput(next(value for value in values if value < 0))
        except ValidationError as exc:
            raise ProtocolError(f"malformed transaction in payload: {exc}")
    return WireBatch(
        first,
        n_txs,
        n_inputs,
        n_outputs,
        values,
        addresses,
        parents,
        indexes,
        (payload,),
    )


def decode_place_payload(payload: bytes) -> list[Transaction]:
    """The transactions of one ``place`` payload: the columns of
    :func:`decode_place_arrays`, materialized. Txids are assigned
    densely from the header's ``first_txid``, so contiguity - which
    :func:`decode_batch` checks pairwise on the JSON path - holds by
    construction."""
    return decode_place_arrays(payload).transactions()


def concat_wire_batches(batches: "Sequence[WireBatch]") -> WireBatch:
    """Merge txid-contiguous batches (the sequencer coalesces only
    adjacent runs) into one, joining each column with
    ``array.frombytes``. A count-only member joined with full-output
    members contributes zero-value output content."""
    if len(batches) == 1:
        return batches[0]

    def joined(typecode: str, name: str) -> array:
        out = array(typecode)
        for batch in batches:
            part = getattr(batch, name)
            if part is None:  # count-only member of a full-output run
                part = bytes(8 * sum(batch.n_outputs))
            out.frombytes(memoryview(part).cast("B"))
        return out

    full = any(batch.values is not None for batch in batches)
    return WireBatch(
        batches[0].first_txid,
        sum(batch.n_txs for batch in batches),
        joined("I", "n_inputs"),
        joined("I", "n_outputs"),
        joined("q", "values") if full else None,
        joined("q", "addresses") if full else None,
        joined("Q", "parents"),
        joined("I", "indexes"),
        tuple(p for batch in batches for p in batch.payloads),
    )


def encode_control_request(
    request_id: int, op: str, obj: "dict[str, Any] | None" = None
) -> bytes:
    """A non-``place`` request frame (JSON payload, tiny, not hot)."""
    try:
        kind = _OP_TO_KIND[op]
    except KeyError:
        raise ProtocolError(f"unknown op {op!r}")
    if kind == KIND_PLACE:
        raise ProtocolError("place requests use encode_place_request")
    payload = (
        json.dumps(obj, separators=(",", ":")).encode() if obj else b""
    )
    return encode_frame(kind, request_id, payload)


def encode_shards_response(request_id: int, shards: Sequence[int]) -> bytes:
    """The hot response: one packed i32 array of shard assignments."""
    return encode_frame(
        RESPONSE_FLAG | STATUS_SHARDS, request_id, column_bytes(array("i", shards))
    )


def encode_json_response(request_id: int, obj: dict[str, Any]) -> bytes:
    """A control-op response (the dict minus ``id``/``ok``)."""
    payload = json.dumps(obj, separators=(",", ":")).encode()
    return encode_frame(RESPONSE_FLAG | STATUS_JSON, request_id, payload)


def encode_error_response(
    request_id: int, code: str, message: str
) -> bytes:
    """An error response; unknown codes collapse to ``protocol``."""
    status = _CODE_TO_STATUS.get(code, STATUS_ERROR_PROTOCOL)
    return encode_frame(
        RESPONSE_FLAG | status, request_id, message.encode()
    )


def encode_response_for(request_id: int, response: dict[str, Any]) -> bytes:
    """Binary frame for one server-side response dict.

    ``{"ok": True, "shards": [...]}`` becomes a packed shards frame,
    other successes a JSON frame, failures an error frame - the inverse
    of :func:`decode_response`.
    """
    if response.get("ok"):
        shards = response.get("shards")
        if shards is not None and len(response) == 2:
            return encode_shards_response(request_id, shards)
        body = {
            key: value
            for key, value in response.items()
            if key not in ("ok", "id")
        }
        return encode_json_response(request_id, body)
    return encode_error_response(
        request_id,
        response.get("code", "protocol"),
        response.get("error", "unknown server error"),
    )


def decode_response(kind: int, payload: bytes) -> dict[str, Any]:
    """Response dict of one binary response frame.

    The shape matches the NDJSON protocol (minus ``id``, which travels
    in the frame header), so both clients share their error mapping.
    """
    if not kind & RESPONSE_FLAG:
        raise ProtocolError(
            f"expected a response frame, got request kind 0x{kind:02x}"
        )
    status = kind & ~RESPONSE_FLAG
    if status == STATUS_SHARDS:
        shards = array("i")
        if len(payload) % shards.itemsize:
            raise ProtocolError(
                f"shards payload of {len(payload)} bytes is not a "
                f"whole number of {shards.itemsize}-byte entries"
            )
        shards.frombytes(payload)
        if not _LITTLE_ENDIAN:  # pragma: no cover - no BE host in CI
            shards.byteswap()
        return {"ok": True, "shards": shards.tolist()}
    if status == STATUS_JSON:
        try:
            body = json.loads(payload) if payload else {}
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ProtocolError(f"malformed JSON response payload: {exc}")
        if not isinstance(body, dict):
            raise ProtocolError("JSON response payload must be an object")
        body["ok"] = True
        return body
    code = _STATUS_TO_CODE.get(status)
    if code is None:
        raise ProtocolError(f"unknown response status 0x{status:02x}")
    return {
        "ok": False,
        "code": code,
        "error": payload.decode("utf-8", "replace"),
    }
