"""Binary frame codec: round-trips, peek routing, and fuzzing.

The binary codec is the fast lane of the service wire; any divergence
from the JSON codec's semantics (same transactions in, same response
dicts out) would split the two protocols' behavior. These tests pin the
round-trips exactly and fuzz the decoder with mutated bytes - a hostile
or corrupt frame must fail with :class:`ProtocolError`, never a crash
or a silently wrong batch.
"""

from __future__ import annotations

import random
import struct
from itertools import accumulate

import pytest

from repro.datasets.synthetic import synthetic_stream
from repro.errors import ProtocolError
from repro.service import wire
from repro.utxo.transaction import OutPoint, Transaction, TxOutput


def _frame_parts(frame: bytes):
    kind, request_id, length = wire.decode_frame_header(
        frame[: wire.FRAME_HEADER_BYTES]
    )
    payload = frame[wire.FRAME_HEADER_BYTES :]
    assert len(payload) == length
    return kind, request_id, payload


@pytest.fixture(scope="module")
def stream():
    return synthetic_stream(600, seed=23)


class TestPlaceRoundTrip:
    def test_count_only_round_trip(self, stream):
        frame = wire.encode_place_request(7, stream[:200])
        kind, request_id, payload = _frame_parts(frame)
        assert kind == wire.KIND_PLACE
        assert request_id == 7
        decoded = wire.decode_place_payload(payload)
        assert len(decoded) == 200
        for original, copy in zip(stream[:200], decoded):
            assert copy.txid == original.txid
            assert copy.inputs == original.inputs
            assert len(copy.outputs) == len(original.outputs)
            # Count-only mode zeroes output contents, like the JSON
            # codec's bare-count form.
            assert all(out.value == 0 for out in copy.outputs)

    def test_full_outputs_round_trip(self, stream):
        frame = wire.encode_place_request(1, stream[:100], full_outputs=True)
        _, _, payload = _frame_parts(frame)
        decoded = wire.decode_place_payload(payload)
        for original, copy in zip(stream[:100], decoded):
            assert copy.outputs == original.outputs

    def test_binary_equals_json_codec(self, stream):
        """Both codecs must rebuild identical batches."""
        json_decoded = wire.decode_batch(wire.encode_batch(stream[:150]))
        _, _, payload = _frame_parts(
            wire.encode_place_request(1, stream[:150])
        )
        bin_decoded = wire.decode_place_payload(payload)
        assert bin_decoded == json_decoded

    def test_peek_matches_decode(self, stream):
        batch = stream[40:90]
        _, _, payload = _frame_parts(wire.encode_place_request(3, batch))
        first, count = wire.peek_place_header(payload)
        assert first == 40
        assert count == 50

    def test_zero_output_and_coinbase_txs(self):
        txs = [
            Transaction(txid=0, inputs=(), outputs=(TxOutput(5),)),
            Transaction(
                txid=1,
                inputs=(OutPoint(0, 0),),
                outputs=(),
            ),
        ]
        _, _, payload = _frame_parts(wire.encode_place_request(1, txs))
        decoded = wire.decode_place_payload(payload)
        assert decoded[0].is_coinbase
        assert decoded[1].outputs == ()

    def test_empty_batch_rejected(self):
        with pytest.raises(ProtocolError, match="empty"):
            wire.encode_place_request(1, [])

    def test_value_overflow_flagged(self):
        tx = Transaction(
            txid=0, inputs=(), outputs=(TxOutput(2**70),)
        )
        with pytest.raises(ProtocolError, match="i64"):
            wire.encode_place_request(1, [tx], full_outputs=True)


class TestControlAndResponses:
    def test_control_request_round_trip(self):
        frame = wire.encode_control_request(9, "checkpoint", {"path": "x"})
        kind, request_id, payload = _frame_parts(frame)
        assert wire.op_of_kind(kind) == "checkpoint"
        assert request_id == 9
        assert b'"path"' in payload

    def test_place_refused_as_control(self):
        with pytest.raises(ProtocolError, match="place"):
            wire.encode_control_request(1, "place")
        with pytest.raises(ProtocolError, match="unknown op"):
            wire.encode_control_request(1, "fly")

    def test_shards_response_round_trip(self):
        frame = wire.encode_shards_response(4, [0, 3, 1, 2, 3])
        kind, request_id, payload = _frame_parts(frame)
        assert request_id == 4
        assert wire.decode_response(kind, payload) == {
            "ok": True,
            "shards": [0, 3, 1, 2, 3],
        }

    def test_json_response_round_trip(self):
        frame = wire.encode_json_response(2, {"stats": {"n_placed": 10}})
        kind, _, payload = _frame_parts(frame)
        assert wire.decode_response(kind, payload) == {
            "ok": True,
            "stats": {"n_placed": 10},
        }

    def test_error_response_round_trip(self):
        for code in ("protocol", "engine", "shutdown"):
            frame = wire.encode_error_response(1, code, "boom")
            kind, _, payload = _frame_parts(frame)
            assert wire.decode_response(kind, payload) == {
                "ok": False,
                "code": code,
                "error": "boom",
            }

    def test_encode_response_for_matches_server_dicts(self):
        shards = wire.encode_response_for(1, {"ok": True, "shards": [1, 2]})
        kind, _, payload = _frame_parts(shards)
        assert wire.decode_response(kind, payload)["shards"] == [1, 2]
        ping = wire.encode_response_for(
            2, {"ok": True, "protocol": 2, "n_placed": 5}
        )
        kind, _, payload = _frame_parts(ping)
        decoded = wire.decode_response(kind, payload)
        assert decoded["n_placed"] == 5
        error = wire.encode_response_for(
            3, {"ok": False, "code": "engine", "error": "nope"}
        )
        kind, _, payload = _frame_parts(error)
        assert wire.decode_response(kind, payload)["code"] == "engine"

    def test_request_kind_rejected_as_response(self):
        with pytest.raises(ProtocolError, match="request kind"):
            wire.decode_response(wire.KIND_PLACE, b"")


class TestFraming:
    def test_read_frame_eof_semantics(self):
        """Boundary EOF is a clean close (None); EOF after a partial
        header is a protocol error - even without a sniffed byte."""
        import asyncio

        async def scenario():
            clean = asyncio.StreamReader()
            clean.feed_eof()
            assert await wire.read_frame(clean) is None

            partial = asyncio.StreamReader()
            partial.feed_data(bytes([wire.BIN_MAGIC, wire.KIND_PING, 0]))
            partial.feed_eof()
            with pytest.raises(ProtocolError, match="inside a frame"):
                await wire.read_frame(partial)

        asyncio.run(scenario())

    def test_bad_magic_rejected(self):
        header = struct.pack("<BBQI", 0x7B, wire.KIND_PING, 1, 0)
        with pytest.raises(ProtocolError, match="magic"):
            wire.decode_frame_header(header)

    def test_oversized_payload_rejected(self):
        header = struct.pack(
            "<BBQI", wire.BIN_MAGIC, wire.KIND_PLACE, 1,
            wire.MAX_FRAME_BYTES + 1,
        )
        with pytest.raises(ProtocolError, match="exceeds"):
            wire.decode_frame_header(header)

    def test_unknown_kind_flagged(self):
        with pytest.raises(ProtocolError, match="unknown frame kind"):
            wire.op_of_kind(0x7F)


class TestFuzz:
    """Mutated and random payloads must raise ProtocolError, not crash.

    A decoded batch from a corrupt payload is acceptable only when the
    corruption landed in value bytes (mass/address/txid content) - the
    decoder validates structure, not semantics; the engine validates
    the rest. What is *never* acceptable is an unhandled exception.
    """

    def test_truncated_payloads(self, stream):
        _, _, payload = _frame_parts(wire.encode_place_request(1, stream[:80]))
        for cut in range(0, len(payload), 97):
            truncated = payload[:cut]
            with pytest.raises(ProtocolError):
                wire.decode_place_payload(truncated)

    def test_trailing_garbage(self, stream):
        _, _, payload = _frame_parts(wire.encode_place_request(1, stream[:30]))
        with pytest.raises(ProtocolError, match="trailing"):
            wire.decode_place_payload(payload + b"\x00\x01\x02")

    def test_mutated_bytes_never_crash(self, stream):
        rng = random.Random(1234)
        _, _, payload = _frame_parts(
            wire.encode_place_request(1, stream[:60], full_outputs=True)
        )
        for _ in range(400):
            mutated = bytearray(payload)
            for _ in range(rng.randrange(1, 4)):
                mutated[rng.randrange(len(mutated))] = rng.randrange(256)
            try:
                wire.decode_place_payload(bytes(mutated))
            except ProtocolError:
                pass  # the expected failure mode

    def test_random_payloads_never_crash(self):
        rng = random.Random(99)
        for _ in range(300):
            blob = rng.randbytes(rng.randrange(0, 200))
            try:
                wire.decode_place_payload(blob)
            except ProtocolError:
                pass
            try:
                wire.decode_response(
                    wire.RESPONSE_FLAG | rng.randrange(0, 8), blob
                )
            except ProtocolError:
                pass


def _decoded_alike(payload: bytes):
    """Decode ``payload`` with both decoders - the object decoder and
    the column decoder plus materialization - and require the same
    ``ProtocolError`` text or the same transactions; returns the error
    text or the transactions."""
    try:
        txs = wire.decode_place_payload(payload)
    except ProtocolError as exc:
        with pytest.raises(ProtocolError) as caught:
            wire.decode_place_arrays(payload)
        assert str(caught.value) == str(exc)
        return str(exc)
    batch = wire.decode_place_arrays(payload)
    assert batch.transactions() == txs
    assert (batch.first_txid, len(batch)) == (txs[0].txid, len(txs))
    assert list(batch.n_inputs) == [len(tx.inputs) for tx in txs]
    assert list(batch.n_outputs) == [len(tx.outputs) for tx in txs]
    assert list(batch.parents) == [op.txid for tx in txs for op in tx.inputs]
    assert list(batch.indexes) == [op.index for tx in txs for op in tx.inputs]
    return txs


def _layout(payload: bytes) -> list[tuple[str, int, int]]:
    """``(typecode, start, count)`` of every column of a valid payload."""
    _, n_txs, flags = struct.unpack_from("<QIB", payload)
    offset = wire.PLACE_HEADER_BYTES
    n_inputs = struct.unpack_from(f"<{n_txs}I", payload, offset)
    n_outputs = struct.unpack_from(f"<{n_txs}I", payload, offset + 4 * n_txs)
    columns = [("I", n_txs), ("I", n_txs)]
    if flags & 1:
        columns += [("q", sum(n_outputs)), ("q", sum(n_outputs))]
    columns += [("Q", sum(n_inputs)), ("I", sum(n_inputs))]
    layout = []
    for typecode, count in columns:
        layout.append((typecode, offset, count))
        offset += count * struct.calcsize(typecode)
    assert offset == len(payload)
    return layout


class TestDecoderAgreement:
    """The column decoder is the one PLACE parser; the object decoder
    materializes its columns. Hostile inputs must not tell them apart."""

    def test_full_outputs_with_a_negative_value(self, stream):
        _, _, payload = _frame_parts(
            wire.encode_place_request(1, stream[:40], full_outputs=True)
        )
        assert [
            (tx.txid, tx.inputs, tx.outputs) for tx in _decoded_alike(payload)
        ] == [(tx.txid, tx.inputs, tx.outputs) for tx in stream[:40]]
        _, values, count = _layout(payload)[2]
        mutated = bytearray(payload)
        struct.pack_into("<q", mutated, values + 8 * (count // 2), -5)
        struct.pack_into("<q", mutated, values + 8 * (count - 1), -7)
        assert _decoded_alike(bytes(mutated)) == (
            "malformed transaction in payload: TxOutput value must be "
            ">= 0, got -5"
        )

    def test_parent_ids_past_two_to_the_63(self):
        huge = [2**63, 2**63 + 5, 2**64 - 1]
        txs = [
            Transaction(txid=0, inputs=(), outputs=(TxOutput(1),)),
            Transaction(
                txid=1,
                inputs=tuple(OutPoint(parent, 3) for parent in huge),
                outputs=(),
            ),
        ]
        for full in (False, True):
            _, _, payload = _frame_parts(
                wire.encode_place_request(1, txs, full_outputs=full)
            )
            decoded = _decoded_alike(payload)
            # Materialized as the wire's u64 ...
            assert [op.txid for op in decoded[1].inputs] == huge
        np = pytest.importorskip("numpy")

        # ... and viewed as int64 by the kernel, which range-checks it.
        batch = wire.decode_place_arrays(payload)
        parents = np.frombuffer(batch.parents, dtype=np.int64)
        assert parents.tolist() == [p - 2**64 for p in huge]
        assert np.frombuffer(batch.indexes, dtype=np.int32).tolist() == [
            3,
            3,
            3,
        ]
        # The CSR offsets the kernel builds from n_inputs.
        assert list(accumulate(batch.n_inputs, initial=0)) == [0, 0, 3]
        assert np.frombuffer(batch.n_outputs, dtype=np.int32).tolist() == [
            1,
            0,
        ]
        assert parents.dtype == np.int64

    @pytest.mark.parametrize("full", [False, True])
    def test_too_many_outputs(self, stream, full):
        _, _, payload = _frame_parts(
            wire.encode_place_request(1, stream[:20], full_outputs=full)
        )
        _, n_outputs, _ = _layout(payload)[1]
        mutated = bytearray(payload)
        struct.pack_into(
            "<I", mutated, n_outputs + 4 * 7, wire.MAX_OUTPUTS_PER_TX + 1
        )
        assert _decoded_alike(bytes(mutated)) == (
            f"n_outputs must be in [0, {wire.MAX_OUTPUTS_PER_TX}], "
            f"got {wire.MAX_OUTPUTS_PER_TX + 1}"
        )

    @pytest.mark.parametrize("full", [False, True])
    def test_truncation_inside_each_column(self, stream, full):
        _, _, payload = _frame_parts(
            wire.encode_place_request(1, stream[190:250], full_outputs=full)
        )
        layout = _layout(payload)
        assert len(layout) == (6 if full else 4)
        for typecode, start, count in layout:
            size = count * struct.calcsize(typecode)
            for cut in (start + 1, start + size // 2, start + size - 1):
                assert _decoded_alike(payload[:cut]) == (
                    f"place payload truncated: wanted {size} bytes for "
                    f"{count} '{typecode}' entries, had {cut - start}"
                )

    def test_mutated_full_output_frames(self, stream):
        rng = random.Random(4321)
        _, _, payload = _frame_parts(
            wire.encode_place_request(1, stream[180:240], full_outputs=True)
        )
        errors = 0
        for _ in range(300):
            mutated = bytearray(payload)
            for _ in range(rng.randrange(1, 4)):
                mutated[rng.randrange(len(mutated))] = rng.randrange(256)
            errors += isinstance(_decoded_alike(bytes(mutated)), str)
        assert 0 < errors < 300
