"""The ``place`` sequencer shared by the server and the workers.

Driven against a fake engine (a cursor, an assignment record and a
``place`` coroutine that logs its calls), so every rule is observable
without sockets: admission, reorder, coalescing bounds, stale entries,
atomic-reject replay, reply splitting - and the one batch form every
request takes, :class:`~repro.service.wire.WireBatch`.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.errors import EngineError
from repro.obs.metrics import ServiceMetrics
from repro.service.sequencer import RunFailed, Sequencer
from repro.service.wire import (
    FRAME_HEADER_BYTES,
    WireBatch,
    as_wire_batch,
    concat_wire_batches,
    decode_place_arrays,
    decode_place_payload,
    encode_place_request,
)
from repro.utxo.transaction import OutPoint, Transaction, TxOutput


def _txs(first: int, count: int) -> WireBatch:
    return as_wire_batch(
        [
            Transaction(txid=txid, inputs=(), outputs=(TxOutput(1),))
            for txid in range(first, first + count)
        ]
    )


class FakeEngine:
    """Places ``txid -> txid % 7``; rejects (atomically) any batch out
    of dense order or containing a txid in ``reject``."""

    def __init__(self) -> None:
        self.assignment: list[int] = []
        self.calls: list[list[int]] = []
        self.reject: set[int] = set()
        self.raises: "Exception | None" = None

    def cursor(self) -> int:
        return len(self.assignment)

    def assignment_slice(self, first: int, count: int) -> list[int]:
        return self.assignment[first : first + count]

    async def place(self, batch) -> list[int]:
        txids = list(range(batch.first_txid, batch.first_txid + len(batch)))
        self.calls.append(txids)
        if self.raises is not None:
            raise self.raises
        if txids[0] != self.cursor():
            raise EngineError(
                f"dense order: got {txids[0]}, expected {self.cursor()}"
            )
        bad = self.reject.intersection(txids)
        if bad:
            raise EngineError(f"transaction {min(bad)} is invalid")
        shards = [txid % 7 for txid in txids]
        self.assignment.extend(shards)
        return shards


def _sequencer(engine: FakeEngine, **limits) -> Sequencer:
    limits.setdefault("max_batch_txs", 8192)
    limits.setdefault("max_reorder", 1024)
    return Sequencer(
        engine.cursor, engine.assignment_slice, ServiceMetrics(), **limits
    )


async def _queue(sequencer: Sequencer, *ranges) -> list[asyncio.Task]:
    """Submit ``(first, count)`` requests and let them reach the
    reorder buffer."""
    tasks = [
        asyncio.ensure_future(sequencer.submit(_txs(first, count)))
        for first, count in ranges
    ]
    await asyncio.sleep(0)
    return tasks


async def _drain(sequencer: Sequencer, engine: FakeEngine) -> int:
    runs = 0
    while (group := sequencer.take_run()) is not None:
        await sequencer.place_run(group, engine.place)
        runs += 1
    return runs


class TestCoalescing:
    def test_run_stops_at_max_batch_txs_without_splitting_a_request(self):
        async def scenario():
            engine = FakeEngine()
            sequencer = _sequencer(engine, max_batch_txs=10)
            tasks = await _queue(
                sequencer, (8, 4), (0, 4), (16, 4), (4, 4), (12, 4)
            )
            assert sequencer.wakeup.is_set()
            assert await _drain(sequencer, engine) == 2
            # 4 + 4 < 10 takes a third request; 12 >= 10 stops.
            assert engine.calls == [list(range(12)), list(range(12, 20))]
            replies = await asyncio.gather(*tasks)
            assert [r["shards"] for r in replies] == [
                [txid % 7 for txid in range(first, first + 4)]
                for first in (8, 0, 16, 4, 12)
            ]

        asyncio.run(scenario())

    def test_run_stops_at_the_first_gap(self):
        async def scenario():
            engine = FakeEngine()
            sequencer = _sequencer(engine)
            tasks = await _queue(sequencer, (0, 3), (3, 2), (9, 3))
            assert await _drain(sequencer, engine) == 1
            assert engine.calls == [[0, 1, 2, 3, 4]]
            assert not tasks[2].done()
            assert list(sequencer.pending) == [9]
            # Nothing at the cursor: no run, the gapped request waits.
            assert sequencer.take_run() is None
            gap = await _queue(sequencer, (5, 4))
            assert await _drain(sequencer, engine) == 1
            assert engine.calls[-1] == list(range(5, 12))
            assert (await tasks[2])["shards"] == [2, 3, 4]
            assert (await gap[0])["ok"]

        asyncio.run(scenario())


class TestAdmission:
    def test_placed_range_is_answered_from_the_record(self):
        async def scenario():
            engine = FakeEngine()
            sequencer = _sequencer(engine)
            await _queue(sequencer, (0, 10))
            await _drain(sequencer, engine)
            reply = await sequencer.submit(_txs(2, 5))
            assert reply == {"ok": True, "shards": [2, 3, 4, 5, 6]}
            overlap = await sequencer.submit(_txs(8, 5))
            assert overlap == {
                "ok": False,
                "code": "engine",
                "error": "transactions from 8 were already placed "
                "(next expected: 10)",
            }
            assert engine.calls == [list(range(10))]
            assert not sequencer.pending

        asyncio.run(scenario())

    def test_duplicate_of_a_queued_request_gets_retry(self):
        async def scenario():
            engine = FakeEngine()
            sequencer = _sequencer(engine)
            tasks = await _queue(sequencer, (5, 2))
            reply = await sequencer.submit(_txs(5, 2))
            assert (reply["ok"], reply["code"]) == (False, "retry")
            assert "already queued" in reply["error"]
            assert sequencer._metrics.retry_replies == 1
            assert not tasks[0].done()
            sequencer.fail_pending("shutdown", "bye")
            assert await tasks[0] == {
                "ok": False, "code": "shutdown", "error": "bye",
            }

        asyncio.run(scenario())

    def test_full_reorder_buffer_gets_overload(self):
        async def scenario():
            engine = FakeEngine()
            sequencer = _sequencer(engine, max_reorder=2)
            tasks = await _queue(sequencer, (5, 1), (7, 1))
            reply = await sequencer.submit(_txs(9, 1))
            assert (reply["ok"], reply["code"]) == (False, "overload")
            assert "reorder buffer full (2 requests" in reply["error"]
            assert sequencer._metrics.overload_replies == 1
            assert sorted(sequencer.pending) == [5, 7]
            sequencer.fail_pending("shutdown", "bye")
            await asyncio.gather(*tasks)

        asyncio.run(scenario())


class TestStaleEntries:
    def test_entries_the_cursor_passed_are_resolved_or_failed(self):
        async def scenario():
            engine = FakeEngine()
            sequencer = _sequencer(engine)
            # Queued behind a gap; then one request covers them all.
            tasks = await _queue(sequencer, (4, 2), (8, 4), (0, 10))
            assert await _drain(sequencer, engine) == 1
            assert engine.calls == [list(range(10))]
            # [4, 6) lies below the cursor: a duplicate, from the
            # record. [8, 12) straddles it: a txid-accounting error.
            assert await tasks[0] == {"ok": True, "shards": [4, 5]}
            assert await tasks[1] == {
                "ok": False,
                "code": "engine",
                "error": "transactions from 8 were already placed "
                "(next expected: 10)",
            }
            assert not sequencer.pending

        asyncio.run(scenario())


class TestAtomicRejectReplay:
    def test_replay_touches_each_member_once(self):
        async def scenario():
            engine = FakeEngine()
            engine.reject = {4}
            sequencer = _sequencer(engine)
            tasks = await _queue(sequencer, (0, 3), (3, 3), (6, 2))
            assert await _drain(sequencer, engine) == 1
            # One fused attempt, then exactly one call per member.
            assert engine.calls == [
                list(range(8)), [0, 1, 2], [3, 4, 5], [6, 7],
            ]
            first, offender, later = await asyncio.gather(*tasks)
            assert first == {"ok": True, "shards": [0, 1, 2]}
            assert offender == {
                "ok": False,
                "code": "engine",
                "error": "transaction 4 is invalid",
            }
            # Fails on the txid gap the offender left.
            assert later["code"] == "engine"
            assert "got 6, expected 3" in later["error"]
            metrics = sequencer._metrics
            assert metrics.error_replies == 3
            assert metrics.batches == 1
            assert metrics.placed == 3
            assert engine.cursor() == 3

        asyncio.run(scenario())

    def test_single_request_is_not_replayed(self):
        async def scenario():
            engine = FakeEngine()
            engine.reject = {1}
            sequencer = _sequencer(engine)
            tasks = await _queue(sequencer, (0, 3))
            await _drain(sequencer, engine)
            assert engine.calls == [[0, 1, 2]]
            assert (await tasks[0])["error"] == "transaction 1 is invalid"
            assert sequencer._metrics.error_replies == 1

        asyncio.run(scenario())

    def test_run_failed_answers_every_member_without_replay(self):
        async def scenario():
            engine = FakeEngine()
            engine.raises = RunFailed("retry", "owner recovering")
            sequencer = _sequencer(engine)
            tasks = await _queue(sequencer, (0, 2), (2, 2))
            await _drain(sequencer, engine)
            assert engine.calls == [[0, 1, 2, 3]]
            for reply in await asyncio.gather(*tasks):
                assert reply == {
                    "ok": False,
                    "code": "retry",
                    "error": "owner recovering",
                }
            assert sequencer._metrics.error_replies == 0

        asyncio.run(scenario())

    def test_placer_bug_fails_the_run_not_the_dispatcher(self):
        async def scenario():
            engine = FakeEngine()
            engine.raises = ZeroDivisionError("boom")
            sequencer = _sequencer(engine)
            tasks = await _queue(sequencer, (0, 2), (2, 2))
            await _drain(sequencer, engine)
            for reply in await asyncio.gather(*tasks):
                assert reply["code"] == "engine"
                assert "internal error placing batch" in reply["error"]

        asyncio.run(scenario())


class TestDecodeAndMerge:
    @staticmethod
    def _payload(first: int, count: int, full_outputs: bool = False):
        txs = [
            Transaction(
                txid=txid,
                inputs=(OutPoint(txid - 1, 0),) if txid else (),
                outputs=(TxOutput(1),),
            )
            for txid in range(first, first + count)
        ]
        frame = encode_place_request(0, txs, full_outputs=full_outputs)
        return txs, frame[FRAME_HEADER_BYTES:]

    def test_object_decode_without_the_wire_path(self):
        """Objects (an NDJSON request, the partition API) become a
        WireBatch at the edge; a WireBatch passes through."""
        txs, payload = self._payload(0, 5, full_outputs=True)
        batch = as_wire_batch(txs)
        assert as_wire_batch(batch) is batch
        assert (batch.first_txid, len(batch)) == (0, 5)
        # Outputs with content travel in full; the objects come back.
        assert batch.payloads == (payload,)
        assert batch.transactions() == txs
        _, count_only = self._payload(0, 5)
        assert as_wire_batch(txs, full_outputs=False).payloads == (
            count_only,
        )

    def test_array_decode_and_mixed_merge(self):
        _, payload_a = self._payload(0, 5)
        txs_b, payload_b = self._payload(5, 4, full_outputs=True)
        _, payload_c = self._payload(9, 3)
        wire_a = decode_place_arrays(payload_a)
        wire_b = decode_place_arrays(payload_b)
        wire_c = decode_place_arrays(payload_c)
        assert isinstance(wire_a, WireBatch) and len(wire_a) == 5
        assert wire_a.values is None and wire_b.values is not None
        assert concat_wire_batches([wire_a]) is wire_a
        merged = concat_wire_batches([wire_a, wire_c])
        assert (merged.first_txid, len(merged)) == (0, 8)
        assert merged.payloads == (payload_a, payload_c)
        assert merged.values is None
        # A full-output member makes the run carry content; count-only
        # members contribute zero-value outputs.
        mixed = concat_wire_batches([wire_a, wire_b, wire_c])
        assert mixed.payloads == (payload_a, payload_b, payload_c)
        expected = (
            decode_place_payload(payload_a)
            + decode_place_payload(payload_b)
            + decode_place_payload(payload_c)
        )
        assert mixed.transactions() == expected
        assert [tx.outputs for tx in expected[5:9]] == [
            tx.outputs for tx in txs_b
        ]
        assert decode_place_payload(mixed.payload()) == expected

    def test_merged_runs_place_alike_on_every_backend(self):
        """Joined columns (``array`` buffers) and single-payload views
        (unaligned ``memoryview`` casts) reach the engine the same way:
        a python and a kernel engine place every merged run alike."""
        from repro.core.backends import backend_available
        from repro.core.placement import make_placer
        from repro.datasets.synthetic import synthetic_stream
        from repro.service.engine import PlacementEngine

        if not backend_available("numpy"):
            pytest.skip("compiled kernel unavailable")
        stream = synthetic_stream(900, seed=5)
        members = [
            decode_place_arrays(
                encode_place_request(
                    0, stream[start : start + 50], start % 150 == 50
                )[FRAME_HEADER_BYTES:]
            )
            for start in range(0, 900, 50)
        ]
        engines = [
            PlacementEngine(make_placer("optchain", 8, backend=backend))
            for backend in ("python", "numpy")
        ]
        start = 0
        for size in (1, 2, 3) * 3:
            run = concat_wire_batches(members[start : start + size])
            python, kernel = (e.place_wire_batch(run) for e in engines)
            assert python == kernel
            start += size
        assert engines[1].n_placed == 900
