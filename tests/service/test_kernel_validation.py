"""Kernel-resident batch validation vs the python spend journal.

The serving hot path moved into C (``validate_batch`` in
``_kernel.c``): the mask store became a typed array (:class:`MaskMap`),
validation+rollback run in one kernel call, and binary ``place`` frames
feed the kernel without materializing :class:`Transaction` objects.
Every test here is differential - the python journal is the spec, and
the kernel path must be *byte-identical*: same placements, same
exception type and message, same committed prefix, same post-rollback
mask store, same replies through the sharded service.

Skipped wholesale when numpy is missing; kernel lanes skip (not fail)
when no C compiler is available - the numpy backend then does not
exist, and the python-worker lane is what such a host serves.
"""

from __future__ import annotations

import asyncio
import warnings

import pytest

np = pytest.importorskip("numpy")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.core.backends.arrays import MaskMap  # noqa: E402
from repro.core.backends.ckernel import load_kernel  # noqa: E402
from repro.core.placement import make_placer  # noqa: E402
from repro.errors import EngineError  # noqa: E402
from repro.service.engine import PlacementEngine  # noqa: E402
from repro.service.wire import (  # noqa: E402
    FRAME_HEADER_BYTES,
    concat_wire_batches,
    decode_place_arrays,
    encode_place_request,
)
from repro.utxo.transaction import (  # noqa: E402
    OutPoint,
    Transaction,
    TxOutput,
)

N_SHARDS = 8

requires_kernel = pytest.mark.skipif(
    load_kernel() is None, reason="compiled kernel unavailable"
)


def _tx(txid, parents, n_outputs=1):
    return Transaction(
        txid=txid,
        inputs=tuple(OutPoint(p, i) for p, i in parents),
        outputs=tuple(TxOutput(1) for _ in range(n_outputs)),
    )


def _twin_engines(**kwargs):
    engines = []
    for backend in ("python", "numpy"):
        engines.append(
            PlacementEngine(
                make_placer("optchain", N_SHARDS, backend=backend),
                **kwargs,
            )
        )
    return engines


def _remaining_dict(engine):
    remaining = engine._remaining
    if isinstance(remaining, MaskMap):
        return dict(remaining.items())
    return dict(remaining)


def _outcome(engine, batch, **kwargs):
    """(placements, None) or (None, error message) - plus invariance:
    a rejected batch must leave the engine serving."""
    try:
        return engine.place_batch(batch, **kwargs), None
    except EngineError as exc:
        return None, str(exc)


class TestMaskMap:
    def test_mapping_contract(self):
        masks = MaskMap()
        masks[3] = 0b101
        masks[0] = 1
        masks[7] = (1 << 62) - 1
        assert len(masks) == 3
        assert masks[3] == 0b101
        assert sorted(masks) == [0, 3, 7]
        assert dict(masks.items()) == {0: 1, 3: 0b101, 7: (1 << 62) - 1}
        assert 3 in masks and 4 not in masks
        del masks[3]
        assert len(masks) == 2
        with pytest.raises(KeyError):
            masks[3]
        assert masks.pop(99, None) is None
        assert masks == {0: 1, 7: (1 << 62) - 1}

    def test_zero_or_negative_masks_rejected(self):
        masks = MaskMap()
        with pytest.raises(ValueError):
            masks[0] = 0
        with pytest.raises(ValueError):
            masks[1] = -1

    def test_big_masks_roundtrip_through_overflow_store(self):
        """Masks past 62 bits (a >62-output transaction) leave the
        typed array and live in the exact-int side store - reads,
        deletes, and equality must not notice."""
        masks = MaskMap()
        big = (1 << 100) - 1
        masks[5] = big
        masks[6] = 7
        assert masks[5] == big
        assert dict(masks.items()) == {5: big, 6: 7}
        masks[5] = 3  # shrink back into the inline array
        assert masks[5] == 3
        masks[5] = big
        del masks[5]
        assert dict(masks.items()) == {6: 7}

    def test_clear_range_matches_pop_loop(self):
        reference = {}
        masks = MaskMap()
        for txid in range(0, 200, 3):
            mask = (txid % 61) + 1
            reference[txid] = mask
            masks[txid] = mask
        masks[90] = 1 << 90  # an overflow entry inside the range
        reference[90] = 1 << 90
        for txid in list(reference):
            if 40 <= txid < 150 and txid not in (90, 99):
                del reference[txid]
        masks.clear_range(40, 150, exclude=(90, 99))
        assert dict(masks.items()) == reference
        assert len(masks) == len(reference)
        masks.clear_range(0, 1_000_000)
        assert dict(masks.items()) == {}
        assert len(masks) == 0

    def test_growth_preserves_contents(self):
        masks = MaskMap(capacity=2)
        for txid in range(500):
            masks[txid] = txid + 1
        assert len(masks) == 500
        assert masks[499] == 500


@st.composite
def engine_scenarios(draw):
    """A valid spend prefix plus an arbitrary (usually invalid) batch.

    The prefix tracks open outputs so it always commits; the follow-up
    batch draws parents and output indexes from a range that covers
    unknown parents, future parents, spent outputs, out-of-range
    indexes, duplicate outpoints, and (occasionally) fully valid
    spends - the differential must hold for every one of them.
    """
    n_prefix = draw(st.integers(min_value=2, max_value=30))
    txs = []
    open_outputs: dict[int, list[int]] = {}
    for i in range(n_prefix):
        n_out = draw(st.integers(min_value=0 if i else 1, max_value=3))
        inputs = []
        candidates = [
            (t, index)
            for t, indexes in sorted(open_outputs.items())
            for index in indexes
        ]
        if candidates and draw(st.booleans()):
            count = draw(
                st.integers(min_value=1, max_value=min(2, len(candidates)))
            )
            picks = draw(
                st.lists(
                    st.sampled_from(candidates),
                    min_size=count,
                    max_size=count,
                    unique=True,
                )
            )
            for t, index in picks:
                open_outputs[t].remove(index)
                if not open_outputs[t]:
                    del open_outputs[t]
                inputs.append((t, index))
        txs.append(_tx(i, inputs, n_outputs=n_out))
        if n_out:
            open_outputs[i] = list(range(n_out))
    n_bad = draw(st.integers(min_value=1, max_value=6))
    bad = []
    for j in range(n_bad):
        txid = n_prefix + j
        fan_in = draw(st.integers(min_value=0, max_value=3))
        inputs = [
            (
                draw(st.integers(min_value=0, max_value=txid + 2)),
                draw(st.integers(min_value=0, max_value=4)),
            )
            for _ in range(fan_in)
        ]
        bad.append(_tx(txid, inputs))
    return txs, bad


class TestKernelJournalDifferential:
    @requires_kernel
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_invalid_batches_bit_identical(self, data):
        txs, bad = data.draw(engine_scenarios())
        python_eng, numpy_eng = _twin_engines(
            epoch_length=16, horizon_epochs=2
        )
        assert numpy_eng.kernel_validation
        for start in range(0, len(txs), 7):
            chunk = txs[start : start + 7]
            assert python_eng.place_batch(chunk) == numpy_eng.place_batch(
                chunk
            )
        result_py = _outcome(python_eng, bad)
        result_np = _outcome(numpy_eng, bad)
        # Same acceptance, and on rejection the same exception message
        # (code, txid, parent, and index all baked into the string).
        assert result_py == result_np
        # Same committed prefix and identical post-rollback mask store.
        assert python_eng.n_placed == numpy_eng.n_placed
        assert _remaining_dict(python_eng) == _remaining_dict(numpy_eng)
        assert (
            python_eng._pending_release == numpy_eng._pending_release
        )
        # Both keep serving the identical continuation.
        follow = [_tx(python_eng.n_placed, [])]
        assert python_eng.place_batch(follow) == numpy_eng.place_batch(
            follow
        )
        assert _remaining_dict(python_eng) == _remaining_dict(numpy_eng)

    @requires_kernel
    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_wire_path_matches_object_path(self, data):
        """place_wire_batch (zero-copy arrays) vs place_batch (objects)
        on twin kernel engines: same placements, same errors, same
        state - valid and invalid batches alike."""
        txs, bad = data.draw(engine_scenarios())
        object_eng, wire_eng = (
            PlacementEngine(
                make_placer("optchain", N_SHARDS, backend="numpy"),
                epoch_length=16,
                horizon_epochs=2,
            )
            for _ in range(2)
        )
        cursor = 0
        for batch in ([*txs[: len(txs) // 2]], [*txs[len(txs) // 2 :]], bad):
            if not batch:
                continue
            payload = encode_place_request(0, batch)[FRAME_HEADER_BYTES:]
            wire_batch = decode_place_arrays(payload)
            assert wire_batch is not None
            try:
                placed_obj = object_eng.place_batch(batch)
                error_obj = None
            except EngineError as exc:
                placed_obj, error_obj = None, str(exc)
            try:
                placed_wire = wire_eng.place_wire_batch(wire_batch)
                error_wire = None
            except EngineError as exc:
                placed_wire, error_wire = None, str(exc)
            assert placed_obj == placed_wire
            assert error_obj == error_wire
            assert object_eng.n_placed == wire_eng.n_placed
            assert _remaining_dict(object_eng) == _remaining_dict(
                wire_eng
            )
            cursor += len(batch)

    @requires_kernel
    def test_oversized_output_masks_fall_back_identically(self):
        """>62-output transactions overflow the inline mask words; the
        kernel punts those batches to the python journal and the two
        backends stay identical - including invalid spends against an
        arbitrary-precision mask."""
        python_eng, numpy_eng = _twin_engines()
        wide = [
            _tx(0, [], n_outputs=100),
            _tx(1, [(0, 99)], n_outputs=1),
        ]
        for engine in (python_eng, numpy_eng):
            engine.place_batch(wide)
        bad = [_tx(2, [(0, 99)])]  # index 99 already spent
        result_py = _outcome(python_eng, bad)
        result_np = _outcome(numpy_eng, bad)
        assert result_py == result_np
        assert result_py[1] is not None and "already spent" in result_py[1]
        assert _remaining_dict(python_eng) == _remaining_dict(numpy_eng)
        assert _remaining_dict(numpy_eng)[0] == ((1 << 100) - 1) ^ (
            1 << 99
        )


class TestExcludeRelease:
    @requires_kernel
    @pytest.mark.parametrize("backend", ["python", "numpy"])
    def test_exclude_filter_preserves_pending_order(self, backend):
        """The partition layer's ``_exclude_release`` hook must withhold
        exactly the excluded txids while keeping the survivors in spend
        event order - the order the epoch sweep releases them in."""
        engine = PlacementEngine(
            make_placer("optchain", N_SHARDS, backend=backend)
        )
        engine.place_batch(
            [_tx(i, [], n_outputs=1) for i in range(6)]
        )
        # One batch spending parents in a deliberate non-sorted order.
        batch = [
            _tx(6, [(3, 0)]),
            _tx(7, [(0, 0), (5, 0)]),
            _tx(8, [(1, 0)]),
        ]
        engine.place_batch(batch, _exclude_release=frozenset({0, 1}))
        assert engine._pending_release == [3, 5]

    @requires_kernel
    @pytest.mark.parametrize("backend", ["python", "numpy"])
    def test_empty_exclusion_set_is_inert(self, backend):
        engine = PlacementEngine(
            make_placer("optchain", N_SHARDS, backend=backend)
        )
        engine.place_batch([_tx(0, []), _tx(1, [])])
        engine.place_batch(
            [_tx(2, [(1, 0), (0, 0)])], _exclude_release=frozenset()
        )
        assert engine._pending_release == [1, 0]


class TestWireBatchPlumbing:
    def test_concat_matches_single_frame_decode(self):
        from repro.datasets.synthetic import synthetic_stream

        stream = synthetic_stream(120, seed=11)
        whole = decode_place_arrays(
            encode_place_request(0, stream)[FRAME_HEADER_BYTES:]
        )
        parts = [
            decode_place_arrays(
                encode_place_request(0, stream[start : start + 40])[
                    FRAME_HEADER_BYTES:
                ]
            )
            for start in range(0, 120, 40)
        ]
        merged = concat_wire_batches(parts)
        assert merged.first_txid == whole.first_txid
        assert merged.n_txs == whole.n_txs
        for field in ("parents", "indexes", "in_off", "n_inputs", "n_outputs"):
            assert np.array_equal(
                getattr(merged, field), getattr(whole, field)
            ), field
        assert len(merged.payloads) == 3

    def test_python_worker_serves_objects(self):
        """No kernel means no numpy engine to degrade: a python-backend
        worker decodes objects and has nothing to warn about."""
        from repro.service.partition import EnginePartition
        from repro.service.worker import PlacementWorker

        engine = PlacementEngine(
            make_placer("optchain", N_SHARDS, backend="python")
        )
        assert not engine.kernel_validation
        partition = EnginePartition(
            engine, partition_id=0, n_partitions=1, lease_length=600
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            worker = PlacementWorker(partition)
        assert worker._wire_arrays is False
        assert not [e for e in caught if e.category is RuntimeWarning]
        assert len(engine.place_batch([_tx(0, []), _tx(1, [(0, 0)])])) == 2

    @requires_kernel
    def test_kernel_worker_does_not_warn(self):
        from repro.service.partition import EnginePartition
        from repro.service.worker import PlacementWorker

        engine = PlacementEngine(
            make_placer("optchain", N_SHARDS, backend="numpy")
        )
        partition = EnginePartition(
            engine, partition_id=0, n_partitions=1, lease_length=600
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            worker = PlacementWorker(partition)
        assert worker._wire_arrays is True
        assert not [
            entry
            for entry in caught
            if entry.category is RuntimeWarning
        ]


class TestShardedWireLane:
    @requires_kernel
    @pytest.mark.parametrize("n_workers", [1, 2, 3])
    def test_sharded_wire_replies_bit_identical(self, n_workers):
        """The wire fast path through real worker processes at N=1/2/3
        must reproduce the monolithic python engine's replies."""
        from repro.datasets.synthetic import synthetic_stream
        from repro.service.client import AsyncBinaryPlacementClient
        from repro.service.coordinator import ShardedPlacementServer

        stream = synthetic_stream(2_000, seed=7)
        expected = make_placer("optchain", 4).place_stream(stream)
        served = []

        async def main():
            server = ShardedPlacementServer(
                {
                    "method": "optchain:backend=numpy",
                    "n_shards": 4,
                    "epoch_length": 500,
                },
                n_workers,
                port=0,
                lease_length=600,
            )
            await server.start()
            try:
                client = await AsyncBinaryPlacementClient.connect(
                    port=server.port
                )
                for offset in range(0, len(stream), 250):
                    served.extend(
                        await client.place(stream[offset : offset + 250])
                    )
                await client.close()
            finally:
                await server.stop()

        asyncio.run(main())
        assert served == expected
