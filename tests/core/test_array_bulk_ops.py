"""Bulk operations of the array-backed state adapters against the
per-item protocol they vectorise (``core/backends/arrays.py``)."""

from __future__ import annotations

import math

import pytest

np = pytest.importorskip("numpy")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.core.backends.arrays import (  # noqa: E402
    FloatVector,
    IntVector,
    MaskMap,
    RowMatrix,
)

K = 4
vectors = st.one_of(
    st.none(),
    st.dictionaries(st.integers(0, K - 1), st.floats(1e-9, 1.0), max_size=K),
)
masks = st.one_of(st.integers(1, 1 << 61), st.integers(1 << 62, 1 << 90))


class TestTypedVector:
    def test_extend_fill_appends_like_extend(self):
        for cls, fill in ((IntVector, 7), (FloatVector, math.inf)):
            bulk, plain = cls([1, 2]), cls([1, 2])
            bulk.extend_fill(3_000, fill)  # past the first capacity
            plain.extend([fill] * 3_000)
            assert bulk == plain and len(bulk) == 3_002
            bulk.append(5)
            assert bulk[-1] == 5 and bulk[3_001] == fill

    def test_gather_scatter(self):
        vector = IntVector(range(10))
        assert vector.gather([7, 0, 3]).tolist() == [7, 0, 3]
        vector.scatter([7, 0], [70, 100])
        vector.scatter(np.array([1, 2]), 0)  # a scalar broadcasts
        assert list(vector) == [100, 0, 0, 3, 4, 5, 6, 70, 8, 9]


class TestRowMatrix:
    @given(st.lists(vectors, min_size=1, max_size=8), st.data())
    @settings(max_examples=60, deadline=None)
    def test_gather_scatter_reset_match_item_access(self, rows, data):
        matrix = RowMatrix(K, capacity=2)
        matrix.extend(rows)
        idx = data.draw(
            st.lists(st.integers(0, len(rows) - 1), unique=True, min_size=1)
        )
        nnz, shard, mass = matrix.gather(idx)
        at = 0
        for row, count in zip(idx, nnz.tolist()):
            if rows[row] is None:
                assert count == -1
                continue
            got = dict(zip(shard[at : at + count].tolist(), mass[at : at + count].tolist()))
            assert got == rows[row] == matrix[row]
            assert shard[at : at + count].tolist() == sorted(got)
            at += count
        assert at == len(shard) == len(mass)

        target = RowMatrix(K, capacity=2)
        target.extend([{0: 9.0}] * len(rows))  # overwritten, not merged
        target.scatter(idx, nnz, shard, mass)
        for row in range(len(rows)):
            assert target[row] == (rows[row] if row in idx else {0: 9.0})
        target.reset(idx[:1])
        assert target[idx[0]] is None
        assert not target.arr[idx[0]].any()

    def test_scatter_refuses_unknown_shards(self):
        matrix = RowMatrix(K)
        matrix.extend([None, None])
        for shard in ([K], [-1]):
            with pytest.raises(ValueError, match="outside"):
                matrix.scatter([1], [1], shard, [0.5])

    def test_extend_dead_rows_read_none_whatever_was_there(self):
        matrix = RowMatrix(K, capacity=4)
        matrix.extend([{1: 0.5}, {2: 0.25}, {3: 0.125}])
        matrix[:] = [{0: 1.0}]  # truncation zeroes what it drops
        matrix.extend_dead(5_000)  # and growth copies only live rows
        assert len(matrix) == 5_001
        assert matrix[0] == {0: 1.0}
        assert all(matrix[row] is None for row in (1, 2, 3, 4, 5_000))
        assert not matrix.arr[1:5_001].any() and not matrix.live[1:5_001].any()
        matrix.append({2: 0.5})
        assert matrix[5_001] == {2: 0.5}


class TestMaskMap:
    def test_frames_share_the_slot_encoding(self):
        """``service.partition`` frames carry MaskMap slots unconverted
        (and cannot import this numpy module to say so)."""
        from repro.service import partition

        assert partition.MASK_SPILL == MaskMap._SENTINEL
        assert partition._MASK_INLINE_BITS == MaskMap._MAX_INLINE_BITS

    @given(
        st.dictionaries(st.integers(0, 40), masks, max_size=12),
        st.dictionaries(st.integers(0, 40), masks, min_size=1, max_size=12),
        st.lists(st.integers(0, 5_000), unique=True, max_size=12),
    )
    @settings(max_examples=100, deadline=None)
    def test_bulk_ops_match_a_dict(self, initial, written, dropped):
        store, model = MaskMap(initial, capacity=4), dict(initial)
        idx = sorted(written)
        slots = [
            m if m.bit_length() <= 62 else MaskMap._SENTINEL
            for m in (written[t] for t in idx)
        ]
        spill = [written[t] for t in idx if written[t].bit_length() > 62]
        store.scatter(idx, slots, spill)
        model.update(written)
        assert dict(store.items()) == model and len(store) == len(model)

        probe = sorted(set(idx) | set(dropped))
        got_slots, got_spill = store.gather(probe)
        wide = iter(got_spill)
        for txid, slot in zip(probe, got_slots.tolist()):
            mask = next(wide) if slot == MaskMap._SENTINEL else slot
            assert mask == model.get(txid, 0)
        assert next(wide, None) is None

        store.reset(dropped)
        for txid in dropped:
            model.pop(txid, None)
        assert dict(store.items()) == model and len(store) == len(model)
        assert set(store._big) == {t for t, m in model.items() if m.bit_length() > 62}
