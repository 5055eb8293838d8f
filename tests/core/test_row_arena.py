"""The slot-indexed arena behind ``RowMatrix``: a stateful model check
of the allocator against a list of dicts, and an engine-level
numpy-vs-python differential showing released rows are recycled."""

from __future__ import annotations

import pytest

np = pytest.importorskip("numpy")

from hypothesis import settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.stateful import (  # noqa: E402
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.core.backends.arrays import RowMatrix  # noqa: E402
from repro.core.backends.ckernel import load_kernel  # noqa: E402
from repro.core.placement import make_placer  # noqa: E402
from repro.errors import PlacementError  # noqa: E402
from repro.utxo.transaction import OutPoint, Transaction, TxOutput  # noqa: E402


def _dicts(k: int):
    return st.dictionaries(
        st.integers(0, k - 1), st.floats(1e-9, 1.0), max_size=min(k, 6)
    )


def _vectors(k: int):
    return st.one_of(st.none(), _dicts(k))


def _csr(values):
    nnz, shard, mass = [], [], []
    for value in values:
        nnz.append(-1 if value is None else len(value))
        for key, mass_ in (value or {}).items():
            shard.append(key)
            mass.append(mass_)
    return nnz, shard, mass


class RowArenaMachine(RuleBasedStateMachine):
    @initialize(k=st.sampled_from([1, 16, 64]), capacity=st.integers(1, 4))
    def start(self, k, capacity):
        self.k = k
        self.matrix = RowMatrix(k, capacity=capacity)
        self.model: list = []
        self.peak = 0

    def _live(self) -> int:
        return sum(value is not None for value in self.model)

    def _note_peak(self, extra: int = 0) -> None:
        self.peak = max(self.peak, self._live() + extra)

    def _indices(self, data):
        return data.draw(
            st.lists(
                st.integers(0, len(self.model) - 1), unique=True, max_size=8
            )
        )

    @rule(data=st.data())
    def append(self, data):
        value = data.draw(_vectors(self.k))
        self.matrix.append(value)
        self.model.append(value)
        self._note_peak()

    @rule()
    def append_none(self):
        self.matrix.append(None)
        self.model.append(None)

    @rule(count=st.integers(0, 40))
    def extend_dead(self, count):
        resident = self.matrix.rows_resident
        self.matrix.extend_dead(count)
        self.model.extend([None] * count)
        assert self.matrix.rows_resident == resident

    @precondition(lambda self: self.model)
    @rule(data=st.data())
    def reset(self, data):
        idx = self._indices(data)
        freed = self.matrix.reset(idx)
        assert freed == sum(self.model[i] is not None for i in idx)
        for i in idx:
            self.model[i] = None

    @precondition(lambda self: self.model)
    @rule(data=st.data())
    def scatter(self, data):
        idx = self._indices(data)
        values = [data.draw(_vectors(self.k)) for _ in idx]
        self.matrix.scatter(idx, *_csr(values))
        for i, value in zip(idx, values):
            self.model[i] = value
        self._note_peak()

    @precondition(lambda self: self.model)
    @rule(data=st.data())
    def set_item(self, data):
        i = data.draw(st.integers(0, len(self.model) - 1))
        value = data.draw(_vectors(self.k))
        self.matrix[i] = value
        self.model[i] = value
        self._note_peak()

    @precondition(lambda self: self.model)
    @rule(data=st.data())
    def gather(self, data):
        idx = self._indices(data)
        nnz, shard, mass = self.matrix.gather(idx)
        at = 0
        for i, count in zip(idx, nnz.tolist()):
            if count < 0:
                assert self.model[i] is None
                continue
            got = dict(
                zip(shard[at : at + count].tolist(), mass[at : at + count].tolist())
            )
            assert got == self.model[i]
            at += count
        assert at == shard.size == mass.size

    @rule(values=st.lists(st.one_of(st.none(), st.just({0: 0.5})), max_size=12))
    def assign_all(self, values):
        self.matrix[:] = values
        self.model = list(values)
        self._note_peak()

    @rule(data=st.data(), count=st.integers(0, 12))
    def claim_batch(self, data, count):
        """What the kernel driver does: bind rows to a batch's txids,
        write the committed prefix, hand the rest back."""
        start = len(self.model)
        self._note_peak(extra=count)
        self.matrix.claim(start, start + count)
        done = data.draw(st.integers(0, count))
        for txid in range(start, start + done):
            value = data.draw(_dicts(self.k))
            row = self.matrix.arr[self.matrix.slot[txid]]
            assert not row.any()  # a claimed row starts all-zero
            row[list(value)] = list(value.values())
            self.model.append(value)
        self.matrix.reset(slice(start + done, start + count))
        self.matrix._n = start + done

    @invariant()
    def matches_model(self):
        matrix = self.matrix
        assert len(matrix) == len(self.model)
        assert list(matrix) == self.model
        live = matrix.slot[: len(matrix)]
        live = live[live >= 0]
        assert len(set(live.tolist())) == live.size == self._live()
        assert matrix.rows_resident - matrix.rows_free == live.size

    @invariant()
    def free_rows_are_zero(self):
        """Recycled rows start empty: no stale mass leaks into a new
        vector."""
        matrix = self.matrix
        free = matrix._free[: matrix.rows_free]
        assert not matrix.arr[free].any()
        assert not matrix.arr[matrix.rows_resident :].any()

    @invariant()
    def arena_bounded_by_peak_live(self):
        assert self.matrix.rows_resident <= self.peak


TestRowArena = RowArenaMachine.TestCase
TestRowArena.settings = settings(
    max_examples=60, stateful_step_count=30, deadline=None
)


def _engines(**kwargs):
    from repro.service.engine import PlacementEngine

    return [
        PlacementEngine(
            make_placer("optchain", 16, backend=backend), **kwargs
        )
        for backend in ("python", "numpy")
    ]


@pytest.mark.skipif(
    load_kernel() is None,
    reason="rows are claimed per batch by the kernel driver",
)
def test_sweeps_recycle_rows_bit_identically():
    """Epoch (fully-spent) and horizon sweeps free rows that later
    batches reuse; placements and exported state stay equal to the
    python golden throughout."""
    from repro.datasets.synthetic import synthetic_stream

    stream = synthetic_stream(4_000, seed=7)
    batch = 200
    engines = _engines(epoch_length=400, horizon_epochs=2)
    max_live = 0
    for start in range(0, len(stream), batch):
        chunk = stream[start : start + batch]
        placed = [engine.place_batch(chunk) for engine in engines]
        assert placed[0] == placed[1]
        max_live = max(max_live, engines[1].stats().live_vectors)
    python, numpy_ = (engine.placer for engine in engines)
    assert python.export_state() == numpy_.export_state()
    matrix = numpy_.scorer._p_prime
    # Between two sweeps a batch binds at most ``batch`` new rows.
    assert matrix.rows_resident <= max_live + batch
    assert matrix.rows_resident < len(stream) // 2
    assert engines[1].stats().rows_resident == matrix.rows_resident


@pytest.mark.skipif(load_kernel() is None, reason="compiled kernel unavailable")
def test_rejected_batch_returns_its_rows():
    def tx(txid, parents):
        return Transaction(
            txid=txid,
            inputs=tuple(OutPoint(p, 0) for p in parents),
            outputs=(TxOutput(value=1, address=0),),
        )

    placers = [make_placer("optchain", 8, backend=b) for b in ("python", "numpy")]
    prefix = [tx(0, []), tx(1, [0]), tx(2, [1])]
    bad = [tx(3, [2]), tx(4, [3]), tx(5, [9]), tx(6, [0])]
    for placer in placers:
        placer.place_batch(prefix)
        with pytest.raises(PlacementError, match="invalid input 9"):
            placer.place_batch(bad)
    python, numpy_ = placers
    assert python.export_state() == numpy_.export_state()
    matrix = numpy_.scorer._p_prime
    # Rows 3 and 4 committed; the two claimed for 5 and 6 are free.
    assert len(matrix) == 5 and matrix.rows_resident - matrix.rows_free == 5
    assert (matrix.slot[5:] == -1).all()
    assert python.place_batch([tx(5, [4])]) == numpy_.place_batch([tx(5, [4])])
