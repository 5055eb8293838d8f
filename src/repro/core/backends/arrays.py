"""List-like adapters over growable numpy buffers.

The pure-python scorer and placer keep their per-transaction state in
plain lists (``_assignment``, ``_min_mass``, ``_spender_count``) and a
list of sparse dicts (``_p_prime``). The numpy backend keeps the same
state in C-contiguous typed arrays the compiled kernel can address
directly, and these adapters give those arrays just enough of the list
protocol that every *python* code path that touches the state -
snapshots, deltas, partition handoff, release/epoch sweeps - keeps
working unchanged.

Every scalar read converts to a native python object (``.item()``), so
values that flow onward (into dict keys, JSON headers, ``array``
modules, comparisons against python ints/floats) behave exactly like
the plain-list originals.
"""

from __future__ import annotations

from collections.abc import Mapping, MutableMapping
from typing import Any, Iterator

import numpy as np

_GROW = 2  # geometric growth factor


def sorted_unique(values: np.ndarray) -> np.ndarray:
    """Sorted distinct values of a 1-D array, which it sorts in place.

    ``np.unique`` for the epoch sweeps and parent lookups: that one
    imports ``numpy.ma`` on its first call (10-13 ms, which a fresh
    server spent inside its first epoch boundary) and then takes ~10x
    as long on the 20k-id arrays a sweep sees.
    """
    values.sort()
    if values.size < 2:
        return values
    keep = np.empty(values.size, dtype=bool)
    keep[0] = True
    np.not_equal(values[1:], values[:-1], out=keep[1:])
    return values[keep]


class _TypedVector:
    """Growable 1-D numpy array behind a minimal ``list`` protocol."""

    __slots__ = ("arr", "_n")

    dtype: Any = None
    _fill: Any = 0

    def __init__(self, values=(), capacity: int = 1024) -> None:
        values = list(values)
        capacity = max(capacity, len(values), 1)
        self.arr = np.full(capacity, self._fill, dtype=self.dtype)
        self._n = len(values)
        if values:
            self.arr[: self._n] = values

    def _grow_to(self, needed: int) -> None:
        cap = len(self.arr)
        if needed <= cap:
            return
        while cap < needed:
            cap *= _GROW
        fresh = np.full(cap, self._fill, dtype=self.dtype)
        fresh[: self._n] = self.arr[: self._n]
        self.arr = fresh

    def append(self, value) -> None:
        self._grow_to(self._n + 1)
        self.arr[self._n] = value
        self._n += 1

    def extend(self, values) -> None:
        values = list(values)
        self._grow_to(self._n + len(values))
        if values:
            self.arr[self._n : self._n + len(values)] = values
        self._n += len(values)

    def extend_fill(self, count: int, fill) -> None:
        """Append ``count`` copies of ``fill``: grow once, slice-fill."""
        end = self._n + count
        self._grow_to(end)
        self.arr[self._n : end] = fill
        self._n = end

    def gather(self, idx) -> np.ndarray:
        """Values at ``idx`` (every index below ``len(self)``) as one
        array copy."""
        return self.arr[np.asarray(idx, dtype=np.intp)]

    def scatter(self, idx, values) -> None:
        """``self[i] = v`` for each pair; a scalar ``values`` broadcasts."""
        self.arr[np.asarray(idx, dtype=np.intp)] = values

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, index):
        if isinstance(index, slice):
            return self.arr[: self._n][index].tolist()
        if index < 0:
            index += self._n
        if not 0 <= index < self._n:
            raise IndexError(index)
        return self.arr[index].item()

    def __setitem__(self, index, value) -> None:
        if isinstance(index, slice):
            if index != slice(None, None, None):
                raise TypeError(
                    "typed vectors only support full-slice assignment"
                )
            values = list(value)
            self._grow_to(len(values))
            self.arr[: len(values)] = values
            if len(values) < self._n:
                self.arr[len(values) : self._n] = self._fill
            self._n = len(values)
            return
        if index < 0:
            index += self._n
        if not 0 <= index < self._n:
            raise IndexError(index)
        self.arr[index] = value

    def __iter__(self) -> Iterator:
        return iter(self.arr[: self._n].tolist())

    def __eq__(self, other) -> bool:
        if isinstance(other, _TypedVector):
            other = list(other)
        if isinstance(other, (list, tuple)):
            return list(self) == list(other)
        return NotImplemented

    def count(self, value) -> int:
        return int(np.count_nonzero(self.arr[: self._n] == value))

    def index(self, value) -> int:
        hits = np.nonzero(self.arr[: self._n] == value)[0]
        if not len(hits):
            raise ValueError(f"{value!r} is not in vector")
        return int(hits[0])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({list(self)!r})"


class IntVector(_TypedVector):
    """Growable ``int64`` vector (assignments, spender counts)."""

    dtype = np.int64
    _fill = 0


class FloatVector(_TypedVector):
    """Growable ``float64`` vector (per-vector mass lower bounds)."""

    dtype = np.float64
    _fill = 0.0


class RowMatrix:
    """Per-txid T2S vectors in a ``(rows, n_shards)`` float64 arena,
    exposed as a list of sparse dicts.

    Row ``i`` materializes as ``{shard: mass}`` over the nonzero entries
    (ascending shard id) when read, ``None`` when the row is dead.
    Stored masses are always positive (the scorer prunes at
    ``epsilon > 0``), so zero means absent. Dict *insertion order*
    differs from the python backend's (which keeps first-touch order),
    but no observable quantity depends on it: per-shard accumulation
    sums in parent-sequence order either way, tie-breaks compare masses
    and shard ids, the one whole-vector sum (the adaptive cap's
    retained-mass window) uses an order-independent ``math.fsum``, and
    ``dict.__eq__`` - what snapshot round-trip tests use - ignores
    order. This is exactly the backend-agnostic-state claim the
    cross-backend snapshot test pins down.

    Layout: ``slot`` (int32, indexed by txid) names the arena row of
    each live vector, -1 for a dead one; ``arr[:rows_resident]`` are the
    arena rows handed out so far. Killing a vector pushes its row onto
    a LIFO free stack (``_free[:rows_free]``) and a new vector pops one
    before the arena extends, so the k-wide store is sized by the peak
    number of live vectors, not by the txid count: dead and pad txids
    cost 4 bytes of ``slot`` each. Zero-on-free invariant: every arena
    row not bound to a live txid is all-zero (rows are zeroed when
    freed, fresh arena storage is zeroed), so a recycled row starts
    empty and the kernel can accumulate into it directly.
    """

    __slots__ = (
        "arr", "slot", "_free", "_n", "rows_resident", "rows_free",
        "n_shards",
    )

    def __init__(self, n_shards: int, capacity: int = 1024) -> None:
        capacity = max(capacity, 1)
        self.n_shards = n_shards
        self.arr = np.zeros((capacity, n_shards), dtype=np.float64)
        self._free = np.empty(capacity, dtype=np.int32)
        self.slot = np.full(capacity, -1, dtype=np.int32)
        self._n = self.rows_resident = self.rows_free = 0

    def _grow_to(self, needed: int) -> None:
        """Make room for txids ``[0, needed)`` in the slot column."""
        cap = len(self.slot)
        if needed <= cap:
            return
        while cap < needed:
            cap *= _GROW
        slot = np.full(cap, -1, dtype=np.int32)
        slot[: self._n] = self.slot[: self._n]
        self.slot = slot

    def reserve(self, count: int) -> None:
        """Make room for ``count`` more live rows: grow the arena now
        if the free stack and the never-used rows cannot hold them, so
        the compiled kernel - which binds rows itself, in
        :meth:`_take`'s order - never has to allocate."""
        top = self.rows_resident + count - self.rows_free
        if top > len(self.arr):
            self._grow_arena(top)

    def _grow_arena(self, top: int) -> None:
        cap = len(self.arr)
        while cap < top:
            cap *= _GROW
        arr = np.zeros((cap, self.n_shards), dtype=np.float64)
        arr[: self.rows_resident] = self.arr[: self.rows_resident]
        self.arr = arr
        free = np.empty(cap, dtype=np.int32)
        free[: self.rows_free] = self._free[: self.rows_free]
        self._free = free

    def _take(self, count: int) -> np.ndarray:
        """``count`` zeroed arena rows: popped off the free stack first,
        then fresh rows past the arena top."""
        popped = min(count, self.rows_free)
        self.rows_free -= popped
        rows = self._free[self.rows_free : self.rows_free + popped][::-1]
        top = self.rows_resident + count - popped
        if top > len(self.arr):
            self._grow_arena(top)
        fresh = np.arange(self.rows_resident, top, dtype=np.int32)
        self.rows_resident = top
        return np.concatenate((rows, fresh))

    def _give(self, rows: np.ndarray) -> None:
        """Zero arena rows ``rows`` (distinct, unbound) and push them."""
        self.arr[rows] = 0.0
        end = self.rows_free + rows.size
        self._free[self.rows_free : end] = rows
        self.rows_free = end

    def claim(self, start: int, stop: int) -> None:
        """Bind zeroed rows to the dead txids ``[start, stop)`` past the
        end, in the order the compiled kernel binds them one placement
        at a time, for a caller to write new vectors into; rows it does
        not commit go back with :meth:`reset`."""
        self._grow_to(stop)
        self.slot[start:stop] = self._take(stop - start)

    def _row_dict(self, index: int):
        slot = self.slot[index]
        if slot < 0:
            return None
        row = self.arr[slot]
        hits = np.nonzero(row)[0]
        return {int(shard): float(row[shard]) for shard in hits}

    def _store(self, index: int, value) -> None:
        slot = int(self.slot[index])
        if value is None:
            if slot >= 0:
                self.slot[index] = -1
                self._give(np.array([slot], dtype=np.int32))
            return
        if slot < 0:
            slot = int(self._take(1)[0])
            self.slot[index] = slot
        else:
            self.arr[slot] = 0.0
        if value:
            self.arr[slot, list(value.keys())] = list(value.values())

    def append(self, value) -> None:
        self._grow_to(self._n + 1)
        self._n += 1
        self._store(self._n - 1, value)

    def extend(self, values) -> None:
        for value in values:
            self.append(value)

    def extend_dead(self, count: int) -> None:
        """Append ``count`` dead rows: the slot column grows, no arena
        row is bound (slots past the end are -1 already)."""
        self._grow_to(self._n + count)
        self._n += count

    def gather(self, idx):
        """Rows ``idx`` as CSR ``(nnz, shard, mass)``: ``nnz[i]`` is -1
        for a dead row, and each row's entries are in ascending shard
        order - the order :meth:`_row_dict` yields."""
        slots = self.slot[np.asarray(idx, dtype=np.intp)]
        live = slots >= 0
        rows = self.arr[slots[live]]
        at_row, shard = np.nonzero(rows)
        nnz = np.full(slots.size, -1, dtype=np.int32)
        nnz[live] = np.bincount(at_row, minlength=rows.shape[0])
        return nnz, shard.astype(np.int32), rows[at_row, shard]

    def scatter(self, idx, nnz, shard, mass) -> None:
        """Overwrite rows ``idx`` (distinct) from CSR, as
        :meth:`gather` lays it out."""
        idx = np.asarray(idx, dtype=np.intp)
        nnz = np.asarray(nnz, dtype=np.intp)
        shard = np.asarray(shard, dtype=np.intp)
        if shard.size and not 0 <= shard.min() <= shard.max() < self.n_shards:
            raise ValueError(
                f"vector entry for a shard outside [0, {self.n_shards})"
            )
        live = nnz >= 0
        self.reset(idx[~live])
        idx, nnz = idx[live], nnz[live]
        slots = self.slot[idx]
        bound = slots >= 0
        self.arr[slots[bound]] = 0.0
        slots[~bound] = self._take(int(np.count_nonzero(~bound)))
        self.slot[idx] = slots
        self.arr[np.repeat(slots, nnz), shard] = mass

    def reset(self, idx) -> int:
        """Make rows ``idx`` (distinct txids, or a slice) dead; returns
        how many were live."""
        if not isinstance(idx, slice):
            idx = np.asarray(idx, dtype=np.intp)
        slots = self.slot[idx]
        rows = slots[slots >= 0]
        self.slot[idx] = -1
        self._give(rows)
        return int(rows.size)

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, index):
        if isinstance(index, slice):
            indices = range(*index.indices(self._n))
            return [self._row_dict(i) for i in indices]
        if index < 0:
            index += self._n
        if not 0 <= index < self._n:
            raise IndexError(index)
        return self._row_dict(index)

    def __setitem__(self, index, value) -> None:
        if isinstance(index, slice):
            if index != slice(None, None, None):
                raise TypeError(
                    "row matrices only support full-slice assignment"
                )
            values = list(value)
            self.arr[: self.rows_resident] = 0.0
            self.slot[: self._n] = -1
            self._n = self.rows_resident = self.rows_free = 0
            self.extend(values)
            return
        if index < 0:
            index += self._n
        if not 0 <= index < self._n:
            raise IndexError(index)
        self._store(index, value)

    def __iter__(self) -> Iterator:
        for i in range(self._n):
            yield self._row_dict(i)

    def __eq__(self, other) -> bool:
        if isinstance(other, (RowMatrix, list, tuple)):
            return list(self) == list(other)
        return NotImplemented

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RowMatrix(n={self._n}, k={self.n_shards})"


class MaskMap(MutableMapping):
    """``{txid: unspent-output bitmask}`` over a growable int64 array.

    The engine's ``_remaining`` store, shaped so the compiled kernel can
    validate batches directly against it: slot ``txid`` holds the mask
    (always positive for a live entry), ``0`` means absent, and the
    ``_SENTINEL`` marks a mask too wide for 62 bits, whose exact value
    lives in the ``_big`` dict (the kernel refuses those and falls back
    to the python journal). Iteration is in ascending txid order and
    every read returns a native python int, so snapshots, deltas, and
    partition handoff see a plain ``dict``-alike.
    """

    __slots__ = ("arr", "_big", "_count")

    _SENTINEL = -1
    _MAX_INLINE_BITS = 62  # 1 << 62 fits an int64 with headroom

    def __init__(self, items=None, capacity: int = 1024) -> None:
        self.arr = np.zeros(max(capacity, 1), dtype=np.int64)
        self._big: dict[int, int] = {}
        self._count = 0
        if items:
            self.update(items)

    def _grow_to(self, needed: int) -> None:
        cap = len(self.arr)
        if needed <= cap:
            return
        while cap < needed:
            cap *= _GROW
        fresh = np.zeros(cap, dtype=np.int64)
        fresh[: len(self.arr)] = self.arr
        self.arr = fresh

    def __getitem__(self, txid: int) -> int:
        if not 0 <= txid < len(self.arr):
            raise KeyError(txid)
        value = int(self.arr[txid])
        if value == 0:
            raise KeyError(txid)
        if value == self._SENTINEL:
            return self._big[txid]
        return value

    def __setitem__(self, txid: int, mask: int) -> None:
        if txid < 0:
            raise KeyError(txid)
        if mask <= 0:
            raise ValueError(
                f"mask for transaction {txid} must be positive, got {mask}"
            )
        self._grow_to(txid + 1)
        present = self.arr[txid] != 0
        if mask.bit_length() <= self._MAX_INLINE_BITS:
            self.arr[txid] = mask
            self._big.pop(txid, None)
        else:
            self.arr[txid] = self._SENTINEL
            self._big[txid] = mask
        if not present:
            self._count += 1

    def __delitem__(self, txid: int) -> None:
        if not 0 <= txid < len(self.arr):
            raise KeyError(txid)
        value = int(self.arr[txid])
        if value == 0:
            raise KeyError(txid)
        self.arr[txid] = 0
        if value == self._SENTINEL:
            del self._big[txid]
        self._count -= 1

    def __len__(self) -> int:
        return self._count

    def __iter__(self) -> Iterator[int]:
        return iter(np.nonzero(self.arr)[0].tolist())

    def items(self):
        """Ascending ``(txid, mask)`` pairs as a plain list (fast path
        for snapshots; duck-compatible with ``dict.items()`` callers
        that only iterate)."""
        idx = np.nonzero(self.arr)[0]
        inline = self.arr[idx]
        big = self._big
        return [
            (txid, big[txid] if value == self._SENTINEL else value)
            for txid, value in zip(idx.tolist(), inline.tolist())
        ]

    def gather(self, idx):
        """``(slots, spill)`` for txids ``idx``: the raw int64 slot of
        each (0 absent, ``_SENTINEL`` too wide for a slot) and the exact
        masks of the sentinel slots, in ``idx`` order."""
        idx = np.asarray(idx, dtype=np.intp)
        if idx.size:
            self._grow_to(int(idx.max()) + 1)
        slots = self.arr[idx]
        wide = idx[slots == self._SENTINEL].tolist()
        return slots, [self._big[txid] for txid in wide]

    def scatter(self, idx, slots, spill=()) -> None:
        """Store :meth:`gather`-shaped masks at distinct txids ``idx``
        (every slot nonzero)."""
        idx = np.asarray(idx, dtype=np.intp)
        if not idx.size:
            return
        slots = np.asarray(slots, dtype=np.int64)
        self._grow_to(int(idx.max()) + 1)
        old = self.arr[idx]
        for txid in idx[old == self._SENTINEL].tolist():
            del self._big[txid]
        self._count += int(idx.size - np.count_nonzero(old))
        self.arr[idx] = slots
        self._big.update(zip(idx[slots == self._SENTINEL].tolist(), spill))

    def reset(self, idx) -> None:
        """Drop the entries at distinct txids ``idx`` that exist."""
        idx = np.asarray(idx, dtype=np.intp)
        idx = idx[idx < len(self.arr)]
        old = self.arr[idx]
        for txid in idx[old == self._SENTINEL].tolist():
            del self._big[txid]
        self._count -= int(np.count_nonzero(old))
        self.arr[idx] = 0

    def clear_range(self, start: int, stop: int, exclude=()) -> None:
        """Drop every entry with ``start <= txid < stop`` except those
        in ``exclude`` - the vectorized horizon sweep."""
        view = self.arr[start : min(stop, len(self.arr))]
        idx = np.nonzero(view)[0]
        if not idx.size:
            return
        if exclude:
            kept = [i for i in idx.tolist() if i + start not in exclude]
            if not kept:
                return
            idx = np.asarray(kept, dtype=np.intp)
        sentinels = idx[view[idx] == self._SENTINEL]
        for i in sentinels.tolist():
            self._big.pop(i + start, None)
        view[idx] = 0
        self._count -= int(idx.size)

    def __eq__(self, other) -> bool:
        if isinstance(other, MaskMap):
            return dict(self.items()) == dict(other.items())
        if isinstance(other, Mapping):
            return dict(self.items()) == dict(other)
        return NotImplemented

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MaskMap(n={self._count})"
