"""Numpy backend for the OptChain placement strategies: typed-array
state driven by the compiled kernel.

The classes here are drop-in subclasses of the python strategies with
two changes:

1. **State representation.** Per-transaction state (assignments, T2S
   vectors, spender counts, min-mass bounds) lives in growable
   C-contiguous numpy buffers behind the list-like adapters of
   :mod:`repro.core.backends.arrays`, so snapshots, deltas, partition
   handoff and epoch sweeps keep reading/writing it through the
   unchanged python code paths. All O(n_shards) state (shard sizes, the
   load proxy's lazy heaps) stays in plain python lists - ``heapq`` and
   the handoff code require real lists - and is copied into the
   kernel's scratch before each batch and back after (O(n_shards +
   heap) per *batch*, a few slice assignments). The kernel state
   itself is resident: each placer's :class:`_KernelDriver` and each
   engine's :class:`_ValidationDriver` build their struct once.

2. **The hot loop is the compiled kernel, always.** Every batch
   reaches ``_kernel.c`` as one raw-outpoint CSR - a served batch as
   its wire columns copied into the validation driver's buffers, with
   the offsets built in C (:meth:`_ValidationDriver.validate`), a
   placer-level ``Transaction`` list through :func:`parent_csr` - and
   the kernel runs the same T2S
   recurrence + pruned fitness argmax + proxy update the pure-python
   fused loop performs, placement-for-placement and bit-for-bit (the
   differential tests compare full exported state). There is no
   per-transaction fallback: configurations the fused python path
   refuses (live latency providers, adaptive caps, the ``outputs``
   divisor) and hosts without the kernel have no numpy backend, and
   spec resolution runs them on python.

The kernel additionally requires ``prune_epsilon > 0`` (the scorers
here always use the default): stored masses are then always positive,
so the dense row representation can use exact 0.0 for "shard absent".
"""

from __future__ import annotations

import ctypes
import weakref
from typing import Any

import numpy as np

from repro.core.backends.arrays import (
    FloatVector,
    IntVector,
    MaskMap,
    RowMatrix,
    sorted_unique,
)
from repro.core.backends.ckernel import (
    KERN_CAPACITY,
    KERN_INVALID_INPUT,
    KERN_OK,
    VALID_FALLBACK,
    VALID_FUTURE,
    VALID_OK,
    VALID_SPENT,
    VALID_UNKNOWN,
    KState,
    VState,
    load_kernel,
)
from repro.core.optchain import (
    PAPER_LATENCY_WEIGHT,
    USE_LOAD_PROXY,
    OptChainPlacer,
    TopKOptChainPlacer,
)
from repro.core.scorer import DEFAULT_SUPPORT_CAP, parse_support_cap
from repro.core.spec import numpy_refusal
from repro.core.t2s import T2SScorer, TopKT2SScorer
from repro.errors import ConfigurationError, EngineError, PlacementError

class _NumpyStateMixin:
    """Typed-array per-transaction state for a T2S scorer.

    The kernel writes this state directly; the per-transaction scorer
    API stays correct for direct callers. Methods that *mutate* stored
    vectors are overridden to write through to the arrays: the
    inherited versions mutate the borrowed dict a
    :class:`~repro.core.backends.arrays.RowMatrix` materializes on
    read, which would be lost. Read-only paths (snapshots, handoff,
    ``normalized``) work through the adapters unchanged.
    """

    backend = "numpy"

    def _init_numpy_state(self, n_shards: int, capacity: int = 1024) -> None:
        self._p_prime = RowMatrix(n_shards, capacity=capacity)
        self._spender_count = IntVector(capacity=capacity)
        self._min_mass = FloatVector(capacity=capacity)

    def place(self, txid: int, shard: int) -> None:
        if self._pending != txid:
            raise PlacementError(
                f"place({txid}) without matching add_transaction "
                f"(pending: {self._pending})"
            )
        if not 0 <= shard < self.n_shards:
            raise PlacementError(
                f"shard {shard} out of range [0, {self.n_shards})"
            )
        # Same bits as `vector.get(shard, 0.0) + alpha`: an absent
        # shard reads as exactly 0.0 in the dense row.
        mat = self._p_prime
        row = mat.arr[mat.slot[txid]]
        value = row[shard] + self.alpha
        row[shard] = value
        min_mass = self._min_mass.arr
        if value < min_mass[txid]:
            min_mass[txid] = value
        self._shard_sizes[shard] += 1
        self._pending = None

    def release_vectors(self, txids) -> None:
        mat = self._p_prime
        n = len(mat)
        pending = self._pending
        # ``rows`` are the txids preceding the first offender (unknown
        # or pending), ``offender`` that txid or None: the python loop
        # mutates as it iterates, so those releases commit before it
        # raises.
        if isinstance(txids, range) and txids.step == 1:
            # A horizon sweep: one contiguous slice, no index array.
            start, end = txids.start, max(txids.start, txids.stop)
            stop = start if start < 0 else min(end, max(start, n))
            if pending is not None and start <= pending < stop:
                stop = pending
            rows: "slice | np.ndarray" = slice(start, stop)
            offender = stop if stop < end else None
        else:
            idx = np.fromiter(txids, dtype=np.int64)
            bad = (idx < 0) | (idx >= n)
            if pending is not None:
                bad |= idx == pending
            stop = int(np.argmax(bad)) if bad.any() else idx.size
            offender = int(idx[stop]) if stop < idx.size else None
            rows = sorted_unique(idx[:stop])
        released = mat.reset(rows)
        if offender is None:
            # The python loop adds to the counter only after the full
            # iteration; an error skips the add even though the
            # preceding vectors were dropped.
            self._released += released
        if offender is not None:
            # The error the per-txid loop raises (range before pending).
            if not 0 <= offender < n:
                raise PlacementError(
                    f"cannot release unknown transaction {offender}"
                )
            raise PlacementError(
                f"cannot release pending transaction {offender}"
            )

    def support_stats(self) -> dict[str, Any]:
        mat = self._p_prime
        live = mat.rows_resident - mat.rows_free
        total_nnz = max_nnz = 0
        # Unbound arena rows are all-zero, so counting whole chunks is
        # exact; 4096-row chunks bound the temporary to 4096 x k bytes.
        for start in range(0, mat.rows_resident, 4096):
            nnz = np.count_nonzero(mat.arr[start : start + 4096], axis=1)
            total_nnz += int(nnz.sum())
            max_nnz = max(max_nnz, int(nnz.max()))
        return {
            "live_vectors": live,
            "mean_nnz": (total_nnz / live) if live else 0.0,
            "max_nnz": max_nnz,
            "dropped_mass": self._dropped_mass,
            "truncated_vectors": self._truncated_vectors,
            "support_cap": self.support_cap,
        }

    @property
    def rows_resident(self) -> int:
        """Arena rows of the vector store, live plus recycled."""
        return self._p_prime.rows_resident


class NumpyT2SScorer(_NumpyStateMixin, T2SScorer):
    """Exact T2S scoring over typed-array state (kind ``"exact"``)."""

    def __init__(
        self, n_shards: int, alpha: float = 0.5, outdeg_mode: str = "spenders"
    ) -> None:
        super().__init__(n_shards, alpha=alpha, outdeg_mode=outdeg_mode)
        self._init_numpy_state(n_shards)


class NumpyTopKT2SScorer(_NumpyStateMixin, TopKT2SScorer):
    """Bounded-support T2S scoring over typed-array state (fixed cap)."""

    def __init__(
        self,
        n_shards: int,
        support_cap: int = DEFAULT_SUPPORT_CAP,
        alpha: float = 0.5,
        outdeg_mode: str = "spenders",
    ) -> None:
        super().__init__(
            n_shards,
            support_cap=support_cap,
            alpha=alpha,
            outdeg_mode=outdeg_mode,
        )
        self._init_numpy_state(n_shards)


def parent_csr(batch) -> "tuple[np.ndarray, np.ndarray]":
    """``(parents, in_off)``: the raw-outpoint parent CSR of a
    ``Transaction`` batch (the placer's own object entry point), shaped
    like the kernel's view of a wire batch. Parent ids go through
    ``uint64`` and are viewed as ``int64`` exactly as the wire columns
    are, so both sources hit identical kernel branches; an id >= 2**64
    raises ``OverflowError``.
    """
    all_inputs = [tx.inputs for tx in batch]
    parents = np.array(
        [op.txid for ins in all_inputs for op in ins], dtype=np.uint64
    ).view(np.int64)
    in_off = np.zeros(len(all_inputs) + 1, dtype=np.int64)
    np.cumsum(list(map(len, all_inputs)), out=in_off[1:])
    return parents, in_off


def _rebind(state: ctypes.Structure, bound: dict, owners) -> None:
    """Point each ``(field, array)`` of ``owners`` at its numpy array,
    reading the address only when the array object differs from the
    one the field was last bound to. Buffers are replaced, never moved
    in place (typed-vector growth, arena growth, snapshot restore and
    the lease hand-off all install a new array), so identity is the
    whole staleness check. ``bound`` holds weak references: a replaced
    buffer is freed as soon as its owner drops it (its field is rebound
    before the next kernel call), and a dead reference never matches."""
    for name, arr in owners:
        ref = bound[name]
        if ref is None or ref() is not arr:
            bound[name] = weakref.ref(arr)
            setattr(state, name, arr.ctypes.data)


def _c_array(ctype, size: int, fill=0):
    return (ctype * size)(*([fill] * size if fill else ()))


class _KernelDriver:
    """One placer's resident kernel state: a ``KState`` built once, and
    the kernel's scratch.

    Configuration and the scratch pointers are written when the driver
    is built (and when a scratch buffer grows); the pointers into the
    scorer's and placer's per-txid arrays and the batch CSR go through
    :func:`_rebind`, so a batch re-reads an address only when its
    buffer was replaced. The python objects stay the source of truth
    between batches: the O(n_shards) state - proxy loads, clock and
    lazy heaps, both shard-size lists and the size extremes - is copied
    into the struct and its ctypes scratch before each call and back
    after, by slice assignment.
    """

    def __init__(self, placer: "_KernelPlacer") -> None:
        self.placer = placer
        scorer = placer.scorer
        proxy = placer._proxy
        k = placer.n_shards
        self._lib = load_kernel()
        st = self.state = KState()
        self._ref = ctypes.byref(st)
        self._bound = dict.fromkeys(name for name, _ in KState._fields_)
        self._scratch: dict[str, ctypes.Array] = {}
        st.n_shards = k
        st.alpha = scorer.alpha
        st.one_minus_alpha = scorer._scale
        st.epsilon = scorer.prune_epsilon
        st.weight = placer.fitness.latency_weight
        cap = scorer.support_cap
        self._bounded = cap is not None
        st.support_cap = cap if self._bounded else -1
        st.has_scale = 1 if scorer._scale > 0.0 else 0
        st.has_eps = 1 if scorer.prune_epsilon > 0.0 else 0
        st.decay = proxy._decay
        st.base_verify = proxy._base_verify
        st.base_total = proxy._base_total
        st.comm_expected = proxy._comm_expected
        st.block = proxy._block
        st.renorm_span = proxy._renorm_span
        st.compact_limit = proxy._compact_limit
        c_double, c_int64 = ctypes.c_double, ctypes.c_int64
        self.scaled = self._attach("scaled", _c_array(c_double, k))
        self.strat_sizes = self._attach("strat_sizes", _c_array(c_int64, k))
        self.scorer_sizes = self._attach(
            "scorer_sizes", _c_array(c_int64, k)
        )
        self._attach("raw", _c_array(c_double, k))
        self._attach("touched", _c_array(c_int64, k))
        self._attach("shard_mark", _c_array(c_int64, k, -1))
        self._attach("excl_mark", _c_array(c_int64, k, -1))
        self._attach("sort_mass", _c_array(c_double, k))
        self._attach("sort_shard", _c_array(c_int64, k))
        self._size_heaps(max(k, proxy._compact_limit + 1) + 8, max(4 * k, 256))
        self._size_dedup(64)

    def _attach(self, name: str, buffer: ctypes.Array) -> ctypes.Array:
        """Own ``buffer`` as the scratch behind pointer field ``name``."""
        self._scratch[name] = buffer
        setattr(self.state, name, ctypes.addressof(buffer))
        return buffer

    def _size_heaps(self, heap_cap: int, zero_cap: int) -> None:
        """(Re)allocate the heap scratch, keeping the entries the kernel
        left in the old buffers (a ``KERN_CAPACITY`` call resumes from
        them; between batches the copy-in overwrites them anyway)."""
        st = self.state
        c_double, c_int64 = ctypes.c_double, ctypes.c_int64
        heap_vals = _c_array(c_double, heap_cap)
        heap_idx = _c_array(c_int64, heap_cap)
        zero_heap = _c_array(c_int64, zero_cap)
        if st.heap_cap:
            hl = min(st.heap_len, heap_cap)
            zl = min(st.zero_len, zero_cap)
            heap_vals[:hl] = self.heap_vals[:hl]
            heap_idx[:hl] = self.heap_idx[:hl]
            zero_heap[:zl] = self.zero_heap[:zl]
        self.heap_vals = self._attach("heap_vals", heap_vals)
        self.heap_idx = self._attach("heap_idx", heap_idx)
        self.zero_heap = self._attach("zero_heap", zero_heap)
        self._attach("pb_vals", _c_array(c_double, heap_cap))
        self._attach("pb_idx", _c_array(c_int64, heap_cap))
        self._attach("pb_ids", _c_array(c_int64, zero_cap))
        st.heap_cap = heap_cap
        st.zero_cap = zero_cap

    def _size_dedup(self, cap: int) -> None:
        self._attach("dedup", _c_array(ctypes.c_int64, cap))
        self.state.dedup_cap = cap

    def run(self, parents, par_off, n_tx) -> None:
        """Run the kernel over a raw-outpoint CSR, committing state.

        ``parents`` holds every outpoint's txid (undeduplicated; the
        kernel deduplicates per transaction), ``par_off`` the
        per-transaction offsets (at least ``n_tx + 1`` of them).
        Raises :class:`PlacementError` (with all prior transactions
        committed, matching the python loop) on an invalid input.
        """
        placer = self.placer
        scorer = placer.scorer
        proxy = placer._proxy
        st = self.state
        mat: RowMatrix = scorer._p_prime
        min_mass: FloatVector = scorer._min_mass
        spender: IntVector = scorer._spender_count
        assignment: IntVector = placer._assignment
        n_placed = assignment._n
        needed = n_placed + n_tx
        if needed > mat.slot.size:
            mat._grow_to(needed)
        mat.reserve(n_tx)
        for vector in (min_mass, spender, assignment):
            if needed > vector.arr.size:
                vector._grow_to(needed)
        _rebind(
            st,
            self._bound,
            (
                ("pmat", mat.arr),
                ("slot", mat.slot),
                ("free_rows", mat._free),
                ("min_mass", min_mass.arr),
                ("spender_count", spender.arr),
                ("assignment", assignment.arr),
                ("parents", parents),
                ("par_off", par_off),
            ),
        )

        # ---- copy python-side state into the struct and its scratch ----
        heap = proxy._heap
        zero_heap = proxy._zero_heap
        heap_len = len(heap)
        zero_len = len(zero_heap)
        while heap_len > st.heap_cap or zero_len > st.zero_cap:
            self._size_heaps(2 * st.heap_cap, 2 * st.zero_cap)
        self.scaled[:] = proxy._scaled
        if heap_len:
            values, shards = zip(*heap)
            self.heap_vals[:heap_len] = values
            self.heap_idx[:heap_len] = shards
        self.zero_heap[:zero_len] = zero_heap
        self.strat_sizes[:] = placer._shard_sizes
        self.scorer_sizes[:] = scorer._shard_sizes
        st.heap_len = heap_len
        st.zero_len = zero_len
        st.step = proxy._step
        st.offset = proxy._offset
        st.pscale = proxy._scale
        st.min_size_val = placer._min_shard_size
        st.min_size_count = placer._min_size_count
        st.max_size_val = placer._max_shard_size
        st.rows_free = mat.rows_free
        st.rows_resident = mat.rows_resident
        st.arena_rows = mat.arr.shape[0]
        st.n_placed = n_placed
        st.rows_cap = needed
        st.dropped_mass = scorer._dropped_mass
        st.truncated_vectors = scorer._truncated_vectors
        st.n_tx = n_tx
        st.n_done = 0

        while True:
            rc = self._lib.place_batch(self._ref)
            if rc != KERN_CAPACITY:
                break
            # A scratch buffer is too small for the next transaction
            # (the zero cohort accumulates stale duplicates between
            # compactions; a wide fan-in outgrows dedup). Grow it and
            # resume exactly where the kernel stopped.
            if st.dedup_need:
                self._size_dedup(max(st.dedup_need, 2 * st.dedup_cap))
            else:
                self._size_heaps(2 * st.heap_cap, 2 * st.zero_cap)

        # ---- copy kernel results back into python-side state ----
        # (a ctypes slice builds its list in C; iterating the array
        # itself goes item by item through the sequence protocol)
        heap_len = st.heap_len
        proxy._scaled[:] = self.scaled[:]
        proxy._heap[:] = zip(
            self.heap_vals[:heap_len], self.heap_idx[:heap_len]
        )
        proxy._zero_heap[:] = self.zero_heap[: st.zero_len]
        proxy._step = st.step
        proxy._offset = st.offset
        proxy._scale = st.pscale
        placer._shard_sizes[:] = self.strat_sizes[:]
        placer._min_shard_size = st.min_size_val
        placer._min_size_count = st.min_size_count
        placer._max_shard_size = st.max_size_val
        scorer._shard_sizes[:] = self.scorer_sizes[:]
        if self._bounded:
            scorer._dropped_mass = st.dropped_mass
            scorer._truncated_vectors = st.truncated_vectors
        mat.rows_free = st.rows_free
        mat.rows_resident = st.rows_resident
        new_n = st.n_placed
        if new_n < needed:
            # The kernel binds a row only for a transaction it is
            # placing; an internal failure can leave that one bound.
            mat.reset(slice(new_n, needed))
        mat._n = min_mass._n = spender._n = assignment._n = new_n

        if rc == KERN_INVALID_INPUT:
            parent = st.error_parent
            if parent < 0:
                parent += 1 << 64  # recover the u64 id
            raise PlacementError(
                f"transaction {st.error_txid} has invalid input {parent}"
            )
        if rc != KERN_OK:
            raise RuntimeError(
                f"placement kernel failed with internal status {rc}"
            )


class _KernelPlacer:
    """The compiled-kernel hot path both numpy placers share.

    Placements and exported state are bit-identical to the python
    strategy it is mixed into; the differential suite compares both
    full-state. Registered behind ``StrategySpec`` backend selection
    (never in the name registry - ``name`` is inherited so specs and
    stats report the canonical strategy name).
    """

    backend = "numpy"

    def _init_kernel(self) -> None:
        """Refuse what the kernel cannot place; set up its state."""
        reason = numpy_refusal(self.name)
        if reason is None and (
            self._proxy is None
            or self.l2s_mode != "shard_load"
            or not self.scorer._spenders_divisor
        ):
            reason = (
                "backend 'numpy' places only the fused configuration "
                "(offline load proxy, l2s_mode='shard_load', "
                "outdeg_mode='spenders'); use backend=python"
            )
        if reason is not None:
            raise ConfigurationError(reason)
        self._assignment = IntVector()
        self._driver = _KernelDriver(self)

    def use_latency_provider(self, provider) -> None:
        raise ConfigurationError(
            "backend 'numpy' scores with the offline load proxy only; "
            "build the placer with backend=python for a live latency "
            "provider"
        )

    def place(self, tx) -> int:
        return self.place_batch([tx])[0]

    def place_observed(self, tx, shard: int) -> int:
        raise ConfigurationError(
            "backend 'numpy' cannot score observed placements; the drift "
            "shadow runs on backend=python"
        )

    def place_batch(self, txs) -> list[int]:
        batch = txs if isinstance(txs, list) else list(txs)
        start = len(self._assignment)
        n = 0
        for tx in batch:
            if tx.txid != start + n:
                break
            n += 1
        parents, in_off = parent_csr(batch[:n])
        shards = self.place_batch_raw(parents, in_off, n)
        if n < len(batch):
            # Same behavior as the python loop: every transaction
            # before the offender is committed, then the stream-order
            # violation raises.
            raise PlacementError(
                f"transactions must be placed in dense stream order: "
                f"got {batch[n].txid}, expected {start + n}"
            )
        return shards

    def place_batch_raw(self, parents, in_off, n_tx) -> list[int]:
        """Place a raw-outpoint CSR batch (a validation driver's buffers
        after :meth:`_ValidationDriver.validate`, or
        :func:`parent_csr`): ``parents`` (int64) holds every outpoint's
        txid, ``in_off`` (int64, at least ``n_tx + 1`` entries) the
        per-transaction offsets. Dense txid order is the caller's
        contract (the engine checks it)."""
        scorer = self.scorer
        if scorer._pending is not None:
            raise PlacementError(
                f"transaction {scorer._pending} was added but never placed"
            )
        if not n_tx:
            return []
        batch_start = self._assignment._n
        self._driver.run(parents, in_off, n_tx)
        return self._assignment.arr[batch_start : batch_start + n_tx].tolist()

    def validation_driver(self) -> "_ValidationDriver":
        """The kernel batch-validation driver for the engine's
        :class:`MaskMap` store."""
        return _ValidationDriver()


class NumpyOptChainPlacer(_KernelPlacer, OptChainPlacer):
    """OptChain with typed-array state and the compiled fused kernel."""

    def __init__(
        self,
        n_shards: int,
        alpha: float = 0.5,
        latency_weight: float = PAPER_LATENCY_WEIGHT,
        latency_provider=USE_LOAD_PROXY,
        l2s_mode: str = "shard_load",
        outdeg_mode: str = "spenders",
    ) -> None:
        OptChainPlacer.__init__(
            self,
            n_shards,
            alpha=alpha,
            latency_weight=latency_weight,
            latency_provider=latency_provider,
            l2s_mode=l2s_mode,
            outdeg_mode=outdeg_mode,
            scorer=NumpyT2SScorer(
                n_shards, alpha=alpha, outdeg_mode=outdeg_mode
            ),
        )
        self._init_kernel()


class NumpyTopKOptChainPlacer(_KernelPlacer, TopKOptChainPlacer):
    """Bounded-support OptChain over the compiled kernel (truncation
    inlined). Fixed caps only: the adaptive ``auto:<rate>`` window is
    accounted per transaction and runs on the python backend;
    ``support_initial_cap`` / ``support_window`` configure only that
    form and are accepted (unused) for snapshot-recipe symmetry."""

    def __init__(
        self,
        n_shards: int,
        support_cap: "int | str" = DEFAULT_SUPPORT_CAP,
        alpha: float = 0.5,
        latency_weight: float = PAPER_LATENCY_WEIGHT,
        latency_provider=USE_LOAD_PROXY,
        l2s_mode: str = "shard_load",
        outdeg_mode: str = "spenders",
        support_initial_cap: "int | None" = None,
        support_window: "int | None" = None,
    ) -> None:
        mode, cap = parse_support_cap(support_cap)
        if mode != "fixed":
            raise ConfigurationError(numpy_refusal(self.name, support_cap))
        OptChainPlacer.__init__(
            self,
            n_shards,
            alpha=alpha,
            latency_weight=latency_weight,
            latency_provider=latency_provider,
            l2s_mode=l2s_mode,
            outdeg_mode=outdeg_mode,
            scorer=NumpyTopKT2SScorer(
                n_shards, support_cap=cap, alpha=alpha, outdeg_mode=outdeg_mode
            ),
        )
        self._init_kernel()


class _ValidationDriver:
    """Kernel-resident batch validation against a :class:`MaskMap`.

    The compiled twin of ``PlacementEngine._apply_inputs``: copies a
    :class:`~repro.service.wire.WireBatch`'s columns into its own
    resident buffers, runs ``validate_batch`` in C against the engine's
    mask store through a ``VState`` built once, and maps error codes
    back to the byte-exact :class:`EngineError` messages. The kernel
    also builds the batch's CSR offsets, so after :meth:`validate`
    ``parents`` and ``in_off`` are what
    :meth:`_KernelPlacer.place_batch_raw` reads next - the same
    buffers every batch until one has to grow.
    """

    def __init__(self) -> None:
        self._lib = load_kernel()  # the placer verified availability
        self.state = VState()
        self._ref = ctypes.byref(self.state)
        self._bound = dict.fromkeys(name for name, _ in VState._fields_)
        self._size_batch(256, 1024)

    def _size_batch(self, n_tx: int, n_inputs: int) -> None:
        """(Re)allocate the column and result buffers for batches of up
        to ``n_tx`` transactions and ``n_inputs`` outpoints. Every entry
        is written before it is read (columns by :meth:`validate`, the
        rest by the kernel), so they start uninitialized: untouched
        headroom costs address space, not resident memory."""
        self._columns = ()  # release the old buffers before allocating
        self.tx_cap = n_tx
        self.inputs_cap = n_inputs
        self.parents = np.empty(n_inputs, dtype=np.int64)
        self.indexes = np.empty(n_inputs, dtype=np.int32)
        self.n_inputs = np.empty(n_tx, dtype=np.uint32)
        self.n_outputs = np.empty(n_tx, dtype=np.int32)
        self.in_off = np.empty(n_tx + 1, dtype=np.int64)
        self.undo_txid = np.empty(n_inputs, dtype=np.int64)
        self.undo_mask = np.empty(n_inputs, dtype=np.int64)
        self.released = np.empty(n_inputs + n_tx, dtype=np.int64)
        self.behind = np.empty(n_inputs, dtype=np.int64)
        # Byte-level views typed like the wire columns ('Q' / 'I'):
        # assigning a column is one memcpy, the u64/u32 bits landing
        # unchanged in the int64/int32 buffers the kernel range-checks.
        self._columns = tuple(
            memoryview(arr).cast("B").cast(code)
            for arr, code in (
                (self.parents, "Q"),
                (self.indexes, "I"),
                (self.n_inputs, "I"),
                (self.n_outputs, "I"),
            )
        )
        _rebind(
            self.state,
            self._bound,
            (
                ("parents", self.parents),
                ("indexes", self.indexes),
                ("n_inputs", self.n_inputs),
                ("n_outputs", self.n_outputs),
                ("in_off", self.in_off),
                ("undo_txid", self.undo_txid),
                ("undo_mask", self.undo_mask),
                ("released", self.released),
                ("behind", self.behind),
            ),
        )

    def validate(
        self,
        masks: MaskMap,
        first_txid: int,
        batch,
        *,
        horizon_start: int,
        track_dirty: bool = False,
    ):
        """Validate + commit one
        :class:`~repro.service.wire.WireBatch` (txids dense from
        ``first_txid``) against ``masks`` in the kernel.

        Returns ``(released, touched)`` on success - ``released`` in
        python event order, ``touched`` (only with ``track_dirty``,
        else ``None``) every parent whose state the batch changes: the
        spent ones and those spent behind the horizon, whose spender
        count still moves - or ``None`` when the batch needs the python
        journal (arbitrary-precision masks, >62-output transactions),
        with the store rolled back untouched. Raises
        :class:`EngineError` with the python journal's exact message on
        an invalid batch, nothing committed. ``parents`` / ``in_off``
        hold the batch's CSR on every return.
        """
        n_tx = batch.n_txs
        n_in = len(batch.parents)
        if n_tx > self.tx_cap or n_in > self.inputs_cap:
            self._size_batch(
                max(n_tx, 2 * self.tx_cap), max(n_in, 2 * self.inputs_cap)
            )
        parents, indexes, n_inputs, n_outputs = self._columns
        parents[:n_in] = batch.parents
        indexes[:n_in] = batch.indexes
        n_inputs[:n_tx] = batch.n_inputs
        n_outputs[:n_tx] = batch.n_outputs
        end = first_txid + n_tx
        if end > masks.arr.size:
            masks._grow_to(end)
        st = self.state
        _rebind(st, self._bound, (("masks", masks.arr),))
        st.n_tx = n_tx
        st.first_txid = first_txid
        st.horizon_start = horizon_start
        st.track_behind = track_dirty
        rc = self._lib.validate_batch(self._ref)
        if rc == VALID_OK:
            masks._count += st.tracked_delta
            released = self.released[: st.n_released].tolist()
            if not track_dirty:
                return released, None
            return released, (
                self.undo_txid[: st.n_undo].tolist()
                + self.behind[: st.n_behind].tolist()
            )
        if rc == VALID_FALLBACK:
            return None
        txid = st.error_txid
        parent = st.error_parent
        if parent < 0:
            parent += 1 << 64  # recover the wire's u64 value
        if rc == VALID_FUTURE:
            raise EngineError(
                f"transaction {txid} references a non-earlier "
                f"transaction {parent}"
            )
        if rc == VALID_UNKNOWN:
            raise EngineError(
                f"transaction {txid} spends an unknown or fully-spent "
                f"transaction {parent}"
            )
        if rc == VALID_SPENT:
            index = st.error_index
            if index < 0:
                index += 1 << 32  # recover the wire's u32 value
            raise EngineError(
                f"transaction {txid} spends output {index} of "
                f"transaction {parent}, which does not exist or is "
                f"already spent"
            )
        raise RuntimeError(
            f"validation kernel failed with internal status {rc}"
        )


# Imported lazily by repro.core.spec (backend routing) and
# repro.service.state (snapshot restore).
__all__ = [
    "NumpyT2SScorer",
    "NumpyTopKT2SScorer",
    "NumpyOptChainPlacer",
    "NumpyTopKOptChainPlacer",
]
