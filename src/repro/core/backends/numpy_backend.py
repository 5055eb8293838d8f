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
   kernel's typed scratch before each batch and back after
   (O(n_shards + heap) per *batch*, irrelevant at batch sizes the
   service uses).

2. **The hot loop is the compiled kernel, always.** Every batch
   reaches ``_kernel.c`` as one raw-outpoint CSR - a served batch as
   ``np.frombuffer`` views of its wire columns
   (:meth:`_ValidationDriver.columns`), a placer-level ``Transaction``
   list through :func:`parent_csr` - and the kernel runs the same T2S
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
    _PATH_FUSED,
    PAPER_LATENCY_WEIGHT,
    USE_LOAD_PROXY,
    OptChainPlacer,
    TopKOptChainPlacer,
)
from repro.core.scorer import DEFAULT_SUPPORT_CAP, parse_support_cap
from repro.core.spec import numpy_refusal
from repro.core.t2s import T2SScorer, TopKT2SScorer
from repro.errors import ConfigurationError, EngineError, PlacementError

_c_double_p = ctypes.POINTER(ctypes.c_double)
_c_int64_p = ctypes.POINTER(ctypes.c_int64)
_c_int32_p = ctypes.POINTER(ctypes.c_int32)


def _dptr(arr: np.ndarray):
    return arr.ctypes.data_as(_c_double_p)


def _iptr(arr: np.ndarray):
    return arr.ctypes.data_as(_c_int64_p)


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


class _KernelDriver:
    """Owns the ctypes KState, the scratch buffers, and the per-batch
    copy-in/copy-out against one placer instance."""

    def __init__(self, placer: "_KernelPlacer") -> None:
        self.placer = placer
        k = placer.n_shards
        proxy = placer._proxy
        self.k = k
        self.heap_cap = max(k, proxy._compact_limit + 1) + 8
        self.zero_cap = max(4 * k, 256)
        self.scaled = np.zeros(k, dtype=np.float64)
        self.heap_vals = np.zeros(self.heap_cap, dtype=np.float64)
        self.heap_idx = np.zeros(self.heap_cap, dtype=np.int64)
        self.zero_heap = np.zeros(self.zero_cap, dtype=np.int64)
        self.strat_sizes = np.zeros(k, dtype=np.int64)
        self.scorer_sizes = np.zeros(k, dtype=np.int64)
        self.raw = np.zeros(k, dtype=np.float64)
        self.touched = np.zeros(k, dtype=np.int64)
        self.shard_mark = np.full(k, -1, dtype=np.int64)
        self.excl_mark = np.full(k, -1, dtype=np.int64)
        self.sort_mass = np.zeros(k, dtype=np.float64)
        self.sort_shard = np.zeros(k, dtype=np.int64)
        self.pb_vals = np.zeros(self.heap_cap, dtype=np.float64)
        self.pb_idx = np.zeros(self.heap_cap, dtype=np.int64)
        self.pb_ids = np.zeros(self.zero_cap, dtype=np.int64)
        self.dedup = np.zeros(64, dtype=np.int64)

    def _grow_heaps(self) -> None:
        self.heap_cap *= 2
        self.zero_cap *= 2
        self.heap_vals = np.zeros(self.heap_cap, dtype=np.float64)
        self.heap_idx = np.zeros(self.heap_cap, dtype=np.int64)
        self.zero_heap = np.zeros(self.zero_cap, dtype=np.int64)
        self.pb_vals = np.zeros(self.heap_cap, dtype=np.float64)
        self.pb_idx = np.zeros(self.heap_cap, dtype=np.int64)
        self.pb_ids = np.zeros(self.zero_cap, dtype=np.int64)

    def run(self, parents, par_off, n_tx) -> None:
        """Run the kernel over a raw-outpoint CSR, committing state.

        ``parents`` holds every outpoint's txid (undeduplicated; the
        kernel deduplicates per transaction), ``par_off`` the
        per-transaction offsets. Raises :class:`PlacementError` (with
        all prior transactions committed, matching the python loop) on
        an invalid input.
        """
        placer = self.placer
        scorer = placer.scorer
        proxy = placer._proxy
        lib = load_kernel()
        mat: RowMatrix = scorer._p_prime
        min_mass: FloatVector = scorer._min_mass
        spender: IntVector = scorer._spender_count
        assignment: IntVector = placer._assignment
        n_placed = len(assignment)
        needed = n_placed + n_tx
        mat.claim(n_placed, needed)
        min_mass._grow_to(needed)
        spender._grow_to(needed)
        assignment._grow_to(needed)

        # ---- copy python-side state into the typed scratch ----
        heap = proxy._heap
        zero_heap = proxy._zero_heap
        while len(heap) > self.heap_cap or len(zero_heap) > self.zero_cap:
            self._grow_heaps()
        self.scaled[:] = proxy._scaled
        if heap:
            hv, hi = zip(*heap)
            self.heap_vals[: len(heap)] = hv
            self.heap_idx[: len(heap)] = hi
        if zero_heap:
            self.zero_heap[: len(zero_heap)] = zero_heap
        self.strat_sizes[:] = placer._shard_sizes
        self.scorer_sizes[:] = scorer._shard_sizes
        max_in = int(np.diff(par_off).max())
        if max_in > len(self.dedup):
            self.dedup = np.zeros(
                max(max_in, 2 * len(self.dedup)), dtype=np.int64
            )

        st = KState()
        st.n_shards = self.k
        st.alpha = scorer.alpha
        st.one_minus_alpha = scorer._scale
        st.epsilon = scorer.prune_epsilon
        st.weight = placer.fitness.latency_weight
        cap = scorer.support_cap
        st.support_cap = -1 if cap is None else cap
        st.has_scale = 1 if scorer._scale > 0.0 else 0
        st.has_eps = 1 if scorer.prune_epsilon > 0.0 else 0
        st.decay = proxy._decay
        st.base_verify = proxy._base_verify
        st.base_total = proxy._base_total
        st.comm_expected = proxy._comm_expected
        st.block = proxy._block
        st.renorm_span = proxy._renorm_span
        st.compact_limit = proxy._compact_limit
        st.heap_len = len(heap)
        st.heap_cap = self.heap_cap
        st.zero_len = len(zero_heap)
        st.zero_cap = self.zero_cap
        st.step = proxy._step
        st.offset = proxy._offset
        st.pscale = proxy._scale
        st.min_size_val = placer._min_shard_size
        st.min_size_count = placer._min_size_count
        st.max_size_val = placer._max_shard_size
        st.n_placed = n_placed
        st.rows_cap = needed
        st.dropped_mass = scorer._dropped_mass
        st.truncated_vectors = scorer._truncated_vectors

        st.scaled = _dptr(self.scaled)
        st.heap_vals = _dptr(self.heap_vals)
        st.heap_idx = _iptr(self.heap_idx)
        st.zero_heap = _iptr(self.zero_heap)
        st.strat_sizes = _iptr(self.strat_sizes)
        st.scorer_sizes = _iptr(self.scorer_sizes)
        st.pmat = _dptr(mat.arr)
        st.slot = mat.slot.ctypes.data_as(_c_int32_p)
        st.min_mass = _dptr(min_mass.arr)
        st.spender_count = _iptr(spender.arr)
        st.assignment = _iptr(assignment.arr)
        st.raw = _dptr(self.raw)
        st.touched = _iptr(self.touched)
        st.shard_mark = _iptr(self.shard_mark)
        st.excl_mark = _iptr(self.excl_mark)
        st.sort_mass = _dptr(self.sort_mass)
        st.sort_shard = _iptr(self.sort_shard)
        st.pb_ids = _iptr(self.pb_ids)
        st.pb_vals = _dptr(self.pb_vals)
        st.pb_idx = _iptr(self.pb_idx)
        st.dedup = _iptr(self.dedup)
        st.dedup_cap = len(self.dedup)
        st.parents = _iptr(parents)

        done = 0
        while True:
            st.n_tx = n_tx - done
            st.par_off = _iptr(par_off[done:])
            rc = lib.place_batch(ctypes.byref(st))
            done += st.n_done
            if rc == KERN_CAPACITY:
                # Heap scratch too small for the next transaction (the
                # zero cohort accumulates stale duplicates between
                # compactions). Copy the heap contents into bigger
                # buffers and resume exactly where the kernel stopped.
                hl, zl = st.heap_len, st.zero_len
                old_hv = self.heap_vals[:hl].copy()
                old_hi = self.heap_idx[:hl].copy()
                old_zh = self.zero_heap[:zl].copy()
                self._grow_heaps()
                self.heap_vals[:hl] = old_hv
                self.heap_idx[:hl] = old_hi
                self.zero_heap[:zl] = old_zh
                st.heap_cap = self.heap_cap
                st.zero_cap = self.zero_cap
                st.heap_vals = _dptr(self.heap_vals)
                st.heap_idx = _iptr(self.heap_idx)
                st.zero_heap = _iptr(self.zero_heap)
                st.pb_vals = _dptr(self.pb_vals)
                st.pb_idx = _iptr(self.pb_idx)
                st.pb_ids = _iptr(self.pb_ids)
                continue
            break

        # ---- copy kernel results back into python-side state ----
        proxy._scaled[:] = self.scaled.tolist()
        proxy._heap[:] = list(
            zip(
                self.heap_vals[: st.heap_len].tolist(),
                self.heap_idx[: st.heap_len].tolist(),
            )
        )
        proxy._zero_heap[:] = self.zero_heap[: st.zero_len].tolist()
        proxy._step = st.step
        proxy._offset = st.offset
        proxy._scale = st.pscale
        placer._shard_sizes[:] = self.strat_sizes.tolist()
        placer._min_shard_size = st.min_size_val
        placer._min_size_count = st.min_size_count
        placer._max_shard_size = st.max_size_val
        scorer._shard_sizes[:] = self.scorer_sizes.tolist()
        if cap is not None:
            scorer._dropped_mass = st.dropped_mass
            scorer._truncated_vectors = st.truncated_vectors
        new_n = st.n_placed
        if new_n < needed:
            mat.reset(slice(new_n, needed))  # rows a rejection left unused
        mat._n = new_n
        min_mass._n = new_n
        spender._n = new_n
        assignment._n = new_n

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
            self._path != _PATH_FUSED or not self.scorer._spenders_divisor
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
        """Place a raw-outpoint CSR batch (the kernel's view of a wire
        batch, or :func:`parent_csr`): ``parents`` holds every
        outpoint's txid, ``in_off`` the per-transaction offsets. Dense
        txid order is the caller's contract (the engine checks it)."""
        scorer = self.scorer
        if scorer._pending is not None:
            raise PlacementError(
                f"transaction {scorer._pending} was added but never placed"
            )
        batch_start = len(self._assignment)
        if n_tx:
            self._driver.run(parents, in_off, n_tx)
        return self._assignment[batch_start:]

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

    The compiled twin of ``PlacementEngine._apply_inputs``: views a
    :class:`~repro.service.wire.WireBatch` as the raw-outpoint CSR
    (:meth:`columns`), runs ``validate_batch`` in C against the
    engine's mask store, and maps error codes back to the byte-exact
    :class:`EngineError` messages. The same views then feed
    :meth:`_KernelPlacer.place_batch_raw`.
    """

    def __init__(self) -> None:
        self._lib = load_kernel()  # the placer verified availability

    @staticmethod
    def columns(batch) -> tuple:
        """``(parents, indexes, in_off, n_outputs)``: the kernel's view
        of a :class:`~repro.service.wire.WireBatch`, computed once per
        engine batch for validation and placement alike.
        ``np.frombuffer`` views the columns where they lie (the wire's
        u64/u32 read as int64/int32 - the kernel range-checks them and
        loads through ``memcpy``, so payload offsets need no alignment);
        only ``in_off`` is built, by one ``cumsum``.
        """
        in_off = np.zeros(batch.n_txs + 1, dtype=np.int64)
        np.cumsum(np.frombuffer(batch.n_inputs, dtype=np.uint32), out=in_off[1:])
        return (
            np.frombuffer(batch.parents, dtype=np.int64),
            np.frombuffer(batch.indexes, dtype=np.int32),
            in_off,
            np.frombuffer(batch.n_outputs, dtype=np.int32),
        )

    def validate(
        self, masks: MaskMap, first_txid: int, columns, *, horizon_start: int
    ):
        """Validate + commit one batch (its :meth:`columns`, txids dense
        from ``first_txid``) against ``masks`` in the kernel.

        Returns ``(released, undo_txids)`` on success - ``released``
        in python event order, ``undo_txids`` the touched parents (or
        ``None`` when no input spent anything) - or ``None`` when the
        batch needs the python journal (arbitrary-precision masks,
        >62-output transactions), with the store rolled back untouched.
        Raises :class:`EngineError` with the python journal's exact
        message on an invalid batch, nothing committed.
        """
        parents, indexes, in_off, n_outputs = columns
        n_tx = len(n_outputs)
        masks._grow_to(first_txid + n_tx)
        total_in = int(in_off[-1])
        undo_txid = np.empty(total_in, dtype=np.int64)
        undo_mask = np.empty(total_in, dtype=np.int64)
        released = np.empty(total_in + n_tx, dtype=np.int64)
        st = VState()
        st.n_tx = n_tx
        st.first_txid = first_txid
        st.horizon_start = horizon_start
        st.parents = _iptr(parents)
        st.indexes = indexes.ctypes.data_as(_c_int32_p)
        st.in_off = _iptr(in_off)
        st.n_outputs = n_outputs.ctypes.data_as(_c_int32_p)
        st.masks = _iptr(masks.arr)
        st.undo_txid = _iptr(undo_txid)
        st.undo_mask = _iptr(undo_mask)
        st.released = _iptr(released)
        rc = self._lib.validate_batch(ctypes.byref(st))
        if rc == VALID_OK:
            masks._count += st.tracked_delta
            rel = released[: st.n_released].tolist()
            undo = undo_txid[: st.n_undo] if st.n_undo else None
            return rel, undo
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
