"""Partition-aware placement engines for the sharded service.

The placement stream is inherently sequential - every decision reads
the global shard sizes and load proxy that every earlier decision
wrote - so the sharded service does not parallelize *placement*; it
partitions *ownership*. The txid space is divided into contiguous
**leases** of ``lease_length`` transactions, dealt round-robin to
``n_partitions`` partitions (partition ``p`` owns lease ``l`` iff
``l % n_partitions == p``). At any moment exactly one partition holds
the **write lease** - the right to place the lease the global cursor is
in - while the others serve reads over the slices they placed earlier
and absorb writebacks. What scales out is everything around the
sequential core: request decode, validation bookkeeping, checkpoint
writes, and memory (each partition holds only its own slices).

Three protocols make that sound:

- **Handoff**: when the cursor crosses a lease boundary the active
  partition exports its *hot state* - the O(n_shards) scalars every
  placement reads (shard sizes, min/max trackers, proxy decay clock
  and heaps, scorer truncation accounting, capped-baseline RNG) - and
  the next owner imports it. Per-txid state never travels, which is
  what keeps a handoff O(n_shards) instead of O(n_placed).
- **Cross-partition lookups**: a transaction may spend outputs owned by
  another partition. Before placing a batch, the active partition lists
  the foreign parents it needs (:meth:`EnginePartition.parents_needed`),
  the caller fetches their state from the owners
  (:meth:`EnginePartition.read_parents`), and the batch runs with those
  states *installed* into the local arrays - so the fused hot path is
  untouched. Installs are transient: they are removed after the batch
  either way (success or atomic reject), and mutations to foreign
  parents (spender counts, spent outputs) return to their owners as
  **writebacks** (:meth:`EnginePartition.apply_writebacks`). Because
  only the lease holder mutates, acquire-mutate-writeback needs no
  locking; ordering is the lease protocol.
- **Exactness**: a single-partition configuration never pads, installs,
  or hands off - it *is* the plain engine (golden-tested). Multi-
  partition configurations replay the same sequential decision
  process, so their placements are bit-identical too (pinned by
  ``tests/service/test_partition.py`` for 2 and 3 partitions).
"""

from __future__ import annotations

import math
from typing import Any, Sequence

from repro.core.optchain import LoadProxyLatencyProvider
from repro.errors import ConfigurationError, EngineError
from repro.service.engine import PlacementEngine
from repro.service.wire import (
    FRAME_HEADER_BYTES,
    WireBatch,
    encode_place_request,
)
from repro.utxo.transaction import Transaction

_INF = math.inf


def lease_of(txid: int, lease_length: int) -> int:
    """Lease index a txid falls in."""
    return txid // lease_length


def encode_parent_states(
    states: dict[int, dict[str, Any]],
) -> dict[str, Any]:
    """JSON-safe form of :meth:`EnginePartition.read_parents` output.

    Vectors travel as ``[[shard, mass], ...]`` pair lists: JSON object
    keys would stringify the shard ids, and the pair list preserves the
    dict insertion order that feeds multi-parent accumulation (part of
    the bit-identical contract). Floats round-trip exactly (repr);
    masks are arbitrary-precision ints, which JSON carries natively.
    """
    encoded = {}
    for txid, state in states.items():
        entry = dict(state)
        vector = entry.get("vector")
        if vector is not None:
            entry["vector"] = [
                [shard, mass] for shard, mass in vector.items()
            ]
        encoded[str(txid)] = entry
    return encoded


def decode_parent_states(
    encoded: dict[str, Any],
) -> dict[int, dict[str, Any]]:
    """Inverse of :func:`encode_parent_states`."""
    states: dict[int, dict[str, Any]] = {}
    for key, entry in encoded.items():
        state = dict(entry)
        vector = state.get("vector")
        if vector is not None:
            state["vector"] = {shard: mass for shard, mass in vector}
        states[int(key)] = state
    return states


def owner_of(txid: int, lease_length: int, n_partitions: int) -> int:
    """Partition id owning a txid."""
    return (txid // lease_length) % n_partitions


class EnginePartition:
    """One partition's slice of the sharded placement service.

    Wraps a :class:`~repro.service.engine.PlacementEngine` whose
    per-txid arrays are *logically* sliced: entries in leases this
    partition owns are real, entries elsewhere are placeholder pads
    (``None`` vectors, zero assignments) that are never read except
    through a transient remote-parent install. Padding keeps every
    array indexed by **global** txid, which is what lets the fused
    placement hot path run unmodified.
    """

    def __init__(
        self,
        engine: PlacementEngine,
        partition_id: int = 0,
        n_partitions: int = 1,
        lease_length: int = 25_000,
    ) -> None:
        if n_partitions < 1:
            raise ConfigurationError(
                f"n_partitions must be >= 1, got {n_partitions}"
            )
        if not 0 <= partition_id < n_partitions:
            raise ConfigurationError(
                f"partition_id must be in [0, {n_partitions}), got "
                f"{partition_id}"
            )
        if lease_length < 1:
            raise ConfigurationError(
                f"lease_length must be >= 1, got {lease_length}"
            )
        self._engine = engine
        self.partition_id = partition_id
        self.n_partitions = n_partitions
        self.lease_length = lease_length
        placer = engine.placer
        self._placer = placer
        self._scorer = engine._scorer
        proxy = getattr(placer, "_proxy", None)
        self._proxy = (
            proxy if isinstance(proxy, LoadProxyLatencyProvider) else None
        )
        self._rng = getattr(placer, "_rng", None)
        # Placeholder entries appended by pad_to; released_count is
        # corrected by this in stats() (pads are counted as released so
        # live_vector_count stays exact).
        self._n_padded = 0
        # How far this partition has applied the horizon sweep to its
        # *own* slices. The engine's sweep runs only while active, so a
        # partition that was idle when the horizon passed its leases
        # catches up on the next lease import (idempotent re-sweeps are
        # no-ops on already-released slots).
        self._horizon_swept = 0
        # Optional write-ahead journal (service.journal.BatchJournal).
        # Every state mutation - owned batches, hot-state imports,
        # absorbed writebacks - is appended *before* it executes, so a
        # crashed worker replays the tail on top of its checkpoint and
        # comes back bit-identical. None disables journaling (replay
        # itself runs with the journal detached).
        self.journal: "Any | None" = None

    # -- queries -----------------------------------------------------------

    @property
    def engine(self) -> PlacementEngine:
        return self._engine

    @property
    def n_placed(self) -> int:
        """Local cursor: global txids below this are placed *or padded*."""
        return self._placer.n_placed

    def owns_txid(self, txid: int) -> bool:
        if self.n_partitions == 1:
            return True
        return (
            txid // self.lease_length
        ) % self.n_partitions == self.partition_id

    def owns_lease(self, lease: int) -> bool:
        return lease % self.n_partitions == self.partition_id

    def lease_end(self, txid: int) -> int:
        """First txid beyond the lease containing ``txid``."""
        return (txid // self.lease_length + 1) * self.lease_length

    def assignment_slice(self, first: int, count: int) -> list[int]:
        """Recorded shard assignments of an already-placed owned range.

        This is what makes duplicate resubmission exact: a batch the
        cursor already passed is answered from the assignment record
        instead of re-placed (assignments persist after vector release,
        so any owned below-cursor range is answerable).
        """
        return list(self._placer._assignment[first : first + count])

    # -- the active (write-lease) path -------------------------------------

    def parents_needed(self, batch: Sequence[Transaction]) -> list[int]:
        """Foreign parent txids this batch reads, sorted.

        Parents created inside the batch itself are local by
        definition. Behind-horizon parents are still listed: their
        vector/mask/count are masked off at install time (the engine
        treats them as released), but their *assignment* feeds the
        fitness rule's input-shard term regardless of the horizon.
        """
        if self.n_partitions == 1 or not batch:
            return []
        if isinstance(batch, WireBatch):
            # Vectorized over the frame's parent array - no Transaction
            # objects on the wire fast path.
            from repro.core.backends.arrays import sorted_unique

            parents = batch.parents
            foreign = parents[parents < batch.first_txid]
            if not foreign.size:
                return []
            unique = sorted_unique(foreign)
            owners = (unique // self.lease_length) % self.n_partitions
            return unique[owners != self.partition_id].tolist()
        first = batch[0].txid
        lease_length = self.lease_length
        n_partitions = self.n_partitions
        mine = self.partition_id
        needed: set[int] = set()
        for tx in batch:
            for outpoint in tx.inputs:
                parent = outpoint.txid
                if (
                    parent < first
                    and (parent // lease_length) % n_partitions != mine
                ):
                    needed.add(parent)
        return sorted(needed)

    def place_batch(
        self,
        batch: Sequence[Transaction],
        remote_parents: "dict[int, dict[str, Any]] | None" = None,
        raw_segments: "Sequence[bytes] | None" = None,
    ) -> tuple[list[int], list[dict[str, Any]]]:
        """Place one owned batch; returns ``(shards, writebacks)``.

        ``remote_parents`` must cover exactly
        :meth:`parents_needed` (states fetched from the owners via
        :meth:`read_parents`). The installs are transient: on success
        *and* on atomic reject the local arrays return to placeholder
        state, so a failed batch leaves both this partition and every
        owner byte-identical to before the call.

        ``raw_segments`` are the wire-format place payloads the batch
        was coalesced from, passed through to the write-ahead journal
        unre-encoded (the worker already holds them). Without them a
        journaling partition re-encodes the batch itself - same bytes
        the coordinator's boundary splitter produces.
        """
        wire_batch = isinstance(batch, WireBatch)
        if self.journal is not None and batch:
            if raw_segments is None:
                if wire_batch:
                    raw_segments = list(batch.payloads)
                else:
                    raw_segments = [
                        encode_place_request(0, batch)[FRAME_HEADER_BYTES:]
                    ]
            # Append *before* placing: the journal stays a superset of
            # externally visible state, and a deterministic reject
            # simply re-fails (as a no-op) on replay.
            self.journal.append_batch(
                raw_segments, remote_parents or {}
            )
        if self.n_partitions == 1:
            if wire_batch:
                return self._engine.place_wire_batch(batch), []
            return self._engine.place_batch(batch), []
        if batch:
            self.pad_to(batch.first_txid if wire_batch else batch[0].txid)
        states = remote_parents or {}
        self._install(states)
        try:
            if wire_batch:
                shards = self._engine.place_wire_batch(
                    batch, _exclude_release=states.keys()
                )
            else:
                shards = self._engine.place_batch(
                    batch, _exclude_release=states.keys()
                )
        except EngineError:
            self._uninstall(states)
            raise
        except Exception:
            # The engine poisoned itself; the install is unwound so
            # owners stay consistent, but this partition refuses
            # further service either way.
            self._uninstall(states)
            raise
        writebacks = self._collect_writebacks(states)
        self._uninstall(states)
        return shards, writebacks

    def pad_to(self, cursor: int) -> None:
        """Extend the per-txid arrays with placeholders up to ``cursor``.

        Called when this partition acquires the write lease at a global
        cursor beyond its local arrays (the gap is other partitions'
        leases). Pads read exactly like released vectors - empty, zero
        mass - and are only ever written through a transient install.
        """
        placer = self._placer
        gap = cursor - placer.n_placed
        if gap <= 0:
            return
        placer._assignment.extend([0] * gap)
        scorer = self._scorer
        if scorer is not None:
            scorer._p_prime.extend([None] * gap)
            scorer._spender_count.extend([0] * gap)
            scorer._min_mass.extend([_INF] * gap)
            if not scorer._spenders_divisor:
                scorer._output_count.extend([1] * gap)
            # Count pads as released so live_vector_count stays exact.
            scorer._released += gap
        self._n_padded += gap

    # -- the owner (read/writeback) path -----------------------------------

    def read_parents(
        self, txids: Sequence[int]
    ) -> dict[int, dict[str, Any]]:
        """State of owned parents, for installation by the active
        partition. A ``mask`` of ``None`` means unknown or fully spent -
        the active side will reject a spend of it with the exact error
        the monolithic engine raises."""
        placer = self._placer
        scorer = self._scorer
        remaining = self._engine._remaining
        states: dict[int, dict[str, Any]] = {}
        for txid in txids:
            if not self.owns_txid(txid) or txid >= placer.n_placed:
                raise EngineError(
                    f"partition {self.partition_id} does not hold "
                    f"transaction {txid}"
                )
            state: dict[str, Any] = {
                "assignment": placer._assignment[txid],
                "mask": remaining.get(txid),
            }
            if scorer is not None:
                vector = scorer._p_prime[txid]
                state["spender_count"] = scorer._spender_count[txid]
                state["vector"] = None if vector is None else dict(vector)
                state["min_mass"] = scorer._min_mass[txid]
                if not scorer._spenders_divisor:
                    # outdeg_mode="outputs": the divisor reads the
                    # parent's created-output count too.
                    state["output_count"] = scorer._output_count[txid]
            states[txid] = state
        return states

    def apply_writebacks(self, updates: Sequence[dict[str, Any]]) -> None:
        """Absorb the active partition's mutations to owned parents.

        A mask of 0 means the parent is now fully spent: its unspent
        bookkeeping is dropped and (under the truncation policy) its
        vector released immediately - release timing is unobservable
        for exactness, since a fully-spent vector can never be read
        again on a valid stream.
        """
        if self.journal is not None and updates:
            self.journal.append_apply(updates)
        scorer = self._scorer
        remaining = self._engine._remaining
        collect = self._engine._collect_spent
        for update in updates:
            txid = update["txid"]
            if not self.owns_txid(txid) or txid >= self._placer.n_placed:
                raise EngineError(
                    f"partition {self.partition_id} does not hold "
                    f"transaction {txid}"
                )
            if scorer is not None:
                scorer._spender_count[txid] = update["spender_count"]
            mask = update["mask"]
            if mask:
                remaining[txid] = mask
            else:
                remaining.pop(txid, None)
                if collect and scorer is not None:
                    scorer.release_vector(txid)

    # -- handoff -----------------------------------------------------------

    def export_hot_state(self) -> dict[str, Any]:
        """The stream-global state every placement reads - O(n_shards).

        Heap layouts travel verbatim (they decide tie traversal and
        demotion timing, exactly as in snapshots); per-txid arrays do
        not travel at all.
        """
        placer = self._placer
        engine = self._engine
        hot: dict[str, Any] = {
            "n_placed": placer.n_placed,
            "placer": {
                "shard_sizes": list(placer._shard_sizes),
                "min_shard_size": placer._min_shard_size,
                "min_size_count": placer._min_size_count,
                "max_shard_size": placer._max_shard_size,
            },
            "engine": {
                "epoch": engine._epoch,
                "horizon_start": engine._horizon_start,
                "peak_live": engine._peak_live,
            },
        }
        if placer._size_argmin is not None:
            hot["placer"]["argmin_heap"] = [
                [value, index]
                for value, index in placer._size_argmin._heap
            ]
        scorer = self._scorer
        if scorer is not None:
            hot["scorer"] = {
                "shard_sizes": list(scorer._shard_sizes),
                "scalars": scorer.export_hot_scalars(),
            }
        if self._proxy is not None:
            proxy = self._proxy.export_state()
            proxy["heap"] = [[value, index] for value, index in proxy["heap"]]
            hot["proxy"] = proxy
        if self._rng is not None:
            version, words, gauss = self._rng.getstate()
            hot["rng"] = [version, list(words), gauss]
        return hot

    def import_hot_state(self, hot: dict[str, Any]) -> None:
        """Acquire the write lease: adopt the global state at ``hot``'s
        cursor and pad the local arrays up to it."""
        if self.journal is not None:
            self.journal.append_grant(hot)
        self.pad_to(hot["n_placed"])
        if self._placer.n_placed != hot["n_placed"]:
            raise EngineError(
                f"partition {self.partition_id} is at cursor "
                f"{self._placer.n_placed}, cannot import hot state at "
                f"{hot['n_placed']}"
            )
        placer = self._placer
        placer_hot = hot["placer"]
        placer._shard_sizes[:] = placer_hot["shard_sizes"]
        placer._min_shard_size = placer_hot["min_shard_size"]
        placer._min_size_count = placer_hot["min_size_count"]
        placer._max_shard_size = placer_hot["max_shard_size"]
        heap = placer_hot.get("argmin_heap")
        if heap is not None:
            placer.size_argmin()._heap[:] = [
                (value, index) for value, index in heap
            ]
        elif placer._size_argmin is not None:
            placer._size_argmin.rebuild()
        scorer = self._scorer
        if scorer is not None:
            scorer._shard_sizes[:] = hot["scorer"]["shard_sizes"]
            scorer.import_hot_scalars(hot["scorer"]["scalars"])
        if self._proxy is not None:
            proxy = dict(hot["proxy"])
            proxy["heap"] = [
                (value, index) for value, index in proxy["heap"]
            ]
            self._proxy.restore_state(proxy)
        if self._rng is not None:
            version, words, gauss = hot["rng"]
            self._rng.setstate((version, tuple(words), gauss))
        engine = self._engine
        engine_hot = hot["engine"]
        engine._epoch = engine_hot["epoch"]
        engine._horizon_start = engine_hot["horizon_start"]
        engine._peak_live = engine_hot["peak_live"]
        self._sweep_horizon_to(engine._horizon_start)
        # The capped baselines' allowed set is a pure function of
        # sizes + cap; rebuild it against the imported sizes.
        rebuild = getattr(placer, "_rebuild_allowed", None)
        if rebuild is not None:
            rebuild()

    def _sweep_horizon_to(self, new_start: int) -> None:
        """Release owned vectors/masks the horizon passed while idle."""
        start = self._horizon_swept
        if new_start <= start:
            return
        scorer = self._scorer
        remaining = self._engine._remaining
        clear_range = getattr(remaining, "clear_range", None)
        cursor = self._placer.n_placed
        lease_length = self.lease_length
        lease = start // lease_length
        while True:
            lease_start = lease * lease_length
            if lease_start >= new_start or lease_start >= cursor:
                break
            if self.owns_lease(lease):
                lo = max(lease_start, start)
                hi = min(lease_start + lease_length, new_start, cursor)
                if scorer is not None:
                    scorer.release_vectors(range(lo, hi))
                if clear_range is not None:
                    clear_range(lo, hi)
                else:
                    for txid in range(lo, hi):
                        remaining.pop(txid, None)
            lease += 1
        self._horizon_swept = new_start

    # -- installs (internals) ----------------------------------------------

    def _install(self, states: dict[int, dict[str, Any]]) -> None:
        placer = self._placer
        scorer = self._scorer
        remaining = self._engine._remaining
        horizon = self._engine.horizon_start
        for txid, state in states.items():
            placer._assignment[txid] = state["assignment"]
            if txid < horizon:
                # Behind the spend horizon the monolithic engine has
                # released the vector and dropped the mask (zero
                # ancestry signal, no validation) - whatever the owner
                # still holds is masked off here, and catches up on the
                # owner's next lease import. Only the assignment - the
                # fitness rule's input-shard term - installs.
                continue
            if scorer is not None:
                vector = state["vector"]
                scorer._p_prime[txid] = (
                    None if vector is None else dict(vector)
                )
                scorer._spender_count[txid] = state["spender_count"]
                scorer._min_mass[txid] = state["min_mass"]
                if not scorer._spenders_divisor:
                    scorer._output_count[txid] = state["output_count"]
            mask = state["mask"]
            if mask:
                remaining[txid] = mask

    def _collect_writebacks(
        self, states: dict[int, dict[str, Any]]
    ) -> list[dict[str, Any]]:
        scorer = self._scorer
        remaining = self._engine._remaining
        horizon = self._engine.horizon_start
        writebacks: list[dict[str, Any]] = []
        for txid, state in states.items():
            if txid < horizon:
                # Assignment-only install: nothing of the owner's
                # mutable state was exposed, so nothing changed.
                continue
            mask = state["mask"]
            if mask is None:
                # Unknown/fully-spent at the owner: unspendable, and
                # spender counts only advance on accepted spends.
                continue
            new_mask = remaining.get(txid, 0)
            new_count = (
                scorer._spender_count[txid] if scorer is not None else 0
            )
            old_count = (
                state["spender_count"] if scorer is not None else 0
            )
            if new_mask == mask and new_count == old_count:
                continue
            writebacks.append(
                {
                    "txid": txid,
                    "spender_count": new_count,
                    "mask": new_mask,
                }
            )
        return writebacks

    def _uninstall(self, states: dict[int, dict[str, Any]]) -> None:
        placer = self._placer
        scorer = self._scorer
        remaining = self._engine._remaining
        for txid in states:
            placer._assignment[txid] = 0
            if scorer is not None:
                # The epoch sweep is excluded from installs, so setting
                # the slot back to None never double-counts a release.
                scorer._p_prime[txid] = None
                scorer._spender_count[txid] = 0
                scorer._min_mass[txid] = _INF
                if not scorer._spenders_divisor:
                    scorer._output_count[txid] = 1
            remaining.pop(txid, None)

    # -- checkpoint / stats ------------------------------------------------

    def checkpoint(self, path, compress: bool = False) -> int:
        """Per-partition snapshot (the plain engine format: pads and
        slices serialize like any released/live state)."""
        return self._engine.checkpoint(path, compress=compress)

    @classmethod
    def restore(
        cls,
        path,
        partition_id: int = 0,
        n_partitions: int = 1,
        lease_length: int = 25_000,
    ) -> "EnginePartition":
        """Rebuild one partition from its snapshot file."""
        engine = PlacementEngine.restore(path)
        partition = cls(
            engine,
            partition_id=partition_id,
            n_partitions=n_partitions,
            lease_length=lease_length,
        )
        # Pads were serialized as released slots; recover the count so
        # stats stay additive across partitions. Only an estimate-free
        # exact recount is acceptable: pads are exactly the unowned
        # txids below the cursor.
        if n_partitions > 1:
            lease = 0
            padded = 0
            cursor = engine.n_placed
            while True:
                start = lease * lease_length
                if start >= cursor:
                    break
                end = min(start + lease_length, cursor)
                if lease % n_partitions != partition_id:
                    padded += end - start
                lease += 1
            partition._n_padded = padded
        return partition

    def stats(self) -> dict[str, Any]:
        """Partition-local stats, pad-corrected for cross-partition
        summation by the coordinator."""
        stats = self._engine.stats().as_dict()
        stats["partition_id"] = self.partition_id
        stats["n_partitions"] = self.n_partitions
        stats["lease_length"] = self.lease_length
        stats["padded_slots"] = self._n_padded
        if stats["released_vectors"] is not None:
            stats["released_vectors"] -= self._n_padded
        return stats
