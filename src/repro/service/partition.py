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
  locking; ordering is the lease protocol. Both directions travel as
  typed-array frames (:class:`ParentStates`, :class:`Writebacks`) that
  array-backed state gathers and scatters whole and list-backed state
  walks with plain loops - one format on the link, in the journal and
  between in-process partitions.
- **Exactness**: a single-partition configuration never pads, installs,
  or hands off - it *is* the plain engine (golden-tested). Multi-
  partition configurations replay the same sequential decision
  process, so their placements are bit-identical too (pinned by
  ``tests/service/test_partition.py`` for 2 and 3 partitions).
"""

from __future__ import annotations

import math
import struct
from array import array
from typing import Any, Sequence

from repro.core.optchain import LoadProxyLatencyProvider
from repro.errors import ConfigurationError, EngineError, ProtocolError
from repro.service.engine import PlacementEngine
from repro.service.wire import (
    ColumnReader,
    WireBatch,
    as_wire_batch,
    column,
    column_bytes,
)
from repro.utxo.transaction import Transaction

_INF = math.inf


def lease_of(txid: int, lease_length: int) -> int:
    """Lease index a txid falls in."""
    return txid // lease_length


def owner_of(txid: int, lease_length: int, n_partitions: int) -> int:
    """Partition id owning a txid."""
    return (txid // lease_length) % n_partitions


# -- parent-state frames ----------------------------------------------------
#
# Cross-partition parent state travels - between partitions, through the
# coordinator, into the journal - as typed-array frames, never as
# per-txid objects. One frame (everything little-endian)::
#
#     16 bytes  rows u32, flags u32, spilled masks u32, entries u32
#     columns   in the class's _COLUMNS order, each i64/f64/i32[rows]
#               (or [entries] for the vector columns); a column whose
#               flag bit is clear is absent
#     spill     per spilled mask: byte length u32 + little-endian bytes
#
# A buffer holds any number of frames back to back (the coordinator
# joins the owners' replies without parsing them); decoding one joins
# the columns. Columns are read and written by the codec ``place``
# payloads use (:class:`repro.service.wire.ColumnReader`).

_U32 = struct.Struct("<I")
#: ``mask`` slot of a mask too wide for an int64; its exact value is the
#: next entry of the frame's spill list. Sentinel and width rule are
#: :class:`~repro.core.backends.arrays.MaskMap`'s, so array-backed state
#: moves its slots through a frame unconverted. Slot 0 is "no mask".
MASK_SPILL = -1
_MASK_INLINE_BITS = 62


def pack_masks(masks) -> tuple[list[int], list[int]]:
    """``(slots, spill)`` of python masks (``None`` and 0: slot 0)."""
    slots, spill = [], []
    for mask in masks:
        if not mask:
            slots.append(0)
        elif mask.bit_length() <= _MASK_INLINE_BITS:
            slots.append(mask)
        else:
            slots.append(MASK_SPILL)
            spill.append(mask)
    return slots, spill


def txids_to_bytes(txids) -> bytes:
    """A bare txid column (the ``W_ACQUIRE`` / ``W_READ`` request)."""
    return bytes(column_bytes(column("q", txids)))


def txids_from_bytes(payload: bytes):
    if len(payload) % 8:
        raise ProtocolError(
            f"txid column of {len(payload)} bytes is not whole i64 entries"
        )
    return ColumnReader(payload).take("q", len(payload) // 8)


class _Frame:
    """Columns of one decoded (or freshly gathered) frame.

    ``_COLUMNS`` names each column in wire order: ``(name, typecode,
    flag bit that carries it - 0 for always, sized by entries rather
    than rows)``. A frame is immutable once built, and one decoded from
    bytes re-encodes as those bytes, verbatim.
    """

    __slots__ = ()
    _HEADER = struct.Struct("<IIII")
    _COLUMNS: "tuple[tuple[str, str, int, bool], ...]" = ()

    def __init__(self, *columns, spill=()) -> None:
        columns += (None,) * (len(self._COLUMNS) - len(columns))
        for (name, typecode, bit, _), values in zip(self._COLUMNS, columns):
            if values is None and not bit:
                values = ()
            setattr(
                self,
                name,
                None if values is None else column(typecode, values),
            )
        self.spill = list(spill)
        self._raw: "bytes | None" = None

    def __len__(self) -> int:
        return len(self.txids)

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self.to_bytes() == other.to_bytes()

    def masks(self) -> list[int]:
        """The ``mask`` column as python ints (0: no mask)."""
        wide = iter(self.spill)
        return [
            next(wide) if slot == MASK_SPILL else slot
            for slot in self.mask.tolist()
        ]

    def to_bytes(self) -> bytes:
        if self._raw is None:
            flags = entries = 0
            sections = []
            for name, _typecode, bit, per_entry in self._COLUMNS:
                values = getattr(self, name)
                if values is None:
                    continue
                flags |= bit
                if per_entry:
                    entries = len(values)
                sections.append(column_bytes(values))
            for mask in self.spill:
                raw = mask.to_bytes((mask.bit_length() + 7) // 8, "little")
                sections += (_U32.pack(len(raw)), raw)
            header = self._HEADER.pack(
                len(self), flags, len(self.spill), entries
            )
            self._raw = b"".join([header, *sections])
        return self._raw

    @classmethod
    def from_bytes(cls, buf) -> "Any":
        """Decode every frame in ``buf`` into one (raises
        :class:`~repro.errors.ProtocolError` on malformed bytes)."""
        reader = ColumnReader(buf)
        frames = []
        while reader.offset < len(buf):
            frames.append(cls._decode(reader))
        if len(frames) == 1:
            frame = frames[0]
        else:
            columns = []
            for name, typecode, _bit, _ in cls._COLUMNS:
                parts = [getattr(frame, name) for frame in frames]
                if any(part is None for part in parts):
                    if not all(part is None for part in parts):
                        raise ProtocolError(
                            f"joined frames disagree on column {name!r}"
                        )
                    columns.append(None)
                    continue
                joined = array(typecode)
                for part in parts:
                    joined.frombytes(memoryview(part).cast("B"))
                columns.append(joined)
            frame = cls(
                *columns,
                spill=[mask for frame in frames for mask in frame.spill],
            )
        frame._raw = buf
        return frame

    @classmethod
    def _decode(cls, reader: ColumnReader) -> "Any":
        rows, flags, n_spill, entries = reader.header(cls._HEADER)
        known = 0
        columns = []
        for _name, typecode, bit, per_entry in cls._COLUMNS:
            known |= bit
            columns.append(
                reader.take(typecode, entries if per_entry else rows)
                if flags & bit == bit
                else None
            )
        if flags & ~known:
            raise ProtocolError(f"frame has unknown flags 0x{flags:x}")
        frame = cls(*columns)
        marked = frame.mask.tolist().count(MASK_SPILL)
        if marked != n_spill:
            raise ProtocolError(
                f"frame spills {n_spill} masks but marks {marked} slots"
            )
        for _ in range(n_spill):
            (length,) = reader.header(_U32)
            frame.spill.append(
                int.from_bytes(
                    reader.advance(length, "a spilled mask"), "little"
                )
            )
        frame._check(entries)
        return frame

    def _check(self, entries: int) -> None:
        if entries:
            raise ProtocolError("frame declares entries it cannot carry")


class ParentStates(_Frame):
    """What an owner knows about parents another partition reads.

    One row per parent: its shard ``assignment`` and unspent-output
    ``mask`` (slot 0 = unknown or fully spent - the active side will
    reject a spend of it with the exact error the monolithic engine
    raises). Strategies with a T2S scorer add ``spender_count``,
    ``min_mass``, ``output_count`` (``outdeg_mode="outputs"`` only) and
    the sparse vector as CSR: ``nnz`` entries per row (-1 = no vector,
    0 = an empty live one), then ``shard`` / ``mass`` of every entry
    **in the owner's iteration order** - the python backend's dict
    insertion order feeds multi-parent accumulation, so it is part of
    the bit-identical contract.
    """

    __slots__ = (
        "txids", "assignment", "mask", "spender_count", "min_mass",
        "output_count", "mass", "nnz", "shard", "spill", "_raw",
    )  # fmt: skip
    _COLUMNS = (
        ("txids", "q", 0, False),
        ("assignment", "q", 0, False),
        ("mask", "q", 0, False),
        ("spender_count", "q", 1, False),
        ("min_mass", "d", 1, False),
        ("output_count", "q", 2, False),
        ("mass", "d", 1, True),
        ("nnz", "i", 1, False),
        ("shard", "i", 1, True),
    )

    def _check(self, entries: int) -> None:
        if self.nnz is None:
            if entries or self.output_count is not None:
                raise ProtocolError("frame has vector data but no vectors")
            return
        counts = self.nnz.tolist()
        if (counts and min(counts) < -1) or entries != sum(
            count for count in counts if count > 0
        ):
            raise ProtocolError(
                f"frame rows do not add up to its {entries} vector entries"
            )

    def vectors(self) -> "list[dict[int, float] | None]":
        """The CSR columns as one sparse dict (or ``None``) per row."""
        shard = self.shard.tolist()
        mass = self.mass.tolist()
        vectors: "list[dict[int, float] | None]" = []
        at = 0
        for count in self.nnz.tolist():
            if count < 0:
                vectors.append(None)
                continue
            vectors.append(dict(zip(shard[at : at + count], mass[at : at + count])))
            at += count
        return vectors


class Writebacks(_Frame):
    """The active partition's mutations to foreign parents: the new
    absolute ``spender_count`` and ``mask`` (slot 0 = now fully spent)
    of every parent one batch changed, so re-applying is idempotent."""

    __slots__ = ("txids", "spender_count", "mask", "spill", "_raw")
    _COLUMNS = (
        ("txids", "q", 0, False),
        ("spender_count", "q", 0, False),
        ("mask", "q", 0, False),
    )

    @classmethod
    def merge(cls, frames: "Sequence[Writebacks]") -> "Writebacks":
        """One frame that applies like ``frames`` applied in order.

        The values are absolute, so a later row for a txid replaces an
        earlier one; each txid sits where its last row was, which keeps
        the order fully spent parents are released in. A single frame
        comes back as it is.
        """
        frames = [frame for frame in frames if frame]
        if len(frames) <= 1:
            return frames[0] if frames else _NO_WRITEBACKS
        rows: dict[int, tuple[int, int]] = {}
        for frame in frames:
            for txid, count, mask in zip(
                frame.txids.tolist(), frame.spender_count.tolist(), frame.masks()
            ):
                rows.pop(txid, None)
                rows[txid] = (count, mask)
        counts, masks = zip(*rows.values())
        slots, spill = pack_masks(masks)
        return cls(list(rows), counts, slots, spill=spill)

    def by_owner(
        self, lease_length: int, n_partitions: int
    ) -> "dict[int, Writebacks]":
        """Rows grouped by owning partition, reading the txid column
        alone when one partition owns them all (``self``, untouched)."""
        txids = self.txids.tolist()
        owners = [owner_of(txid, lease_length, n_partitions) for txid in txids]
        if len(set(owners)) <= 1:
            return {owners[0]: self} if owners else {}
        rows: dict[int, list] = {}
        for owner, row in zip(
            owners, zip(txids, self.spender_count.tolist(), self.masks())
        ):
            rows.setdefault(owner, []).append(row)
        parts = {}
        for owner, owned in sorted(rows.items()):
            txids, counts, masks = zip(*owned)
            slots, spill = pack_masks(masks)
            parts[owner] = Writebacks(txids, counts, slots, spill=spill)
        return parts


_NO_STATES = ParentStates()
_NO_WRITEBACKS = Writebacks()


class _ListOps:
    """Parent-state reads and writes over list/dict-backed engine state,
    one txid at a time (the python backend, and any configuration whose
    stores are not all array-backed)."""

    def __init__(self, engine: PlacementEngine) -> None:
        self._engine = engine
        self._placer = engine.placer
        self._scorer = engine._scorer

    def read(self, txids) -> ParentStates:
        txids = txids.tolist()
        scorer = self._scorer
        assignment = self._placer._assignment
        slots, spill = pack_masks(map(self._engine._remaining.get, txids))
        columns: list = [txids, [assignment[txid] for txid in txids], slots]
        if scorer is not None:
            nnz, shard, mass = [], [], []
            for txid in txids:
                vector = scorer._p_prime[txid]
                if vector is None:
                    nnz.append(-1)
                    continue
                nnz.append(len(vector))
                shard.extend(vector)
                mass.extend(vector.values())
            columns += [
                [scorer._spender_count[txid] for txid in txids],
                [scorer._min_mass[txid] for txid in txids],
                # outdeg_mode="outputs": the divisor reads the parent's
                # created-output count too.
                None
                if scorer._spenders_divisor
                else [scorer._output_count[txid] for txid in txids],
                mass,
                nnz,
                shard,
            ]
        return ParentStates(*columns, spill=spill)

    def install(self, states: ParentStates, horizon: int) -> None:
        txids = states.txids.tolist()
        assignment = self._placer._assignment
        for txid, shard in zip(txids, states.assignment.tolist()):
            assignment[txid] = shard
        scorer = self._scorer
        if scorer is not None:
            shards = states.shard.tolist()
            if shards and not 0 <= min(shards) <= max(shards) < scorer.n_shards:
                raise EngineError("parent vector names an unknown shard")
            outputs = (
                None
                if scorer._spenders_divisor
                else states.output_count.tolist()
            )
            for row, (txid, vector, count, mass) in enumerate(
                zip(
                    txids,
                    states.vectors(),
                    states.spender_count.tolist(),
                    states.min_mass.tolist(),
                )
            ):
                if txid < horizon:
                    continue
                scorer._p_prime[txid] = vector
                scorer._spender_count[txid] = count
                scorer._min_mass[txid] = mass
                if outputs is not None:
                    scorer._output_count[txid] = outputs[row]
        remaining = self._engine._remaining
        for txid, mask in zip(txids, states.masks()):
            if mask and txid >= horizon:
                remaining[txid] = mask

    def collect(self, states: ParentStates, horizon: int) -> Writebacks:
        scorer = self._scorer
        remaining = self._engine._remaining
        old_counts = (
            states.spender_count.tolist()
            if scorer is not None
            else [0] * len(states)
        )
        changed = []
        for txid, mask, old_count in zip(
            states.txids.tolist(), states.masks(), old_counts
        ):
            # Behind the horizon only the assignment installed, and a
            # parent unknown or fully spent at its owner is unspendable
            # (spender counts only advance on accepted spends).
            if txid < horizon or not mask:
                continue
            new_mask = remaining.get(txid, 0)
            new_count = (
                scorer._spender_count[txid] if scorer is not None else 0
            )
            if new_mask != mask or new_count != old_count:
                changed.append((txid, new_count, new_mask))
        if not changed:
            return Writebacks()
        txids, counts, masks = zip(*changed)
        slots, spill = pack_masks(masks)
        return Writebacks(txids, counts, slots, spill=spill)

    def uninstall(self, states: ParentStates) -> None:
        placer = self._placer
        scorer = self._scorer
        remaining = self._engine._remaining
        for txid in states.txids.tolist():
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

    def apply(self, updates: Writebacks) -> None:
        scorer = self._scorer
        remaining = self._engine._remaining
        collect = self._engine._collect_spent
        for txid, count, mask in zip(
            updates.txids.tolist(),
            updates.spender_count.tolist(),
            updates.masks(),
        ):
            if scorer is not None:
                scorer._spender_count[txid] = count
            if mask:
                remaining[txid] = mask
            else:
                remaining.pop(txid, None)
                if collect:
                    scorer.release_vector(txid)


class _ArrayOps(_ListOps):
    """The same operations when every store is array-backed
    (:mod:`repro.core.backends.arrays`): one gather / scatter / reset
    per array, the frame's columns moving as they are."""

    @staticmethod
    def fits(engine: PlacementEngine) -> bool:
        scorer = engine._scorer
        stores = [engine.placer._assignment, engine._remaining]
        if scorer is not None:
            if not scorer._spenders_divisor:
                # outdeg_mode="outputs" keeps its output counts in a
                # plain list on every backend.
                return False
            stores += [scorer._p_prime, scorer._spender_count, scorer._min_mass]
        return all(hasattr(store, "gather") for store in stores)

    def __init__(self, engine: PlacementEngine) -> None:
        super().__init__(engine)
        import numpy

        self._np = numpy

    def read(self, txids) -> ParentStates:
        scorer = self._scorer
        slots, spill = self._engine._remaining.gather(txids)
        columns = [txids, self._placer._assignment.gather(txids), slots]
        if scorer is not None:
            nnz, shard, mass = scorer._p_prime.gather(txids)
            columns += [
                scorer._spender_count.gather(txids),
                scorer._min_mass.gather(txids),
                None,
                mass,
                nnz,
                shard,
            ]
        return ParentStates(*columns, spill=spill)

    def install(self, states: ParentStates, horizon: int) -> None:
        np = self._np
        txids = np.asarray(states.txids)
        self._placer._assignment.scatter(txids, states.assignment)
        inside = txids >= horizon
        scorer = self._scorer
        if scorer is not None:
            try:
                scorer._p_prime.scatter(
                    txids, states.nnz, states.shard, states.mass
                )
            except ValueError as exc:
                raise EngineError(f"parent {exc}")
            scorer._spender_count.scatter(txids, states.spender_count)
            scorer._min_mass.scatter(txids, states.min_mass)
            if not inside.all():
                self._reset_scorer(txids[~inside])
        slots = np.asarray(states.mask)
        keep = inside & (slots != 0)
        spill = states.spill
        if spill:
            wide = inside[slots == MASK_SPILL].tolist()
            spill = [mask for mask, kept in zip(spill, wide) if kept]
        self._engine._remaining.scatter(txids[keep], slots[keep], spill)

    def _reset_scorer(self, txids) -> None:
        scorer = self._scorer
        scorer._p_prime.reset(txids)
        scorer._spender_count.scatter(txids, 0)
        scorer._min_mass.scatter(txids, _INF)

    def collect(self, states: ParentStates, horizon: int) -> Writebacks:
        np = self._np
        scorer = self._scorer
        txids = np.asarray(states.txids)
        old = np.asarray(states.mask)
        new, new_spill = self._engine._remaining.gather(txids)
        changed = new != old
        if scorer is not None:
            counts = scorer._spender_count.gather(txids)
            changed |= counts != np.asarray(states.spender_count)
        else:
            counts = np.zeros(len(txids), dtype=np.int64)
        wide = np.flatnonzero(new == MASK_SPILL).tolist()
        if wide:
            # Two spilled slots compare equal; their exact masks decide.
            before = dict(
                zip(np.flatnonzero(old == MASK_SPILL).tolist(), states.spill)
            )
            for row, mask in zip(wide, new_spill):
                if before.get(row) != mask:
                    changed[row] = True
        changed &= (old != 0) & (txids >= horizon)
        return Writebacks(
            txids[changed],
            counts[changed],
            new[changed],
            spill=[mask for row, mask in zip(wide, new_spill) if changed[row]],
        )

    def uninstall(self, states: ParentStates) -> None:
        txids = states.txids
        self._placer._assignment.scatter(txids, 0)
        if self._scorer is not None:
            self._reset_scorer(txids)
        self._engine._remaining.reset(txids)

    def apply(self, updates: Writebacks) -> None:
        np = self._np
        scorer = self._scorer
        remaining = self._engine._remaining
        txids = np.asarray(updates.txids)
        slots = np.asarray(updates.mask)
        if scorer is not None:
            scorer._spender_count.scatter(txids, updates.spender_count)
        spent = slots == 0
        remaining.scatter(txids[~spent], slots[~spent], updates.spill)
        if spent.any():
            gone = txids[spent]
            remaining.reset(gone)
            if self._engine._collect_spent:
                scorer.release_vectors(gone.tolist())


def _extend_fill(store, count: int, fill) -> None:
    """Append ``count`` placeholder slots: array-backed stores grow
    once and slice-fill."""
    bulk = getattr(store, "extend_fill", None)
    if bulk is not None:
        bulk(count, fill)
    else:
        store.extend([fill] * count)


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
        self._ops = (_ArrayOps if _ArrayOps.fits(engine) else _ListOps)(engine)
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

    def parents_needed(
        self, batch: "Sequence[Transaction] | WireBatch"
    ) -> list[int]:
        """Foreign parent txids this batch reads, sorted.

        Parents created inside the batch itself are local by
        definition. Behind-horizon parents are still listed: their
        vector/mask/count are masked off at install time (the engine
        treats them as released), but their *assignment* feeds the
        fitness rule's input-shard term regardless of the horizon.
        Pure python over the ``parents`` column (no numpy).
        """
        if self.n_partitions == 1 or not batch:
            return []
        batch = as_wire_batch(batch, full_outputs=False)
        lease_length = self.lease_length
        n_partitions = self.n_partitions
        mine = self.partition_id
        cut = batch.first_txid
        if self.owns_txid(cut):
            # The batch's lease up to the batch is this partition's
            # own: only parents from earlier leases can be foreign, and
            # most parents are recent (this test discards them first).
            cut -= cut % lease_length
        return sorted(
            {
                parent
                for parent in batch.parents
                if parent < cut
                and (parent // lease_length) % n_partitions != mine
            }
        )

    def place_batch(
        self,
        batch: "Sequence[Transaction] | WireBatch",
        remote_parents: "ParentStates | None" = None,
    ) -> tuple[list[int], Writebacks]:
        """Place one owned batch; returns ``(shards, writebacks)``.

        ``remote_parents`` must cover exactly :meth:`parents_needed`
        (states fetched from the owners via :meth:`read_parents`;
        anything empty means none). The installs are transient: on
        success *and* on atomic reject the local arrays return to
        placeholder state, so a failed batch leaves both this partition
        and every owner byte-identical to before the call.

        A journaling partition records the batch's wire payloads
        verbatim (a ``Transaction`` list becomes a
        :class:`~repro.service.wire.WireBatch` first).
        """
        if not batch:
            return [], _NO_WRITEBACKS
        batch = as_wire_batch(batch)
        states = remote_parents or _NO_STATES
        if self.journal is not None:
            # Append *before* placing: the journal stays a superset of
            # externally visible state, and a deterministic reject
            # simply re-fails (as a no-op) on replay.
            self.journal.append_batch(batch.payloads, states)
        place = self._engine.place_wire_batch
        if self.n_partitions == 1:
            return place(batch), _NO_WRITEBACKS
        self.pad_to(batch.first_txid)
        if not states:
            return place(batch), _NO_WRITEBACKS
        installed = states.txids.tolist()
        if not 0 <= min(installed) <= max(installed) < self.n_placed or (
            states.nnz is None
        ) != (self._scorer is None):
            raise EngineError(
                f"partition {self.partition_id} cannot install these "
                "parent states (txids beyond its cursor, or another "
                "strategy's columns)"
            )
        engine = self._engine
        try:
            self._ops.install(states, engine.horizon_start)
            shards = place(batch, _exclude_release=frozenset(installed))
            # Read after the batch: a parent the batch pushed behind
            # the horizon is the owner's to sweep, not a writeback.
            return shards, self._ops.collect(states, engine.horizon_start)
        finally:
            # Unwound on success, on an atomic reject, and when the
            # engine poisoned itself (owners stay consistent; this
            # partition refuses further service either way).
            self._ops.uninstall(states)

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
        _extend_fill(placer._assignment, gap, 0)
        scorer = self._scorer
        if scorer is not None:
            dead = getattr(scorer._p_prime, "extend_dead", None)
            if dead is not None:
                dead(gap)
            else:
                scorer._p_prime.extend([None] * gap)
            _extend_fill(scorer._spender_count, gap, 0)
            _extend_fill(scorer._min_mass, gap, _INF)
            if not scorer._spenders_divisor:
                _extend_fill(scorer._output_count, gap, 1)
            # Count pads as released so live_vector_count stays exact.
            scorer._released += gap
        self._n_padded += gap

    # -- the owner (read/writeback) path -----------------------------------

    def _check_held(self, txids: list[int]) -> None:
        cursor = self._placer.n_placed
        lease_length = self.lease_length
        n_partitions = self.n_partitions
        mine = self.partition_id
        for txid in txids:
            if (
                not 0 <= txid < cursor
                or (txid // lease_length) % n_partitions != mine
            ):
                raise EngineError(
                    f"partition {self.partition_id} does not hold "
                    f"transaction {txid}"
                )

    def read_parents(self, txids: Sequence[int]) -> ParentStates:
        """State of owned parents (distinct txids), for installation by
        the active partition."""
        txids = column("q", txids)
        self._check_held(txids.tolist())
        return self._ops.read(txids)

    def apply_writebacks(self, updates: "Writebacks | Sequence") -> None:
        """Absorb the active partition's mutations to owned parents
        (anything empty means none).

        A mask of 0 means the parent is now fully spent: its unspent
        bookkeeping is dropped and (under the truncation policy) its
        vector released immediately - release timing is unobservable
        for exactness, since a fully-spent vector can never be read
        again on a valid stream.
        """
        if not updates:
            return
        if self.journal is not None:
            self.journal.append_apply(updates)
        self._check_held(updates.txids.tolist())
        self._ops.apply(updates)

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
