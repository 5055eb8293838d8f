"""Per-partition write-ahead batch journal for crash-safe serving.

A sharded worker is a deterministic function of its last checkpoint and
the sequence of mutations applied since: owned batches placed under the
write lease, hot-state imports at lease handoff, and writebacks
absorbed while idle. The journal records exactly that sequence, so a
SIGKILLed worker respawns from its per-partition checkpoint, replays
the tail, and is **bit-identical** to the state it died with - the same
contract snapshots pin, extended to non-idle crashes.

Design points:

- **Raw frames, not decoded state.** Batch records store the raw
  binary place payloads (post-routing segments, exactly the coalesced
  groups the dispatcher placed) plus the acquired foreign-parent
  states, as the bytes the ``W_ACQUIRE`` reply carried. Replay re-runs
  ``place_batch`` with the recorded states, so it needs no live peers
  and reproduces the identical arithmetic - including epoch/horizon
  sweeps, which fire on batch boundaries and therefore require the
  original batch *grouping*, not just the txids.
- **Append before apply.** A record is on disk (buffered write + flush;
  a process crash loses nothing the OS accepted) before the mutation
  executes, so the journal is always a superset of externally visible
  state. ``fsync`` is batched (every ``sync_every_bytes``) - a torn
  tail after a *host* crash is detected by CRC and discarded, which is
  safe for the same reason: a record that never fsynced belongs to a
  batch whose response cannot have been sent.
- **Checkpoint binding.** The header names the snapshot nonce and
  cursor the tail applies on top of. The journal is reset (truncated,
  re-headed with the new nonce) immediately after every checkpoint,
  under the engine lock; a nonce mismatch at recovery means the WAL
  predates (or outlived) the snapshot next to it and is discarded -
  the snapshot alone is then the complete state.
- **Lost-writeback healing.** A lease holder defers its writebacks
  onto its next ``W_ACQUIRE`` or ``W_RELEASE`` (:mod:`repro.service.
  worker`), so it can die after replying to any number of runs whose
  writebacks never left the process. Replay returns the merged
  writebacks of **every** successful batch since the last grant record
  - all the batches of the lease the holder died in; the coordinator
  re-applies them to the owners (absolute values - re-application is
  exact, and nothing placed after them) before the partition rejoins
  service. Writebacks of earlier leases rode the ``W_RELEASE`` that
  ended them and were applied before the next grant.

On-disk layout::

    8 bytes   magic b"OCWAL" + version u8 + flags u8 (reserved)
    4 bytes   header length u32   (little-endian)
    4 bytes   header CRC32 u32
    N bytes   header JSON {partition_id, n_partitions, lease_length,
                           base_cursor, base_nonce}
    records   type u8 + payload length u32 + payload CRC32 u32 + payload

Record types: ``BATCH`` (segment count u32, length-prefixed raw place
payloads, then a length-prefixed
:class:`~repro.service.partition.ParentStates` buffer - zero or more
typed-array frames back to back, empty when the batch read no foreign
parent), ``GRANT`` (hot-state JSON), ``APPLY`` (one
:class:`~repro.service.partition.Writebacks` frame). The frame layout -
16-byte header, i64/f64/i32 columns, vector entries in the owner's
iteration order, masks wider than 62 bits spilled behind the columns -
is documented in :mod:`repro.service.partition`; the journal stores the
bytes it is handed and replay decodes them with the same reader the
live path uses. Version 2 introduced the frames (version 1 stored JSON
there); a version-1 file is refused, not discarded.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from repro.errors import EngineError
from repro.service.partition import (
    EnginePartition,
    ParentStates,
    Writebacks,
)
from repro.service.wire import concat_wire_batches, decode_place_arrays

JOURNAL_MAGIC = b"OCWAL\x00"
JOURNAL_VERSION = 2

_HEADER_PREFIX = struct.Struct("<6sBB")  # magic, version, flags
_HEADER_LEN = struct.Struct("<II")  # header length, header crc32
_RECORD = struct.Struct("<BII")  # type, payload length, payload crc32

REC_BATCH = 1
REC_GRANT = 2
REC_APPLY = 3

_U32 = struct.Struct("<I")


def journal_path_for(checkpoint_path: str) -> str:
    """Journal sibling of one per-partition checkpoint file."""
    return checkpoint_path + ".wal"


def _crc(data: bytes) -> int:
    return zlib.crc32(data) & 0xFFFFFFFF


def _encode_batch_payload(segments: Sequence[bytes], states: bytes) -> bytes:
    parts = [_U32.pack(len(segments))]
    for segment in (*segments, states):
        parts += (_U32.pack(len(segment)), segment)
    return b"".join(parts)


def _decode_batch_payload(payload: bytes) -> tuple[list[bytes], bytes]:
    (n_segments,) = _U32.unpack_from(payload, 0)
    offset = 4
    sections = []
    for _ in range(n_segments + 1):
        (length,) = _U32.unpack_from(payload, offset)
        offset += 4
        sections.append(payload[offset : offset + length])
        offset += length
    return sections[:-1], sections[-1]


class BatchJournal:
    """Append side of one partition's WAL.

    Not thread-safe on its own; the worker serializes all mutations
    (and therefore all appends) under its engine lock.
    """

    def __init__(
        self,
        path: str,
        partition_id: int,
        n_partitions: int,
        lease_length: int,
        sync_every_bytes: int = 1 << 20,
    ) -> None:
        self.path = path
        self.partition_id = partition_id
        self.n_partitions = n_partitions
        self.lease_length = lease_length
        self.sync_every_bytes = max(0, sync_every_bytes)
        self.base_cursor = 0
        self.base_nonce = ""
        #: Fault-injection hook: called after every BATCH append (the
        #: "frame count" chaos plans kill on). None in production.
        self.on_batch_append: "Callable[[BatchJournal], None] | None" = None
        self._fh: "Any | None" = None
        self._unsynced = 0
        # Lifetime observability counters (survive reset(): they count
        # work done, not bytes currently on disk). Exported through
        # W_STATS into the metrics endpoint.
        self.bytes_appended = 0
        self.records_appended = 0
        self.fsyncs = 0
        self.resets = 0

    # -- lifecycle ---------------------------------------------------------

    def open(self, base_cursor: int, base_nonce: str) -> None:
        """Continue an existing journal (after replay) or start fresh.

        If the file exists its tail is assumed already validated (and
        torn records truncated) by :func:`replay_journal`; appends
        continue under the existing header. Otherwise the journal is
        reset to an empty tail bound to ``(base_cursor, base_nonce)``.
        """
        if os.path.exists(self.path):
            self.base_cursor = base_cursor
            self.base_nonce = base_nonce
            self._fh = open(self.path, "ab")
            self._unsynced = 0
        else:
            self.reset(base_cursor, base_nonce)

    def reset(self, base_cursor: int, base_nonce: str) -> None:
        """Truncate to an empty tail bound to a new checkpoint base.

        Called immediately after every checkpoint (checkpoint first,
        reset second): a crash between the two leaves a new snapshot
        next to an old-nonce WAL, which recovery discards - correct,
        because the snapshot already contains everything the old tail
        recorded. The header goes through a tmp file + atomic rename
        so a crash mid-reset never leaves a half-written header.
        """
        self.close()
        self.base_cursor = base_cursor
        self.base_nonce = base_nonce or ""
        header = json.dumps(
            {
                "partition_id": self.partition_id,
                "n_partitions": self.n_partitions,
                "lease_length": self.lease_length,
                "base_cursor": self.base_cursor,
                "base_nonce": self.base_nonce,
            },
            separators=(",", ":"),
        ).encode("utf-8")
        tmp = self.path + ".tmp"
        with open(tmp, "wb") as fh:
            fh.write(
                _HEADER_PREFIX.pack(JOURNAL_MAGIC, JOURNAL_VERSION, 0)
            )
            fh.write(_HEADER_LEN.pack(len(header), _crc(header)))
            fh.write(header)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, self.path)
        self._fh = open(self.path, "ab")
        self._unsynced = 0
        self.fsyncs += 1  # the header fsync above
        self.resets += 1

    def close(self) -> None:
        if self._fh is not None:
            try:
                self.sync()
            finally:
                self._fh.close()
                self._fh = None

    def tell(self) -> int:
        """Current end-of-journal offset (tests / fault injection)."""
        if self._fh is None:
            return 0
        self._fh.flush()
        return self._fh.tell()

    # -- appends -----------------------------------------------------------

    def _append(self, rtype: int, payload: bytes) -> None:
        fh = self._fh
        if fh is None:
            raise RuntimeError("journal is not open")
        fh.write(_RECORD.pack(rtype, len(payload), _crc(payload)))
        fh.write(payload)
        # Flush to the OS on every record: a *process* crash (SIGKILL)
        # then loses nothing. fsync - host-crash durability - is
        # batched; CRC framing makes the undersynced tail detectable.
        fh.flush()
        size = _RECORD.size + len(payload)
        self._unsynced += size
        self.bytes_appended += size
        self.records_appended += 1
        if self.sync_every_bytes and self._unsynced >= self.sync_every_bytes:
            self.sync()

    def sync(self) -> None:
        if self._fh is not None and self._unsynced:
            os.fsync(self._fh.fileno())
            self._unsynced = 0
            self.fsyncs += 1

    def stats(self) -> dict[str, int]:
        """Lifetime WAL counters (metrics endpoint / W_STATS)."""
        return {
            "bytes_appended": self.bytes_appended,
            "records_appended": self.records_appended,
            "fsyncs": self.fsyncs,
            "resets": self.resets,
        }

    def append_batch(
        self, segments: Sequence[bytes], states: "ParentStates | None"
    ) -> None:
        """``states`` are stored as the bytes they arrived in (anything
        empty: no bytes)."""
        self._append(
            REC_BATCH,
            _encode_batch_payload(
                segments, states.to_bytes() if states else b""
            ),
        )
        if self.on_batch_append is not None:
            self.on_batch_append(self)

    def append_grant(self, hot: dict[str, Any]) -> None:
        self._append(
            REC_GRANT,
            json.dumps(hot, separators=(",", ":")).encode("utf-8"),
        )

    def append_apply(self, updates: Writebacks) -> None:
        self._append(REC_APPLY, updates.to_bytes())


@dataclass
class ReplayResult:
    """Outcome of one recovery replay."""

    #: Merged writebacks of every successful batch since the last grant
    #: record - the batches whose writebacks may still have been
    #: pending in the crashed process. Re-applied by the coordinator
    #: before the partition rejoins service (absolute values; exact
    #: either way).
    writebacks: Writebacks = field(default_factory=Writebacks)
    n_batches: int = 0
    n_grants: int = 0
    n_applies: int = 0
    #: Torn-tail bytes truncated off the file (CRC/short-read).
    torn_bytes: int = 0
    #: True when a journal file existed and its tail was applied.
    replayed: bool = False
    #: True when a journal existed but was bound to a different
    #: checkpoint (nonce/cursor/geometry) and had to be discarded.
    stale: bool = False


def _read_header(
    raw: bytes,
) -> "tuple[dict[str, Any], int] | None":
    """``(header, records_offset)``; None when torn/not a journal.

    A journal of another format version is refused, loudly: treating it
    as "not a journal" would silently drop acknowledged batches.
    """
    prefix_len = _HEADER_PREFIX.size + _HEADER_LEN.size
    if len(raw) < prefix_len:
        return None
    magic, version, _flags = _HEADER_PREFIX.unpack_from(raw, 0)
    if magic != JOURNAL_MAGIC:
        return None
    if version != JOURNAL_VERSION:
        raise EngineError(
            f"journal written by format v{version} (this build reads "
            f"v{JOURNAL_VERSION}); checkpoint with the previous build "
            "before upgrading"
        )
    header_len, header_crc = _HEADER_LEN.unpack_from(
        raw, _HEADER_PREFIX.size
    )
    end = prefix_len + header_len
    if end > len(raw):
        return None
    header_bytes = raw[prefix_len:end]
    if _crc(header_bytes) != header_crc:
        return None
    try:
        return json.loads(header_bytes.decode("utf-8")), end
    except (UnicodeDecodeError, json.JSONDecodeError):
        return None


def iter_records(raw: bytes, offset: int):
    """Yield ``(rtype, payload)`` until the end or a torn record.

    Returns (via StopIteration value semantics avoided - the caller
    checks the final offset) only intact, CRC-valid records; the first
    short or corrupt record ends iteration.
    """
    records = []
    while offset < len(raw):
        if offset + _RECORD.size > len(raw):
            break
        rtype, length, crc = _RECORD.unpack_from(raw, offset)
        start = offset + _RECORD.size
        end = start + length
        if end > len(raw):
            break
        payload = raw[start:end]
        if _crc(payload) != crc:
            break
        records.append((rtype, payload))
        offset = end
    return records, offset


def replay_journal(
    path: str, partition: EnginePartition
) -> ReplayResult:
    """Replay a WAL tail onto a freshly restored partition.

    ``partition`` must be exactly the checkpoint-restored (or fresh)
    state: the journal header's ``(base_cursor, base_nonce)`` must
    match the partition's cursor and its engine's
    ``last_snapshot_nonce``, or the tail is discarded as stale. A torn
    tail is truncated off the file so subsequent appends are clean.
    """
    result = ReplayResult()
    try:
        raw = open(path, "rb").read()
    except OSError:
        return result
    parsed = _read_header(raw)
    if parsed is None:
        # Not a (complete) journal header: nothing trustworthy here.
        result.stale = bool(raw)
        try:
            os.unlink(path)
        except OSError:
            pass
        return result
    header, offset = parsed
    base_nonce = partition.engine.last_snapshot_nonce or ""
    if (
        header.get("partition_id") != partition.partition_id
        or header.get("n_partitions") != partition.n_partitions
        or header.get("lease_length") != partition.lease_length
        or header.get("base_cursor") != partition.n_placed
        or (header.get("base_nonce") or "") != base_nonce
    ):
        result.stale = True
        try:
            os.unlink(path)
        except OSError:
            pass
        return result
    records, end = iter_records(raw, offset)
    if end < len(raw):
        result.torn_bytes = len(raw) - end
        with open(path, "r+b") as fh:
            fh.truncate(end)
            fh.flush()
            os.fsync(fh.fileno())
    lease_writebacks: list[Writebacks] = []
    for rtype, payload in records:
        if rtype == REC_BATCH:
            segments, states = _decode_batch_payload(payload)
            batch = concat_wire_batches(
                [decode_place_arrays(segment) for segment in segments]
            )
            try:
                _shards, writebacks = partition.place_batch(
                    batch, ParentStates.from_bytes(states)
                )
            except EngineError:
                # The original attempt failed identically (the reject
                # is atomic); the record is a no-op.
                continue
            lease_writebacks.append(writebacks)
            result.n_batches += 1
        elif rtype == REC_GRANT:
            partition.import_hot_state(
                json.loads(payload.decode("utf-8"))
            )
            result.n_grants += 1
            # The previous lease's writebacks rode its W_RELEASE.
            lease_writebacks = []
        elif rtype == REC_APPLY:
            # Another holder's writebacks: they never touch the parents
            # this partition's own batches wrote back (those are other
            # partitions'), so they leave the stash alone.
            partition.apply_writebacks(Writebacks.from_bytes(payload))
            result.n_applies += 1
        # Unknown record types are skipped (forward compatibility).
    result.writebacks = Writebacks.merge(lease_writebacks)
    result.replayed = True
    return result
