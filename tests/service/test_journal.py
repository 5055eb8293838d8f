"""The per-partition write-ahead batch journal, unit level.

The contract under test: a partition rebuilt from ``(checkpoint, WAL
tail)`` is bit-identical to the partition that wrote them, torn tails
are detected by CRC and truncated away, and a journal bound to a
different checkpoint (cursor or snapshot nonce) is discarded rather
than replayed onto the wrong base.
"""

from __future__ import annotations

import os
import struct

import pytest

from repro.core.placement import make_placer
from repro.datasets.synthetic import synthetic_stream
from repro.errors import EngineError
from repro.service.engine import PlacementEngine
from repro.service.journal import (
    JOURNAL_MAGIC,
    JOURNAL_VERSION,
    REC_APPLY,
    REC_BATCH,
    BatchJournal,
    iter_records,
    journal_path_for,
    replay_journal,
)
from repro.service.partition import EnginePartition, ParentStates, Writebacks

from test_partition import Harness

N_SHARDS = 4
LEASE = 600


def fresh_partition(n_partitions: int = 1) -> EnginePartition:
    engine = PlacementEngine(
        make_placer("optchain", N_SHARDS), epoch_length=500
    )
    return EnginePartition(
        engine,
        partition_id=0,
        n_partitions=n_partitions,
        lease_length=LEASE,
    )


def journaled_partition(tmp_path, name="p0"):
    partition = fresh_partition()
    journal = BatchJournal(
        str(tmp_path / f"{name}.wal"),
        partition_id=0,
        n_partitions=1,
        lease_length=LEASE,
    )
    journal.open(0, "")
    partition.journal = journal
    return partition, journal


@pytest.fixture(scope="module")
def stream():
    return synthetic_stream(1_200, seed=11)


class TestReplayRoundtrip:
    def test_replay_is_bit_identical(self, tmp_path, stream):
        writer, journal = journaled_partition(tmp_path)
        placed = []
        for offset in range(0, 900, 150):
            shards, _ = writer.place_batch(stream[offset : offset + 150])
            placed.extend(shards)
        journal.close()

        replayer = fresh_partition()
        result = replay_journal(journal.path, replayer)
        assert result.replayed
        assert result.n_batches == 6
        assert not result.stale
        assert result.torn_bytes == 0
        assert replayer.n_placed == 900
        assert replayer.assignment_slice(0, 900) == placed
        # The replayed partition keeps producing the writer's stream.
        continued, _ = replayer.place_batch(stream[900:1_050])
        reference = fresh_partition()
        for offset in range(0, 1_050, 150):
            reference_shards, _ = reference.place_batch(
                stream[offset : offset + 150]
            )
        assert continued == reference_shards

    def test_rejected_batch_replays_as_noop(self, tmp_path, stream):
        """Append-before-apply journals even batches the engine then
        rejects; on replay the same record must re-fail identically
        without corrupting state or aborting the rest of the tail."""
        writer, journal = journaled_partition(tmp_path)
        shards, _ = writer.place_batch(stream[:150])
        with pytest.raises(Exception, match="dense stream order"):
            writer.place_batch(stream[:150])  # journaled, then rejected
        more, _ = writer.place_batch(stream[150:300])
        journal.close()

        replayer = fresh_partition()
        result = replay_journal(journal.path, replayer)
        assert result.replayed and not result.stale
        assert result.n_batches == 2  # the rejected record is a no-op
        assert replayer.n_placed == 300
        assert replayer.assignment_slice(0, 300) == shards + more

    def test_cursor_mismatch_is_stale(self, tmp_path, stream):
        writer, journal = journaled_partition(tmp_path)
        writer.place_batch(stream[:150])
        journal.close()

        replayer = fresh_partition()
        replayer.place_batch(stream[:150])
        result = replay_journal(journal.path, replayer)
        assert result.stale  # base_cursor 0 != partition cursor 150
        assert replayer.n_placed == 150

    def test_duplicate_replay_of_same_journal(self, tmp_path, stream):
        """Replaying a journal twice (respawn crashing again before its
        first checkpoint) must not double-place anything."""
        writer, journal = journaled_partition(tmp_path)
        shards, _ = writer.place_batch(stream[:300])
        journal.close()

        replayer = fresh_partition()
        first = replay_journal(journal.path, replayer)
        assert first.n_batches == 1
        # Second crash-before-checkpoint: a fresh restore replays the
        # same tail onto the same base and lands in the same place.
        replayer_again = fresh_partition()
        second = replay_journal(journal.path, replayer_again)
        assert second.n_batches == 1
        assert replayer_again.assignment_slice(0, 300) == shards


class TestTornTail:
    def test_torn_tail_truncated_at_every_cut(self, tmp_path, stream):
        writer, journal = journaled_partition(tmp_path)
        writer.place_batch(stream[:150])
        intact_one_record = journal.tell()
        writer.place_batch(stream[150:300])
        journal.close()
        raw = open(journal.path, "rb").read()
        header_end = raw.index(b'"base_nonce"')  # inside the header
        expected = fresh_partition()
        expected_shards, _ = expected.place_batch(stream[:150])

        cuts = sorted(
            set(range(len(raw) - 1, header_end, -97))
            | {intact_one_record + 1, len(raw) - 1}
        )
        for cut in cuts:
            torn_path = str(tmp_path / "torn.wal")
            with open(torn_path, "wb") as fh:
                fh.write(raw[:cut])
            replayer = fresh_partition()
            result = replay_journal(torn_path, replayer)
            if cut < intact_one_record:
                # Even the first record is torn: nothing replays, but
                # the journal itself (header) may survive.
                assert replayer.n_placed == 0
            else:
                assert result.n_batches == 1
                assert result.torn_bytes == intact_one_record - min(
                    cut, intact_one_record
                ) + max(0, cut - intact_one_record)
                assert (
                    replayer.assignment_slice(0, 150) == expected_shards
                )
                # The torn bytes are gone from disk: a subsequent
                # append continues from a clean boundary.
                assert os.path.getsize(torn_path) == intact_one_record

    def test_other_format_version_is_refused_not_discarded(
        self, tmp_path, stream
    ):
        """A version-1 journal holds acknowledged batches this build
        cannot read; dropping it as "stale" would lose them silently."""
        writer, journal = journaled_partition(tmp_path)
        writer.place_batch(stream[:150])
        journal.close()
        raw = bytearray(open(journal.path, "rb").read())
        assert raw[:6] == JOURNAL_MAGIC and raw[6] == JOURNAL_VERSION == 2
        raw[6] = 1
        with open(journal.path, "wb") as fh:
            fh.write(raw)
        with pytest.raises(EngineError, match="format v1.*checkpoint with the previous build"):
            replay_journal(journal.path, fresh_partition())
        assert open(journal.path, "rb").read() == raw  # left in place

    def test_wrong_magic_and_short_file_discarded(self, tmp_path, stream):
        writer, journal = journaled_partition(tmp_path)
        writer.place_batch(stream[:150])
        journal.close()
        raw = open(journal.path, "rb").read()
        for damaged in (b"XCWAL\x00" + raw[6:], raw[:10]):
            with open(journal.path, "wb") as fh:
                fh.write(damaged)
            replayer = fresh_partition()
            result = replay_journal(journal.path, replayer)
            assert result.stale and not result.replayed
            assert replayer.n_placed == 0
            assert not os.path.exists(journal.path)

    def test_garbage_file_discarded(self, tmp_path):
        path = str(tmp_path / "garbage.wal")
        with open(path, "wb") as fh:
            fh.write(b"\x00" * 64)
        replayer = fresh_partition()
        result = replay_journal(path, replayer)
        assert result.stale
        assert not result.replayed
        assert not os.path.exists(path)


class TestCheckpointBinding:
    def test_stale_nonce_discarded(self, tmp_path, stream):
        writer, journal = journaled_partition(tmp_path)
        writer.place_batch(stream[:150])
        journal.close()

        # Take a checkpoint *after* the journaled batch; the journal
        # was not reset, so its base (cursor 0, nonce "") no longer
        # matches the snapshot it sits next to.
        snap = str(tmp_path / "p0.snap")
        writer.checkpoint(snap)
        restored = EnginePartition.restore(
            snap, n_partitions=1, lease_length=LEASE
        )
        result = replay_journal(journal.path, restored)
        assert result.stale
        assert restored.n_placed == 150
        assert not os.path.exists(journal.path)

    def test_reset_rebinds_to_new_checkpoint(self, tmp_path, stream):
        writer, journal = journaled_partition(tmp_path)
        writer.place_batch(stream[:150])
        snap = str(tmp_path / "p0.snap")
        writer.checkpoint(snap)
        journal.reset(
            writer.n_placed, writer.engine.last_snapshot_nonce or ""
        )
        shards, _ = writer.place_batch(stream[150:300])
        journal.close()

        restored = EnginePartition.restore(
            snap, n_partitions=1, lease_length=LEASE
        )
        result = replay_journal(journal.path, restored)
        assert result.replayed and not result.stale
        assert result.n_batches == 1
        assert restored.n_placed == 300
        assert restored.assignment_slice(150, 150) == shards

    def test_geometry_mismatch_discarded(self, tmp_path, stream):
        writer, journal = journaled_partition(tmp_path)
        writer.place_batch(stream[:150])
        journal.close()
        replayer = fresh_partition(n_partitions=2)
        result = replay_journal(journal.path, replayer)
        assert result.stale
        assert replayer.n_placed == 0

    def test_journal_path_for(self):
        assert journal_path_for("base.snap.p3") == "base.snap.p3.wal"


class TestParentStateRecords:
    """Batch records carry the acquired parent states, apply records
    the absorbed writebacks - both as the frames that crossed the link,
    byte for byte."""

    def run_journaled(self, tmp_path, stream, n_txs):
        harness = Harness(2, lease_length=300)
        for index, partition in enumerate(harness.partitions):
            journal = BatchJournal(str(tmp_path / f"p{index}.wal"), index, 2, 300)
            journal.open(0, "")
            partition.journal = journal
        harness.place_chunked(stream[:n_txs])
        for partition in harness.partitions:
            partition.journal.close()
        return harness

    def test_replay_with_states_and_applies_is_bit_identical(
        self, tmp_path, stream
    ):
        harness = self.run_journaled(tmp_path, stream, 1_000)
        assert harness.writebacks > 0
        for index, original in enumerate(harness.partitions):
            engine = PlacementEngine(
                make_placer("optchain", 4), epoch_length=400
            )
            replayer = EnginePartition(engine, index, 2, 300)
            result = replay_journal(original.journal.path, replayer)
            assert result.replayed and not result.torn_bytes
            assert result.n_batches and result.n_grants and result.n_applies
            assert replayer.n_placed == original.n_placed
            for mine, theirs in (
                (replayer._placer._assignment, original._placer._assignment),
                (replayer._scorer._p_prime, original._scorer._p_prime),
                (replayer._scorer._spender_count, original._scorer._spender_count),
                (replayer._scorer._min_mass, original._scorer._min_mass),
                (replayer.engine._remaining, original.engine._remaining),
            ):
                assert mine == theirs
            assert replayer.stats() == original.stats()

    def test_records_hold_the_frames_verbatim(self, tmp_path, stream):
        harness = self.run_journaled(tmp_path, stream, 1_000)
        raw = open(harness.partitions[1].journal.path, "rb").read()
        header_len = struct.unpack_from("<I", raw, 8)[0]
        records, end = iter_records(raw, 16 + header_len)
        assert end == len(raw)
        batches = [payload for rtype, payload in records if rtype == REC_BATCH]
        applies = [payload for rtype, payload in records if rtype == REC_APPLY]
        assert applies and all(Writebacks.from_bytes(p) for p in applies)
        # Partition 1's first lease reads parents partition 0 owns: the
        # record ends with a length-prefixed ParentStates buffer.
        payload = batches[0]
        (n_segments,) = struct.unpack_from("<I", payload)
        offset = 4
        for _ in range(n_segments):
            offset += 4 + struct.unpack_from("<I", payload, offset)[0]
        (length,) = struct.unpack_from("<I", payload, offset)
        assert offset + 4 + length == len(payload)
        states = ParentStates.from_bytes(payload[offset + 4 :])
        assert len(states) and all(t < 300 for t in states.txids.tolist())
        assert b'"vector"' not in raw and b'"txid"' not in raw  # no JSON

    def test_torn_tail_with_states_truncates_to_a_record(
        self, tmp_path, stream
    ):
        harness = self.run_journaled(tmp_path, stream, 700)
        path = harness.partitions[1].journal.path
        raw = open(path, "rb").read()
        header_len = struct.unpack_from("<I", raw, 8)[0]
        records, _ = iter_records(raw, 16 + header_len)
        boundaries = [16 + header_len]
        for _rtype, payload in records:
            boundaries.append(boundaries[-1] + 9 + len(payload))
        cuts = set(range(boundaries[0] + 1, len(raw), 211))
        cuts |= {b + d for b in boundaries[1:-1] for d in (-1, 1)}
        for cut in sorted(cuts):
            torn = str(tmp_path / "torn.wal")
            with open(torn, "wb") as fh:
                fh.write(raw[:cut])
            replayer = EnginePartition(
                PlacementEngine(make_placer("optchain", 4), epoch_length=400),
                1, 2, 300,
            )  # fmt: skip
            result = replay_journal(torn, replayer)
            kept = max(b for b in boundaries if b <= cut)
            assert os.path.getsize(torn) == kept
            assert result.torn_bytes == cut - kept
            assert (
                result.n_batches + result.n_grants + result.n_applies
                == boundaries.index(kept)
            )

    def test_final_batch_writebacks_are_returned(self, tmp_path, stream):
        """The last record is a batch: its writebacks may never have
        reached their owners, so replay hands them back (as a frame)."""
        harness = Harness(2, lease_length=300)
        harness.place_chunked(stream[:450])
        active = harness.partitions[1]
        journal = BatchJournal(str(tmp_path / "p1.wal"), 1, 2, 300)
        snap = str(tmp_path / "p1.snap")
        active.checkpoint(snap)
        journal.open(active.n_placed, active.engine.last_snapshot_nonce or "")
        active.journal = journal
        batch = stream[450:600]
        states = harness.partitions[0].read_parents(active.parents_needed(batch))
        _, lost = active.place_batch(batch, states)
        journal.close()
        assert len(lost)

        restored = EnginePartition.restore(
            snap, partition_id=1, n_partitions=2, lease_length=300
        )
        result = replay_journal(journal.path, restored)
        assert result.n_batches == 1
        assert result.writebacks == lost
        assert Writebacks.from_bytes(result.writebacks.to_bytes()) == lost

    def test_every_batch_since_the_grant_is_returned(self, tmp_path, stream):
        """A holder defers writebacks onto its next message, so it can
        die with several replied batches undelivered: replay hands back
        the merge of every batch since the last grant - not the batches
        of the lease before it, which rode that lease's release."""
        harness = Harness(2, lease_length=300)
        harness.place_chunked(stream[:300])  # lease 0, partition 0
        owner = harness.partitions[0]
        holder = harness.partitions[1]
        journal = BatchJournal(str(tmp_path / "p1.wal"), 1, 2, 300)
        journal.open(holder.n_placed, holder.engine.last_snapshot_nonce or "")
        holder.journal = journal
        holder.import_hot_state(owner.export_hot_state())
        lost = []
        for first in (300, 380, 460):
            batch = stream[first : first + 80]
            states = owner.read_parents(holder.parents_needed(batch))
            _, writebacks = holder.place_batch(batch, states)
            owner.apply_writebacks(writebacks)
            lost.append(writebacks)
        # An apply from another holder in between leaves the stash alone.
        journal.append_apply(Writebacks())
        journal.close()
        assert all(len(frame) for frame in lost)

        replayer = EnginePartition(
            PlacementEngine(make_placer("optchain", 4), epoch_length=400),
            1, 2, 300,
        )  # fmt: skip
        result = replay_journal(journal.path, replayer)
        assert (result.n_grants, result.n_batches) == (1, 3)
        assert result.writebacks == Writebacks.merge(lost)
        assert len(result.writebacks) > max(len(frame) for frame in lost)
