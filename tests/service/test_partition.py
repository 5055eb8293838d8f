"""EnginePartition: exactness across partitions, handoff, edge cases.

The harness below drives N partitions through the full ownership
protocol - lease handoffs, cross-partition parent reads, writebacks -
entirely in-process. The central claim it pins: the sharded engine is a
*refactoring* of the sequential decision process, so its placements are
bit-identical to the monolithic :class:`PlacementEngine` for **any**
partition count, not just one.
"""

from __future__ import annotations

import pytest

from repro.core.placement import make_placer
from repro.datasets.synthetic import synthetic_stream
from repro.errors import EngineError
from repro.service.engine import PlacementEngine
from repro.service.partition import (
    EnginePartition,
    ParentStates,
    Writebacks,
    owner_of,
)
from repro.utxo.transaction import OutPoint, Transaction, TxOutput

N_SHARDS = 4
LEASE = 500


class Harness:
    """Coordinator-in-miniature: routes batches, handoffs, reads, and
    writebacks between in-process partitions."""

    def __init__(
        self,
        n_partitions,
        lease_length=LEASE,
        strategy="optchain",
        epoch_length=400,
        horizon_epochs=None,
        **placer_kwargs,
    ):
        self.lease_length = lease_length
        self.n_partitions = n_partitions
        self.partitions = [
            EnginePartition(
                PlacementEngine(
                    make_placer(strategy, N_SHARDS, **placer_kwargs),
                    epoch_length=epoch_length,
                    horizon_epochs=horizon_epochs,
                ),
                partition_id=index,
                n_partitions=n_partitions,
                lease_length=lease_length,
            )
            for index in range(n_partitions)
        ]
        self.active = 0
        self.cursor = 0
        self.handoffs = 0
        self.remote_reads = 0
        self.writebacks = 0

    def _owner(self, txid):
        return owner_of(txid, self.lease_length, self.n_partitions)

    def place(self, batch):
        """Place one contiguous batch, splitting at lease boundaries."""
        shards = []
        start = 0
        while start < len(batch):
            first = batch[start].txid
            end_txid = (
                first // self.lease_length + 1
            ) * self.lease_length
            sub = batch[start : start + (end_txid - first)]
            shards.extend(self._place_sub(sub))
            start += len(sub)
        return shards

    def _place_sub(self, sub):
        owner = self._owner(sub[0].txid)
        if owner != self.active:
            hot = self.partitions[self.active].export_hot_state()
            self.partitions[owner].import_hot_state(hot)
            self.active = owner
            self.handoffs += 1
        partition = self.partitions[owner]
        needed = partition.parents_needed(sub)
        by_owner = {}
        for parent in needed:
            by_owner.setdefault(self._owner(parent), []).append(parent)
        # Everything crosses as bytes, the way the coordinator relays
        # it: the owners' reply frames joined unparsed, the writebacks
        # one frame split by owner.
        sections = []
        for parent_owner, txids in sorted(by_owner.items()):
            assert parent_owner != owner
            sections.append(
                self.partitions[parent_owner].read_parents(txids).to_bytes()
            )
            self.remote_reads += len(txids)
        states = ParentStates.from_bytes(b"".join(sections))
        assert sorted(states.txids.tolist()) == needed
        shards, writebacks = partition.place_batch(sub, states)
        writebacks = Writebacks.from_bytes(writebacks.to_bytes())
        for parent_owner, owned in writebacks.by_owner(
            self.lease_length, self.n_partitions
        ).items():
            self.partitions[parent_owner].apply_writebacks(
                Writebacks.from_bytes(owned.to_bytes())
            )
            self.writebacks += len(owned)
        self.cursor = sub[-1].txid + 1
        return shards

    def place_chunked(self, stream, chunk=173):
        shards = []
        for offset in range(0, len(stream), chunk):
            shards.extend(self.place(stream[offset : offset + chunk]))
        return shards


def reference_placements(stream, strategy="optchain", epoch_length=400,
                         horizon_epochs=None, **kwargs):
    engine = PlacementEngine(
        make_placer(strategy, N_SHARDS, **kwargs),
        epoch_length=epoch_length,
        horizon_epochs=horizon_epochs,
    )
    shards = []
    for offset in range(0, len(stream), 173):
        shards.extend(engine.place_batch(stream[offset : offset + 173]))
    return engine, shards


@pytest.fixture(scope="module")
def stream():
    return synthetic_stream(3_000, seed=77)


class TestExactness:
    def test_single_partition_is_the_plain_engine(self, stream):
        reference, expected = reference_placements(stream)
        harness = Harness(1)
        assert harness.place_chunked(stream) == expected
        assert harness.handoffs == 0
        assert harness.remote_reads == 0
        part = harness.partitions[0]
        assert (
            part.engine.placer.assignment()
            == reference.placer.assignment()
        )

    @pytest.mark.parametrize("n_partitions", [2, 3])
    def test_multi_partition_bit_identical(self, stream, n_partitions):
        _, expected = reference_placements(stream)
        harness = Harness(n_partitions)
        assert harness.place_chunked(stream) == expected
        # The protocol actually exercised what it claims to: leases
        # rotated and foreign parents were fetched and written back.
        assert harness.handoffs >= n_partitions
        assert harness.remote_reads > 0
        assert harness.writebacks > 0

    @pytest.mark.parametrize(
        "strategy,kwargs",
        [
            ("optchain-topk", {"support_cap": 2}),
            # outputs mode reads the parent's created-output count in
            # the T2S divisor - it must travel with remote parents.
            ("optchain", {"outdeg_mode": "outputs"}),
            ("t2s", {}),
            ("greedy", {}),
            ("omniledger", {}),
        ],
    )
    def test_other_strategies_bit_identical(self, stream, strategy, kwargs):
        _, expected = reference_placements(stream, strategy, **kwargs)
        harness = Harness(2, strategy=strategy, **kwargs)
        assert harness.place_chunked(stream) == expected

    def test_horizon_mode_bit_identical_and_swept(self, stream):
        # Horizon truncation is batch-boundary sensitive *in the
        # monolithic engine already* (the sweep runs at batch end), and
        # the sharded service splits client batches at lease
        # boundaries; the equivalence claim is therefore against the
        # monolith fed the identical sub-batches.
        lease = 400
        engine = PlacementEngine(
            make_placer("optchain", N_SHARDS),
            epoch_length=300,
            horizon_epochs=2,
        )
        expected = []
        for offset in range(0, len(stream), 173):
            chunk = stream[offset : offset + 173]
            start = 0
            while start < len(chunk):
                first = chunk[start].txid
                end_txid = (first // lease + 1) * lease
                sub = chunk[start : start + (end_txid - first)]
                expected.extend(engine.place_batch(sub))
                start += len(sub)
        harness = Harness(
            3, epoch_length=300, horizon_epochs=2, lease_length=lease
        )
        assert harness.place_chunked(stream) == expected
        # Each partition's own slices are swept at least up to the
        # horizon it last imported; the active one is fully current.
        for partition in harness.partitions:
            swept = max(
                partition._horizon_swept,
                partition.engine.horizon_start
                if partition is harness.partitions[harness.active]
                else 0,
            )
            remaining = partition.engine._remaining
            assert all(txid >= swept for txid in remaining)
        active = harness.partitions[harness.active]
        assert active.engine.horizon_start == engine.horizon_start

    def test_stats_sum_across_partitions(self, stream):
        reference, _ = reference_placements(stream)
        harness = Harness(2)
        harness.place_chunked(stream)
        merged_live = sum(
            p.stats()["live_vectors"] for p in harness.partitions
        )
        merged_released = sum(
            p.stats()["released_vectors"] for p in harness.partitions
        )
        expected = reference.stats()
        # Release *timing* differs slightly: an idle partition's
        # pending fully-spent releases wait for its next active epoch
        # boundary, so the merged live count may transiently exceed the
        # monolith's by at most the unswept pending backlog. Totals
        # must still conserve exactly.
        pending_backlog = sum(
            len(p.engine._pending_release) for p in harness.partitions
        )
        assert (
            expected.live_vectors
            <= merged_live
            <= expected.live_vectors + pending_backlog
        )
        assert merged_live + merged_released == (
            expected.live_vectors + expected.released_vectors
        )
        # Mask bookkeeping is location-exact (writebacks are applied
        # immediately), so the unspent-frontier size matches exactly.
        merged_tracked = sum(
            p.stats()["tracked_unspent"] for p in harness.partitions
        )
        assert merged_tracked == expected.tracked_unspent


class TestPendingRelease:
    @pytest.mark.parametrize("strategy", ["optchain", "optchain:backend=python"])
    @pytest.mark.parametrize("n_partitions", [2, 3])
    def test_tail_filter_equals_full_scan(
        self, stream, monkeypatch, n_partitions, strategy
    ):
        """A batch filters its installed parents out of the releases it
        appended, not the whole pending list. That equals the full scan
        exactly when nothing pending *before* the batch names a parent
        it installs - pinned at every call, with the list left holding
        no installed txid afterwards."""
        commit = PlacementEngine._commit
        calls = {"installs": 0, "filtered": 0}

        def checked(engine, mark, exclude, place, batch=None):
            # ``mark``: where this batch's releases start in the list.
            if exclude:
                calls["installs"] += 1
                assert exclude.isdisjoint(engine._pending_release[:mark])
            shards = commit(engine, mark, exclude, place, batch)
            if exclude:
                assert exclude.isdisjoint(engine._pending_release)
            return shards

        place_batch = EnginePartition.place_batch

        def counted(partition, batch, states=None, **kwargs):
            shards, writebacks = place_batch(partition, batch, states, **kwargs)
            # Mask 0: the batch spent an installed parent's last output,
            # so it was released and had to be filtered.
            calls["filtered"] += writebacks.masks().count(0)
            return shards, writebacks

        monkeypatch.setattr(PlacementEngine, "_commit", checked)
        monkeypatch.setattr(EnginePartition, "place_batch", counted)
        _, expected = reference_placements(stream, strategy)
        harness = Harness(n_partitions, strategy=strategy)
        assert harness.place_chunked(stream) == expected
        assert calls["installs"] > 0 and calls["filtered"] > 0


class TestCrossPartitionEdges:
    def test_remote_parent_lookup_owned_by_other_partition(self, stream):
        harness = Harness(2)
        harness.place(stream[: 2 * LEASE])
        # Partition 0 owns lease 0; partition 1 must be able to read
        # parents from it, and refuses txids it does not own.
        states = harness.partitions[0].read_parents([10, 11])
        assert states.txids.tolist() == [10, 11]
        with pytest.raises(EngineError, match="does not hold"):
            harness.partitions[0].read_parents([LEASE])  # lease 1
        with pytest.raises(EngineError, match="does not hold"):
            harness.partitions[1].read_parents([10 * LEASE])  # unplaced

    def test_fully_spent_remote_input_rejected(self, stream):
        harness = Harness(2)
        harness.place(stream[: 2 * LEASE])
        cursor = 2 * LEASE
        # Find an outpoint of a lease-0 transaction already spent by a
        # lease-1 transaction (a remote double spend for partition 0,
        # owner of lease 2).
        # A spent outpoint whose parent still has other unspent
        # outputs (the mask survives with the bit cleared), so the
        # error names the exact output.
        remaining0 = harness.partitions[0].engine._remaining
        spent = None
        for tx in stream[LEASE : 2 * LEASE]:
            for outpoint in tx.inputs:
                if outpoint.txid < LEASE and outpoint.txid in remaining0:
                    spent = outpoint
                    break
            if spent:
                break
        assert spent is not None
        double = Transaction(
            txid=cursor, inputs=(spent,), outputs=(TxOutput(1),)
        )
        with pytest.raises(
            EngineError, match="does not exist or is already spent"
        ):
            harness.place([double])
        # A spend of a *released* (fully spent) parent reports as
        # unknown-or-fully-spent when the mask is gone entirely: pick a
        # parent with no remaining mask at its owner.
        gone = None
        for txid in range(LEASE):
            if txid not in harness.partitions[0].engine._remaining:
                gone = txid
                break
        assert gone is not None
        unknown = Transaction(
            txid=cursor,
            inputs=(OutPoint(gone, 0),),
            outputs=(TxOutput(1),),
        )
        with pytest.raises(EngineError, match="unknown or fully-spent"):
            harness.place([unknown])
        # The stream continues unharmed.
        assert harness.place(stream[cursor : cursor + 50])

    def test_atomic_reject_spanning_partitions(self, stream):
        _, expected = reference_placements(stream)
        harness = Harness(2)
        harness.place(stream[: 2 * LEASE])
        cursor = 2 * LEASE
        # A batch whose tail double-spends across the partition split:
        # the whole batch must be rejected, every installed remote
        # parent rolled back, and the replayed valid batch must then
        # produce exactly the reference placements.
        spent = next(
            outpoint
            for tx in stream[LEASE : 2 * LEASE]
            for outpoint in tx.inputs
            if outpoint.txid < LEASE
        )
        good = list(stream[cursor : cursor + 40])
        bad = good[:39] + [
            Transaction(
                txid=cursor + 39,
                inputs=(spent,),
                outputs=(TxOutput(1),),
            )
        ]
        before = {
            index: dict(p.engine._remaining)
            for index, p in enumerate(harness.partitions)
        }
        with pytest.raises(EngineError):
            harness.place(bad)
        after = {
            index: dict(p.engine._remaining)
            for index, p in enumerate(harness.partitions)
        }
        assert before == after
        # Replay the honest stream to the end: still bit-identical.
        tail = harness.place_chunked(stream[cursor:])
        assert tail == expected[cursor:]

    def test_writeback_refused_by_non_owner(self, stream):
        harness = Harness(2)
        harness.place(stream[:LEASE])
        with pytest.raises(EngineError, match="does not hold"):
            harness.partitions[1].apply_writebacks(Writebacks([5], [1], [0]))


class TestHandoffState:
    def test_hot_state_round_trip_is_lossless(self, stream):
        harness = Harness(2)
        harness.place(stream[:LEASE])
        active = harness.partitions[0]
        hot = active.export_hot_state()
        # Export is O(n_shards)-ish: no per-txid payloads inside.
        assert "assignment" not in str(hot.keys())
        assert len(hot["placer"]["shard_sizes"]) == N_SHARDS
        importer = harness.partitions[1]
        importer.import_hot_state(hot)
        assert importer.n_placed == LEASE
        re_exported = importer.export_hot_state()
        assert re_exported == hot

    def test_import_at_wrong_cursor_rejected(self, stream):
        harness = Harness(2)
        harness.place(stream[: 2 * LEASE])
        hot = harness.partitions[1].export_hot_state()
        hot["n_placed"] = LEASE  # partition 1 is already at 2*LEASE
        with pytest.raises(EngineError, match="cursor"):
            harness.partitions[1].import_hot_state(hot)


class TestPartitionCheckpoint:
    def test_checkpoint_restore_continue_bit_identical(
        self, stream, tmp_path
    ):
        _, expected = reference_placements(stream)
        harness = Harness(2)
        harness.place_chunked(stream[: 4 * LEASE])
        paths = [
            tmp_path / f"part{index}.snap" for index in range(2)
        ]
        for partition, path in zip(harness.partitions, paths):
            assert partition.checkpoint(path) > 0

        restored = Harness(2)
        restored.partitions = [
            EnginePartition.restore(
                path,
                partition_id=index,
                n_partitions=2,
                lease_length=LEASE,
            )
            for index, path in enumerate(paths)
        ]
        restored.active = harness.active
        # Pad accounting is recovered exactly at restore time (before
        # the continued stream grows it further).
        for original, copy in zip(harness.partitions, restored.partitions):
            assert copy._n_padded == original._n_padded
        tail = restored.place_chunked(stream[4 * LEASE :])
        assert tail == expected[4 * LEASE :]
