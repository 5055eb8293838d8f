"""The typed-array frames cross-partition parent state travels in.

``ParentStates`` and ``Writebacks`` are the only representation of a
foreign parent between partitions, through the coordinator and in the
journal, so the contract is pinned here from three sides: the codec
(round trip, joined frames, malformed bytes), the two state layouts
reading and writing one frame (python lists and numpy arrays install
the same state from each other's bytes), and a recorded digest of the
per-txid state a mixed sharded run leaves behind.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.backends import backend_available
from repro.core.placement import make_placer
from repro.datasets.synthetic import synthetic_stream
from repro.errors import EngineError, ProtocolError
from repro.service.engine import PlacementEngine
from repro.service.partition import (
    MASK_SPILL,
    EnginePartition,
    ParentStates,
    Writebacks,
    pack_masks,
    txids_from_bytes,
    txids_to_bytes,
)
from repro.utxo.transaction import OutPoint, Transaction, TxOutput

from test_partition import Harness, reference_placements

HAS_NUMPY = backend_available("numpy")
BACKENDS = ["python"] + (["numpy"] if HAS_NUMPY else [])
needs_numpy = pytest.mark.skipif(not HAS_NUMPY, reason="numpy backend absent")

masks = st.one_of(
    st.none(),
    st.integers(1, (1 << 62) - 1),
    st.integers(1 << 62, 1 << 200),  # spilled
)


@st.composite
def parent_states(draw):
    k = draw(st.sampled_from([1, 4, 64]))
    n = draw(st.integers(0, 6))
    txids = draw(
        st.lists(st.integers(0, 1 << 40), min_size=n, max_size=n, unique=True)
    )
    slots, spill = pack_masks(draw(st.lists(masks, min_size=n, max_size=n)))
    columns = [txids, draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n)), slots]
    if draw(st.booleans()):  # a strategy with a T2S scorer
        vectors = draw(
            st.lists(
                st.one_of(
                    st.none(),
                    # Any shard order: the owner's iteration order is
                    # part of the contract. Empty = live but empty.
                    st.dictionaries(
                        st.integers(0, k - 1),
                        st.floats(1e-12, 1.0),
                        max_size=min(k, 5),
                    ),
                ),
                min_size=n,
                max_size=n,
            )
        )
        counts = st.lists(st.integers(0, 1 << 40), min_size=n, max_size=n)
        columns += [
            draw(counts),
            draw(
                st.lists(
                    st.one_of(st.just(math.inf), st.floats(0.0, 1.0)),
                    min_size=n,
                    max_size=n,
                )
            ),
            draw(counts) if draw(st.booleans()) else None,  # "outputs"
            [m for v in vectors if v for m in v.values()],
            [-1 if v is None else len(v) for v in vectors],
            [s for v in vectors if v for s in v],
        ]
    return ParentStates(*columns, spill=spill)


@st.composite
def writebacks(draw):
    n = draw(st.integers(0, 6))
    txids = st.lists(st.integers(0, 1 << 40), min_size=n, max_size=n, unique=True)
    slots, spill = pack_masks(draw(st.lists(masks, min_size=n, max_size=n)))
    counts = st.lists(st.integers(0, 1 << 40), min_size=n, max_size=n)
    return Writebacks(draw(txids), draw(counts), slots, spill=spill)


class TestCodec:
    @given(parent_states())
    @settings(max_examples=200, deadline=None)
    def test_parent_states_round_trip(self, states):
        decoded = ParentStates.from_bytes(states.to_bytes())
        assert decoded == states
        assert len(decoded) == len(states)
        # A decoded frame re-encodes as the bytes it came from: the
        # journal and the relay store them without touching them.
        assert decoded.to_bytes() is states.to_bytes()
        if states.nnz is not None:
            assert decoded.vectors() == states.vectors()
            assert [list(v or ()) for v in decoded.vectors()] == [
                list(v or ()) for v in states.vectors()
            ]

    @given(writebacks())
    @settings(max_examples=100, deadline=None)
    def test_writebacks_round_trip(self, updates):
        decoded = Writebacks.from_bytes(updates.to_bytes())
        assert decoded == updates
        assert decoded.masks() == updates.masks()
        assert bool(decoded) == bool(len(updates))

    @given(st.lists(writebacks(), max_size=3))
    @settings(max_examples=50, deadline=None)
    def test_joined_frames_decode_as_one(self, frames):
        joined = Writebacks.from_bytes(
            b"".join(frame.to_bytes() for frame in frames)
        )
        assert joined.txids.tolist() == [
            t for frame in frames for t in frame.txids.tolist()
        ]
        assert joined.masks() == [m for frame in frames for m in frame.masks()]

    def test_joined_parent_states_keep_rows_and_vectors(self):
        a = ParentStates([3], [1], [5], [2], [0.5], None, [0.5, 0.25], [2], [1, 0])
        b = ParentStates([9], [0], [MASK_SPILL], [0], [math.inf], None, [], [-1], [], spill=[1 << 70])
        joined = ParentStates.from_bytes(a.to_bytes() + b.to_bytes())
        assert joined.txids.tolist() == [3, 9]
        assert joined.masks() == [5, 1 << 70]
        assert joined.vectors() == [{1: 0.5, 0: 0.25}, None]
        assert list(joined.vectors()[0]) == [1, 0]
        plain = ParentStates([4], [0], [1])  # another strategy's columns
        with pytest.raises(ProtocolError, match="disagree"):
            ParentStates.from_bytes(a.to_bytes() + plain.to_bytes())

    def test_empty_means_none(self):
        assert not ParentStates() and not Writebacks()
        assert len(ParentStates.from_bytes(b"")) == 0
        assert Writebacks().by_owner(10, 3) == {}

    def test_by_owner_splits_rows_and_spill(self):
        updates = Writebacks(
            [5, 25, 12, 45], [1, 2, 3, 4], [MASK_SPILL, 0, 7, MASK_SPILL],
            spill=[1 << 80, 1 << 90],
        )  # fmt: skip
        parts = updates.by_owner(10, 3)
        assert sorted(parts) == [0, 1, 2]
        assert parts[0].txids.tolist() == [5] and parts[0].masks() == [1 << 80]
        assert parts[1].txids.tolist() == [12, 45]
        assert parts[1].masks() == [7, 1 << 90]
        assert parts[2].spender_count.tolist() == [2] and parts[2].masks() == [0]
        # One owner: the frame itself, so its bytes forward untouched.
        assert Writebacks([1, 2], [0, 0], [1, 1]).by_owner(10, 3) == {
            0: Writebacks([1, 2], [0, 0], [1, 1])
        }

    def test_txid_column(self):
        assert txids_from_bytes(txids_to_bytes([7, 1 << 40])).tolist() == [7, 1 << 40]
        with pytest.raises(ProtocolError, match="whole i64"):
            txids_from_bytes(b"\x00" * 9)


class TestMalformed:
    FRAME = ParentStates(
        [3, 9], [1, 0], [5, MASK_SPILL], [2, 0], [0.5, math.inf], [1, 1],
        [0.5, 0.25], [2, -1], [1, 0], spill=[1 << 70],
    ).to_bytes()  # fmt: skip

    def test_truncated_at_every_cut(self):
        for cut in range(1, len(self.FRAME)):
            with pytest.raises(ProtocolError):
                ParentStates.from_bytes(self.FRAME[:cut])

    def test_trailing_bytes(self):
        for tail in (b"\x00", b"\x00" * 16 + b"\x01"):
            with pytest.raises(ProtocolError):
                ParentStates.from_bytes(self.FRAME + tail)

    @pytest.mark.parametrize("field", range(4))
    def test_overflowing_counts_never_allocate(self, field):
        header = list(struct.unpack_from("<IIII", self.FRAME))
        header[field] = 0xFFFFFFFF
        with pytest.raises(ProtocolError):
            ParentStates.from_bytes(
                struct.pack("<IIII", *header) + self.FRAME[16:]
            )

    def test_rows_must_add_up_to_the_entries(self):
        for nnz in ([1, 0], [3, -1], [2, -2]):
            frame = ParentStates(
                [3, 9], [1, 0], [5, 0], [2, 0], [0.5, 1.0], None,
                [0.5, 0.25], nnz, [1, 0],
            )  # fmt: skip
            with pytest.raises(ProtocolError, match="add up"):
                ParentStates.from_bytes(frame.to_bytes())

    def test_spill_must_match_marked_slots(self):
        frame = Writebacks([1], [0], [MASK_SPILL])  # marks one, spills none
        with pytest.raises(ProtocolError, match="spills 0 masks but marks 1"):
            Writebacks.from_bytes(frame.to_bytes())

    def test_writebacks_carry_no_entries_or_flags(self):
        good = Writebacks([1], [0], [1]).to_bytes()
        for header in ((1, 1, 0, 0), (1, 0, 0, 4)):
            with pytest.raises(ProtocolError):
                Writebacks.from_bytes(struct.pack("<IIII", *header) + good[16:])


def partitions(backend, n=2, lease=100, **kwargs):
    return [
        EnginePartition(
            PlacementEngine(
                make_placer(f"optchain:backend={backend}", 4, **kwargs),
                epoch_length=400,
            ),
            partition_id=index,
            n_partitions=n,
            lease_length=lease,
        )
        for index in range(n)
    ]


@pytest.fixture(scope="module")
def stream():
    return synthetic_stream(3_000, seed=77)


class TestInstall:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_unusable_states_are_refused_and_leave_no_trace(
        self, stream, backend
    ):
        owner, active = partitions(backend, lease=500)
        owner.place_batch(stream[:500])
        active.import_hot_state(owner.export_hot_state())
        batch = stream[500:550]
        good = owner.read_parents(active.parents_needed(batch))
        rows = [column.tolist() for column in (
            good.txids, good.assignment, good.mask, good.spender_count,
            good.min_mass, good.mass, good.nnz, good.shard,
        )]  # fmt: skip
        txids, assignment, mask, counts, min_mass, mass, nnz, shard = rows

        def state():
            scorer = active._scorer
            return (
                list(active._placer._assignment),
                list(scorer._p_prime),
                list(scorer._spender_count),
                list(scorer._min_mass),
                dict(active.engine._remaining.items()),
                active.stats(),
            )

        before = state()
        beyond = ParentStates(
            [txids[0] + 10_000] + txids[1:], assignment, mask, counts,
            min_mass, None, mass, nnz, shard,
        )  # fmt: skip
        bad_shard = ParentStates(
            txids, assignment, mask, counts, min_mass, None, mass, nnz,
            [4] + shard[1:],
        )  # fmt: skip
        no_scorer = ParentStates(txids, assignment, mask)
        for states in (beyond, bad_shard, no_scorer):
            with pytest.raises(EngineError):
                active.place_batch(batch, ParentStates.from_bytes(states.to_bytes()))
            assert state() == before
        shards, _ = active.place_batch(batch, good)
        assert shards == reference_placements(stream[:550])[1][500:]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_wide_masks_cross_both_ways(self, backend):
        """A parent with more outputs than an int64 slot holds: its mask
        spills on the way out, installs exactly, and the writeback of a
        spend spills on the way back."""
        owner, active = partitions(backend, lease=2)
        fat = Transaction(txid=0, inputs=(), outputs=(TxOutput(1),) * 70)
        filler = Transaction(txid=1, inputs=(), outputs=(TxOutput(1),))
        owner.place_batch([fat, filler])
        active.import_hot_state(owner.export_hot_state())
        spender = Transaction(
            txid=2, inputs=(OutPoint(0, 69),), outputs=(TxOutput(1),)
        )
        states = ParentStates.from_bytes(owner.read_parents([0]).to_bytes())
        assert states.mask.tolist() == [MASK_SPILL]
        assert states.masks() == [(1 << 70) - 1]
        _, updates = active.place_batch([spender], states)
        updates = Writebacks.from_bytes(updates.to_bytes())
        assert updates.masks() == [(1 << 69) - 1]
        owner.apply_writebacks(updates)
        assert owner.engine._remaining[0] == (1 << 69) - 1
        assert 0 not in active.engine._remaining
        assert len(active.engine._remaining) == 1  # its own tx 2


@needs_numpy
class TestAcrossBackends:
    def test_each_layout_installs_the_others_bytes(self, stream):
        """Partitions on different backends trade frames and stay
        bit-identical to the monolith: python-encoded frames install
        into arrays and array-gathered frames into lists."""
        _, expected = reference_placements(stream)
        harness = Harness(3)
        for index, backend in enumerate(("python", "numpy", "python")):
            harness.partitions[index] = partitions(backend, n=3, lease=500)[index]
        assert harness.place_chunked(stream) == expected
        assert harness.writebacks > 0

    def test_same_parents_read_the_same(self, stream):
        python, numpy_ = (Harness(2, strategy=f"optchain:backend={b}") for b in BACKENDS)
        for harness in (python, numpy_):
            harness.place_chunked(stream[:1_000])
        txids = [t for t in range(500) if t % 7 == 0]
        a = python.partitions[0].read_parents(txids)
        b = numpy_.partitions[0].read_parents(txids)
        for name in ("txids", "assignment", "mask", "spender_count", "min_mass", "nnz"):
            assert getattr(a, name).tolist() == getattr(b, name).tolist(), name
        assert a.vectors() == b.vectors()  # entry order is the owner's own


class TestPadding:
    @pytest.mark.parametrize(
        "outdeg_mode,backend",
        # The numpy backend (the fused kernel) places only the spenders
        # divisor; the outputs divisor pads python's extra column.
        [("spenders", backend) for backend in BACKENDS]
        + [("outputs", "python")],
    )
    def test_padded_slots_read_as_before(self, stream, backend, outdeg_mode):
        (partition,) = partitions(backend, n=1, outdeg_mode=outdeg_mode)
        partition.place_batch(stream[:10])
        scorer = partition._scorer
        released = scorer._released
        partition.pad_to(5_010)  # past the arrays' first capacity
        partition.pad_to(4_000)  # behind the cursor: nothing
        assert partition.n_placed == len(scorer._p_prime) == 5_010
        assert scorer._released == released + 5_000
        assert partition._n_padded == 5_000
        for txid in (10, 11, 2_500, 5_009):
            assert partition._placer._assignment[txid] == 0
            assert scorer._p_prime[txid] is None
            assert scorer._spender_count[txid] == 0
            assert scorer._min_mass[txid] == math.inf
            if outdeg_mode == "outputs":
                assert scorer._output_count[txid] == 1
        assert scorer._p_prime[9] is not None
        assert partition.stats()["released_vectors"] == released


def state_digest(harness) -> str:
    doc = []
    for partition in harness.partitions:
        scorer = partition._scorer
        remaining = partition.engine._remaining
        stats = partition.stats()
        stats.pop("spec")
        doc.append(
            {
                "assignment": list(partition._placer._assignment),
                "p_prime": [
                    None if vector is None else sorted(vector.items())
                    for vector in scorer._p_prime
                ],
                "spender_count": list(scorer._spender_count),
                "min_mass": [repr(mass) for mass in scorer._min_mass],
                "remaining": sorted(remaining.items()),
                "tracked": len(remaining),
                "stats": stats,
            }
        )
    return hashlib.sha256(
        json.dumps(doc, sort_keys=True).encode()
    ).hexdigest()


class TestRecordedState:
    """Digests recorded from the dict/JSON implementation this format
    replaced (commit 1298846), same run. The python backend and the
    kernel-validated numpy backend leave one state; the numpy backend
    without its kernel (``REPRO_KERNEL_DISABLE``) always left another,
    and walks its arrays through the plain loops."""

    RECORDED = {
        (None, True): "3d57296dadae0a54e60f4cce31f78040f6557713ee7157572a5dae184e0d6b2d",
        (2, True): "5c92e61466300b274c651965ceb887cd53dd4c6a448af62b5e55a8b95287ba0c",
        (None, False): "e590d17982e084149c9a0431ac923cbeb096758354a148252a776146af028ce6",
        (2, False): "66085f0adc303aa6d29b40d4d2f4f055f304462d3f00bc65814a42b96532028f",
    }

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("horizon_epochs", [None, 2])
    def test_mixed_run_leaves_the_recorded_state(
        self, stream, backend, horizon_epochs
    ):
        harness = Harness(
            3,
            strategy=f"optchain:backend={backend}",
            epoch_length=300,
            lease_length=400,
            horizon_epochs=horizon_epochs,
        )
        harness.place_chunked(stream[:1_500])
        spent = next(
            outpoint
            for tx in stream[1_200:1_500]
            for outpoint in tx.inputs
            if outpoint.txid < 1_200
        )
        bad = list(stream[1_500:1_539]) + [
            Transaction(txid=1_539, inputs=(spent,), outputs=(TxOutput(1),))
        ]
        with pytest.raises(EngineError):
            harness.place(bad)
        harness.place_chunked(stream[1_500:])
        golden = (
            backend == "python"
            or harness.partitions[0].engine.kernel_validation
        )
        assert state_digest(harness) == self.RECORDED[horizon_epochs, golden]
        for partition in harness.partitions:
            remaining = partition.engine._remaining
            if hasattr(remaining, "_count"):  # MaskMap bookkeeping
                assert remaining._count == len(remaining.items())
                assert not remaining._big
