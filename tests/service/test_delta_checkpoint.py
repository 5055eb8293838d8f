"""Delta checkpoints (format v3): equivalence, cadence, and safety.

The claim under test: loading a full snapshot and applying a delta
yields an engine *indistinguishable* from one snapshotted fully at the
same point - continuing the stream is bit-identical, and the internal
release/live accounting matches exactly.
"""

from __future__ import annotations

import os

import pytest

from repro.core.backends import backend_available
from repro.core.placement import make_placer
from repro.datasets.synthetic import synthetic_stream
from repro.errors import SnapshotError
from repro.service.engine import PlacementEngine
from repro.service.state import (
    load_engine_snapshot,
    save_engine_delta,
    save_engine_snapshot,
)

N_SHARDS = 4

needs_kernel = pytest.mark.skipif(
    not backend_available("numpy"), reason="numpy backend (kernel) absent"
)


@pytest.fixture(scope="module")
def stream():
    return synthetic_stream(3_000, seed=13)


def feed(engine, stream, start, stop, chunk=200):
    shards = []
    for offset in range(start, stop, chunk):
        shards.extend(
            engine.place_batch(stream[offset : min(offset + chunk, stop)])
        )
    return shards


def build(strategy="optchain", **kwargs):
    engine_kwargs = {
        key: kwargs.pop(key)
        for key in ("epoch_length", "horizon_epochs")
        if key in kwargs
    }
    engine_kwargs.setdefault("epoch_length", 400)
    return PlacementEngine(
        make_placer(strategy, N_SHARDS, **kwargs), **engine_kwargs
    )


@pytest.mark.parametrize(
    "strategy,kwargs",
    [
        ("optchain", {}),
        ("optchain-topk", {"support_cap": 2}),
        ("t2s", {}),
        ("omniledger", {}),
        pytest.param("optchain:backend=numpy", {}, marks=needs_kernel),
        pytest.param(
            "optchain-topk:cap=2,backend=numpy", {}, marks=needs_kernel
        ),
    ],
)
def test_delta_restore_is_bit_identical(tmp_path, stream, strategy, kwargs):
    base = tmp_path / "engine.snap"
    reference = build(strategy, **dict(kwargs))
    expected = feed(reference, stream, 0, 3_000)

    engine = build(strategy, **dict(kwargs))
    feed(engine, stream, 0, 1_000)
    full_size = engine.checkpoint(base, track_delta=True)
    feed(engine, stream, 1_000, 2_000)
    delta_size = engine.checkpoint(base, delta=True)
    assert os.path.exists(str(base) + ".delta")
    # The delta covers 1k transactions of activity against a 1k-deep
    # base; it must undercut a same-point full snapshot.
    assert delta_size < full_size * 1.5

    restored = load_engine_snapshot(base)
    assert restored.n_placed == 2_000
    # Internal accounting survived exactly (same stream position).
    original_stats = engine.stats()
    restored_stats = restored.stats()
    assert restored_stats.live_vectors == original_stats.live_vectors
    assert (
        restored_stats.released_vectors
        == original_stats.released_vectors
    )
    assert (
        restored_stats.tracked_unspent == original_stats.tracked_unspent
    )
    assert restored_stats.support == original_stats.support
    # Continuing the stream is bit-identical to never having stopped.
    tail = feed(restored, stream, 2_000, 3_000)
    assert tail == expected[2_000:]
    end_stats = restored.stats()
    reference_stats = reference.stats()
    assert end_stats.live_vectors == reference_stats.live_vectors
    assert end_stats.tracked_unspent == reference_stats.tracked_unspent


def test_delta_is_cumulative_and_replaced(tmp_path, stream):
    base = tmp_path / "engine.snap"
    reference = build()
    expected = feed(reference, stream, 0, 3_000)

    engine = build()
    feed(engine, stream, 0, 800)
    engine.checkpoint(base, track_delta=True)
    feed(engine, stream, 800, 1_600)
    engine.checkpoint(base, delta=True)
    feed(engine, stream, 1_600, 2_400)
    engine.checkpoint(base, delta=True)  # replaces the previous delta

    restored = load_engine_snapshot(base)
    assert restored.n_placed == 2_400
    assert feed(restored, stream, 2_400, 3_000) == expected[2_400:]


def test_full_save_compacts_and_invalidates_delta(tmp_path, stream):
    base = tmp_path / "engine.snap"
    engine = build()
    feed(engine, stream, 0, 800)
    engine.checkpoint(base, track_delta=True)
    feed(engine, stream, 800, 1_600)
    engine.checkpoint(base, delta=True)
    delta_path = str(base) + ".delta"
    assert os.path.exists(delta_path)
    feed(engine, stream, 1_600, 2_000)
    engine.checkpoint(base)  # full: compaction point
    assert not os.path.exists(delta_path)
    assert load_engine_snapshot(base).n_placed == 2_000


def test_delta_requires_a_base(tmp_path, stream):
    engine = build()
    feed(engine, stream, 0, 400)
    with pytest.raises(SnapshotError, match="full snapshot first"):
        save_engine_delta(engine, tmp_path / "never.snap")


def test_delta_requires_tracking(tmp_path, stream):
    """A full snapshot without track_delta does not (and must not)
    allow a later delta: the dirty journal was never kept."""
    base = tmp_path / "untracked.snap"
    engine = build()
    feed(engine, stream, 0, 400)
    engine.checkpoint(base)  # tracking off by default
    assert engine._dirty_parents is None
    feed(engine, stream, 400, 800)
    with pytest.raises(SnapshotError, match="full snapshot first"):
        engine.checkpoint(base, delta=True)
    # Explicitly disabling tracking on a later full save turns the
    # journal off again.
    engine.checkpoint(base, track_delta=True)
    assert engine._dirty_parents is not None
    engine.checkpoint(base, track_delta=False)
    assert engine._dirty_parents is None


def test_no_truncate_spent_delta_round_trip(tmp_path, stream):
    """truncate_spent=False engines never release vectors; the delta
    release reconstruction must not invent releases for them."""
    base = tmp_path / "keepall.snap"
    reference = PlacementEngine(
        make_placer("optchain", N_SHARDS),
        epoch_length=400,
        truncate_spent=False,
    )
    expected = feed(reference, stream, 0, 3_000)
    engine = PlacementEngine(
        make_placer("optchain", N_SHARDS),
        epoch_length=400,
        truncate_spent=False,
    )
    feed(engine, stream, 0, 1_000)
    engine.checkpoint(base, track_delta=True)
    feed(engine, stream, 1_000, 2_000)
    engine.checkpoint(base, delta=True)
    restored = load_engine_snapshot(base)
    assert restored.stats().released_vectors == 0
    assert feed(restored, stream, 2_000, 3_000) == expected[2_000:]


def test_mismatched_delta_rejected(tmp_path, stream):
    base_a = tmp_path / "a.snap"
    base_b = tmp_path / "b.snap"
    engine = build()
    feed(engine, stream, 0, 800)
    engine.checkpoint(base_a, track_delta=True)
    feed(engine, stream, 800, 1_200)
    # The delta must sit beside its own base file.
    with pytest.raises(SnapshotError, match="beside its base"):
        save_engine_delta(engine, base_b)
    engine.checkpoint(base_a, delta=True)
    # Pair a's delta with an unrelated full snapshot: nonce mismatch.
    other = build()
    feed(other, stream, 0, 800)
    save_engine_snapshot(other, base_b)
    os.replace(str(base_a) + ".delta", str(base_b) + ".delta")
    with pytest.raises(SnapshotError, match="nonce mismatch"):
        load_engine_snapshot(base_b)


def test_horizon_mode_delta_round_trip(tmp_path, stream):
    horizon_round_trip(tmp_path, stream, "optchain")


@pytest.mark.parametrize(
    "strategy",
    [
        pytest.param("optchain:backend=numpy", marks=needs_kernel),
        pytest.param("optchain-topk:cap=2,backend=numpy", marks=needs_kernel),
    ],
)
def test_horizon_mode_delta_round_trip_numpy(tmp_path, stream, strategy):
    horizon_round_trip(tmp_path, stream, strategy)


def horizon_round_trip(tmp_path, stream, strategy):
    base = tmp_path / "horizon.snap"
    reference = build(strategy, epoch_length=300, horizon_epochs=2)
    expected = feed(reference, stream, 0, 3_000)

    engine = build(strategy, epoch_length=300, horizon_epochs=2)
    feed(engine, stream, 0, 1_000)
    engine.checkpoint(base, track_delta=True)
    feed(engine, stream, 1_000, 2_200)
    engine.checkpoint(base, delta=True)

    restored = load_engine_snapshot(base)
    assert restored.horizon_start == engine.horizon_start
    assert restored.horizon_start > 0  # the sweep actually ran
    assert feed(restored, stream, 2_200, 3_000) == expected[2_200:]


@pytest.mark.parametrize(
    "strategy",
    ["optchain", pytest.param("optchain:backend=numpy", marks=needs_kernel)],
)
def test_horizon_delta_restores_every_field(tmp_path, stream, strategy):
    """A spend of a parent behind the horizon is accepted unvalidated
    but still moves the parent's spender count, so the delta must carry
    that parent: the restored engine equals the live one field for
    field, not only in its next placements."""
    base = tmp_path / "fields.snap"
    engine = build(strategy, epoch_length=300, horizon_epochs=2)
    feed(engine, stream, 0, 1_000)
    engine.checkpoint(base, track_delta=True)
    feed(engine, stream, 1_000, 2_200)
    engine.checkpoint(base, delta=True)

    restored = load_engine_snapshot(base)
    assert restored.horizon_start > 0
    assert restored.placer.export_state() == engine.placer.export_state()
    assert dict(restored._remaining.items()) == dict(engine._remaining.items())


def test_compressed_delta(tmp_path, stream):
    base = tmp_path / "packed.snap"
    engine = build()
    feed(engine, stream, 0, 1_000)
    engine.checkpoint(base, compress=True, track_delta=True)
    feed(engine, stream, 1_000, 2_000)
    plain = save_engine_delta(engine, base)
    packed = save_engine_delta(engine, base, compress=True)
    assert packed < plain
    restored = load_engine_snapshot(base)
    assert restored.n_placed == 2_000


def test_server_delta_cadence(tmp_path, stream):
    """PlacementServer --checkpoint-delta N: full, delta, delta, full."""
    from repro.service.server import PlacementServer

    base = tmp_path / "cadence.snap"
    engine = build()
    server = PlacementServer(
        engine,
        checkpoint_path=str(base),
        checkpoint_delta_every=3,
    )
    delta_path = str(base) + ".delta"

    feed(engine, stream, 0, 500)
    server._do_checkpoint(base)  # 1st: full
    assert not os.path.exists(delta_path)
    feed(engine, stream, 500, 1_000)
    server._do_checkpoint(base)  # 2nd: delta
    assert os.path.exists(delta_path)
    feed(engine, stream, 1_000, 1_500)
    server._do_checkpoint(base)  # 3rd: delta (cumulative)
    assert load_engine_snapshot(base).n_placed == 1_500
    feed(engine, stream, 1_500, 2_000)
    server._do_checkpoint(base)  # 4th: full compaction
    assert not os.path.exists(delta_path)
    assert load_engine_snapshot(base).n_placed == 2_000
