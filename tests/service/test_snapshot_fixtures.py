"""Snapshot files written by an earlier build keep loading.

``fixtures/`` holds one full snapshot plus its delta per case, written
by the build that still had separate full and delta readers. Loading
each pair (or the full file alone) and continuing the stream must place
exactly what an engine that never stopped places, with the same live,
released and unspent counts. The files were generated with::

    from repro.core.placement import make_placer
    from repro.datasets.synthetic import synthetic_stream
    from repro.service.engine import PlacementEngine

    stream = synthetic_stream(600, seed=31)
    for name, (spec, kwargs, engine_kwargs, compress) in CASES.items():
        engine = PlacementEngine(
            make_placer(spec, 4, **kwargs), epoch_length=100, **engine_kwargs
        )
        path = f"tests/service/fixtures/{name}.snap"
        for start in range(0, 450, 50):
            engine.place_batch(stream[start : start + 50])
            if start + 50 == 300:
                engine.checkpoint(path, compress=compress, track_delta=True)
        engine.checkpoint(path, compress=compress, delta=True)
"""

from __future__ import annotations

import shutil
from pathlib import Path

import pytest

from repro.core.placement import make_placer
from repro.datasets.synthetic import synthetic_stream
from repro.service.engine import PlacementEngine
from repro.service.state import load_engine_snapshot

FIXTURES = Path(__file__).parent / "fixtures"

#: name -> (spec, placer kwargs, engine kwargs, compressed on disk)
CASES = {
    # Horizon mode: the delta reconstructs horizon-swept releases.
    "optchain_horizon": ("optchain", {}, {"horizon_epochs": 2}, False),
    # The capped baseline's Mersenne state; a compressed pair.
    "greedy": ("greedy", {}, {}, True),
    # Adaptive cap: the scorer's hot scalars (cap grew 1 -> 2).
    "topk_auto": (
        "optchain-topk:cap=auto:0.01",
        {"support_initial_cap": 1, "support_window": 100},
        {},
        False,
    ),
}


@pytest.fixture(scope="module")
def stream():
    return synthetic_stream(600, seed=31)


def feed(engine, stream, start, stop):
    shards = []
    for offset in range(start, stop, 50):
        shards.extend(engine.place_batch(stream[offset : offset + 50]))
    return shards


def counts(engine):
    stats = engine.stats()
    return stats.live_vectors, stats.released_vectors, stats.tracked_unspent


@pytest.mark.parametrize("with_delta", [True, False], ids=["delta", "full"])
@pytest.mark.parametrize("name", sorted(CASES))
def test_recorded_snapshot_continues_bit_identically(
    tmp_path, stream, name, with_delta
):
    spec, kwargs, engine_kwargs, compressed = CASES[name]
    snap = tmp_path / f"{name}.snap"
    shutil.copy(FIXTURES / snap.name, snap)
    if with_delta:
        shutil.copy(FIXTURES / f"{snap.name}.delta", f"{snap}.delta")
    assert (b'"compression":"zlib"' in snap.read_bytes()) == compressed

    restored = load_engine_snapshot(snap)
    cursor = 450 if with_delta else 300
    assert restored.n_placed == cursor

    fresh = PlacementEngine(
        make_placer(spec, 4, **kwargs), epoch_length=100, **engine_kwargs
    )
    feed(fresh, stream, 0, cursor)
    assert counts(restored) == counts(fresh)
    assert feed(restored, stream, cursor, 600) == feed(
        fresh, stream, cursor, 600
    )
    assert counts(restored) == counts(fresh)
    assert restored.stats().as_dict() == fresh.stats().as_dict()
