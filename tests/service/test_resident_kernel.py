"""The kernel drivers' resident state.

Each numpy placer keeps one ``KState`` and each kernel-validating
engine one ``VState`` for its whole life: configuration is written
once, and a pointer into a python-owned buffer is re-read only when
that buffer object was replaced. These tests pin what that buys - the
python work a served batch does around the two C calls - and drive
every path that replaces a buffer under a live struct (scratch regrow
on ``KERN_CAPACITY``, typed-vector / arena / mask-store growth, epoch
and horizon sweeps, snapshot restore) against the python engine.
"""

from __future__ import annotations

import gc
import sys

import pytest

pytest.importorskip("numpy")

from repro.core.backends.arrays import MaskMap  # noqa: E402
from repro.core.backends.ckernel import load_kernel  # noqa: E402
from repro.core.placement import make_placer  # noqa: E402
from repro.datasets.synthetic import synthetic_stream  # noqa: E402
from repro.service.engine import PlacementEngine  # noqa: E402
from repro.service.wire import (  # noqa: E402
    FRAME_HEADER_BYTES,
    decode_place_arrays,
    encode_place_request,
)

requires_kernel = pytest.mark.skipif(
    load_kernel() is None, reason="compiled kernel unavailable"
)

BATCH = 256


def _wire(chunk):
    return decode_place_arrays(encode_place_request(0, chunk)[FRAME_HEADER_BYTES:])


def _remaining(engine) -> dict:
    remaining = engine._remaining
    if isinstance(remaining, MaskMap):
        return dict(remaining.items())
    return dict(remaining)


@requires_kernel
def test_served_batch_python_call_count():
    """One warm 256-transaction ``place_wire_batch`` at k=16 makes a
    fixed, small number of python and builtin calls around the two C
    calls (``sys.setprofile`` ``call`` + ``c_call`` events, the closing
    ``setprofile`` included): no per-batch struct or pointer setup."""
    stream = synthetic_stream(BATCH * 21, seed=42)
    batches = [
        _wire(stream[start : start + BATCH])
        for start in range(0, len(stream), BATCH)
    ]
    engine = PlacementEngine(make_placer("optchain:backend=numpy", 16))
    for batch in batches[:20]:
        engine.place_wire_batch(batch)
    events = []

    def hook(frame, event, arg):
        if event in ("call", "c_call"):
            events.append(event)

    # A collection run inside the batch would be the collector's calls,
    # not the batch's.
    gc.disable()
    sys.setprofile(hook)
    try:
        engine.place_wire_batch(batches[20])
    finally:
        sys.setprofile(None)
        gc.enable()
    assert len(events) <= 60, len(events)


@requires_kernel
@pytest.mark.parametrize(
    "method,kwargs",
    [("optchain", {}), ("optchain-topk", {"support_cap": 2})],
)
def test_resident_pointers_follow_every_regrow(tmp_path, method, kwargs):
    """Kernel vs python over 256-tx batches while every resident buffer
    is replaced underneath the structs: the heap and dedup scratch are
    shrunk before each batch so the ``KERN_CAPACITY`` regrow-and-resume
    path runs mid-batch, the per-txid vectors, the row arena and the
    mask store outgrow their first allocation, epoch and horizon sweeps
    recycle rows, and the engine is checkpointed and restored halfway
    (fresh structs over restored buffers)."""
    stream = synthetic_stream(3_500, seed=11)
    config = {"epoch_length": 500, "horizon_epochs": 2}
    python = PlacementEngine(
        make_placer(method, 16, backend="python", **kwargs), **config
    )
    kernel = PlacementEngine(
        make_placer(method, 16, backend="numpy", **kwargs), **config
    )
    restored_at = 7 * BATCH
    regrows = 0
    for start in range(0, len(stream), BATCH):
        if start == restored_at:
            path = tmp_path / "mid.snap"
            kernel.checkpoint(path)
            kernel = PlacementEngine.restore(path)
            assert kernel.placer.export_state() == python.placer.export_state()
        chunk = stream[start : start + BATCH]
        driver = kernel.placer._driver
        proxy = kernel.placer._proxy
        # The smallest heap scratch that holds the current heaps: the
        # first placement that pushes overflows it. A one-slot dedup
        # overflows on the first two-input transaction.
        heap_cap = max(len(proxy._heap), 1)
        driver._size_heaps(heap_cap, len(proxy._heap) + len(proxy._zero_heap) + 1)
        driver._size_dedup(1)
        assert kernel.place_wire_batch(_wire(chunk)) == python.place_batch(chunk)
        regrows += driver.state.heap_cap > heap_cap
        assert driver.state.dedup_cap > 1
    assert regrows == -(-len(stream) // BATCH)
    assert kernel.horizon_start > 0
    scorer = kernel.placer.scorer
    assert len(kernel.placer._assignment.arr) > 1024
    assert len(scorer._spender_count.arr) > 1024
    assert len(scorer._p_prime.slot) > 1024
    assert len(scorer._p_prime.arr) > 1024
    assert len(kernel._remaining.arr) > 1024
    assert scorer.released_count > 0
    assert kernel.placer.export_state() == python.placer.export_state()
    assert _remaining(kernel) == _remaining(python)
