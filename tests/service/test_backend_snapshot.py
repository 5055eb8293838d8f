"""Snapshots across execution backends: state is backend-agnostic.

A snapshot taken on the numpy backend must restore as a numpy placer
by default (the header records the backend), must degrade to the
python backend with a warning when the numpy backend cannot run it
here (no numpy or kernel, or a configuration it does not place), and the
restored engine must continue bit-identically either way - the scorer
state carries no backend-specific representation.
"""

from __future__ import annotations

import pytest

np = pytest.importorskip("numpy")

from repro.core.backends import backend_unavailable_reason  # noqa: E402
from repro.core.placement import make_placer  # noqa: E402
from repro.core.spec import StrategySpec  # noqa: E402
from repro.service.engine import PlacementEngine  # noqa: E402
from repro.service.state import (  # noqa: E402
    load_engine_snapshot,
    save_engine_snapshot,
)

SPECS = [
    ("optchain", {}),
    ("optchain-topk", {"support_cap": 3}),
    ("optchain-topk", {"support_cap": "auto:0.01", "support_window": 256}),
]
#: The configurations the numpy backend places (no adaptive cap).
NUMPY_SPECS = SPECS[:2]

requires_backend = pytest.mark.skipif(
    backend_unavailable_reason("numpy") is not None,
    reason="numpy backend (compiled kernel) unavailable",
)


def _engine(method, kwargs, backend):
    return PlacementEngine(
        make_placer(method, 8, backend=backend, **kwargs),
        epoch_length=300,
    )


@requires_backend
@pytest.mark.parametrize("method,kwargs", NUMPY_SPECS)
def test_numpy_snapshot_restores_numpy_by_default(
    tmp_path, small_stream, method, kwargs
):
    engine = _engine(method, kwargs, "numpy")
    first = engine.place_batch(small_stream[:1_000])
    path = tmp_path / "np.snap"
    save_engine_snapshot(engine, path)

    restored = load_engine_snapshot(path)
    assert restored.placer.backend == "numpy"
    assert StrategySpec.of_placer(restored.placer) == StrategySpec.of_placer(
        engine.placer
    )

    reference = _engine(method, kwargs, "python")
    expected = reference.place_batch(small_stream)
    second = restored.place_batch(small_stream[1_000:])
    assert first + second == expected
    stats_np = restored.stats().as_dict()
    stats_py = reference.stats().as_dict()
    # The spec string names the backend - the one expected difference.
    assert stats_np.pop("spec").endswith("backend=numpy")
    assert stats_py.pop("spec").endswith("backend=python")
    assert stats_np == stats_py


@pytest.mark.parametrize("method,kwargs", SPECS)
def test_python_snapshot_stays_python(tmp_path, small_stream, method, kwargs):
    engine = _engine(method, kwargs, "python")
    engine.place_batch(small_stream[:500])
    path = tmp_path / "py.snap"
    save_engine_snapshot(engine, path)
    restored = load_engine_snapshot(path)
    assert restored.placer.backend == "python"


@requires_backend
def test_numpy_snapshot_degrades_without_numpy(
    tmp_path, small_stream, monkeypatch
):
    """Restore on a numpy-less host: warn, fall back, stay identical."""
    engine = _engine("optchain-topk", {"support_cap": 3}, "numpy")
    first = engine.place_batch(small_stream[:1_000])
    path = tmp_path / "np.snap"
    save_engine_snapshot(engine, path)

    import repro.core.backends as backends

    monkeypatch.setattr(
        backends,
        "backend_unavailable_reason",
        lambda name: "numpy is not installed" if name == "numpy" else None,
    )
    with pytest.warns(RuntimeWarning, match="unavailable here"):
        restored = load_engine_snapshot(path)
    assert restored.placer.backend == "python"

    reference = _engine("optchain-topk", {"support_cap": 3}, "python")
    expected = reference.place_batch(small_stream)
    second = restored.place_batch(small_stream[1_000:])
    assert first + second == expected


def test_numpy_recorded_adaptive_snapshot_restores_on_python(
    tmp_path, small_stream
):
    """A numpy-recorded adaptive-cap snapshot (the numpy backend no
    longer places that configuration) restores on python with a
    warning and continues bit-identically."""
    method, kwargs = SPECS[2]
    engine = _engine(method, kwargs, "python")
    first = engine.place_batch(small_stream[:1_000])
    engine.placer.backend = "numpy"  # as recorded by an older build
    path = tmp_path / "adaptive.snap"
    save_engine_snapshot(engine, path)
    with pytest.warns(RuntimeWarning, match="adaptive support cap"):
        restored = load_engine_snapshot(path)
    assert restored.placer.backend == "python"
    expected = _engine(method, kwargs, "python").place_batch(small_stream)
    assert first + restored.place_batch(small_stream[1_000:]) == expected


@requires_backend
def test_cross_backend_state_round_trip(tmp_path, small_stream):
    """python-snapshot state == numpy-snapshot state at the same point.

    Byte-for-byte equality of the serialized *scorer state* is not
    required (dict ordering may differ), but the restored placers must
    export identical state - that is the backend-agnostic claim.
    """
    engines = {
        backend: _engine("optchain-topk", {"support_cap": 4}, backend)
        for backend in ("python", "numpy")
    }
    for engine in engines.values():
        engine.place_batch(small_stream[:800])
    restored = {}
    for backend, engine in engines.items():
        path = tmp_path / f"{backend}.snap"
        save_engine_snapshot(engine, path)
        restored[backend] = load_engine_snapshot(path)
    state = {
        backend: engine.placer.export_state()
        for backend, engine in restored.items()
    }
    assert state["python"] == state["numpy"]
    tail_py = restored["python"].place_batch(small_stream[800:])
    tail_np = restored["numpy"].place_batch(small_stream[800:])
    assert tail_py == tail_np
