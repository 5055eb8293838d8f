"""Differential tests: the numpy backend vs the pure-python golden path.

The vectorized backend's whole contract is *bit-identity*: same
placements, same tie-breaks, same exported state, same support
statistics - for every strategy variant it places (exact, fixed top-k
caps) at every batch size. Random UTXO streams (including duplicate
parents - the same outpoint spent twice - coinbases, and fan-in
bursts) are driven through both backends side by side and compared
full-state.

The numpy backend *is* the compiled kernel: the differential classes
skip where numpy or the kernel is unavailable (the whole module without
numpy), and the plumbing tests pin what such a host gets instead - no
numpy backend, with ``auto`` resolving to python.
"""

from __future__ import annotations

import pytest

np = pytest.importorskip("numpy")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.core.backends import backend_unavailable_reason  # noqa: E402
from repro.core.placement import make_placer  # noqa: E402
from repro.core.spec import StrategySpec  # noqa: E402
from repro.errors import ConfigurationError, PlacementError  # noqa: E402
from repro.service.engine import PlacementEngine  # noqa: E402
from repro.utxo.transaction import (  # noqa: E402
    OutPoint,
    Transaction,
    TxOutput,
)

N_SHARDS = 8

requires_backend = pytest.mark.skipif(
    backend_unavailable_reason("numpy") is not None,
    reason="numpy backend (compiled kernel) unavailable",
)

#: (method, constructor kwargs) grid the differential property covers.
SPECS = [
    ("optchain", {}),
    ("optchain-topk", {"support_cap": 1}),
    ("optchain-topk", {"support_cap": 4}),
    ("optchain-topk", {"support_cap": N_SHARDS}),
]


def _tx(txid: int, parents) -> Transaction:
    return Transaction(
        txid=txid,
        inputs=tuple(OutPoint(parent, 0) for parent in parents),
        outputs=(TxOutput(1),),
    )


@st.composite
def raw_streams(draw, max_txs: int = 100):
    """Random dense-order streams, duplicate parents included.

    Placers only read input *txids*, so streams here need not be
    valid UTXO spend sequences - that frees hypothesis to generate
    much nastier parent patterns than a wallet simulator would.
    """
    n = draw(st.integers(min_value=2, max_value=max_txs))
    txs = []
    for i in range(n):
        if i == 0:
            parents = []
        else:
            fan_in = draw(st.integers(min_value=0, max_value=4))
            parents = [
                draw(st.integers(min_value=0, max_value=i - 1))
                for _ in range(fan_in)
            ]
        txs.append(_tx(i, parents))
    return txs


def _pair(method: str, kwargs: dict):
    python = make_placer(method, N_SHARDS, backend="python", **kwargs)
    numpy_ = make_placer(method, N_SHARDS, backend="numpy", **kwargs)
    assert python.backend == "python"
    assert numpy_.backend == "numpy"
    return python, numpy_


def _assert_same_state(python, numpy_) -> None:
    state_py = python.export_state()
    state_np = numpy_.export_state()
    assert state_py.keys() == state_np.keys()
    for key in state_py:
        assert state_py[key] == state_np[key], f"state key {key!r} differs"
    assert python.scorer.support_stats() == numpy_.scorer.support_stats()


@requires_backend
class TestDifferential:
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_random_streams_bit_identical(self, data):
        stream = data.draw(raw_streams())
        method, kwargs = data.draw(st.sampled_from(SPECS))
        sizes = data.draw(
            st.lists(
                st.integers(min_value=1, max_value=16),
                min_size=1,
                max_size=8,
            )
        )
        python, numpy_ = _pair(method, kwargs)
        placed_py: list[int] = []
        placed_np: list[int] = []
        cursor = 0
        round_ = 0
        while cursor < len(stream):
            size = sizes[round_ % len(sizes)]
            round_ += 1
            chunk = stream[cursor : cursor + size]
            cursor += size
            placed_py.extend(python.place_batch(chunk))
            placed_np.extend(numpy_.place_batch(chunk))
        assert placed_py == placed_np
        _assert_same_state(python, numpy_)
        if hasattr(python, "support_cap"):
            assert python.support_cap == numpy_.support_cap

    @settings(max_examples=10, deadline=None)
    @given(data=st.data())
    def test_release_sweep_bit_identical(self, data):
        stream = data.draw(raw_streams(max_txs=60))
        method, kwargs = data.draw(st.sampled_from(SPECS[:3]))
        python, numpy_ = _pair(method, kwargs)
        python.place_batch(stream)
        numpy_.place_batch(stream)
        txids = data.draw(
            st.lists(
                st.integers(min_value=0, max_value=len(stream) - 1),
                unique=True,
                max_size=len(stream),
            )
        )
        assert python.scorer.release_vectors(
            txids
        ) == numpy_.scorer.release_vectors(txids)
        _assert_same_state(python, numpy_)

    @settings(max_examples=8, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**20),
        n_shards=st.sampled_from([4, 16]),
        spec_index=st.integers(min_value=0, max_value=len(SPECS) - 1),
    )
    def test_engine_level_bit_identical(self, seed, n_shards, spec_index):
        from repro.datasets.synthetic import synthetic_stream

        method, kwargs = SPECS[spec_index]
        stream = synthetic_stream(300, seed=seed)
        engines = [
            PlacementEngine(
                make_placer(method, n_shards, backend=backend, **kwargs),
                epoch_length=64,
                horizon_epochs=1,
            )
            for backend in ("python", "numpy")
        ]
        for start in range(0, len(stream), 50):
            chunk = stream[start : start + 50]
            placed = [engine.place_batch(chunk) for engine in engines]
            assert placed[0] == placed[1]
        stats = [engine.stats().as_dict() for engine in engines]
        # The spec string names the backend - the one field that is
        # *supposed* to differ; everything else must match exactly.
        assert stats[0].pop("spec") != stats[1].pop("spec")
        assert stats[0] == stats[1]


@requires_backend
class TestErrorParity:
    def _messages(self, placers, batch):
        messages = []
        for placer in placers:
            with pytest.raises(PlacementError) as excinfo:
                placer.place_batch(batch)
            messages.append(str(excinfo.value))
        return messages

    def test_invalid_input_same_error_same_state(self):
        prefix = [_tx(0, []), _tx(1, [0])]
        bad = [_tx(2, [0, 1]), _tx(3, [7]), _tx(4, [0])]
        python, numpy_ = _pair("optchain", {})
        for placer in (python, numpy_):
            placer.place_batch(prefix)
        message_py, message_np = self._messages((python, numpy_), bad)
        assert message_py == message_np
        assert "invalid input 7" in message_py
        # Both backends committed exactly the pre-offender prefix.
        assert python.n_placed == numpy_.n_placed == 3
        _assert_same_state(python, numpy_)

    def test_u64_parent_same_error(self):
        # Parent ids >= 2**63 reach the kernel as negative int64 views.
        python, numpy_ = _pair("optchain", {})
        bad = [_tx(0, []), _tx(1, [0]), _tx(2, [2**63 + 5])]
        message_py, message_np = self._messages((python, numpy_), bad)
        assert message_py == message_np
        assert f"invalid input {2**63 + 5}" in message_py
        assert python.n_placed == numpy_.n_placed == 2
        _assert_same_state(python, numpy_)

    def test_dense_order_same_error(self):
        python, numpy_ = _pair("optchain-topk", {"support_cap": 4})
        for placer in (python, numpy_):
            placer.place_batch([_tx(0, [])])
        message_py, message_np = self._messages(
            (python, numpy_), [_tx(5, [0])]
        )
        assert message_py == message_np
        assert "dense stream order" in message_py
        assert python.n_placed == numpy_.n_placed == 1

    def test_release_errors_match(self):
        python, numpy_ = _pair("optchain", {})
        for placer in (python, numpy_):
            placer.place_batch([_tx(0, []), _tx(1, [0])])
        messages = []
        for placer in (python, numpy_):
            with pytest.raises(PlacementError) as excinfo:
                placer.scorer.release_vectors([0, 99])
            messages.append(str(excinfo.value))
        assert messages[0] == messages[1]
        assert "unknown transaction 99" in messages[0]
        # Double release is silently idempotent on both backends.
        for placer in (python, numpy_):
            placer.scorer.release_vectors([1, 1])
            placer.scorer.release_vectors([1])
        _assert_same_state(python, numpy_)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_release_error_frontier_matches(self, data):
        """Sweeps with duplicates, unknown txids, a pending transaction
        and ``range`` inputs (the contiguous-slice path): the releases
        preceding the first offender commit, the error is the per-txid
        loop's, and the counter skips its bump on error."""
        n = data.draw(st.integers(min_value=2, max_value=24))
        stream = [_tx(0, [])] + [_tx(i, [i - 1]) for i in range(1, n)]
        python, numpy_ = _pair("optchain", {})
        for placer in (python, numpy_):
            placer.place_batch(stream)
            placer.scorer.release_vectors(range(0, n, 3))
        if data.draw(st.booleans()):
            for placer in (python, numpy_):
                placer.scorer.add_transaction_raw(n, [n - 1])
        if data.draw(st.booleans()):
            txids = range(
                data.draw(st.integers(min_value=-2, max_value=n + 2)),
                data.draw(st.integers(min_value=-2, max_value=n + 3)),
            )
        else:
            txids = data.draw(
                st.lists(st.integers(min_value=-1, max_value=n + 1))
            )
        outcomes = []
        for placer in (python, numpy_):
            try:
                placer.scorer.release_vectors(txids)
                outcomes.append(None)
            except PlacementError as exc:
                outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1]
        assert python.scorer.released_count == numpy_.scorer.released_count
        assert list(python.scorer._p_prime) == list(numpy_.scorer._p_prime)


@requires_backend
class TestRawParentPath:
    """``place_batch_raw``: the zero-copy CSR entry point the serving
    wire path feeds. Raw outpoint txids go in *undeduplicated* - the
    kernel's first-appearance dedup must reproduce the python marshal's
    ``dict.fromkeys`` semantics exactly."""

    def _csr(self, stream):
        parents = np.array(
            [
                outpoint.txid
                for tx in stream
                for outpoint in tx.inputs
            ],
            dtype=np.int64,
        )
        in_off = np.zeros(len(stream) + 1, dtype=np.int64)
        np.cumsum(
            [len(tx.inputs) for tx in stream], out=in_off[1:]
        )
        return parents, in_off

    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_raw_csr_matches_object_path(self, data):
        stream = data.draw(raw_streams(max_txs=80))
        method, kwargs = data.draw(st.sampled_from(SPECS))
        object_placer = make_placer(
            method, N_SHARDS, backend="numpy", **kwargs
        )
        raw_placer = make_placer(
            method, N_SHARDS, backend="numpy", **kwargs
        )
        placed_obj: list[int] = []
        placed_raw: list[int] = []
        for start in range(0, len(stream), 13):
            chunk = stream[start : start + 13]
            placed_obj.extend(object_placer.place_batch(chunk))
            parents, in_off = self._csr(chunk)
            placed_raw.extend(
                raw_placer.place_batch_raw(parents, in_off, len(chunk))
            )
        assert placed_obj == placed_raw
        _assert_same_state(object_placer, raw_placer)

    def test_duplicate_heavy_fan_in(self):
        # Every tx re-spends the same parents several times over - the
        # dedup path, single-parent shortcut, and argmax tie-breaks all
        # get hit.
        stream = [_tx(0, [])] + [
            _tx(i, [i - 1, i - 1, 0, i - 1, 0]) for i in range(1, 50)
        ]
        object_placer = make_placer("optchain", N_SHARDS, backend="numpy")
        raw_placer = make_placer("optchain", N_SHARDS, backend="numpy")
        parents, in_off = self._csr(stream)
        assert object_placer.place_batch(
            stream
        ) == raw_placer.place_batch_raw(parents, in_off, len(stream))
        _assert_same_state(object_placer, raw_placer)


class TestBackendPlumbing:
    def test_kernel_unavailability_is_reported(self):
        from repro.core.backends.ckernel import (
            kernel_unavailable_reason,
            load_kernel,
        )

        if load_kernel() is None:
            assert kernel_unavailable_reason() is not None
        else:
            assert kernel_unavailable_reason() is None

    def test_no_kernel_means_no_numpy_backend(self, monkeypatch):
        """A host without the kernel has no numpy backend at all:
        explicit requests refuse, ``auto`` runs python."""
        import repro.core.backends.ckernel as ckernel
        from repro.core.backends.numpy_backend import NumpyOptChainPlacer

        monkeypatch.setattr(
            ckernel, "kernel_unavailable_reason", lambda: "no C compiler"
        )
        with pytest.raises(ConfigurationError, match="no C compiler"):
            make_placer("optchain", N_SHARDS, backend="numpy")
        with pytest.raises(ConfigurationError, match="no C compiler"):
            NumpyOptChainPlacer(N_SHARDS)
        assert StrategySpec.parse("optchain").resolve_backend() == "python"
        assert make_placer("optchain:backend=auto", N_SHARDS).backend == (
            "python"
        )

    @requires_backend
    def test_unfused_configurations_are_refused(self):
        """No per-transaction loop to fall back to: what the kernel
        cannot place has no numpy backend; ``auto`` picks python."""
        with pytest.raises(ConfigurationError, match="adaptive"):
            make_placer(
                "optchain-topk", N_SHARDS, backend="numpy",
                support_cap="auto:0.01",
            )
        assert (
            make_placer("optchain-topk:cap=auto:0.01", N_SHARDS).backend
            == "python"
        )
        for kwargs in (
            {"latency_provider": None},
            {"outdeg_mode": "outputs"},
            {"l2s_mode": "accept_commit"},
        ):
            with pytest.raises(ConfigurationError, match="fused"):
                make_placer("optchain", N_SHARDS, backend="numpy", **kwargs)
        placer = make_placer("optchain", N_SHARDS, backend="numpy")
        with pytest.raises(ConfigurationError, match="load proxy"):
            placer.use_latency_provider(object())

    @requires_backend
    def test_observed_placements_are_refused(self):
        """Shadow scoring runs the python decision loop, whose inlined
        commit cannot write the kernel's typed-array state."""
        placer = make_placer("optchain", N_SHARDS, backend="numpy")
        with pytest.raises(ConfigurationError, match="observed"):
            placer.place_observed(_tx(0, []), 0)
        assert placer.n_placed == 0

    @requires_backend
    def test_single_place_matches_python(self):
        stream = [_tx(0, [])] + [
            _tx(i, [i - 1, i - 1, max(0, i - 3)]) for i in range(1, 30)
        ]
        python, numpy_ = _pair("optchain", {})
        assert [python.place(tx) for tx in stream] == [
            numpy_.place(tx) for tx in stream
        ]
        _assert_same_state(python, numpy_)

    @requires_backend
    def test_stats_report_numpy_spec(self):
        engine = PlacementEngine(
            make_placer("optchain", N_SHARDS, backend="numpy")
        )
        assert engine.stats().spec == "optchain:backend=numpy"
        assert engine.stats().as_dict()["spec"] == "optchain:backend=numpy"
