"""Golden equivalence: fast placement paths == seed implementations.

The optimized hot paths (lazy-decay proxy, fused fitness argmax, sparse
capped baselines, the batch ``place_stream`` loop) must produce
placements *identical* to the seed code for fixed seeds - not merely
statistically similar. The seed decision logic is preserved verbatim in
:mod:`repro.core._seed_reference`; these tests replay shared streams
through both and compare the full assignment.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core._seed_reference import (
    SeedGreedyPlacer,
    SeedOptChainPlacer,
    SeedT2SOnlyPlacer,
)
from repro.core.baselines import GreedyPlacer, T2SOnlyPlacer
from repro.core.l2s import ShardLatencyModel
from repro.core.optchain import OptChainPlacer, TopKOptChainPlacer
from repro.core.placement import make_placer
from repro.datasets.synthetic import GeneratorConfig, synthetic_stream

N_TX = 4_000


@pytest.fixture(scope="module")
def golden_stream():
    """Denser-than-default stream: more multi-input transactions and
    deeper ancestry exercise every branch of the fused argmax."""
    config = GeneratorConfig(
        n_wallets=400, coinbase_interval=150, bootstrap_coinbase=25
    )
    return synthetic_stream(N_TX, seed=1234, config=config)


@pytest.mark.parametrize("n_shards", [4, 16])
class TestOptChainGolden:
    def test_proxy_path(self, golden_stream, n_shards):
        fast = OptChainPlacer(n_shards).place_stream(golden_stream)
        seed = SeedOptChainPlacer(n_shards).place_stream(golden_stream)
        assert fast == seed

    def test_proxy_path_per_transaction(self, golden_stream, n_shards):
        """place() in a loop runs each transaction as a batch of one
        through the same decision loop; it must match the seed too."""
        placer = OptChainPlacer(n_shards)
        fast = [placer.place(tx) for tx in golden_stream]
        seed = SeedOptChainPlacer(n_shards).place_stream(golden_stream)
        assert fast == seed

    def test_no_provider_path(self, golden_stream, n_shards):
        fast = OptChainPlacer(
            n_shards, latency_provider=None
        ).place_stream(golden_stream)
        seed = SeedOptChainPlacer(
            n_shards, latency_provider=None
        ).place_stream(golden_stream)
        assert fast == seed

    def test_generic_provider_path(self, golden_stream, n_shards):
        """A plain callable provider (static skewed models) exercises the
        long-lived-estimator path against the per-transaction rebuild."""
        models = [
            ShardLatencyModel(lambda_c=10.0, lambda_v=1.0 / (1.0 + j))
            for j in range(n_shards)
        ]
        fast = OptChainPlacer(
            n_shards, latency_provider=lambda: models
        ).place_stream(golden_stream)
        seed = SeedOptChainPlacer(
            n_shards, latency_provider=lambda: models
        ).place_stream(golden_stream)
        assert fast == seed

    def test_warm_start(self, golden_stream, n_shards):
        """Forced prefix + placed suffix must match the seed's."""
        seed = SeedOptChainPlacer(n_shards)
        reference = seed.place_stream(golden_stream)
        half = N_TX // 2
        fast = OptChainPlacer(n_shards)
        for tx, shard in zip(golden_stream[:half], reference[:half]):
            fast.force_place(tx, shard)
        for tx in golden_stream[half:]:
            fast.place(tx)
        assert fast.assignment() == reference


def _static_models(n_shards):
    return [
        ShardLatencyModel(lambda_c=10.0, lambda_v=1.0 / (1.0 + j))
        for j in range(n_shards)
    ]


@pytest.mark.parametrize("n_shards", [4, 16])
@pytest.mark.parametrize("l2s_mode", ["accept_commit", "accept_accept"])
@pytest.mark.parametrize("provider", ["proxy", "static"])
class TestAcceptanceModesGolden:
    """The acceptance-CDF L2S readings score through the estimator's
    per-shard vector; batch and per-transaction placement both match
    the seed's per-transaction estimator rebuild."""

    @staticmethod
    def _placers(n_shards, l2s_mode, provider):
        if provider == "proxy":
            kwargs = {}
        else:
            models = _static_models(n_shards)
            kwargs = {"latency_provider": lambda: models}
        return (
            OptChainPlacer(n_shards, l2s_mode=l2s_mode, **kwargs),
            SeedOptChainPlacer(n_shards, l2s_mode=l2s_mode, **kwargs),
        )

    def test_batch(self, golden_stream, n_shards, l2s_mode, provider):
        fast, seed = self._placers(n_shards, l2s_mode, provider)
        assert fast.place_stream(golden_stream) == seed.place_stream(
            golden_stream
        )

    def test_per_transaction(
        self, golden_stream, n_shards, l2s_mode, provider
    ):
        fast, seed = self._placers(n_shards, l2s_mode, provider)
        placed = [fast.place(tx) for tx in golden_stream]
        assert placed == seed.place_stream(golden_stream)


@pytest.mark.parametrize("n_shards", [4, 16])
@pytest.mark.parametrize("provider", ["proxy", None])
def test_place_observed_prefers_the_seed_choice(
    golden_stream, n_shards, provider
):
    """Fed the seed's own placements, the shadow's preference at every
    step is the shard the seed chose there."""
    kwargs = {} if provider else {"latency_provider": None}
    reference = SeedOptChainPlacer(n_shards, **kwargs).place_stream(
        golden_stream
    )
    shadow = OptChainPlacer(n_shards, **kwargs)
    preferred = [
        shadow.place_observed(tx, shard)
        for tx, shard in zip(golden_stream, reference)
    ]
    assert preferred == reference
    assert shadow.assignment() == reference


_ENTRY_POINTS = st.lists(
    st.tuples(
        st.sampled_from(["batch", "place", "observed", "force"]),
        st.integers(min_value=1, max_value=700),
    ),
    min_size=1,
    max_size=40,
)


@pytest.mark.parametrize(
    "build",
    [
        lambda k: OptChainPlacer(k),
        lambda k: TopKOptChainPlacer(k, support_cap=3),
    ],
    ids=["exact", "topk"],
)
@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(ops=_ENTRY_POINTS)
def test_entry_points_mix_like_one_stream(golden_stream, build, ops):
    """Any interleaving of batch sizes, ``place``, ``place_observed``
    and ``force_place`` (the latter two fed the stream's own choices)
    leaves the assignment and the state of one ``place_stream``."""
    n_shards = 16
    reference = build(n_shards)
    expected = reference.place_stream(golden_stream)
    placer = build(n_shards)
    cursor = 0
    step = 0
    forced = False
    while cursor < len(golden_stream):
        kind, size = ops[step % len(ops)]
        step += 1
        chunk = golden_stream[cursor : cursor + size]
        if kind == "batch":
            assert placer.place_batch(chunk) == expected[
                cursor : cursor + len(chunk)
            ]
        elif kind == "place":
            assert placer.place(chunk[0]) == expected[cursor]
            chunk = chunk[:1]
        elif kind == "observed":
            tx = chunk[0]
            assert placer.place_observed(tx, expected[cursor]) == (
                expected[cursor]
            )
            chunk = chunk[:1]
        else:
            for tx in chunk:
                placer.force_place(tx, expected[tx.txid])
            forced = True
        cursor += len(chunk)
    assert placer.assignment() == expected
    if forced:
        # force_place records without deciding, so it never runs the
        # lightest-shard queries that prune stale entries from the
        # proxy's lazy heaps: compare their live content.
        placer._proxy._rebuild_heaps()
        reference._proxy._rebuild_heaps()
    assert placer.export_state() == reference.export_state()


@pytest.mark.parametrize("n_shards", [4, 16])
class TestBaselineGolden:
    def test_t2s_random_tie_break(self, golden_stream, n_shards):
        """Random tie-breaking consumes the RNG; identical placements
        prove the fast path draws at exactly the same points with
        exactly the same tied sets."""
        fast = T2SOnlyPlacer(
            n_shards, expected_total=N_TX, seed=7
        ).place_stream(golden_stream)
        seed = SeedT2SOnlyPlacer(
            n_shards, expected_total=N_TX, seed=7
        ).place_stream(golden_stream)
        assert fast == seed

    def test_t2s_online_cap(self, golden_stream, n_shards):
        fast = T2SOnlyPlacer(n_shards, seed=3).place_stream(golden_stream)
        seed = SeedT2SOnlyPlacer(n_shards, seed=3).place_stream(
            golden_stream
        )
        assert fast == seed

    @pytest.mark.parametrize("tie_break", ["first", "lightest"])
    def test_t2s_deterministic_tie_breaks(
        self, golden_stream, n_shards, tie_break
    ):
        fast = T2SOnlyPlacer(
            n_shards, expected_total=N_TX, tie_break=tie_break
        ).place_stream(golden_stream)
        seed = SeedT2SOnlyPlacer(
            n_shards, expected_total=N_TX, tie_break=tie_break
        ).place_stream(golden_stream)
        assert fast == seed

    def test_greedy(self, golden_stream, n_shards):
        fast = GreedyPlacer(n_shards, seed=11).place_stream(golden_stream)
        seed = SeedGreedyPlacer(n_shards, seed=11).place_stream(
            golden_stream
        )
        assert fast == seed


def test_seed_strategies_registered():
    """The benchmark builds seed placers through the factory."""
    for name in ("optchain_seed", "t2s_seed", "greedy_seed"):
        placer = make_placer(name, 4)
        assert placer.n_shards == 4


class TestBatchErrorPaths:
    """The fused batch loop must fail exactly like the per-tx path."""

    @staticmethod
    def _tx(txid, parents):
        from repro.utxo.transaction import OutPoint, Transaction, TxOutput

        return Transaction(
            txid=txid,
            inputs=tuple(OutPoint(p, 0) for p in parents),
            outputs=(TxOutput(1),),
        )

    def _warm_placer(self):
        placer = OptChainPlacer(4)
        placer.place_stream([self._tx(0, []), self._tx(1, [0])])
        return placer

    def test_invalid_single_parent(self):
        from repro.errors import PlacementError

        placer = self._warm_placer()
        with pytest.raises(PlacementError, match="invalid input 7"):
            placer.place_stream([self._tx(2, [7])])

    def test_invalid_later_parent_leaves_state_untouched(self):
        from repro.errors import PlacementError

        placer = self._warm_placer()
        before = list(placer.scorer._spender_count)
        with pytest.raises(PlacementError, match="invalid input 5"):
            placer.place_stream([self._tx(2, [0, 5])])
        # Validation happens before any spender count moves, exactly as
        # in T2SScorer.add_transaction_raw.
        assert placer.scorer._spender_count == before

    def test_dense_order_enforced(self):
        from repro.errors import PlacementError

        placer = self._warm_placer()
        with pytest.raises(PlacementError, match="dense stream order"):
            placer.place_stream([self._tx(9, [])])
