"""Reference (pre-optimization) placement implementations.

These are the straightforward O(n_shards)-per-transaction versions of
the placement hot path, kept as executable documentation of the exact
decision semantics the optimized fast paths in
:mod:`repro.core.optchain` and :mod:`repro.core.baselines` must
reproduce:

- :class:`EagerLoadProxy` decays *every* shard on every placement and
  builds one :class:`ShardLatencyModel` per shard per read;
- :class:`SeedOptChainPlacer` rebuilds an :class:`L2SEstimator` (and
  ``n_shards`` validated model dataclasses) per transaction and scans
  every shard in the fitness argmax;
- :class:`SeedT2SOnlyPlacer` densifies the sparse T2S scores and
  enumerates all allowed shards per transaction;
- :class:`SeedGreedyPlacer` does the same for one-hop input counts.

They are registered under ``*_seed`` factory names so the throughput
benchmark can measure the before/after ratio honestly, and the golden
equivalence tests (``tests/core/test_golden_equivalence.py``) assert the
optimized strategies produce *identical* placements. Do not use these on
hot paths.
"""

from __future__ import annotations

import math

from repro.core.baselines import PAPER_EPSILON
from repro.core.fitness import PAPER_LATENCY_WEIGHT, TemporalFitness
from repro.core.l2s import L2SEstimator, ShardLatencyModel
from repro.core.placement import PlacementStrategy
from repro.core.t2s import T2SScorer
from repro.errors import ConfigurationError, PlacementError
from repro.rng import make_rng
from repro.utxo.transaction import Transaction


class SeedT2SScorer(T2SScorer):
    """Seed-semantics T2S scoring: the original single generic path.

    Identical results to :class:`~repro.core.t2s.T2SScorer` (that is
    property-tested); kept so the benchmark's "seed" measurement pays the
    original per-transaction costs - distinct-dict construction for every
    arrival and a normalized-score dict per call - rather than borrowing
    the optimized fast paths.
    """

    def add_transaction(
        self,
        txid: int,
        input_txids,
        n_outputs: int = 1,
    ) -> dict[int, float]:
        if self._pending is not None:
            raise PlacementError(
                f"transaction {self._pending} was added but never placed"
            )
        if txid != len(self._p_prime):
            raise PlacementError(
                f"transactions must arrive in dense order: got {txid}, "
                f"expected {len(self._p_prime)}"
            )
        distinct: dict[int, None] = {}
        for parent in input_txids:
            if not 0 <= parent < txid:
                raise PlacementError(
                    f"transaction {txid} has invalid input {parent}"
                )
            distinct.setdefault(parent, None)
        for parent in distinct:
            self._spender_count[parent] += 1

        p_prime: dict[int, float] = {}
        scale = 1.0 - self.alpha
        if scale > 0.0:
            for parent in distinct:
                divisor = self._divisor(parent)
                parent_vector = self._p_prime[parent]
                if not parent_vector:
                    continue
                factor = scale / divisor
                for shard, mass in parent_vector.items():
                    p_prime[shard] = p_prime.get(shard, 0.0) + mass * factor
        if self.prune_epsilon > 0.0 and p_prime:
            p_prime = {
                shard: mass
                for shard, mass in p_prime.items()
                if mass > self.prune_epsilon
            }
        self._p_prime.append(p_prime)
        self._spender_count.append(0)
        self._output_count.append(max(1, n_outputs))
        self._pending = txid
        return self.normalized(txid)

    def add_transaction_raw(
        self, txid: int, input_txids, n_outputs: int = 1
    ) -> dict[int, float]:
        self.add_transaction(txid, input_txids, n_outputs)
        return self._p_prime[txid]

    def place(self, txid: int, shard: int) -> None:
        if self._pending != txid:
            raise PlacementError(
                f"place({txid}) without matching add_transaction "
                f"(pending: {self._pending})"
            )
        if not 0 <= shard < self.n_shards:
            raise PlacementError(
                f"shard {shard} out of range [0, {self.n_shards})"
            )
        vector = self._p_prime[txid]
        vector[shard] = vector.get(shard, 0.0) + self.alpha
        self._shard_sizes[shard] += 1
        self._pending = None


class EagerLoadProxy:
    """Seed-semantics load proxy: O(n_shards) decay per placement."""

    def __init__(
        self,
        n_shards: int,
        window: float = 2_000.0,
        base_verify_time: float = 5.0,
        base_comm_time: float = 0.1,
        block_capacity: int = 2_000,
    ) -> None:
        if n_shards <= 0:
            raise ConfigurationError(f"n_shards must be > 0, got {n_shards}")
        self._loads = [0.0] * n_shards
        self._decay = math.exp(-1.0 / window)
        self._base_verify = base_verify_time
        self._base_comm = base_comm_time
        self._block = block_capacity

    @property
    def loads(self) -> list[float]:
        """Copy of the decayed per-shard loads."""
        return list(self._loads)

    def record(self, shard: int) -> None:
        """Account one placement into ``shard`` (and decay everything)."""
        for index in range(len(self._loads)):
            self._loads[index] *= self._decay
        self._loads[shard] += 1.0

    def __call__(self) -> list[ShardLatencyModel]:
        models = []
        for load in self._loads:
            verify_time = self._base_verify * (1.0 + load / self._block)
            models.append(
                ShardLatencyModel(
                    lambda_c=1.0 / self._base_comm,
                    lambda_v=1.0 / verify_time,
                )
            )
        return models


class SeedOptChainPlacer(PlacementStrategy):
    """Seed-semantics OptChain: full scans, per-transaction estimators."""

    name = "optchain_seed"

    def __init__(
        self,
        n_shards: int,
        alpha: float = 0.5,
        latency_weight: float = PAPER_LATENCY_WEIGHT,
        latency_provider="proxy",
        l2s_mode: str = "shard_load",
        outdeg_mode: str = "spenders",
    ) -> None:
        super().__init__(n_shards)
        self.scorer = SeedT2SScorer(
            n_shards, alpha=alpha, outdeg_mode=outdeg_mode
        )
        self.fitness = TemporalFitness(latency_weight=latency_weight)
        self.l2s_mode = l2s_mode
        self._proxy: EagerLoadProxy | None = None
        if latency_provider == "proxy":
            self._proxy = EagerLoadProxy(n_shards)
            self.latency_provider = self._proxy
        else:
            self.latency_provider = latency_provider

    def use_latency_provider(self, provider) -> None:
        """Swap in a live latency source, mirroring the real placer."""
        self._proxy = None
        self.latency_provider = provider

    def _choose(self, tx: Transaction) -> int:
        t2s_scores = self.scorer.add_transaction(
            tx.txid, tx.input_txids, len(tx.outputs)
        )
        if self.latency_provider is None:
            shard = self._t2s_scan(t2s_scores)
        else:
            models = self.latency_provider()
            if len(models) != self.n_shards:
                raise ConfigurationError(
                    f"latency provider returned {len(models)} models for "
                    f"{self.n_shards} shards"
                )
            estimator = L2SEstimator(models, mode=self.l2s_mode)
            l2s_scores = estimator.scores_all(self.input_shards(tx))
            shard = self.fitness.best_shard(t2s_scores, l2s_scores)
        self.scorer.place(tx.txid, shard)
        if self._proxy is not None:
            self._proxy.record(shard)
        return shard

    def _on_forced(self, tx: Transaction, shard: int) -> None:
        self.scorer.add_transaction(tx.txid, tx.input_txids, len(tx.outputs))
        self.scorer.place(tx.txid, shard)
        if self._proxy is not None:
            self._proxy.record(shard)

    def _t2s_scan(self, sparse: dict[int, float]) -> int:
        sizes = self.scorer.shard_sizes
        best = min(range(self.n_shards), key=sizes.__getitem__)
        best_score = sparse.get(best, 0.0)
        for shard in range(self.n_shards):
            score = sparse.get(shard, 0.0)
            if score > best_score:
                best = shard
                best_score = score
        return best


class _SeedCappedPlacer(PlacementStrategy):
    """Seed-semantics size-cap logic: dense allowed/tied enumeration."""

    def __init__(
        self,
        n_shards: int,
        epsilon: float = PAPER_EPSILON,
        expected_total: int | None = None,
        tie_break: str = "random",
        seed: int = 0,
    ) -> None:
        super().__init__(n_shards)
        self.epsilon = epsilon
        self.expected_total = expected_total
        self.tie_break = tie_break
        self._rng = make_rng(seed)
        self._sizes = [0] * n_shards

    def _cap(self) -> float:
        if self.expected_total is not None:
            return (1.0 + self.epsilon) * (
                self.expected_total // self.n_shards
            )
        total = self.n_placed + 1
        return (1.0 + self.epsilon) * math.ceil(total / self.n_shards) + 1.0

    def _under_cap(self, shard: int) -> bool:
        return self._sizes[shard] + 1 <= self._cap()

    def _best_allowed(self, scores) -> int:
        allowed = [s for s in range(self.n_shards) if self._under_cap(s)]
        if not allowed:
            return min(range(self.n_shards), key=self._sizes.__getitem__)
        top = max(scores[s] for s in allowed)
        tied = [s for s in allowed if scores[s] == top]
        if len(tied) == 1 or self.tie_break == "first":
            return tied[0]
        if self.tie_break == "lightest":
            return min(tied, key=self._sizes.__getitem__)
        return tied[self._rng.randrange(len(tied))]

    def _record(self, shard: int) -> None:
        self._sizes[shard] += 1

    def _on_forced(self, tx: Transaction, shard: int) -> None:
        self._record(shard)


class SeedGreedyPlacer(_SeedCappedPlacer):
    """Seed-semantics Greedy baseline (dense per-transaction scores)."""

    name = "greedy_seed"

    def _choose(self, tx: Transaction) -> int:
        scores = [0.0] * self.n_shards
        for parent in tx.input_txids:
            scores[self.shard_of(parent)] += 1.0
        shard = self._best_allowed(scores)
        self._record(shard)
        return shard


class SeedT2SOnlyPlacer(_SeedCappedPlacer):
    """Seed-semantics T2S-based baseline (dense per-transaction scores)."""

    name = "t2s_seed"

    def __init__(
        self,
        n_shards: int,
        epsilon: float = PAPER_EPSILON,
        expected_total: int | None = None,
        tie_break: str = "random",
        seed: int = 0,
        alpha: float = 0.5,
        outdeg_mode: str = "spenders",
    ) -> None:
        super().__init__(
            n_shards,
            epsilon=epsilon,
            expected_total=expected_total,
            tie_break=tie_break,
            seed=seed,
        )
        self.scorer = SeedT2SScorer(
            n_shards, alpha=alpha, outdeg_mode=outdeg_mode
        )

    def _choose(self, tx: Transaction) -> int:
        sparse = self.scorer.add_transaction(
            tx.txid, tx.input_txids, len(tx.outputs)
        )
        scores = [0.0] * self.n_shards
        for shard, value in sparse.items():
            scores[shard] = value
        shard = self._best_allowed(scores)
        self.scorer.place(tx.txid, shard)
        self._record(shard)
        return shard

    def _on_forced(self, tx: Transaction, shard: int) -> None:
        self.scorer.add_transaction(tx.txid, tx.input_txids, len(tx.outputs))
        self.scorer.place(tx.txid, shard)
        self._record(shard)


def digest_seed(tx: Transaction) -> bytes:
    """The seed Transaction.digest: one hasher + update per field.

    The optimized digest assembles a single buffer and hashes it with
    one update on a copied prototype hasher; a streaming hash over the
    concatenation is the same hash, which this reference documents (and
    the golden test asserts).
    """
    import hashlib

    hasher = hashlib.blake2b(digest_size=20)
    hasher.update(tx.txid.to_bytes(8, "big"))
    for outpoint in tx.inputs:
        hasher.update(outpoint.txid.to_bytes(8, "big"))
        hasher.update(outpoint.index.to_bytes(4, "big"))
    for output in tx.outputs:
        hasher.update(output.value.to_bytes(8, "big", signed=False))
        hasher.update(output.address.to_bytes(8, "big", signed=True))
    return hasher.digest()


class SeedOmniLedgerRandomPlacer(PlacementStrategy):
    """Seed-cost OmniLedger random placement: ``hash(tx) mod k``.

    Same decisions as :class:`repro.core.baselines.OmniLedgerRandomPlacer`
    - the golden test asserts identical assignments - but running the
    seed implementations of everything the simulator-overhaul PR touched
    on the issue path: per-field streaming digest, the dict+tuple
    ``input_txids`` detour in ``input_shards``, and the original
    ``place`` wrapper with its helper-frame size bump. The simulator
    throughput benchmark pairs this with the seed event loop so its
    before/after ratio charges the seed lane its true historical cost.
    """

    name = "omniledger_seed"

    def _choose(self, tx: Transaction) -> int:
        # n_shards > 0 is enforced by PlacementStrategy.__init__.
        return int.from_bytes(digest_seed(tx)[:8], "big") % self.n_shards

    def place(self, tx: Transaction) -> int:
        # The seed place() wrapper: helper-frame _bump_shard_size call.
        if tx.txid != len(self._assignment):
            raise PlacementError(
                f"transactions must be placed in dense stream order: got "
                f"{tx.txid}, expected {len(self._assignment)}"
            )
        shard = self._choose(tx)
        if not 0 <= shard < self.n_shards:
            raise PlacementError(
                f"{type(self).__name__} produced shard {shard}, valid "
                f"range is [0, {self.n_shards})"
            )
        self._assignment.append(shard)
        self._bump_shard_size(shard)
        return shard

    def input_shards(self, tx: Transaction) -> set[int]:
        # The seed derivation via the deduplicated input_txids tuple.
        return {self._assignment[parent] for parent in tx.input_txids}
