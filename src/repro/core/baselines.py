"""Baseline placement strategies the paper compares against (§IV-B, §V).

- :class:`OmniLedgerRandomPlacer` - the incumbent: hash the transaction
  to a shard. Balanced but blind to structure (94-99.98% cross-TXs).
- :class:`GreedyPlacer` - place with the most input transactions, under a
  ``(1 + epsilon) * n/k`` size cap (the paper's Greedy, §IV-B).
- :class:`T2SOnlyPlacer` - argmax of the T2S score under the same cap
  (the "T2S-based" method of Tables I/II; alpha = 0.5, epsilon = 0.1).
- :class:`MetisOfflinePlacer` - replays a precomputed offline partition
  (METIS k-way in the paper, our multilevel partitioner here). Unrealistic
  - it requires the whole future - but the paper's lower bound on
  cross-TXs.
"""

from __future__ import annotations

import math
from typing import Any, Sequence

from repro.core._fenwick import FenwickFlags
from repro.core.placement import PlacementStrategy
from repro.core.scorer import DEFAULT_SUPPORT_CAP
from repro.core.t2s import T2SScorer, make_support_scorer
from repro.errors import ConfigurationError, PlacementError
from repro.rng import make_rng
from repro.utxo.transaction import Transaction

PAPER_EPSILON = 0.1


class OmniLedgerRandomPlacer(PlacementStrategy):
    """OmniLedger's default placement: ``hash(tx) mod k``."""

    name = "omniledger"

    def _choose(self, tx: Transaction) -> int:
        # Transaction.shard_hash inlined (same digest, same modulus):
        # n_shards > 0 is already enforced at construction.
        return int.from_bytes(tx.digest()[:8], "big") % self.n_shards

    def place(self, tx: Transaction) -> int:
        """Place one transaction; returns its shard.

        Overrides the base wrapper with the hash choice inlined - this
        is the per-issued-transaction path of every random-placement
        simulation, and the choice cannot go out of range, so the
        wrapper's range re-check and the ``_choose`` frame are skipped.
        Decisions and bookkeeping are identical to the base class (the
        simulator equivalence tests pin this).
        """
        assignment = self._assignment
        if tx.txid != len(assignment):
            raise PlacementError(
                f"transactions must be placed in dense stream order: got "
                f"{tx.txid}, expected {len(assignment)}"
            )
        shard = int.from_bytes(tx.digest()[:8], "big") % self.n_shards
        assignment.append(shard)
        self._bump_shard_size(shard)
        return shard


TIE_BREAKS = ("first", "lightest", "random")


class _CappedPlacer(PlacementStrategy):
    """Shared size-cap logic for Greedy and T2S-based placers.

    The paper caps each shard at ``(1 + epsilon) * floor(n / k)`` where
    ``n`` is the total number of transactions. ``expected_total`` supplies
    ``n`` when known (Table I/II runs know the stream length); without
    it the cap tracks the running count, keeping the same (1 + epsilon)
    headroom over the ideal share at every moment.

    ``tie_break`` decides among equal-score shards:

    - ``"random"`` (default, paper-faithful): a uniformly random shard
      among the tied ones. Transactions with no informative inputs (all
      coinbases, and every overflow past a capped favourite) scatter,
      which is how the paper's Greedy fragments wallet chains across
      shards and lands at 24-29% cross-TXs while the deep-ancestry T2S
      score re-coheres them (Table I).
    - ``"first"``: plain argmin-index argmax. Ties pile into the lowest
      shard id, producing wave-fill dynamics and the extreme temporal
      imbalance of the paper's Fig. 6c.
    - ``"lightest"``: prefer the smaller shard - a balance-aware variant
      measured in the ablation bench.
    """

    def __init__(
        self,
        n_shards: int,
        epsilon: float = PAPER_EPSILON,
        expected_total: int | None = None,
        tie_break: str = "random",
        seed: int = 0,
    ) -> None:
        super().__init__(n_shards)
        if epsilon < 0:
            raise ConfigurationError(f"epsilon must be >= 0, got {epsilon}")
        if expected_total is not None and expected_total <= 0:
            raise ConfigurationError(
                f"expected_total must be > 0, got {expected_total}"
            )
        if tie_break not in TIE_BREAKS:
            raise ConfigurationError(
                f"tie_break must be one of {TIE_BREAKS}, got {tie_break!r}"
            )
        self.epsilon = epsilon
        self.expected_total = expected_total
        self.tie_break = tie_break
        self._rng = make_rng(seed)
        # Lightest-shard queries (the all-capped fallback and the check
        # that some shard is still under the cap) are O(log n_shards).
        self.size_argmin()
        self._rebuild_allowed()

    def _cap(self) -> float:
        if self.expected_total is not None:
            # The paper's cap: (1 + eps) * floor(n / k) with n known.
            return (1.0 + self.epsilon) * (
                self.expected_total // self.n_shards
            )
        # Online variant: same headroom over the running ideal share,
        # with +1 slack so tiny prefixes (floor = 0) don't force every
        # placement through the all-capped fallback.
        total = self.n_placed + 1
        return (1.0 + self.epsilon) * math.ceil(total / self.n_shards) + 1.0

    def _under_cap(self, shard: int) -> bool:
        return self._shard_sizes[shard] + 1 <= self._cap()

    def _best_allowed(self, scores: Sequence[float]) -> int:
        """Highest score among shards under the cap.

        Falls back to the smallest shard when every shard is at the cap
        (possible early in a run when ``floor(n / k)`` is small).
        """
        cap = self._cap()
        sizes = self._shard_sizes
        allowed = [
            s for s in range(self.n_shards) if sizes[s] + 1 <= cap
        ]
        if not allowed:
            _, lightest = self.size_argmin().peek()
            return lightest
        top = max(scores[s] for s in allowed)
        tied = [s for s in allowed if scores[s] == top]
        return self._pick_tied(tied)

    def _best_allowed_sparse(self, sparse_scores: dict[int, float]) -> int:
        """``_best_allowed`` over a sparse score map; missing shards = 0.

        Fast path for the common case of a unique positive maximum: only
        the sparse support is inspected and the RNG is untouched, exactly
        as the dense scan behaves when ``len(tied) == 1``. Whenever a
        zero score could win (empty support, every scored shard capped,
        or a zero top), the dense scan runs instead so tie enumeration -
        and therefore RNG consumption - is byte-for-byte identical. The
        empty support (coinbase) case short-circuits further: see
        :meth:`_zero_support_choice`.
        """
        if not sparse_scores:
            return self._zero_support_choice()
        cap = self._cap()
        sizes = self._shard_sizes
        top = 0.0
        tied_count = 0
        for shard, score in sparse_scores.items():
            if sizes[shard] + 1 > cap:
                continue
            if score > top:
                top = score
                tied_count = 1
            elif score == top and top > 0.0:
                tied_count += 1
        if tied_count == 0 or top <= 0.0:
            # A zero score (some unscored shard) ties for the max, or
            # everything scored is capped: delegate to the dense scan.
            scores = [0.0] * self.n_shards
            for shard, score in sparse_scores.items():
                scores[shard] = score
            return self._best_allowed(scores)
        if tied_count == 1:
            for shard, score in sparse_scores.items():
                if score == top and sizes[shard] + 1 <= cap:
                    return shard
        tied = sorted(
            shard
            for shard, score in sparse_scores.items()
            if score == top and sizes[shard] + 1 <= cap
        )
        return self._pick_tied(tied)

    def _zero_support_choice(self) -> int:
        """Placement of a transaction with no scored shard (coinbase).

        Every shard ties at score zero, so the dense scan's tied list is
        exactly the under-cap ("allowed") shards in id order. That set
        is maintained incrementally as 0/1 flags in a Fenwick tree
        (:class:`~repro.core._fenwick.FenwickFlags`): its popcount is
        the dense ``len(tied)`` and ``select(i)`` its ``tied[i]``, so
        every tie-break reproduces the dense enumeration - including
        its RNG consumption - in O(log k) instead of the seed's
        O(n_shards) list builds per coinbase (measurable in bootstrap
        bursts at 256+ shards; see tests/core/test_capped_fallback.py):

        - ``random``: ``randrange(count)`` then ``select(i)`` - the
          same draw, and the i-th allowed shard *is* ``tied[i]``;
        - ``first``: ``select(0)``, the lowest allowed id;
        - ``lightest``: the lazy size-argmin's minimum. The globally
          smallest shard is always allowed while any shard is (its
          size is the minimum), and both structures break size ties
          toward the lower id, exactly like
          ``min(tied, key=sizes.__getitem__)``.

        With *every* shard capped (possible under a known-total cap on
        tiny prefixes) the dense scan falls back to the lightest shard;
        so does this.
        """
        self._sync_cap_limit()
        allowed = self._allowed
        count = allowed.total
        if count == 0:
            # All shards at the cap: the dense scan's explicit fallback.
            return self.size_argmin().peek()[1]
        if count == 1:
            # len(tied) == 1 never touches the RNG in the dense path.
            return allowed.select(0)
        tie_break = self.tie_break
        if tie_break == "random":
            return allowed.select(self._rng.randrange(count))
        if tie_break == "lightest":
            return self.size_argmin().peek()[1]
        return allowed.select(0)

    # -- allowed-set maintenance (under-cap shards) ------------------------

    def _rebuild_allowed(self) -> None:
        """Recompute the allowed flags from sizes + cap (init/restore).

        ``_cap_limit`` is the largest size a shard may hold and still
        accept one more transaction (``size + 1 <= cap``), i.e. the
        integer threshold the float cap collapses to; -1 means the cap
        admits nothing. Shards above it are parked in per-size buckets
        so a later cap rise can readmit exactly the levels it uncaps.
        """
        cap = self._cap()
        limit = -1
        if cap >= 1.0:
            limit = max(0, math.floor(cap - 1.0))
            while limit + 2 <= cap:
                limit += 1
            while limit >= 0 and limit + 1 > cap:
                limit -= 1
        self._cap_limit = limit
        sizes = self._shard_sizes
        capped_at: dict[int, set[int]] = {}
        if self.n_placed == 0 and limit >= 0:
            allowed = FenwickFlags(self.n_shards, initial=True)
        else:
            allowed = FenwickFlags(self.n_shards, initial=False)
            for shard, size in enumerate(sizes):
                if size <= limit:
                    allowed.add(shard, 1)
                else:
                    capped_at.setdefault(size, set()).add(shard)
        self._allowed = allowed
        self._capped_at = capped_at

    def _sync_cap_limit(self) -> None:
        """Raise the integer cap threshold to match the (monotone) cap,
        readmitting the size levels it uncapped. Amortized O(1): the
        online cap rises ~(1 + epsilon) per n_shards placements and
        each shard re-enters at most once per level."""
        cap = self._cap()
        limit = self._cap_limit
        if limit + 2 > cap:
            return
        allowed = self._allowed
        capped_at = self._capped_at
        while limit + 2 <= cap:
            limit += 1
            bucket = capped_at.pop(limit, None)
            if bucket:
                for shard in bucket:
                    allowed.add(shard, 1)
        self._cap_limit = limit

    def _bump_shard_size(self, shard: int) -> None:
        super()._bump_shard_size(shard)
        new_size = self._shard_sizes[shard]
        limit = self._cap_limit
        if new_size > limit:
            old_size = new_size - 1
            if old_size <= limit:
                self._allowed.add(shard, -1)
            else:
                self._capped_at[old_size].discard(shard)
            self._capped_at.setdefault(new_size, set()).add(shard)

    def _pick_tied(self, tied: Sequence[int]) -> int:
        if len(tied) == 1 or self.tie_break == "first":
            return tied[0]
        if self.tie_break == "lightest":
            return min(tied, key=self._shard_sizes.__getitem__)
        return tied[self._rng.randrange(len(tied))]

    # -- state export ------------------------------------------------------

    def export_state(self) -> dict[str, Any]:
        state = super().export_state()
        # getstate() is (version, (625 uint32 words...), gauss_next).
        state["rng_state"] = self._rng.getstate()
        return state


class GreedyPlacer(_CappedPlacer):
    """Maximize input transactions already in the shard (§IV-B Greedy).

    The paper defines the cost ``f(u, j) = |Sin(u) \\ S_j|`` (inputs *not*
    in shard ``j``) and selects the extremal shard; minimizing that cost
    equals maximizing the inputs inside ``j``, which is what we compute.
    One-hop only - no global view - which is exactly the weakness the
    T2S score fixes.
    """

    name = "greedy"

    def _choose(self, tx: Transaction) -> int:
        assignment = self._assignment
        counts: dict[int, float] = {}
        get = counts.get
        for parent in tx.input_txids:
            shard = assignment[parent]
            counts[shard] = get(shard, 0.0) + 1.0
        return self._best_allowed_sparse(counts)


class T2SOnlyPlacer(_CappedPlacer):
    """Place at the T2S argmax under the Greedy size cap ("T2S-based").

    This is the method behind Tables I and II: like Greedy but scoring
    with the random-walk T2S instead of one-hop input counts.
    """

    name = "t2s"

    def __init__(
        self,
        n_shards: int,
        epsilon: float = PAPER_EPSILON,
        expected_total: int | None = None,
        tie_break: str = "random",
        seed: int = 0,
        alpha: float = 0.5,
        outdeg_mode: str = "spenders",
        scorer: T2SScorer | None = None,
    ) -> None:
        super().__init__(
            n_shards,
            epsilon=epsilon,
            expected_total=expected_total,
            tie_break=tie_break,
            seed=seed,
        )
        # ``scorer`` is the subclass hook (t2s-topk injects a
        # bounded-support one); external callers configure via
        # alpha/outdeg_mode.
        self.scorer = scorer or T2SScorer(
            n_shards, alpha=alpha, outdeg_mode=outdeg_mode
        )

    def _choose(self, tx: Transaction) -> int:
        raw = self.scorer.add_transaction_raw(
            tx.txid, tx.input_txids, len(tx.outputs)
        )
        scorer_sizes = self.scorer._shard_sizes
        sparse = {
            shard: mass / (scorer_sizes[shard] or 1)
            for shard, mass in raw.items()
        }
        shard = self._best_allowed_sparse(sparse)
        self.scorer.place(tx.txid, shard)
        return shard

    def _on_forced(self, tx: Transaction, shard: int) -> None:
        self.scorer.add_transaction_raw(
            tx.txid, tx.input_txids, len(tx.outputs)
        )
        self.scorer.place(tx.txid, shard)

    def export_state(self) -> dict[str, Any]:
        state = super().export_state()
        state["scorer"] = self.scorer.export_state()
        return state


class TopKT2SOnlyPlacer(T2SOnlyPlacer):
    """The capped "T2S-based" baseline with bounded-support scoring.

    The mirror of ``optchain-topk`` for the ``t2s`` lane: same
    size-capped argmax decision rule as :class:`T2SOnlyPlacer`, but the
    scorer retains only ``support_cap`` entries per vector
    (:class:`~repro.core.t2s.TopKT2SScorer`; ``"auto:<rate>"`` selects
    the adaptive cap). With ``support_cap >= n_shards`` placements are
    bit-identical to the exact baseline - vector keys are shard ids,
    so truncation never fires - which is the registration test's gate.
    """

    name = "t2s-topk"

    def __init__(
        self,
        n_shards: int,
        support_cap: "int | str" = DEFAULT_SUPPORT_CAP,
        epsilon: float = PAPER_EPSILON,
        expected_total: int | None = None,
        tie_break: str = "random",
        seed: int = 0,
        alpha: float = 0.5,
        outdeg_mode: str = "spenders",
        support_initial_cap: "int | None" = None,
        support_window: "int | None" = None,
    ) -> None:
        super().__init__(
            n_shards,
            epsilon=epsilon,
            expected_total=expected_total,
            tie_break=tie_break,
            seed=seed,
            alpha=alpha,
            outdeg_mode=outdeg_mode,
            scorer=make_support_scorer(
                n_shards,
                support_cap,
                alpha=alpha,
                outdeg_mode=outdeg_mode,
                initial_cap=support_initial_cap,
                window=support_window,
            ),
        )

    @property
    def support_cap(self) -> int:
        """Max retained entries per T2S vector (current value)."""
        return self.scorer.support_cap


class MetisOfflinePlacer(PlacementStrategy):
    """Replay a precomputed offline partition (the paper's Metis k-way).

    Build the assignment with
    :func:`repro.partition.metis_like.partition_tan` over the full TaN
    graph, then replay it through the simulator like any online placer.
    """

    name = "metis"

    def __init__(
        self, n_shards: int, precomputed: Sequence[int] | None = None
    ) -> None:
        super().__init__(n_shards)
        if precomputed is None:
            raise ConfigurationError(
                "MetisOfflinePlacer needs precomputed=<assignment list>; "
                "compute it with repro.partition.partition_tan"
            )
        for node, shard in enumerate(precomputed):
            if not 0 <= shard < n_shards:
                raise ConfigurationError(
                    f"precomputed assignment sends node {node} to shard "
                    f"{shard}, valid range is [0, {n_shards})"
                )
        self._precomputed = list(precomputed)

    def _choose(self, tx: Transaction) -> int:
        if tx.txid >= len(self._precomputed):
            raise PlacementError(
                f"precomputed assignment covers {len(self._precomputed)} "
                f"transactions; transaction {tx.txid} is beyond it"
            )
        return self._precomputed[tx.txid]
