"""Transaction-to-Shard (T2S) score - §IV-B of the paper.

The T2S score of a new transaction ``u`` against shard ``i`` measures the
probability that a PageRank-style random walk from ``u`` over the TaN DAG
terminates in shard ``i`` - how much of ``u``'s ancestry shard ``i``
already owns. The paper's incremental formulation avoids recomputing the
walk for the whole graph on every arrival:

- each placed transaction ``v`` keeps an *unnormalized* sparse vector
  ``p'(v)``;
- on arrival of ``u``::

      p'(u) = (1 - alpha) * sum_{v in Nin(u)} p'(v) / |Nout(v)|
      p(u)[i] = p'(u)[i] / |S_i|          (the normalized T2S score)

- after placing ``u`` into shard ``s``: ``p'(u)[s] += alpha``.

Cost per transaction is ``O(|Nin(u)| * nnz)`` - constant on average since
the TaN is scale-free (paper: average degree about 2.3) and ``p'`` stays
very sparse (mass concentrates on the ancestor shards).

``|Nout(v)|`` semantics: the paper divides by the size of ``Nout(v)``,
the set of transactions spending ``v``'s outputs, *as known when u
arrives* (it is never retroactively updated). That literal reading is the
default (``outdeg_mode="spenders"``). The alternative capacity reading -
divide by the number of outputs ``v`` created, i.e. the maximum possible
spenders - is available as ``outdeg_mode="outputs"`` and compared in the
ablation bench.
"""

from __future__ import annotations

import math
from typing import Any, Sequence

from repro.core.scorer import (
    DEFAULT_SUPPORT_CAP,
    PlacementScorer,
    parse_support_cap,
    truncate_support,
)
from repro.errors import ConfigurationError, PlacementError

OUTDEG_MODES = ("spenders", "outputs")


class T2SScorer(PlacementScorer):
    """Incremental T2S scoring engine (the ``"exact"`` scorer kind).

    Usage per arriving transaction::

        scores = scorer.add_transaction(txid, input_txids, n_outputs)
        shard = ...  # choose using scores (and L2S)
        scorer.place(txid, shard)

    ``add_transaction`` must be called in stream order (dense txids);
    ``place`` must be called exactly once per added transaction before
    the next one is added.
    """

    kind = "exact"

    # Truncation accounting, all zero for the exact scorer: reads
    # (support_stats, snapshots) stay uniform across scorer kinds
    # without per-instance storage on this slotted hot class.
    _dropped_mass = 0.0
    _truncated_vectors = 0

    __slots__ = (
        "n_shards",
        "alpha",
        "outdeg_mode",
        "prune_epsilon",
        "_p_prime",
        "_spender_count",
        "_output_count",
        "_shard_sizes",
        "_pending",
        "_scale",
        "_spenders_divisor",
        "_min_mass",
        "_released",
    )

    def __init__(
        self,
        n_shards: int,
        alpha: float = 0.5,
        outdeg_mode: str = "spenders",
        prune_epsilon: float = 1e-12,
    ) -> None:
        if n_shards <= 0:
            raise ConfigurationError(f"n_shards must be > 0, got {n_shards}")
        if not 0.0 < alpha <= 1.0:
            raise ConfigurationError(
                f"alpha must be in (0, 1], got {alpha}"
            )
        if outdeg_mode not in OUTDEG_MODES:
            raise ConfigurationError(
                f"outdeg_mode must be one of {OUTDEG_MODES}, got "
                f"{outdeg_mode!r}"
            )
        if prune_epsilon < 0:
            raise ConfigurationError(
                f"prune_epsilon must be >= 0, got {prune_epsilon}"
            )
        self.n_shards = n_shards
        self.alpha = alpha
        self.outdeg_mode = outdeg_mode
        self.prune_epsilon = prune_epsilon
        # p'(v) as sparse dict shard -> mass, per transaction. A slot
        # is None once the vector has been released (see
        # :meth:`release_vector`).
        self._p_prime: list[dict[int, float] | None] = []
        # Spender count observed so far, per transaction.
        self._spender_count: list[int] = []
        # Output (UTXO) count, per transaction. Only maintained (and
        # only read) when outdeg_mode="outputs"; the default "spenders"
        # divisor never consults it, so the bookkeeping is skipped.
        self._output_count: list[int] = []
        self._shard_sizes = [0] * n_shards
        self._pending: int | None = None
        # Lower bound on the smallest mass of each vector (inf when
        # empty). When ``bound * factor`` clears prune_epsilon, a child
        # vector can skip the entry-by-entry pruning filter entirely.
        self._min_mass: list[float] = []
        # Vectors dropped by the truncation policy (repro.service): the
        # slot holds None, which every read path treats as an empty
        # vector (zero ancestry mass).
        self._released = 0
        # Hot-loop constants, hoisted out of add_transaction_raw.
        self._scale = 1.0 - alpha
        self._spenders_divisor = outdeg_mode == "spenders"

    # -- queries ---------------------------------------------------------

    @property
    def n_transactions(self) -> int:
        """Transactions added so far."""
        return len(self._p_prime)

    @property
    def shard_sizes(self) -> list[int]:
        """Copy of the per-shard placement counts ``|S_i|``."""
        return list(self._shard_sizes)

    @property
    def released_count(self) -> int:
        """Vectors dropped so far by :meth:`release_vector`."""
        return self._released

    @property
    def live_vector_count(self) -> int:
        """Vectors still held in memory (added minus released).

        This is the quantity the service-layer truncation policy bounds:
        without truncation it equals :attr:`n_transactions` and the
        store grows without limit (~1.5 GB at 10M transactions).
        """
        return len(self._p_prime) - self._released

    def support_stats(self) -> dict[str, Any]:
        """Support/saturation observability: live-vector count, mean
        and max vector nnz, and cumulative truncation accounting.

        One O(n_transactions) sweep per call (released slots are kept
        as None placeholders, so they still cost a cheap identity
        check each) - paid by the caller of a ``stats`` op, never by
        the placement hot path (which is why the nnz aggregates are
        not maintained incrementally). ~20 ms per million transactions
        on this container: fine for operator polling, not for per-batch
        calls.
        """
        live = 0
        total_nnz = 0
        max_nnz = 0
        for vector in self._p_prime:
            if vector is None:
                continue
            live += 1
            nnz = len(vector)
            total_nnz += nnz
            if nnz > max_nnz:
                max_nnz = nnz
        return {
            "live_vectors": live,
            "mean_nnz": (total_nnz / live) if live else 0.0,
            "max_nnz": max_nnz,
            "dropped_mass": self._dropped_mass,
            "truncated_vectors": self._truncated_vectors,
            "support_cap": self.support_cap,
        }

    def p_prime_of(self, txid: int) -> dict[int, float]:
        """Copy of the unnormalized vector of a transaction."""
        vector = self._p_prime[txid]
        if vector is None:
            raise PlacementError(
                f"vector of transaction {txid} was released"
            )
        return dict(vector)

    # -- the incremental recurrence ---------------------------------------

    def add_transaction(
        self,
        txid: int,
        input_txids: Sequence[int],
        n_outputs: int = 1,
    ) -> dict[int, float]:
        """Compute the T2S scores of an arriving transaction.

        Returns the *normalized* sparse score map ``{shard: p(u)[shard]}``
        (missing shards score 0). Registers ``u`` as a spender of each
        input, which is what advances ``|Nout(v)|`` for later arrivals.
        """
        self.add_transaction_raw(txid, input_txids, n_outputs)
        return self.normalized(txid)

    def add_transaction_raw(
        self,
        txid: int,
        input_txids: Sequence[int],
        n_outputs: int = 1,
    ) -> dict[int, float]:
        """Like :meth:`add_transaction` but returns the *unnormalized*
        ``p'(u)`` map, borrowed (not copied) from internal state.

        Callers must not mutate the returned dict; normalize an entry on
        the fly as ``mass / max(1, shard_sizes[shard])``. This is the
        placement hot path: it skips the normalized-dict allocation that
        :meth:`add_transaction` pays.
        """
        if self._pending is not None:
            raise PlacementError(
                f"transaction {self._pending} was added but never placed"
            )
        all_p_prime = self._p_prime
        if txid != len(all_p_prime):
            raise PlacementError(
                f"transactions must arrive in dense order: got {txid}, "
                f"expected {len(all_p_prime)}"
            )
        spender_count = self._spender_count
        scale = self._scale
        epsilon = self.prune_epsilon
        # Register u as a spender of each distinct input *before* reading
        # the divisor, so |Nout(v)| includes the edge that u itself just
        # created (a walk from u can only re-enter v's spenders through
        # an edge that exists).
        if len(input_txids) == 1:
            # Average TaN degree is ~2.3 with deduplicated parents, so a
            # single input is the dominant case: no distinct-dict, no
            # accumulation dict - one scaled copy of the parent vector.
            parent = input_txids[0]
            if not 0 <= parent < txid:
                raise PlacementError(
                    f"transaction {txid} has invalid input {parent}"
                )
            spender_count[parent] += 1
            p_prime: dict[int, float] = {}
            bound = math.inf
            if scale > 0.0:
                parent_vector = all_p_prime[parent]
                if parent_vector:
                    if self._spenders_divisor:
                        divisor = spender_count[parent]
                    else:
                        divisor = max(
                            self._output_count[parent],
                            spender_count[parent],
                        )
                    factor = scale / divisor
                    bound = self._min_mass[parent] * factor
                    if epsilon > 0.0 and bound <= epsilon:
                        # Something may fall below the pruning floor:
                        # filter entry by entry, then refresh the bound
                        # so descendants regain the fast path.
                        p_prime = {
                            shard: mass
                            for shard, raw in parent_vector.items()
                            if (mass := raw * factor) > epsilon
                        }
                        bound = (
                            min(p_prime.values()) if p_prime else math.inf
                        )
                    else:
                        # Every scaled mass provably clears the floor
                        # (scaling by a positive factor is monotone even
                        # after rounding), so the filter would keep
                        # everything - skip it.
                        p_prime = {
                            shard: raw * factor
                            for shard, raw in parent_vector.items()
                        }
        else:
            distinct: dict[int, None] = {}
            for parent in input_txids:
                if not 0 <= parent < txid:
                    raise PlacementError(
                        f"transaction {txid} has invalid input {parent}"
                    )
                distinct.setdefault(parent, None)
            for parent in distinct:
                spender_count[parent] += 1

            p_prime = {}
            if scale > 0.0:
                get = None
                for parent in distinct:
                    parent_vector = all_p_prime[parent]
                    if not parent_vector:
                        continue
                    if self._spenders_divisor:
                        divisor = spender_count[parent]
                    else:
                        divisor = max(
                            self._output_count[parent],
                            spender_count[parent],
                        )
                    factor = scale / divisor
                    if get is None:
                        # First contributing parent: a C-level dictcomp
                        # (0.0 + m*factor == m*factor bitwise).
                        p_prime = {
                            shard: mass * factor
                            for shard, mass in parent_vector.items()
                        }
                        get = p_prime.get
                    else:
                        for shard, mass in parent_vector.items():
                            p_prime[shard] = get(shard, 0.0) + mass * factor
            if epsilon > 0.0 and p_prime:
                p_prime = {
                    shard: mass
                    for shard, mass in p_prime.items()
                    if mass > epsilon
                }
            bound = min(p_prime.values()) if p_prime else math.inf
        all_p_prime.append(p_prime)
        self._min_mass.append(bound)
        spender_count.append(0)
        if not self._spenders_divisor:
            self._output_count.append(n_outputs if n_outputs > 1 else 1)
        self._pending = txid
        return p_prime

    def normalized(self, txid: int) -> dict[int, float]:
        """Normalized scores ``p(u)[i] = p'(u)[i] / |S_i|``.

        Empty shards divide by 1: a shard that holds nothing cannot hold
        ancestry, and its raw mass is necessarily 0 anyway.
        """
        vector = self._p_prime[txid]
        if vector is None:
            raise PlacementError(
                f"vector of transaction {txid} was released"
            )
        return {
            shard: mass / max(1, self._shard_sizes[shard])
            for shard, mass in vector.items()
        }

    def place(self, txid: int, shard: int) -> None:
        """Record the placement decision: ``p'(u)[shard] += alpha``."""
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
        vector[shard] = value = vector.get(shard, 0.0) + self.alpha
        min_mass = self._min_mass
        if value < min_mass[txid]:
            min_mass[txid] = value
        self._shard_sizes[shard] += 1
        self._pending = None

    def _divisor(self, parent: int) -> int:
        if self.outdeg_mode == "spenders":
            return self._spender_count[parent]
        return max(self._output_count[parent], self._spender_count[parent])

    # -- truncation (the epoch policy of repro.service) --------------------

    def release_vector(self, txid: int) -> None:
        """Drop the sparse vector of ``txid``; its slot reads as empty.

        The service layer calls this for transactions that can never be
        read again - fully-spent transactions whose spender counts have
        frozen (every read of ``p'(v)`` happens when a new child spends
        ``v``, and a fully-spent ``v`` admits no new children on a valid
        stream) - and, in horizon mode, for transactions that have aged
        out of the configured spend horizon. A released slot behaves as
        a vector of all zeros on every scoring path, so releasing a
        vector that *is* read later degrades the walk's ancestry signal
        instead of crashing; the exactness guarantee (placements
        bit-identical to an untruncated run) holds precisely when no
        released vector would have been read.

        Spender/output counts and the placement itself are kept - they
        are O(1) scalars per transaction, and later arrivals still need
        ``|Nout(v)|`` bookkeeping and ``assignment[v]``.
        """
        if not 0 <= txid < len(self._p_prime):
            raise PlacementError(
                f"cannot release unknown transaction {txid}"
            )
        if self._pending == txid:
            raise PlacementError(
                f"cannot release pending transaction {txid}"
            )
        if self._p_prime[txid] is not None:
            self._p_prime[txid] = None
            self._released += 1

    def release_vectors(self, txids) -> None:
        """Bulk :meth:`release_vector`: one call per truncation sweep.

        The service engine releases thousands of vectors per epoch
        boundary; per-txid method dispatch was ~5% of serving CPU, so
        the sweep loop lives inside the scorer with the hot state bound
        to locals.
        """
        p_prime = self._p_prime
        n = len(p_prime)
        pending = self._pending
        released = 0
        for txid in txids:
            if not 0 <= txid < n:
                raise PlacementError(
                    f"cannot release unknown transaction {txid}"
                )
            if txid == pending:
                raise PlacementError(
                    f"cannot release pending transaction {txid}"
                )
            if p_prime[txid] is not None:
                p_prime[txid] = None
                released += 1
        self._released += released

    # -- snapshot/restore --------------------------------------------------

    def export_hot_scalars(self) -> dict[str, Any]:
        """Stream-global scalar accounting, O(1) - the scorer's share of
        a partition handoff (:mod:`repro.service.partition`). Per-txid
        state (vectors, spender counts) stays with the owning partition;
        only what every future placement reads globally travels."""
        return {}

    def import_hot_scalars(self, scalars: dict[str, Any]) -> None:
        """Load a dump produced by :meth:`export_hot_scalars`."""

    def export_state(self) -> dict[str, Any]:
        """Plain-data dump of the scorer state (see service.state).

        Requires a quiescent scorer (no transaction added but not yet
        placed); the serving layer only snapshots between batches, where
        that always holds.
        """
        if self._pending is not None:
            raise PlacementError(
                f"cannot snapshot with transaction {self._pending} "
                "pending placement"
            )
        state: dict[str, Any] = {
            "p_prime": [
                None if vector is None else dict(vector)
                for vector in self._p_prime
            ],
            "spender_count": list(self._spender_count),
            "min_mass": list(self._min_mass),
            "shard_sizes": list(self._shard_sizes),
            "released": self._released,
        }
        if not self._spenders_divisor:
            state["output_count"] = list(self._output_count)
        return state


class TopKT2SScorer(T2SScorer):
    """Bounded-support T2S scoring (the ``"topk"`` scorer kind).

    Identical to the exact recurrence except that each arriving
    transaction's vector retains only its ``support_cap`` largest-mass
    entries (ties at the cutoff keep the lower shard id; survivors keep
    insertion order). Dropped mass is accumulated in
    ``dropped_mass_total`` so the signal the bound gives up stays
    observable - a production deployment can watch saturation instead
    of discovering it as quality drift.

    Why this is sound: the fitness argmax optimizes exactly over
    the stored sparse scores - its pruning bounds
    (``max(raw.values()) / min_size`` from above, the lightest shard's
    latency from below) are computed from the truncated vector itself,
    so every skip remains provably correct *for the truncated scorer*.
    Truncation changes which scores exist, never how the argmax treats
    them; a dropped shard scores exactly zero, which the spill path
    already handles. The trade is placement quality, not correctness,
    and it is measured (BENCH_placement.json ``topk_frontier``).

    With ``support_cap >= n_shards`` the variant is **bit-identical**
    to :class:`T2SScorer`: vector keys are shard ids, so nnz can never
    exceed ``n_shards`` and truncation never fires (pinned by
    ``tests/core/test_topk_scorer.py``).

    Placement-side vectors may transiently hold ``support_cap + 1``
    entries: :meth:`place` adds the chosen shard's ``alpha`` without
    evicting (evicting there would discard the freshest - and usually
    largest - signal), and children re-truncate on arrival, so the
    stored bound is ``support_cap + 1``.
    """

    kind = "topk"

    # No __slots__: the parent's class-level truncation attributes are
    # shadowed by per-instance values here, which slots would reject as
    # a name conflict. One dict per scorer instance (not per
    # transaction) is irrelevant to the hot path.

    def __init__(
        self,
        n_shards: int,
        support_cap: int = DEFAULT_SUPPORT_CAP,
        alpha: float = 0.5,
        outdeg_mode: str = "spenders",
        prune_epsilon: float = 1e-12,
    ) -> None:
        super().__init__(
            n_shards,
            alpha=alpha,
            outdeg_mode=outdeg_mode,
            prune_epsilon=prune_epsilon,
        )
        if support_cap < 1:
            raise ConfigurationError(
                f"support_cap must be >= 1, got {support_cap}"
            )
        self.support_cap = support_cap
        self._dropped_mass = 0.0
        self._truncated_vectors = 0

    @property
    def dropped_mass_total(self) -> float:
        """Cumulative T2S mass discarded by truncation."""
        return self._dropped_mass

    @property
    def truncated_vector_count(self) -> int:
        """Vectors that arrived with support above the cap."""
        return self._truncated_vectors

    def add_transaction_raw(
        self,
        txid: int,
        input_txids: Sequence[int],
        n_outputs: int = 1,
    ) -> dict[int, float]:
        raw = super().add_transaction_raw(txid, input_txids, n_outputs)
        cap = self.support_cap
        if len(raw) > cap:
            raw, dropped = truncate_support(raw, cap)
            self._p_prime[txid] = raw
            # cap >= 1, so the truncated vector is never empty.
            self._min_mass[txid] = min(raw.values())
            self._dropped_mass += dropped
            self._truncated_vectors += 1
        return raw

    # -- snapshot/restore --------------------------------------------------

    def export_hot_scalars(self) -> dict[str, Any]:
        return {
            "dropped_mass": self._dropped_mass,
            "truncated_vectors": self._truncated_vectors,
        }

    def import_hot_scalars(self, scalars: dict[str, Any]) -> None:
        self._dropped_mass = scalars["dropped_mass"]
        self._truncated_vectors = scalars["truncated_vectors"]

    def export_state(self) -> dict[str, Any]:
        state = super().export_state()
        state["dropped_mass"] = self._dropped_mass
        state["truncated_vectors"] = self._truncated_vectors
        return state


#: Adaptive-cap defaults: start at 4 retained entries (the cheapest
#: measured frontier point) and re-evaluate the dropped-mass rate every
#: 2000 transactions - long enough for the rate to be a signal, short
#: enough to converge within the first epoch of a long stream.
ADAPTIVE_INITIAL_CAP = 4
ADAPTIVE_WINDOW = 2_000


class AdaptiveTopKT2SScorer(TopKT2SScorer):
    """Bounded-support scoring with a self-tuning cap (``"topk-adaptive"``).

    Finishes the sublinear-support story: instead of hand-picking
    ``support_cap`` per workload, start small and *grow* it (doubling,
    up to ``n_shards``) while the observed *dropped-mass rate* - the
    fraction of processed T2S mass discarded by truncation over the
    last ``window`` transactions - stays above ``target_rate``. Once
    the rate crosses below the threshold the cap stops growing, landing
    at the smallest cap whose signal loss is acceptable. The cap never
    shrinks: saturation only increases as a stream ages (ROADMAP: nnz
    -> n_shards), so a cap that was once needed stays needed.

    A ``target_rate`` of 0 therefore grows the cap to ``n_shards``
    whenever *any* mass is dropped - converging to exact scoring -
    while a large rate freezes the initial cap. Both are property-
    tested.

    Not inlined: the window accounting needs the per-transaction
    retained mass, so OptChain's decision loop calls this scorer's
    :meth:`add_transaction_raw` per transaction instead of inlining the
    recurrence (:attr:`fused_compatible` is False). That costs about a
    quarter more interpreted work per transaction than the fixed-cap
    lane - the trade for not shipping a mistuned cap.
    """

    kind = "topk-adaptive"
    fused_compatible = False

    def __init__(
        self,
        n_shards: int,
        target_rate: float,
        support_cap: int = ADAPTIVE_INITIAL_CAP,
        window: int = ADAPTIVE_WINDOW,
        alpha: float = 0.5,
        outdeg_mode: str = "spenders",
        prune_epsilon: float = 1e-12,
    ) -> None:
        super().__init__(
            n_shards,
            # The cap can never usefully exceed n_shards (vector keys
            # are shard ids), so the initial cap is clamped.
            support_cap=min(support_cap, n_shards),
            alpha=alpha,
            outdeg_mode=outdeg_mode,
            prune_epsilon=prune_epsilon,
        )
        if not 0.0 <= target_rate < 1.0:
            raise ConfigurationError(
                f"target_rate must be in [0, 1), got {target_rate}"
            )
        if window < 1:
            raise ConfigurationError(
                f"window must be >= 1, got {window}"
            )
        self.target_rate = target_rate
        self.window = window
        self.initial_cap = self.support_cap
        self._window_count = 0
        self._window_mass = 0.0
        self._window_dropped = 0.0
        self._cap_growths = 0

    @property
    def cap_growths(self) -> int:
        """How many times the window check grew the cap."""
        return self._cap_growths

    def add_transaction_raw(
        self,
        txid: int,
        input_txids: Sequence[int],
        n_outputs: int = 1,
    ) -> dict[int, float]:
        dropped_before = self._dropped_mass
        raw = super().add_transaction_raw(txid, input_txids, n_outputs)
        dropped = self._dropped_mass - dropped_before
        # fsum: the retained mass must not depend on the vector's key
        # order, which is a state-representation artifact (the python
        # backend keeps first-touch insertion order, the typed-array
        # backend materializes rows in ascending shard order). An
        # exactly-rounded sum is identical under any permutation, so
        # the window accounting stays bit-identical across backends.
        retained = math.fsum(raw.values())
        self._window_mass += retained + dropped
        self._window_dropped += dropped
        self._window_count += 1
        if self._window_count >= self.window:
            self._evaluate_window()
        return raw

    def _evaluate_window(self) -> None:
        mass = self._window_mass
        if (
            mass > 0.0
            and self._window_dropped / mass > self.target_rate
            and self.support_cap < self.n_shards
        ):
            self.support_cap = min(self.support_cap * 2, self.n_shards)
            self._cap_growths += 1
        self._window_count = 0
        self._window_mass = 0.0
        self._window_dropped = 0.0

    # -- snapshot/handoff --------------------------------------------------

    def export_hot_scalars(self) -> dict[str, Any]:
        scalars = super().export_hot_scalars()
        scalars.update(
            {
                "support_cap": self.support_cap,
                "cap_growths": self._cap_growths,
                "window_count": self._window_count,
                "window_mass": self._window_mass,
                "window_dropped": self._window_dropped,
            }
        )
        return scalars

    def import_hot_scalars(self, scalars: dict[str, Any]) -> None:
        super().import_hot_scalars(scalars)
        self.support_cap = scalars["support_cap"]
        self._cap_growths = scalars["cap_growths"]
        self._window_count = scalars["window_count"]
        self._window_mass = scalars["window_mass"]
        self._window_dropped = scalars["window_dropped"]

    def export_state(self) -> dict[str, Any]:
        state = super().export_state()
        state.update(
            {
                "support_cap": self.support_cap,
                "cap_growths": self._cap_growths,
                "window_count": self._window_count,
                "window_mass": self._window_mass,
                "window_dropped": self._window_dropped,
            }
        )
        return state


def make_support_scorer(
    n_shards: int,
    support_cap,
    *,
    alpha: float = 0.5,
    outdeg_mode: str = "spenders",
    initial_cap: "int | None" = None,
    window: "int | None" = None,
) -> TopKT2SScorer:
    """Bounded-support scorer from a cap setting (int or ``auto:<r>``)."""
    mode, value = parse_support_cap(support_cap)
    if mode == "fixed":
        return TopKT2SScorer(
            n_shards,
            support_cap=value,
            alpha=alpha,
            outdeg_mode=outdeg_mode,
        )
    kwargs: dict[str, Any] = {}
    if initial_cap is not None:
        kwargs["support_cap"] = initial_cap
    if window is not None:
        kwargs["window"] = window
    return AdaptiveTopKT2SScorer(
        n_shards,
        target_rate=value,
        alpha=alpha,
        outdeg_mode=outdeg_mode,
        **kwargs,
    )


def t2s_reference_dense(
    arrivals: Sequence[tuple[int, Sequence[int], int]],
    placements: Sequence[int],
    n_shards: int,
    alpha: float = 0.5,
    outdeg_mode: str = "spenders",
) -> list[list[float]]:
    """Dense, no-pruning replay of the T2S recurrence (test oracle).

    ``arrivals`` is ``(txid, input_txids, n_outputs)`` in order;
    ``placements[txid]`` is the shard each transaction went to. Returns
    the *unnormalized* ``p'`` vectors after the full replay. The sparse
    incremental engine must agree with this up to pruning (exact when
    pruning is disabled).
    """
    if outdeg_mode not in OUTDEG_MODES:
        raise ConfigurationError(f"bad outdeg_mode {outdeg_mode!r}")
    p_prime: list[list[float]] = []
    spenders: list[int] = []
    outputs: list[int] = []
    for txid, input_txids, n_outputs in arrivals:
        distinct = list(dict.fromkeys(input_txids))
        for parent in distinct:
            spenders[parent] += 1
        vector = [0.0] * n_shards
        for parent in distinct:
            if outdeg_mode == "spenders":
                divisor = spenders[parent]
            else:
                divisor = max(outputs[parent], spenders[parent])
            for shard in range(n_shards):
                vector[shard] += (
                    (1.0 - alpha) * p_prime[parent][shard] / divisor
                )
        vector[placements[txid]] += alpha
        p_prime.append(vector)
        spenders.append(0)
        outputs.append(max(1, n_outputs))
    return p_prime
