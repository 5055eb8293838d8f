"""OptChain - Algorithm 1 of the paper.

For each arriving transaction ``u``:

1. compute the T2S scores ``p(u)`` incrementally (§IV-B);
2. compute the L2S scores ``E(j)`` from the current per-shard latency
   models (§IV-C);
3. place ``u`` into ``argmax_j p(u)[j] - 0.01 * E(j)`` (Temporal Fitness);
4. update ``p'(u)[chosen] += alpha``.

The latency models come from whoever can observe the shards. Inside the
simulator that is a live :class:`~repro.simulator.metrics.LatencyObserver`
fed by real queue lengths and consensus times. Outside a simulation
(static placement runs like Tables I/II) there are no shards to observe,
so :class:`LoadProxyLatencyProvider` models each shard's load from the
placer's own recent placements - an exponentially decayed arrival window
standing in for the queue a wallet would observe. With no provider at
all, OptChain degrades to pure T2S placement exactly as the paper's
"T2S-based" method (the L2S term is constant across shards).

**Hot path.** Placing one transaction costs O(degree) amortized, not
O(n_shards): the proxy decays lazily (one global exponent instead of
touching every shard), and the fitness argmax only evaluates the shards
that can win - the sparse T2S support, the input shards, and the
lightest remaining shard (served by a lazy min-heap). One loop,
:meth:`OptChainPlacer._place_loop`, makes every decision - batches,
single transactions, shadow scoring - and reproduces the naive
full-scan decisions exactly; see PERFORMANCE.md for the argument and
``tests/core/test_golden_equivalence.py`` for the enforcement.
"""

from __future__ import annotations

import math
from heapq import heapify, heappop, heappush, heapreplace
from typing import Any, Callable, Final, Sequence

from repro.core.fitness import PAPER_LATENCY_WEIGHT, TemporalFitness
from repro.core.l2s import L2SEstimator, ShardLatencyModel
from repro.core.placement import PlacementStrategy
from repro.core.scorer import (
    DEFAULT_SUPPORT_CAP,
    PlacementScorer,
    truncate_support,
)
from repro.core.t2s import T2SScorer, make_support_scorer
from repro.errors import ConfigurationError, PlacementError
from repro.utxo.transaction import Transaction

#: Returns one latency model per shard; called once per placement.
LatencyProvider = Callable[[], Sequence[ShardLatencyModel]]


class _ProxyDefault:
    """Sentinel type: "build a :class:`LoadProxyLatencyProvider`"."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "USE_LOAD_PROXY"


#: Default for ``OptChainPlacer(latency_provider=...)``: construct an
#: offline load proxy. A sentinel (the string ``"proxy"`` is still
#: accepted) so the parameter annotation is honest and type-checks.
USE_LOAD_PROXY: Final[_ProxyDefault] = _ProxyDefault()


class LoadProxyLatencyProvider:
    """Latency models derived from the placer's own placement history.

    Each shard's *pending load* is an exponentially decayed count of the
    transactions recently placed there: after each placement the load of
    the chosen shard grows by one and every load decays by
    ``exp(-1/window)``. The verification rate then scales inversely with
    the load (a queue of ``q`` transactions takes about
    ``(1 + q/block) * consensus_time``), matching how the paper estimates
    ``1/lambda_v`` "from observation of recent consensus time of shard i
    and its current queue size".

    **Lazy decay.** :meth:`record` is O(1) amortized: instead of decaying
    every shard on every placement, one global step counter tracks the
    decay exponent and each shard stores a *scaled* load
    ``load / decay^step``. True loads are materialized only when read
    (``load = scaled * decay^(step - offset)`` with the offset
    renormalized periodically so the scaled values never overflow).
    Uniform scaling preserves ordering, so "which shard is lightest" is
    answered from a lazy min-heap over the scaled values without
    materializing anything.

    Shards whose load has decayed below the resolution of the verify-time
    formula (``1 + load/block == 1.0`` in double precision) are demoted
    to an exact-zero cohort: their latency is bit-identical to an idle
    shard's from that point on anyway, and the demotion keeps the
    lightest-shard query from re-scanning long-idle shards forever.
    """

    # Renormalize the global exponent every ~500 decay windows: the
    # inverse scale is then at most e^500 ~ 7e216, far from overflow,
    # and the amortized cost is one O(n_shards) sweep per ~500*window
    # placements.
    _RENORM_WINDOWS = 500.0

    __slots__ = (
        "_scaled",
        "_decay",
        "_base_verify",
        "_base_comm",
        "_block",
        "_step",
        "_offset",
        "_scale",
        "_renorm_span",
        "_heap",
        "_zero_heap",
        "_compact_limit",
        "_comm_expected",
        "_base_total",
    )

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
        if window <= 0 or base_verify_time <= 0 or base_comm_time <= 0:
            raise ConfigurationError(
                "window, base_verify_time, base_comm_time must be > 0"
            )
        if block_capacity <= 0:
            raise ConfigurationError(
                f"block_capacity must be > 0, got {block_capacity}"
            )
        self._scaled = [0.0] * n_shards
        self._decay = math.exp(-1.0 / window)
        self._base_verify = base_verify_time
        self._base_comm = base_comm_time
        self._block = block_capacity
        self._step = 0
        self._offset = 0
        self._scale = 1.0
        self._renorm_span = max(1, int(self._RENORM_WINDOWS * window))
        # Lazy (scaled_load, shard) min-heap over shards with nonzero
        # load; exact-zero shards live in their own id-ordered heap.
        self._heap: list[tuple[float, int]] = []
        self._zero_heap = list(range(n_shards))
        self._compact_limit = max(64, 4 * n_shards)
        # Bit-identical to ShardLatencyModel(1/comm, 1/verify)
        # .expected_total - hence the double inversions.
        self._comm_expected = 1.0 / (1.0 / base_comm_time)
        self._base_total = self._comm_expected + 1.0 / (
            1.0 / (base_verify_time * 1.0)
        )

    @property
    def n_shards(self) -> int:
        """Number of shards tracked."""
        return len(self._scaled)

    @property
    def loads(self) -> list[float]:
        """Copy of the decayed per-shard loads."""
        scale = self._scale
        return [value * scale for value in self._scaled]

    def record(self, shard: int) -> None:
        """Account one placement into ``shard`` (decay is implicit)."""
        step = self._step + 1
        self._step = step
        span = step - self._offset
        decay = self._decay
        # pow keeps the scale exact to ~1 ulp regardless of how many
        # steps have passed (repeated multiplication would accumulate
        # drift over millions of placements).
        scale = decay ** span
        self._scale = scale
        old = self._scaled[shard]
        value = old + 1.0 / scale
        self._scaled[shard] = value
        # The heap holds at most a few entries per shard: a push happens
        # only when a shard leaves the zero cohort, and queries refresh
        # stale minima in place (heapreplace) instead of record pushing
        # a fresh entry every placement.
        if old == 0.0:
            heappush(self._heap, (value, shard))
        if span >= self._renorm_span:
            self._renormalize()
        elif len(self._heap) > self._compact_limit:
            self._rebuild_heaps()

    def expected_total_of(self, shard: int) -> float:
        """Expected confirmation total of one shard (same bits as
        ``self()[shard].expected_total``)."""
        value = self._scaled[shard]
        if value == 0.0:
            return self._base_total
        return self._total_of_load(value * self._scale)

    def lightest_excluding(
        self, exclude: "set[int] | dict"
    ) -> tuple[int, float]:
        """``(shard, expected_total)`` of the best spill target.

        The lightest-load shard outside ``exclude``, with ties on the
        *materialized expected total* broken toward the lower shard id -
        exactly the order a full fitness scan over the zero-T2S shards
        would produce; ``(-1, inf)`` when every shard is excluded.
        Amortized O(|exclude| * log n_shards): the heaps hand back
        candidates in load order. When the exclusion covers most shards
        a direct scan over the complement takes over (same result).
        """
        scaled = self._scaled
        if 2 * len(exclude) >= len(scaled):
            return self._lightest_direct(exclude)
        best_id = -1
        best_total = math.inf
        zero_heap = self._zero_heap
        push_back_ids: list[int] = []
        while zero_heap:
            index = zero_heap[0]
            if scaled[index] != 0.0:
                heappop(zero_heap)
                continue
            if index in exclude:
                push_back_ids.append(heappop(zero_heap))
                continue
            best_id = index
            best_total = self._base_total
            break
        for index in push_back_ids:
            heappush(zero_heap, index)

        heap = self._heap
        scale = self._scale
        block = self._block
        push_back: list[tuple[float, int]] = []
        while heap:
            value, index = heap[0]
            current = scaled[index]
            if current != value:
                heapreplace(heap, (current, index))
                continue
            load = value * scale
            if 1.0 + load / block == 1.0:
                # Indistinguishable from idle at double precision, now
                # and forever: demote to the zero cohort.
                heappop(heap)
                scaled[index] = 0.0
                heappush(zero_heap, index)
                if index in exclude:
                    continue
                total = self._base_total
            else:
                if index in exclude:
                    push_back.append((value, index))
                    heappop(heap)
                    continue
                total = self._total_of_load(load)
                if total > best_total:
                    break
                push_back.append((value, index))
                heappop(heap)
            if total < best_total or (
                total == best_total and index < best_id
            ):
                best_total = total
                best_id = index
        for entry in push_back:
            heappush(heap, entry)
        return best_id, best_total

    def _lightest_direct(self, exclude: "set[int] | dict") -> tuple[int, float]:
        # Same (expected_total, shard) lexicographic minimum the heap
        # path produces: for any load, base_verify * (1.0 + load/block)
        # collapses to base_verify exactly when the heap path would have
        # demoted the shard, so one uniform expression covers idle,
        # stale, and loaded shards alike.
        scale = self._scale
        base_verify = self._base_verify
        block = self._block
        comm_expected = self._comm_expected
        totals = [
            comm_expected
            + 1.0 / (1.0 / (base_verify * (1.0 + value * scale / block)))
            for value in self._scaled
        ]
        return _lightest_outside(totals, exclude)

    def __call__(self) -> list[ShardLatencyModel]:
        models = []
        for load in self.loads:
            verify_time = self._base_verify * (1.0 + load / self._block)
            models.append(
                ShardLatencyModel(
                    lambda_c=1.0 / self._base_comm,
                    lambda_v=1.0 / verify_time,
                )
            )
        return models

    # -- snapshot/restore --------------------------------------------------

    def export_state(self) -> dict[str, Any]:
        """Plain-data dump of the proxy state (see service.state).

        The decay clock (``step``/``offset``/``scale``) and both lazy
        heaps are exported verbatim: the heaps' exact layout (including
        stale entries) decides the traversal order of lightest-shard
        queries and when sub-resolution shards get demoted, so they are
        state, not a cache.
        """
        return {
            "scaled": list(self._scaled),
            "step": self._step,
            "offset": self._offset,
            "scale": self._scale,
            "heap": [(value, index) for value, index in self._heap],
            "zero_heap": list(self._zero_heap),
        }

    def restore_state(self, state: dict[str, Any]) -> None:
        """Load a dump produced by :meth:`export_state` (same config)."""
        scaled = state["scaled"]
        if len(scaled) != len(self._scaled):
            raise ConfigurationError(
                f"snapshot has {len(scaled)} shards, proxy has "
                f"{len(self._scaled)}"
            )
        self._scaled[:] = scaled
        self._step = state["step"]
        self._offset = state["offset"]
        self._scale = state["scale"]
        self._heap[:] = [(value, index) for value, index in state["heap"]]
        self._zero_heap[:] = list(state["zero_heap"])

    # -- internals ---------------------------------------------------------

    def _total_of_load(self, load: float) -> float:
        verify_time = self._base_verify * (1.0 + load / self._block)
        return self._comm_expected + 1.0 / (1.0 / verify_time)

    def _renormalize(self) -> None:
        """Fold the accumulated decay into the scaled values.

        Keeps the inverse scale bounded (no overflow however long the
        run); loads that underflow to exact zero join the zero cohort,
        which is also where an eagerly-decayed implementation's loads
        become indistinguishable from idle.
        """
        scale = self._scale
        scaled = self._scaled
        for index, value in enumerate(scaled):
            if value != 0.0:
                scaled[index] = value * scale
        self._offset = self._step
        self._scale = 1.0
        self._rebuild_heaps()

    def _rebuild_heaps(self) -> None:
        # In-place so long-lived bindings (the decision loop) survive.
        scaled = self._scaled
        self._heap[:] = [
            (value, index)
            for index, value in enumerate(scaled)
            if value != 0.0
        ]
        heapify(self._heap)
        self._zero_heap[:] = [
            index for index, value in enumerate(scaled) if value == 0.0
        ]
        heapify(self._zero_heap)


class OptChainPlacer(PlacementStrategy):
    """Algorithm 1: Temporal-Fitness placement (T2S - 0.01 * L2S).

    Every entry point runs one decision loop, :meth:`_place_loop`
    (:meth:`place` and :meth:`place_observed` as a batch of one). It
    picks the latency term once per batch: the offline load proxy's
    lazy loads (the default, ``shard_load`` mode); the
    ``expected_totals()`` of a provider that has them (the simulator's
    :class:`~repro.simulator.metrics.LatencyObserver`, ``shard_load``
    mode); the ``scores_all`` vector of a long-lived
    :class:`L2SEstimator` (any other provider or mode); or none (pure
    T2S, ties to the lightest shard by size). The argmax is the same
    for all four: the best of {T2S support} | {input shards} | {best
    shard outside both}, the full scan's winner under its (fitness
    desc, l2s asc, id asc) order.
    """

    name = "optchain"

    def __init__(
        self,
        n_shards: int,
        alpha: float = 0.5,
        latency_weight: float = PAPER_LATENCY_WEIGHT,
        latency_provider: LatencyProvider | None | _ProxyDefault = (
            USE_LOAD_PROXY
        ),
        l2s_mode: str = "shard_load",
        outdeg_mode: str = "spenders",
        scorer: PlacementScorer | None = None,
    ) -> None:
        super().__init__(n_shards)
        if scorer is None:
            scorer = T2SScorer(
                n_shards, alpha=alpha, outdeg_mode=outdeg_mode
            )
        elif scorer.n_shards != n_shards:
            raise ConfigurationError(
                f"scorer covers {scorer.n_shards} shards, placer has "
                f"{n_shards}"
            )
        self.scorer = scorer
        self.fitness = TemporalFitness(latency_weight=latency_weight)
        self.l2s_mode = l2s_mode
        self._estimator: L2SEstimator | None = None
        self._proxy: LoadProxyLatencyProvider | None = None
        if isinstance(latency_provider, _ProxyDefault) or (
            latency_provider == "proxy"
        ):
            self._proxy = LoadProxyLatencyProvider(n_shards)
            self.latency_provider: LatencyProvider | None = self._proxy
        else:
            self.latency_provider = latency_provider
        if self.latency_provider is None:
            # Pure-T2S ties break toward the lightest shard (by index,
            # so the scalar min-size tracker is not enough).
            self.size_argmin()

    def use_latency_provider(self, provider: LatencyProvider) -> None:
        """Swap in a live latency source (e.g. the simulator's observer).

        Disables the offline load proxy: with real queues observable the
        proxy's synthetic loads would double-count placements.
        """
        self._proxy = None
        self.latency_provider = provider
        if provider is None:
            self.size_argmin()

    def place(self, tx: Transaction) -> int:
        """Place one transaction (a batch of one)."""
        return self._place_loop((tx,), -1)[0]

    def place_batch(self, txs) -> list[int]:
        """Place a batch; returns the shards of *these* transactions only
        (``place_stream`` layers the full-assignment copy on top)."""
        return self._place_loop(txs, -1)

    def place_observed(self, tx: Transaction, shard: int) -> int:
        """Adopt an externally decided placement, returning the shard
        this placer *would* have chosen.

        The shadow-scoring primitive behind :mod:`repro.obs.drift`: a
        shadow placer whose history tracks production assignments
        returns its preference as the one-step counterfactual. State
        afterwards is identical to ``force_place(tx, shard)``.
        """
        if tx.txid != len(self._assignment):
            raise PlacementError(
                f"transactions must be placed in dense stream order: got "
                f"{tx.txid}, expected {len(self._assignment)}"
            )
        if not 0 <= shard < self.n_shards:
            raise PlacementError(
                f"observed shard {shard} out of range [0, {self.n_shards})"
            )
        return self._place_loop((tx,), shard)[0]

    def _on_forced(self, tx: Transaction, shard: int) -> None:
        # Outpoint ids, as the decision loop reads them: a parent spent
        # twice stores the same pruning bound on both paths.
        self.scorer.add_transaction_raw(
            tx.txid,
            [outpoint.txid for outpoint in tx.inputs],
            len(tx.outputs),
        )
        self.scorer.place(tx.txid, shard)
        if self._proxy is not None:
            self._proxy.record(shard)

    # -- state export ------------------------------------------------------

    def export_state(self) -> dict[str, Any]:
        """Strategy + scorer + proxy state (a live latency observer's
        external queues are not part of it)."""
        state = super().export_state()
        state["scorer"] = self.scorer.export_state()
        if self._proxy is not None:
            state["proxy"] = self._proxy.export_state()
        return state

    # -- the decision loop -------------------------------------------------

    def _place_loop(self, txs, observed: int) -> list[int]:
        """Algorithm 1 over ``txs`` with every piece of state bound to a
        local: the T2S recurrence, the candidate-set fitness argmax and
        the commit are inlined rather than dispatched per transaction.

        Returns the shards placed; with ``observed >= 0`` (a batch of
        one from :meth:`place_observed`) commits that shard and returns
        ``[decision]``. Only shards that can win are evaluated: the T2S
        support, the input shards, and - when nothing scored beats the
        lightest latency term - the best shard outside both (lowest
        latency, then lowest id); every other shard has zero T2S mass
        and a latency term no better. ``floor`` under-estimates every
        latency term, so a shard whose ``t2s - weight * floor`` is
        *strictly* below the current best cannot win and is skipped.
        """
        scorer = self.scorer
        if scorer._pending is not None:
            raise PlacementError(
                f"transaction {scorer._pending} was added but never placed"
            )
        weight = self.fitness.latency_weight
        n_shards = self.n_shards
        # The latency term, chosen once per batch: the proxy's lazy
        # loads, or a per-shard ``vec`` - observer totals or estimator
        # scores read per transaction, zeros without a provider.
        proxy = self._proxy
        provider = self.latency_provider
        mode = self.l2s_mode
        no_latency = provider is None
        lazy = proxy is not None and mode == "shard_load"
        vec = [0.0] * n_shards if no_latency else None
        totals_fn = models_fn = None
        if not (no_latency or lazy):
            if mode == "shard_load":
                totals_fn = getattr(provider, "expected_totals", None)
            if not callable(totals_fn):
                totals_fn, models_fn = None, provider
        read_fn = totals_fn if totals_fn is not None else models_fn
        estimator = self._estimator
        # Estimator scores already carry the cross-shard term.
        cross_factor = 1.0 if models_fn is not None else 2.0
        # Strategy state.
        assignment = self._assignment
        strat_sizes = self._shard_sizes
        min_size_val = self._min_shard_size
        max_size_val = self._max_shard_size
        size_argmin = self._size_argmin
        argmin_bump = size_argmin.bump if size_argmin is not None else None
        # Scorer state. A scorer with per-transaction bookkeeping of its
        # own (the adaptive cap) runs its own add_transaction_raw.
        fused = scorer.fused_compatible
        p_prime_list = scorer._p_prime
        spender_count = scorer._spender_count
        output_count = scorer._output_count
        min_mass = scorer._min_mass
        sizes = scorer._shard_sizes
        one_minus_alpha = scorer._scale
        alpha = scorer.alpha
        epsilon = scorer.prune_epsilon
        spenders_div = scorer._spenders_divisor
        # Bounded-support scorers (the "topk" kind) declare a cap.
        support_cap = scorer.support_cap
        truncate = truncate_support
        # Proxy state (heaps are mutated in place, never rebound).
        if proxy is not None:
            scaled = proxy._scaled
            heap = proxy._heap
            zero_heap = proxy._zero_heap
            decay = proxy._decay
            base_verify = proxy._base_verify
            block = proxy._block
            comm_expected = proxy._comm_expected
            base_total = proxy._base_total
            renorm_span = proxy._renorm_span
            heap_limit = proxy._compact_limit
        heappush_ = heappush
        heappop_ = heappop
        heapreplace_ = heapreplace
        neg_inf = -math.inf
        pos_inf = math.inf
        has_scale = one_minus_alpha > 0.0
        has_eps = epsilon > 0.0
        n_placed = len(assignment)
        batch_start = n_placed
        best_id = -1

        for tx in txs:
            txid = tx.txid
            if txid != n_placed:
                raise PlacementError(
                    f"transactions must be placed in dense stream order: "
                    f"got {txid}, expected {n_placed}"
                )
            if read_fn is not None:
                # Read before any state moves: a provider that raises
                # leaves no half-scored transaction behind.
                latest = read_fn()
                if len(latest) != n_shards:
                    raise ConfigurationError(
                        f"latency provider returned {len(latest)} models "
                        f"for {n_shards} shards"
                    )
                if totals_fn is not None:
                    vec = latest
                elif estimator is None:
                    estimator = L2SEstimator(latest, mode=mode)
                    self._estimator = estimator
                else:
                    estimator.update(latest)
            inputs = tx.inputs
            if not fused:
                input_ids: Sequence[int] = tx.input_txids
                # Outpoint ids, as _on_forced passes them.
                raw = scorer.add_transaction_raw(
                    txid,
                    [outpoint.txid for outpoint in inputs],
                    len(tx.outputs),
                )
                # The commit below is inlined (scorer.place's work).
                scorer._pending = None
            else:
                # ---- T2S recurrence (add_transaction_raw, inlined) ----
                raw = {}
                if len(inputs) == 1:
                    parent = inputs[0].txid
                    # OutPoint already guarantees txid >= 0.
                    if parent >= txid:
                        raise PlacementError(
                            f"transaction {txid} has invalid input {parent}"
                        )
                    input_ids = (parent,)
                    divisor = spender_count[parent] + 1
                    spender_count[parent] = divisor
                    bound = pos_inf
                    if has_scale:
                        parent_vector = p_prime_list[parent]
                        if parent_vector:
                            if not spenders_div:
                                divisor = max(output_count[parent], divisor)
                            factor = one_minus_alpha / divisor
                            bound = min_mass[parent] * factor
                            if has_eps and bound <= epsilon:
                                raw = {
                                    shard: mass
                                    for shard, r in parent_vector.items()
                                    if (mass := r * factor) > epsilon
                                }
                                bound = (
                                    min(raw.values()) if raw else pos_inf
                                )
                            else:
                                raw = {
                                    shard: r * factor
                                    for shard, r in parent_vector.items()
                                }
                elif inputs:
                    # Dedup in first-appearance order, exactly what
                    # Transaction.input_txids (and the scorer) derive.
                    seen: dict[int, None] = {}
                    for outpoint in inputs:
                        seen.setdefault(outpoint.txid, None)
                    input_ids = tuple(seen)
                    for parent in input_ids:
                        if not 0 <= parent < txid:
                            raise PlacementError(
                                f"transaction {txid} has invalid input "
                                f"{parent}"
                            )
                    for parent in input_ids:
                        spender_count[parent] += 1
                    bound = pos_inf
                    if has_scale:
                        get = None
                        for parent in input_ids:
                            parent_vector = p_prime_list[parent]
                            if not parent_vector:
                                continue
                            if spenders_div:
                                divisor = spender_count[parent]
                            else:
                                divisor = max(
                                    output_count[parent],
                                    spender_count[parent],
                                )
                            factor = one_minus_alpha / divisor
                            if get is None:
                                raw = {
                                    shard: mass * factor
                                    for shard, mass in parent_vector.items()
                                }
                                get = raw.get
                            else:
                                for shard, mass in parent_vector.items():
                                    raw[shard] = (
                                        get(shard, 0.0) + mass * factor
                                    )
                    if has_eps and raw:
                        raw = {
                            shard: mass
                            for shard, mass in raw.items()
                            if mass > epsilon
                        }
                    if raw:
                        bound = min(raw.values())
                else:
                    input_ids = ()
                    bound = pos_inf
                if support_cap is not None and len(raw) > support_cap:
                    # Same helper, same accounting order as
                    # TopKT2SScorer.add_transaction_raw.
                    raw, dropped = truncate(raw, support_cap)
                    bound = min(raw.values())
                    scorer._dropped_mass += dropped
                    scorer._truncated_vectors += 1
                p_prime_list.append(raw)
                min_mass.append(bound)
                spender_count.append(0)
                if not spenders_div:
                    n_outputs = len(tx.outputs)
                    output_count.append(n_outputs if n_outputs > 1 else 1)

            # ---- input shards and the latency floor ----
            if input_ids:
                if len(input_ids) == 1:
                    only_input = assignment[input_ids[0]]
                    input_shards: "set[int] | tuple" = (only_input,)
                else:
                    input_shards = {
                        assignment[parent] for parent in input_ids
                    }
                    if len(input_shards) == 1:
                        (only_input,) = input_shards
                    else:
                        only_input = -1
                cross = cross_factor
            else:
                input_shards = ()
                only_input = -1
                cross = 1.0
            if not lazy:
                if models_fn is not None:
                    vec = estimator.scores_all(input_shards)
                floor_total = min(vec)
            else:
                # The lightest shard's total lower-bounds every shard's
                # (monotone in load): the zero cohort first, then the
                # lazy heap's live minimum.
                pscale = proxy._scale
                floor_total = -1.0
                while zero_heap:
                    if scaled[zero_heap[0]] == 0.0:
                        floor_total = base_total
                        break
                    heappop_(zero_heap)
                if floor_total < 0.0:
                    while True:
                        value, index = heap[0]
                        current = scaled[index]
                        if current == value:
                            verify = base_verify * (
                                1.0 + value * pscale / block
                            )
                            floor_total = comm_expected + 1.0 / (
                                1.0 / verify
                            )
                            break
                        heapreplace_(heap, (current, index))
            weighted_cross_floor = weight * (floor_total * cross)
            raw_get = raw.get

            # ---- candidate-set fitness argmax ----
            if no_latency:
                # The seed's pure-T2S scan starts at the lightest shard
                # by size and only a strictly better score replaces it:
                # an l2s of -inf makes it win every fitness tie.
                _, best_id = size_argmin.peek()
                mass = raw_get(best_id)
                size = sizes[best_id]
                best_fitness = (
                    0.0 if mass is None else mass / (size if size > 0 else 1)
                )
                best_l2s = neg_inf
            else:
                # An id above every shard: the first shard evaluated
                # replaces it even on a full (-inf, inf) tie.
                best_id = n_shards
                best_fitness = neg_inf
                best_l2s = pos_inf
            # Input shards first (they hold the parents, so sizes >= 1):
            # T2S mass concentrates there, which seeds a near-final best
            # and lets the mass threshold below skip almost everything.
            if only_input >= 0:
                # One input shard, no loop: the common case.
                if not lazy:
                    total = vec[only_input]
                else:
                    value = scaled[only_input]
                    if value == 0.0:
                        total = base_total
                    else:
                        verify = base_verify * (1.0 + value * pscale / block)
                        total = comm_expected + 1.0 / (1.0 / verify)
                mass = raw_get(only_input)
                fitness = (
                    0.0 if mass is None else mass / sizes[only_input]
                ) - weight * total
                if fitness > best_fitness or (
                    fitness == best_fitness
                    and (
                        total < best_l2s
                        or (total == best_l2s and only_input < best_id)
                    )
                ):
                    best_id = only_input
                    best_fitness = fitness
                    best_l2s = total
            else:
                for shard in input_shards:
                    if not lazy:
                        total = vec[shard]
                    else:
                        value = scaled[shard]
                        if value == 0.0:
                            total = base_total
                        else:
                            verify = base_verify * (
                                1.0 + value * pscale / block
                            )
                            total = comm_expected + 1.0 / (1.0 / verify)
                    l2s = total * cross
                    mass = raw_get(shard)
                    if mass is None:
                        fitness = 0.0 - weight * l2s
                    else:
                        fitness = mass / sizes[shard] - weight * l2s
                    if fitness > best_fitness or (
                        fitness == best_fitness
                        and (
                            l2s < best_l2s
                            or (l2s == best_l2s and shard < best_id)
                        )
                    ):
                        best_id = shard
                        best_fitness = fitness
                        best_l2s = l2s
            min_size = min_size_val if min_size_val > 0 else 1
            # max_mass/min_size over-estimates every shard's T2S score:
            # one C-level max() decides whether any support shard can
            # beat the best (usually not once the input shard leads).
            if raw and (
                max(raw.values()) / min_size - weighted_cross_floor
                >= best_fitness
            ):
                # Pre-filter: a mass below this threshold cannot reach
                # best_fitness even at the floor latency; the margin
                # dwarfs any rounding, so borderline masses fall through
                # to the exact test.
                margin = 1e-6 * (
                    abs(best_fitness) + weighted_cross_floor + 1.0
                )
                threshold = (
                    best_fitness + weighted_cross_floor - margin
                ) * min_size
                for shard, mass in raw.items():
                    if mass < threshold or shard == only_input:
                        continue
                    if only_input < 0 and shard in input_shards:
                        continue
                    size = sizes[shard]
                    t2s = mass / (size if size > 0 else 1)
                    if t2s - weighted_cross_floor < best_fitness:
                        continue
                    if not lazy:
                        total = vec[shard]
                    else:
                        value = scaled[shard]
                        if value == 0.0:
                            total = base_total
                        else:
                            verify = base_verify * (
                                1.0 + value * pscale / block
                            )
                            total = comm_expected + 1.0 / (1.0 / verify)
                    l2s = total * cross
                    fitness = t2s - weight * l2s
                    if fitness > best_fitness or (
                        fitness == best_fitness
                        and (
                            l2s < best_l2s
                            or (l2s == best_l2s and shard < best_id)
                        )
                    ):
                        best_id = shard
                        best_fitness = fitness
                        best_l2s = l2s
                        margin = 1e-6 * (
                            abs(best_fitness) + weighted_cross_floor + 1.0
                        )
                        threshold = (
                            best_fitness + weighted_cross_floor - margin
                        ) * min_size
            # The best untouched shard can only win when nothing scored
            # beats the lightest latency term (never without a term: the
            # lightest shard by size holds every zero-score tie).
            if 0.0 - weighted_cross_floor >= best_fitness and not no_latency:
                candidates = set(raw)
                candidates.update(input_shards)
                if lazy:
                    spill_id, total = proxy.lightest_excluding(candidates)
                else:
                    spill_id, total = _lightest_outside(vec, candidates)
                if spill_id >= 0:
                    l2s = total * cross
                    fitness = 0.0 - weight * l2s
                    if fitness > best_fitness or (
                        fitness == best_fitness
                        and (
                            l2s < best_l2s
                            or (l2s == best_l2s and spill_id < best_id)
                        )
                    ):
                        best_id = spill_id
            shard = best_id if observed < 0 else observed

            # ---- commit (scorer.place + bookkeeping + proxy.record) ----
            raw[shard] = new_mass = raw.get(shard, 0.0) + alpha
            if new_mass < min_mass[txid]:
                min_mass[txid] = new_mass
            sizes[shard] += 1
            assignment.append(shard)
            n_placed += 1
            old_size = strat_sizes[shard]
            strat_sizes[shard] = old_size + 1
            if old_size + 1 > max_size_val:
                # Written through immediately (not at loop exit) so an
                # exception mid-batch cannot strand a stale attribute.
                max_size_val = old_size + 1
                self._max_shard_size = max_size_val
            if old_size == min_size_val:
                count = self._min_size_count - 1
                if count == 0:
                    min_size_val = old_size + 1
                    self._min_shard_size = min_size_val
                    count = strat_sizes.count(min_size_val)
                self._min_size_count = count
            if argmin_bump is not None:
                argmin_bump(shard)
            if proxy is not None:
                step = proxy._step + 1
                proxy._step = step
                span = step - proxy._offset
                pscale = decay ** span
                proxy._scale = pscale
                old_value = scaled[shard]
                value = old_value + 1.0 / pscale
                scaled[shard] = value
                if old_value == 0.0:
                    heappush_(heap, (value, shard))
                if span >= renorm_span:
                    proxy._renormalize()
                elif len(heap) > heap_limit:
                    proxy._rebuild_heaps()
        if observed >= 0:
            return [best_id]
        return assignment[batch_start:]


def _lightest_outside(
    values, exclude: "set[int] | dict"
) -> tuple[int, float]:
    """``(shard, value)`` of the smallest value outside ``exclude``,
    lowest shard id among ties; ``(-1, inf)`` when all are excluded."""
    best_id = -1
    best = math.inf
    for index, value in enumerate(values):
        if (value < best or best_id < 0) and index not in exclude:
            best_id = index
            best = value
    return best_id, best


class TopKOptChainPlacer(OptChainPlacer):
    """OptChain with bounded-support (top-k) T2S scoring.

    Same Temporal-Fitness decision rule, same decision loop, but the
    scorer retains only the ``support_cap`` largest-mass entries per
    vector (:class:`~repro.core.t2s.TopKT2SScorer`). On long streams
    the exact scorer's per-transaction cost grows with the shard count
    as vector support saturates (nnz -> n_shards); this variant's cost
    is O(support_cap) regardless, which is what unlocks the 64+-shard
    regime - at a small, measured placement-quality cost
    (BENCH_placement.json ``topk_frontier``; PERFORMANCE.md
    "Bounded-support scoring").

    With ``support_cap >= n_shards`` placements are bit-identical to
    :class:`OptChainPlacer`; the exact strategy itself is never
    affected by this variant existing.

    ``support_cap`` also accepts the adaptive form ``"auto:<rate>"``:
    the cap starts at 4 and doubles (up to ``n_shards``) while the
    windowed dropped-mass rate exceeds ``<rate>`` - see
    :class:`~repro.core.t2s.AdaptiveTopKT2SScorer`, whose own
    recurrence the loop calls per transaction (its window accounting
    needs each vector's retained mass).
    """

    name = "optchain-topk"

    def __init__(
        self,
        n_shards: int,
        support_cap: "int | str" = DEFAULT_SUPPORT_CAP,
        alpha: float = 0.5,
        latency_weight: float = PAPER_LATENCY_WEIGHT,
        latency_provider: LatencyProvider | None | _ProxyDefault = (
            USE_LOAD_PROXY
        ),
        l2s_mode: str = "shard_load",
        outdeg_mode: str = "spenders",
        support_initial_cap: "int | None" = None,
        support_window: "int | None" = None,
    ) -> None:
        super().__init__(
            n_shards,
            alpha=alpha,
            latency_weight=latency_weight,
            latency_provider=latency_provider,
            l2s_mode=l2s_mode,
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
        """Max retained entries per T2S vector (current value - the
        adaptive scorer grows it)."""
        return self.scorer.support_cap
