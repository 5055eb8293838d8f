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
lightest remaining shard (served by a lazy min-heap). The fused paths
reproduce the naive full-scan decisions exactly; see PERFORMANCE.md for
the argument and ``tests/core/test_golden_equivalence.py`` for the
enforcement.
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

# Decision-path tags, resolved once per provider change instead of per
# transaction.
_PATH_FUSED = 0
_PATH_T2S = 1
_PATH_TOTALS = 2
_PATH_GENERIC = 3


class _ProxyDefault:
    """Sentinel type: "build a :class:`LoadProxyLatencyProvider`"."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "USE_LOAD_PROXY"


#: Default for ``OptChainPlacer(latency_provider=...)``: construct an
#: offline load proxy. A sentinel (rather than the string ``"proxy"``,
#: which is still accepted for backward compatibility) so the parameter
#: annotation is honest and type-checks.
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
            self._compact()

    def expected_total_of(self, shard: int) -> float:
        """Expected confirmation total of one shard (same bits as
        ``self()[shard].expected_total``)."""
        value = self._scaled[shard]
        if value == 0.0:
            return self._base_total
        return self._total_of_load(value * self._scale)

    def lightest_total(self) -> float:
        """Expected total of the globally lightest shard, O(1) amortized.

        A valid lower bound on every shard's expected total (the total is
        monotone in the load), used by the fused argmax to prune
        candidates that cannot win.
        """
        scaled = self._scaled
        zero_heap = self._zero_heap
        while zero_heap:
            if scaled[zero_heap[0]] == 0.0:
                return self._base_total
            heappop(zero_heap)
        heap = self._heap
        while True:
            value, index = heap[0]
            current = scaled[index]
            if current == value:
                return self._total_of_load(value * self._scale)
            heapreplace(heap, (current, index))

    def lightest_excluding(
        self, exclude: "set[int] | dict"
    ) -> tuple[int, float]:
        """``(shard, expected_total)`` of the best spill target.

        The lightest-load shard outside ``exclude``, with ties on the
        *materialized expected total* broken toward the lower shard id -
        exactly the order a full fitness scan over the zero-T2S shards
        would produce. Returns ``(-1, inf)`` when every shard is
        excluded. Amortized cost is O(|exclude| * log n_shards): the
        heaps hand back candidates in load order and long-idle shards
        collapse into the exact-zero cohort. When the exclusion covers
        most shards the heaps would churn, so a direct scan over the
        complement takes over (same result, O(n_shards) but tiny
        constants).
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
        scaled = self._scaled
        scale = self._scale
        base_verify = self._base_verify
        block = self._block
        comm_expected = self._comm_expected
        best_id = -1
        best_total = math.inf
        for index, value in enumerate(scaled):
            if index in exclude:
                continue
            verify = base_verify * (1.0 + value * scale / block)
            total = comm_expected + 1.0 / (1.0 / verify)
            if total < best_total:
                best_total = total
                best_id = index
        return best_id, best_total

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

    def _compact(self) -> None:
        self._rebuild_heaps()

    def _rebuild_heaps(self) -> None:
        # In-place so long-lived bindings (the fused batch loop) survive.
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

    The decision logic is split into per-provider fast paths that all
    reproduce the reference full-scan argmax bit-for-bit:

    - offline load proxy + ``shard_load`` mode (the default): fully fused
      O(degree) argmax over {T2S support} | {input shards} | {lightest
      shard};
    - a provider exposing ``expected_totals()`` (the simulator's
      :class:`~repro.simulator.metrics.LatencyObserver`) in ``shard_load``
      mode: one allocation-free scan, no per-shard model objects;
    - any other provider/mode: a long-lived :class:`L2SEstimator`
      refreshed in place each placement.
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
        self._refresh_provider_paths()

    def use_latency_provider(self, provider: LatencyProvider) -> None:
        """Swap in a live latency source (e.g. the simulator's observer).

        Disables the offline load proxy: with real queues observable the
        proxy's synthetic loads would double-count placements.
        """
        self._proxy = None
        self.latency_provider = provider
        self._refresh_provider_paths()

    def _refresh_provider_paths(self) -> None:
        provider = self.latency_provider
        self._totals_fn = None
        if provider is None:
            self._path = _PATH_T2S
        elif self._proxy is not None and self.l2s_mode == "shard_load":
            self._path = _PATH_FUSED
        else:
            self._path = _PATH_GENERIC
            if self.l2s_mode == "shard_load":
                totals_fn = getattr(provider, "expected_totals", None)
                if callable(totals_fn):
                    self._totals_fn = totals_fn
                    self._path = _PATH_TOTALS
        if provider is None:
            # Pure-T2S ties break toward the lightest shard (by index,
            # so the scalar min-size tracker is not enough).
            self.size_argmin()

    def place_batch(self, txs) -> list[int]:
        """Batch placement with the per-transaction overhead hoisted out.

        For the default configuration (offline load proxy, ``shard_load``
        mode) this runs one fused loop with every piece of state bound to
        a local: the T2S recurrence, the pruned fitness argmax, and the
        proxy update are inlined rather than dispatched per transaction.
        Decisions and final state are identical to calling
        :meth:`~repro.core.placement.PlacementStrategy.place` in a loop -
        the golden equivalence tests compare both against the reference
        implementation. Returns the shards of this batch only;
        ``place_stream`` layers the full-assignment copy on top.
        """
        if (
            self._path != _PATH_FUSED
            or self._size_argmin is not None
            or not self.scorer.fused_compatible
        ):
            # The lazy argmin (enabled by other paths) expects a bump per
            # placement, and opt-out scorers (the adaptive cap's window
            # accounting) need their own add_transaction_raw; the
            # generic loop provides both.
            return super().place_batch(txs)
        proxy = self._proxy
        scorer = self.scorer
        if scorer._pending is not None:
            raise PlacementError(
                f"transaction {scorer._pending} was added but never placed"
            )
        weight = self.fitness.latency_weight
        # Strategy state.
        assignment = self._assignment
        strat_sizes = self._shard_sizes
        min_size_val = self._min_shard_size
        max_size_val = self._max_shard_size
        # Scorer state.
        p_prime_list = scorer._p_prime
        spender_count = scorer._spender_count
        output_count = scorer._output_count
        min_mass = scorer._min_mass
        sizes = scorer._shard_sizes
        one_minus_alpha = scorer._scale
        alpha = scorer.alpha
        epsilon = scorer.prune_epsilon
        spenders_div = scorer._spenders_divisor
        # Bounded-support scorers (the "topk" kind) declare a cap; the
        # exact scorer's is None and the branch below compiles to one
        # cheap test per transaction.
        support_cap = scorer.support_cap
        truncate = truncate_support
        # Proxy state (heaps are mutated in place, never rebound).
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

        for tx in txs:
            txid = tx.txid
            if txid != n_placed:
                raise PlacementError(
                    f"transactions must be placed in dense stream order: "
                    f"got {txid}, expected {n_placed}"
                )
            # ---- T2S recurrence (add_transaction_raw, inlined) ----
            inputs = tx.inputs
            raw: dict[int, float] = {}
            if len(inputs) == 1:
                parent = inputs[0].txid
                # OutPoint already guarantees txid >= 0.
                if parent >= txid:
                    raise PlacementError(
                        f"transaction {txid} has invalid input {parent}"
                    )
                input_ids: Sequence[int] = (parent,)
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
                            f"transaction {txid} has invalid input {parent}"
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
                                output_count[parent], spender_count[parent]
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
                                raw[shard] = get(shard, 0.0) + mass * factor
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
                # Same helper, same accounting order as the unfused
                # TopKT2SScorer.add_transaction_raw - the golden tests
                # compare both paths placement-for-placement.
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

            # ---- fused fitness argmax (see _fused_choose) ----
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
                            1.0 + value * proxy._scale / block
                        )
                        floor_total = comm_expected + 1.0 / (1.0 / verify)
                        break
                    heapreplace_(heap, (current, index))
            best_id = -1
            best_fitness = neg_inf
            best_l2s = pos_inf
            raw_get = raw.get
            pscale = proxy._scale
            if input_ids:
                has_inputs = True
                cross_floor = floor_total * 2.0
                if len(input_ids) == 1:
                    # Single input shard, no set or inner loop: evaluate
                    # it directly (it is almost always the winner).
                    only_input = assignment[input_ids[0]]
                    input_shards: "set[int] | tuple" = (only_input,)
                    shard = only_input
                    value = scaled[shard]
                    if value == 0.0:
                        total = base_total
                    else:
                        verify = base_verify * (1.0 + value * pscale / block)
                        total = comm_expected + 1.0 / (1.0 / verify)
                    l2s = total
                    mass_in = raw_get(shard)
                    if mass_in is None:
                        best_fitness = 0.0 - weight * l2s
                    else:
                        # The input shard holds at least its parent, so
                        # sizes[shard] >= 1: no max(1, .) needed.
                        best_fitness = mass_in / sizes[shard] - weight * l2s
                    best_id = shard
                    best_l2s = l2s
                else:
                    input_shards = {
                        assignment[parent] for parent in input_ids
                    }
                    if len(input_shards) == 1:
                        (only_input,) = input_shards
                    else:
                        only_input = -1
                    for shard in input_shards:
                        value = scaled[shard]
                        if value == 0.0:
                            total = base_total
                        else:
                            verify = base_verify * (
                                1.0 + value * pscale / block
                            )
                            total = comm_expected + 1.0 / (1.0 / verify)
                        l2s = (
                            total * 1.0
                            if shard == only_input
                            else total * 2.0
                        )
                        mass = raw_get(shard)
                        if mass is None:
                            fitness = 0.0 - weight * l2s
                        else:
                            fitness = mass / sizes[shard] - weight * l2s
                        if (
                            fitness > best_fitness
                            or (
                                fitness == best_fitness
                                and (
                                    l2s < best_l2s
                                    or (
                                        l2s == best_l2s
                                        and shard < best_id
                                    )
                                )
                            )
                        ):
                            best_id = shard
                            best_fitness = fitness
                            best_l2s = l2s
            else:
                input_shards = ()
                has_inputs = False
                only_input = -1
                cross_floor = floor_total
            weighted_cross_floor = weight * cross_floor
            min_size = min_size_val if min_size_val > 0 else 1
            # One C-level max() plus one divide decide whether any shard
            # can possibly beat the current best: max_mass/min_size
            # over-estimates every shard's T2S score and the floor
            # under-estimates every latency term, so a failed gate means
            # no shard in the support can win (exact - both bounds are
            # monotone in rounded arithmetic). The common case once the
            # input shard dominates: no scan at all.
            if raw and (
                max(raw.values()) / min_size - weighted_cross_floor
                >= best_fitness
            ):
                margin = 1e-6 * (
                    (
                        best_fitness
                        if best_fitness >= 0.0
                        else -best_fitness
                    )
                    + weighted_cross_floor
                    + 1.0
                )
                threshold = (
                    best_fitness + weighted_cross_floor - margin
                ) * min_size
                for shard, mass in raw.items():
                    if mass < threshold or shard == only_input:
                        continue
                    if only_input < 0 and has_inputs and shard in input_shards:
                        continue
                    size = sizes[shard]
                    t2s = mass / (size if size > 0 else 1)
                    if t2s - weighted_cross_floor < best_fitness:
                        continue
                    value = scaled[shard]
                    if value == 0.0:
                        total = base_total
                    else:
                        verify = base_verify * (1.0 + value * pscale / block)
                        total = comm_expected + 1.0 / (1.0 / verify)
                    l2s = total * 2.0 if has_inputs else total
                    fitness = t2s - weight * l2s
                    if (
                        fitness > best_fitness
                        or (
                            fitness == best_fitness
                            and (
                                l2s < best_l2s
                                or (l2s == best_l2s and shard < best_id)
                            )
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
            if 0.0 - weighted_cross_floor >= best_fitness:
                candidates = set(raw)
                candidates.update(input_shards)
                spill_id, spill_total = proxy.lightest_excluding(candidates)
                if spill_id >= 0:
                    l2s = (
                        spill_total
                        if not has_inputs
                        else spill_total * 2.0
                    )
                    fitness = 0.0 - weight * l2s
                    if (
                        fitness > best_fitness
                        or (
                            fitness == best_fitness
                            and (
                                l2s < best_l2s
                                or (l2s == best_l2s and spill_id < best_id)
                            )
                        )
                    ):
                        best_id = spill_id
            shard = best_id

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
                proxy._compact()
        return assignment[batch_start:]

    def _decide(self, tx: Transaction) -> int:
        """Score ``tx`` and pick its shard, leaving the decision
        uncommitted (``scorer.place`` pending)."""
        scorer = self.scorer
        txid = tx.txid
        inputs = tx.inputs
        # One outpoint needs no dedup pass; input_txids builds a dict
        # and a tuple per call, which is measurable at this rate.
        if len(inputs) == 1:
            input_ids: Sequence[int] = (inputs[0].txid,)
        elif inputs:
            input_ids = tx.input_txids
        else:
            input_ids = ()
        raw = scorer.add_transaction_raw(txid, input_ids, len(tx.outputs))
        path = self._path
        if path == _PATH_FUSED:
            return self._fused_choose(input_ids, raw, self._proxy)
        if path == _PATH_T2S:
            # No observable shards: fitness reduces to T2S with
            # lightest-shard tie-breaking.
            return self._t2s_argmax(raw)
        if path == _PATH_TOTALS:
            return self._scan_totals_choose(input_ids, raw, self._totals_fn())
        return self._generic_choose(tx, txid)

    def _choose(self, tx: Transaction) -> int:
        shard = self._decide(tx)
        self.scorer.place(tx.txid, shard)
        if self._proxy is not None:
            self._proxy.record(shard)
        return shard

    def place_observed(self, tx: Transaction, shard: int) -> int:
        """Adopt an externally decided placement, returning the shard
        this placer *would* have chosen.

        The shadow-scoring primitive behind :mod:`repro.obs.drift`: the
        drift monitor keeps an exact-path shadow placer whose history
        tracks production assignments (so both policies are compared
        against the same past), and uses the returned preference as the
        one-step counterfactual. State afterwards is identical to
        ``force_place(tx, shard)``.
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
        preferred = self._decide(tx)
        self.scorer.place(tx.txid, shard)
        if self._proxy is not None:
            self._proxy.record(shard)
        self._assignment.append(shard)
        self._bump_shard_size(shard)
        return preferred

    def _on_forced(self, tx: Transaction, shard: int) -> None:
        self.scorer.add_transaction_raw(
            tx.txid, tx.input_txids, len(tx.outputs)
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

    # -- decision paths ----------------------------------------------------

    def _fused_choose(
        self,
        input_ids: Sequence[int],
        raw: dict[int, float],
        proxy: LoadProxyLatencyProvider,
    ) -> int:
        """O(degree) fused T2S/L2S argmax against the load proxy.

        Only shards that can win are evaluated: the sparse T2S support,
        the input shards, and (when nothing scored can beat an idle
        shard's latency term) the lightest remaining shard from the
        proxy's lazy heap. Every skipped shard has zero T2S mass and a
        worse - or tied-with-higher-id - latency term than an evaluated
        one, so the reference full scan could not pick it either. Two
        exact pruning bounds keep the loop short: ``expected_total`` is
        monotone (non-strictly) in the load, so ``t2s(j) -
        weight * (factor * base_total)`` over-estimates shard ``j``'s
        fitness, and a shard whose over-estimate is *strictly* below the
        current best cannot win under any tie-breaking.
        """
        assignment = self._assignment
        weight = self.fitness.latency_weight
        sizes = self.scorer._shard_sizes
        # Proxy internals, bound once: materializing one shard's load is
        # a multiply, and its expected total a handful of flops.
        scaled = proxy._scaled
        scale = proxy._scale
        base_verify = proxy._base_verify
        block = proxy._block
        comm_expected = proxy._comm_expected
        base_total = proxy._base_total

        # The lightest shard's total lower-bounds every shard's total
        # (monotone in load), giving the tightest exact pruning floor.
        # Inlined proxy.lightest_total(): the zero-cohort peek is the
        # common case while any shard is idle.
        zero_heap = proxy._zero_heap
        floor_total = -1.0
        while zero_heap:
            if scaled[zero_heap[0]] == 0.0:
                floor_total = base_total
                break
            heappop(zero_heap)
        if floor_total < 0.0:
            heap = proxy._heap
            while True:
                value, index = heap[0]
                current = scaled[index]
                if current == value:
                    verify = base_verify * (1.0 + value * scale / block)
                    floor_total = comm_expected + 1.0 / (1.0 / verify)
                    break
                heapreplace(heap, (current, index))
        best_id = -1
        best_fitness = -math.inf
        best_l2s = math.inf
        raw_get = raw.get
        if input_ids:
            input_shards = {assignment[parent] for parent in input_ids}
            has_inputs = True
            cross_floor = floor_total * 2.0
            if len(input_shards) == 1:
                (only_input,) = input_shards
            else:
                only_input = -1
            # Input shards first: T2S mass concentrates on the parents'
            # shards, so this seeds a near-final best and the mass
            # threshold below then skips almost everything else with a
            # single float compare.
            for shard in input_shards:
                value = scaled[shard]
                if value == 0.0:
                    total = base_total
                else:
                    verify = base_verify * (1.0 + value * scale / block)
                    total = comm_expected + 1.0 / (1.0 / verify)
                l2s = total * 1.0 if shard == only_input else total * 2.0
                mass = raw_get(shard)
                if mass is None:
                    fitness = 0.0 - weight * l2s
                else:
                    size = sizes[shard]
                    fitness = mass / (size if size > 0 else 1) - weight * l2s
                if (
                    fitness > best_fitness
                    or (
                        fitness == best_fitness
                        and (
                            l2s < best_l2s
                            or (l2s == best_l2s and shard < best_id)
                        )
                    )
                ):
                    best_id = shard
                    best_fitness = fitness
                    best_l2s = l2s
        else:
            input_shards = ()
            has_inputs = False
            only_input = -1
            cross_floor = floor_total
        weighted_cross_floor = weight * cross_floor

        # Cheap pre-filter: a non-input shard with raw mass below this
        # threshold cannot reach best_fitness even with the floor
        # latency. The margin term is an absolute slack several orders
        # of magnitude above any accumulated rounding in the exact
        # bound's operations, so the pre-filter can only skip shards the
        # exact test would skip too; borderline masses fall through to
        # the exact test.
        min_size = self._min_shard_size
        if min_size < 1:
            min_size = 1
        if raw and (
            max(raw.values()) / min_size - weighted_cross_floor
            >= best_fitness
        ):
            margin = 1e-6 * (
                abs(best_fitness) + weighted_cross_floor + 1.0
            )
            threshold = (
                best_fitness + weighted_cross_floor - margin
            ) * min_size
            for shard, mass in raw.items():
                if mass < threshold or shard == only_input:
                    continue
                if only_input < 0 and has_inputs and shard in input_shards:
                    continue
                size = sizes[shard]
                t2s = mass / (size if size > 0 else 1)
                if t2s - weighted_cross_floor < best_fitness:
                    continue
                value = scaled[shard]
                if value == 0.0:
                    total = base_total
                else:
                    verify = base_verify * (1.0 + value * scale / block)
                    total = comm_expected + 1.0 / (1.0 / verify)
                l2s = total * 2.0 if has_inputs else total
                fitness = t2s - weight * l2s
                if (
                    fitness > best_fitness
                    or (
                        fitness == best_fitness
                        and (
                            l2s < best_l2s
                            or (l2s == best_l2s and shard < best_id)
                        )
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
        # The lightest untouched shard can only win when nothing scored
        # beats the lightest shard's latency term.
        if 0.0 - weighted_cross_floor >= best_fitness:
            candidates = set(raw)
            candidates.update(input_shards)
            spill_id, spill_total = proxy.lightest_excluding(candidates)
            if spill_id >= 0:
                l2s = spill_total if not has_inputs else spill_total * 2.0
                fitness = 0.0 - weight * l2s
                if (
                    fitness > best_fitness
                    or (
                        fitness == best_fitness
                        and (
                            l2s < best_l2s
                            or (l2s == best_l2s and spill_id < best_id)
                        )
                    )
                ):
                    best_id = spill_id
        return best_id

    def _scan_totals_choose(
        self,
        input_ids: Sequence[int],
        raw: dict[int, float],
        totals: Sequence[float],
    ) -> int:
        """Allocation-free full scan over raw expected totals.

        Used with live observers (``shard_load`` mode): reading every
        shard's queue is inherently O(n_shards), so the win here is
        skipping the per-shard model objects, estimator rebuild, and
        fitness list of the naive path - not the scan itself.
        """
        n = self.n_shards
        if len(totals) != n:
            raise ConfigurationError(
                f"latency provider returned {len(totals)} models for "
                f"{n} shards"
            )
        assignment = self._assignment
        input_shards = {assignment[parent] for parent in input_ids}
        weight = self.fitness.latency_weight
        sizes = self.scorer._shard_sizes
        raw_get = raw.get
        single_input = len(input_shards) == 1
        has_inputs = bool(input_shards)
        best_id = 0
        best_fitness = -math.inf
        best_l2s = math.inf
        for shard in range(n):
            total = totals[shard]
            if not has_inputs:
                l2s = total
            elif single_input and shard in input_shards:
                l2s = total
            else:
                l2s = total * 2.0
            mass = raw_get(shard)
            if mass is None:
                fitness = 0.0 - weight * l2s
            else:
                size = sizes[shard]
                fitness = mass / (size if size > 0 else 1) - weight * l2s
            if fitness > best_fitness or (
                fitness == best_fitness and l2s < best_l2s
            ):
                best_id = shard
                best_fitness = fitness
                best_l2s = l2s
        return best_id

    def _generic_choose(self, tx: Transaction, txid: int) -> int:
        models = self.latency_provider()
        if len(models) != self.n_shards:
            raise ConfigurationError(
                f"latency provider returned {len(models)} models for "
                f"{self.n_shards} shards"
            )
        estimator = self._estimator
        if estimator is None:
            estimator = L2SEstimator(models, mode=self.l2s_mode)
            self._estimator = estimator
        else:
            estimator.update(models)
        l2s_scores = estimator.scores_all(self.input_shards(tx))
        return self.fitness.best_shard_sparse(
            self.scorer.normalized(txid), l2s_scores
        )

    def _t2s_argmax(self, raw: dict[int, float]) -> int:
        """Highest normalized T2S score; default is the lightest shard.

        Equivalent to scanning every shard of the dense normalized score
        list seeded at the lightest shard, but only the sparse support
        can beat the seed, so only it is visited (in id order, keeping
        the first-strict-max tie-breaking of the scan).
        """
        sizes = self.scorer._shard_sizes
        _, best = self.size_argmin().peek()
        mass = raw.get(best)
        if mass is None:
            best_score = 0.0
        else:
            size = sizes[best]
            best_score = mass / (size if size > 0 else 1)
        for shard in sorted(raw):
            size = sizes[shard]
            score = raw[shard] / (size if size > 0 else 1)
            if score > best_score:
                best = shard
                best_score = score
        return best


class TopKOptChainPlacer(OptChainPlacer):
    """OptChain with bounded-support (top-k) T2S scoring.

    Same Temporal-Fitness decision rule, same fused hot path, but the
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
    :class:`~repro.core.t2s.AdaptiveTopKT2SScorer`. The adaptive
    scorer runs unfused (its window accounting is per-transaction).
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
