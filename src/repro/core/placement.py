"""The placement-strategy interface and factory.

A placement strategy consumes the transaction stream in arrival order and
decides, online, which shard owns each transaction. Strategies are the
unit the whole evaluation varies: Tables I/II compare their static
cross-TX quality; Figures 3-11 plug them into the simulator.

Contract: ``place`` is called exactly once per transaction, in stream
order; it must return a shard id in ``[0, n_shards)`` and record the
assignment so later transactions can see their inputs' shards via
``shard_of``.
"""

from __future__ import annotations

from abc import ABC
from typing import Any, Iterable

from repro.core._argmin import LazyArgmin
from repro.errors import ConfigurationError, PlacementError
from repro.utxo.transaction import Transaction


class PlacementStrategy(ABC):
    """Base class for all transaction placers."""

    #: Registry name -> subclass, populated by __init_subclass__.
    registry: dict[str, type["PlacementStrategy"]] = {}

    #: Subclasses set this to register themselves with the factory.
    name: str = ""

    #: Which execution backend the class implements. Alternative
    #: backends of a registered strategy (repro.core.backends) inherit
    #: ``name`` for display/spec purposes and override only this.
    backend: str = "python"

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        # Register only classes that declare their own name: backend
        # subclasses inherit the canonical name and must not displace
        # the canonical class in the registry (mirrors the scorer
        # registry's guard).
        if "name" in cls.__dict__ and cls.name:
            PlacementStrategy.registry[cls.name] = cls

    def __init__(self, n_shards: int) -> None:
        if n_shards <= 0:
            raise ConfigurationError(f"n_shards must be > 0, got {n_shards}")
        self.n_shards = n_shards
        self._assignment: list[int] = []
        self._shard_sizes: list[int] = [0] * n_shards
        self._size_argmin: LazyArgmin | None = None
        # Exact running minimum of the shard sizes, O(1) amortized:
        # sizes only grow by one, so when the last shard leaves the
        # current minimum the new minimum is exactly one higher (that
        # shard now sits there), and the recount is O(n_shards) at most
        # once per full level - O(1) per placement overall.
        self._min_shard_size = 0
        self._min_size_count = n_shards
        # Exact running maximum, O(1): sizes only grow, so the maximum
        # can only be advanced by the shard just bumped. The capped
        # baselines use it to answer "is every shard under the cap?"
        # without scanning (the coinbase-burst fast path).
        self._max_shard_size = 0

    # -- contract ----------------------------------------------------------

    def _choose(self, tx: Transaction) -> int:
        """Pick a shard for ``tx``; assignment recording is handled here.

        The per-transaction hook of the default :meth:`place`. A strategy
        that decides in batches (OptChain) overrides :meth:`place` and
        :meth:`place_batch` instead.
        """
        raise NotImplementedError(
            f"{type(self).__name__} implements neither _choose nor place"
        )

    def place(self, tx: Transaction) -> int:
        """Place one transaction; returns its shard."""
        assignment = self._assignment
        if tx.txid != len(assignment):
            raise PlacementError(
                f"transactions must be placed in dense stream order: got "
                f"{tx.txid}, expected {len(assignment)}"
            )
        shard = self._choose(tx)
        if not 0 <= shard < self.n_shards:
            raise PlacementError(
                f"{type(self).__name__} produced shard {shard}, valid "
                f"range is [0, {self.n_shards})"
            )
        assignment.append(shard)
        self._bump_shard_size(shard)
        return shard

    def place_stream(self, txs: Iterable[Transaction]) -> list[int]:
        """Place a whole stream; returns the *full* assignment so far."""
        self.place_batch(txs)
        return list(self._assignment)

    def place_batch(self, txs: Iterable[Transaction]) -> list[int]:
        """Place a batch; returns the shards of *these* transactions only.

        The long-lived serving path (:mod:`repro.service`): a server
        placing millions of transactions in micro-batches must not pay
        the O(n_placed) full-assignment copy that :meth:`place_stream`
        returns per call. Decisions and state are identical to calling
        :meth:`place` in a loop.
        """
        place = self.place
        return [place(tx) for tx in txs]

    def force_place(self, tx: Transaction, shard: int) -> None:
        """Record an externally decided placement (warm starts).

        Table II seeds every strategy with a Metis partition of the
        stream prefix before measuring the placement window; the internal
        state (scores, sizes) must track these decisions exactly as if
        the strategy had made them.
        """
        if tx.txid != len(self._assignment):
            raise PlacementError(
                f"transactions must be placed in dense stream order: got "
                f"{tx.txid}, expected {len(self._assignment)}"
            )
        if not 0 <= shard < self.n_shards:
            raise PlacementError(
                f"forced shard {shard} out of range [0, {self.n_shards})"
            )
        self._on_forced(tx, shard)
        self._assignment.append(shard)
        self._bump_shard_size(shard)

    def _on_forced(self, tx: Transaction, shard: int) -> None:
        """Subclass hook: absorb a forced placement into internal state.

        The default is a no-op, correct for stateless strategies
        (random hash, offline replay).
        """

    def place_observed(self, tx: Transaction, shard: int) -> int:
        """Adopt an external placement and return the shard this
        strategy would have chosen (drift-monitor shadow scoring).

        Only strategies whose decision step is separable from its
        commit implement this; see
        :meth:`repro.core.optchain.OptChainPlacer.place_observed`.
        """
        raise PlacementError(
            f"{type(self).__name__} cannot score observed placements; "
            "drift monitoring needs an optchain-family shadow"
        )

    # -- shared queries ------------------------------------------------------

    @property
    def n_placed(self) -> int:
        """Transactions placed so far."""
        return len(self._assignment)

    def shard_of(self, txid: int) -> int:
        """Shard of an already-placed transaction."""
        return self._assignment[txid]

    def assignment(self) -> list[int]:
        """Copy of the full assignment so far."""
        return list(self._assignment)

    def input_shards(self, tx: Transaction) -> set[int]:
        """``Sin(u)`` given the placements made so far.

        Iterates the raw inputs rather than the deduplicated
        ``tx.input_txids`` tuple (which allocates a dict and a tuple per
        call). The set's insertion sequence of *new* shards is unchanged
        - duplicate parents re-insert an element already present, which
        leaves set layout untouched - so iteration order, and with it
        every downstream tie-break, is identical.
        """
        assignment = self._assignment
        shards: set[int] = set()
        add = shards.add
        # A plain loop, not a set comprehension: comprehensions cost an
        # extra frame per call on 3.11, and this runs once per issued
        # transaction inside the simulator.
        for outpoint in tx.inputs:
            add(assignment[outpoint.txid])
        return shards

    def shard_sizes(self) -> list[int]:
        """Current transaction count per shard (maintained incrementally,
        O(n_shards) only for the returned copy - never O(n_placed))."""
        return list(self._shard_sizes)

    @property
    def min_shard_size(self) -> int:
        """Exact size of the currently smallest shard, O(1)."""
        return self._min_shard_size

    @property
    def max_shard_size(self) -> int:
        """Exact size of the currently largest shard, O(1)."""
        return self._max_shard_size

    def _bump_shard_size(self, shard: int) -> None:
        sizes = self._shard_sizes
        old = sizes[shard]
        sizes[shard] = old + 1
        if old + 1 > self._max_shard_size:
            self._max_shard_size = old + 1
        if old == self._min_shard_size:
            count = self._min_size_count - 1
            if count == 0:
                # The bumped shard now sits exactly one level up, so the
                # recount can never come back zero.
                self._min_shard_size = old + 1
                count = sizes.count(old + 1)
            self._min_size_count = count
        if self._size_argmin is not None:
            self._size_argmin.bump(shard)

    def size_argmin(self) -> LazyArgmin:
        """Lazy argmin over the shard sizes, created on first use.

        Strategies that need "the lightest shard" per placement (OptChain
        without a latency provider, the capped baselines' fallback) ask
        for this once and then get amortized O(log n_shards) queries
        instead of an O(n_shards) scan per transaction.
        """
        if self._size_argmin is None:
            self._size_argmin = LazyArgmin(self._shard_sizes)
        return self._size_argmin

    # -- state export --------------------------------------------------------

    def export_state(self) -> dict[str, Any]:
        """Plain-data dump of the mutable placement state.

        Together with the constructor arguments this is everything a
        fresh instance needs to continue the stream *bit-identically*,
        which makes it the equality oracle of the backend differential
        tests; snapshots write the same fields directly
        (:mod:`repro.service.state`). Lazy heap contents are exported
        verbatim: heap layout decides the traversal order of
        tie-handling queries, so "semantically equal" rebuilt heaps are
        not enough for the bit-identical contract.
        """
        state: dict[str, Any] = {
            "assignment": list(self._assignment),
            "shard_sizes": list(self._shard_sizes),
            "min_shard_size": self._min_shard_size,
            "min_size_count": self._min_size_count,
            "max_shard_size": self._max_shard_size,
        }
        if self._size_argmin is not None:
            state["size_argmin_heap"] = [
                (value, index) for value, index in self._size_argmin._heap
            ]
        return state


def make_placer(
    name, n_shards: int, backend: "str | None" = None, **kwargs
) -> PlacementStrategy:
    """Factory over the strategy registry and the spec language.

    ``name`` accepts a plain registry name (``optchain``,
    ``optchain-topk``, ``omniledger``, ``greedy``, ``metis``, ``t2s``,
    ``t2s-topk`` - see :mod:`repro.core.baselines` and
    :mod:`repro.core.optchain`), a full spec string
    (``"optchain-topk:cap=4,backend=numpy"``), or a parsed
    :class:`~repro.core.spec.StrategySpec`. The ``backend`` keyword
    routes a plain name through spec resolution
    (``make_placer("optchain", 16, backend="numpy")``).
    """
    from repro.core.spec import StrategySpec

    if isinstance(name, StrategySpec):
        return name.build(n_shards, **kwargs)
    if ":" in name or backend is not None:
        spec = StrategySpec.parse(name)
        if backend is not None:
            spec = spec.with_backend(backend)
        return spec.build(n_shards, **kwargs)
    try:
        cls = PlacementStrategy.registry[name]
    except KeyError:
        known = ", ".join(sorted(PlacementStrategy.registry))
        raise ConfigurationError(
            f"unknown placement strategy {name!r}; known: {known}"
        )
    return cls(n_shards=n_shards, **kwargs)
