"""The scorer interface of the placement stack.

The T2S recurrence (§IV-B) is the one piece of OptChain with an open
design axis: *how much support each sparse vector retains*. The exact
scorer keeps everything the pruning floor admits; bounded-support
variants trade a little ancestry signal for per-transaction cost that
no longer grows with the shard count. This module makes that axis
explicit: a :class:`PlacementScorer` interface that every scoring
engine implements, a registry so scorers can be named, and the factory
placers use to build one.

The implementations live in :mod:`repro.core.t2s`:

- ``"exact"``  - :class:`~repro.core.t2s.T2SScorer`, the paper's
  incremental recurrence, bit-identical to the seed reference.
- ``"topk"``   - :class:`~repro.core.t2s.TopKT2SScorer`, which retains
  only the ``support_cap`` largest-mass entries per vector (dropped
  mass is tracked so saturation stays observable). With
  ``support_cap >= n_shards`` it reduces to the exact scorer -
  provably, since a vector over ``n_shards`` shards can never exceed
  ``n_shards`` entries, so truncation never fires.

**The hot-path contract.** OptChain's one decision loop
(``OptChainPlacer._place_loop``) binds the scorer's state to locals
once per batch and commits each placement inline, so every scorer it
drives exposes the exact-scorer state layout (``_p_prime``,
``_spender_count``, ``_min_mass``, ``_shard_sizes``, ``alpha``,
``prune_epsilon``, ``_scale``, ``_spenders_divisor``) plus the
declarative truncation knob ``support_cap`` (``None`` = unbounded).
A fused-compatible scorer also has its recurrence inlined: the loop
applies :func:`truncate_support` itself whenever a new vector's support
exceeds the cap, byte-for-byte what
``TopKT2SScorer.add_transaction_raw`` does. A fused-incompatible one
(:attr:`PlacementScorer.fused_compatible` False) costs one
:meth:`PlacementScorer.add_transaction_raw` call per transaction in
place of the inlined recurrence - for the adaptive cap at k=16, about a
quarter more interpreted work per transaction than the fixed-cap lane -
while the argmax and the commit stay inlined.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Sequence

from repro.errors import ConfigurationError

#: Default retained support for the bounded ("topk") scorer: at the
#: paper's average TaN degree (~2.3) almost all T2S mass concentrates
#: on a handful of ancestor shards, so 8 entries keep the placement
#: quality within a fraction of a point of exact while the per-vector
#: cost stops tracking n_shards (see PERFORMANCE.md, "Bounded-support
#: scoring").
DEFAULT_SUPPORT_CAP = 8


class PlacementScorer(ABC):
    """What a placement strategy needs from a scoring engine.

    One instance scores one stream: ``add_transaction_raw`` (or
    ``add_transaction``) is called once per arriving transaction in
    dense txid order, followed by exactly one ``place``. The rest of
    the interface is bookkeeping the serving layer depends on: vector
    release for the epoch/truncation policy, a plain-data
    ``export_state`` (the equality oracle of the backend differential
    tests), and ``support_stats`` for saturation observability.
    Snapshots do not go through this interface:
    :mod:`repro.service.state` writes and restores the exact-scorer
    state layout (see the module docstring) plus
    ``export_hot_scalars`` / ``import_hot_scalars``.
    """

    __slots__ = ()

    #: Registry kind -> implementation, populated by __init_subclass__.
    registry: dict[str, type["PlacementScorer"]] = {}

    #: Subclasses set this (on themselves) to register with the factory.
    kind: str = ""

    #: Max retained entries per vector; ``None`` means unbounded. The
    #: decision loop reads this declaratively (see module docstring).
    support_cap: int | None = None

    #: Whether the decision loop may inline this scorer's recurrence
    #: (reading ``support_cap`` once per batch). Scorers with
    #: per-transaction bookkeeping of their own - the adaptive cap's
    #: dropped-mass window - set this False and the loop calls their
    #: :meth:`add_transaction_raw` per transaction instead.
    fused_compatible: bool = True

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        # Register only classes that declare their own kind: subclasses
        # that merely inherit one (e.g. the preserved seed reference
        # scorer) must not displace the canonical implementation.
        if "kind" in cls.__dict__ and cls.kind:
            PlacementScorer.registry[cls.kind] = cls

    # -- the scoring contract ---------------------------------------------

    @abstractmethod
    def add_transaction_raw(
        self, txid: int, input_txids: Sequence[int], n_outputs: int = 1
    ) -> dict[int, float]:
        """Score an arriving transaction; returns the borrowed
        *unnormalized* sparse ``{shard: mass}`` map."""

    @abstractmethod
    def add_transaction(
        self, txid: int, input_txids: Sequence[int], n_outputs: int = 1
    ) -> dict[int, float]:
        """Like :meth:`add_transaction_raw` but returns a fresh
        *normalized* score map."""

    @abstractmethod
    def normalized(self, txid: int) -> dict[int, float]:
        """Normalized scores of an already-added transaction."""

    @abstractmethod
    def place(self, txid: int, shard: int) -> None:
        """Record the placement decision for the pending transaction."""

    @abstractmethod
    def release_vector(self, txid: int) -> None:
        """Drop one vector (epoch/truncation policy); reads as empty."""

    @abstractmethod
    def release_vectors(self, txids) -> None:
        """Bulk :meth:`release_vector` (one call per truncation sweep)."""

    @property
    @abstractmethod
    def live_vector_count(self) -> int:
        """Vectors still held in memory (added minus released)."""

    @property
    @abstractmethod
    def released_count(self) -> int:
        """Vectors dropped so far by :meth:`release_vector`."""

    @abstractmethod
    def export_state(self) -> dict[str, Any]:
        """Plain-data dump of all mutable state: what the backend
        differential tests compare."""

    @abstractmethod
    def support_stats(self) -> dict[str, Any]:
        """Support/saturation observability (JSON-friendly).

        Keys: ``live_vectors``, ``mean_nnz``, ``max_nnz`` (over live
        vectors), ``dropped_mass``, ``truncated_vectors``,
        ``support_cap``.
        """


def truncate_support(
    vector: dict[int, float], cap: int
) -> tuple[dict[int, float], float]:
    """Retain the ``cap`` largest-mass entries of a sparse vector.

    Returns ``(truncated, dropped_mass)``. Mass ties at the cutoff keep
    the lower shard id; survivors keep their original insertion order
    (dict order feeds the multi-parent accumulation order downstream,
    so reordering survivors would change later arithmetic). Dropped
    mass is summed in rank order, which both call sites (the scorer's
    own recurrence and OptChain's decision loop) share, keeping the
    accounting bit-identical between them.
    """
    ranked = sorted(vector.items(), key=lambda kv: (-kv[1], kv[0]))
    keep = {shard for shard, _ in ranked[:cap]}
    dropped = 0.0
    for _, mass in ranked[cap:]:
        dropped += mass
    truncated = {
        shard: mass for shard, mass in vector.items() if shard in keep
    }
    return truncated, dropped


def parse_support_cap(value) -> "tuple[str, int | float]":
    """Parse a support-cap setting: an int, or ``"auto:<rate>"``.

    Returns ``("fixed", cap)`` or ``("auto", target_rate)``. The auto
    form is the adaptive policy: start small and grow the cap while the
    observed dropped-mass rate stays above ``target_rate`` (see
    :class:`~repro.core.t2s.AdaptiveTopKT2SScorer`).
    """
    if isinstance(value, bool):
        raise ConfigurationError(
            f"support_cap must be an int or 'auto:<rate>', got {value!r}"
        )
    if isinstance(value, int):
        return ("fixed", value)
    if isinstance(value, str):
        if value.startswith("auto:"):
            try:
                rate = float(value[5:])
            except ValueError:
                raise ConfigurationError(
                    f"bad adaptive support cap {value!r}; expected "
                    "auto:<rate> with a float rate, e.g. auto:0.01"
                )
            if not 0.0 <= rate < 1.0:
                raise ConfigurationError(
                    f"adaptive dropped-mass rate must be in [0, 1), "
                    f"got {rate}"
                )
            return ("auto", rate)
        try:
            return ("fixed", int(value))
        except ValueError:
            raise ConfigurationError(
                f"support_cap must be an int or 'auto:<rate>', got "
                f"{value!r}"
            )
    raise ConfigurationError(
        f"support_cap must be an int or 'auto:<rate>', got {value!r}"
    )


def make_scorer(kind: str, n_shards: int, **kwargs) -> PlacementScorer:
    """Factory over the scorer registry (``"exact"``, ``"topk"``)."""
    # The implementations register on import; resolve them lazily so
    # importing this interface module alone stays cycle-free.
    import repro.core.t2s  # noqa: F401

    try:
        cls = PlacementScorer.registry[kind]
    except KeyError:
        known = ", ".join(sorted(PlacementScorer.registry))
        raise ConfigurationError(
            f"unknown scorer kind {kind!r}; known: {known}"
        )
    return cls(n_shards=n_shards, **kwargs)
