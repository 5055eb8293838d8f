"""The long-lived placement engine: validation + epoch-bounded memory.

:class:`PlacementEngine` wraps a :class:`~repro.core.placement.
PlacementStrategy` for serving. It adds exactly what a one-shot
experiment script never needed:

**The serving contract.** Batches are validated *atomically* before any
state advances: transactions must arrive in dense stream order, and
every input must reference a known, not-fully-spent output. A rejected
batch leaves the engine byte-identical to before the call, so a server
can return an error to one client and keep serving the rest.

**The epoch/truncation policy.** The T2S store keeps one sparse vector
per transaction, read only when a later transaction spends one of its
outputs. Two observations bound that memory:

1. A *fully-spent* transaction can never be read again on a valid
   stream - its spender count has frozen - so its vector is released
   (dropped) at the next epoch boundary. This is **exact**: placements
   are bit-identical to an untruncated run (the golden truncation test
   pins this).
2. With ``horizon_epochs`` set, vectors older than the horizon are
   released even if outputs remain unspent, which caps live vectors at
   roughly ``(horizon_epochs + 1) * epoch_length`` regardless of stream
   length. Spends that reach behind the horizon are still *accepted* -
   a released slot scores as zero ancestry mass, so the walk degrades
   gracefully instead of failing - but they can no longer be validated
   or contribute T2S signal. The random-walk mass of an ancestor
   ``d`` generations back carries a ``(1 - alpha)^d`` factor, so for
   the paper's ``alpha = 0.5`` the signal lost with a generous horizon
   is far below ``prune_epsilon`` in almost all cases; the measured
   placement-quality drift is recorded in BENCH_service.json.

Both releases are batched at epoch boundaries (every ``epoch_length``
placements), amortizing the sweep to O(1) per transaction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Iterable, Sequence

from repro.core.placement import PlacementStrategy
from repro.core.scorer import PlacementScorer
from repro.errors import ConfigurationError, EngineError
from repro.utxo.transaction import Transaction

if TYPE_CHECKING:  # pragma: no cover - typing only
    import pathlib


@dataclass(frozen=True, slots=True)
class EngineStats:
    """A consistent point-in-time view of the engine's counters."""

    strategy: str
    n_shards: int
    n_placed: int
    #: Sparse T2S vectors currently held in memory (None for strategies
    #: without a T2S scorer, e.g. ``omniledger``).
    live_vectors: int | None
    #: Vectors dropped so far by the truncation policy.
    released_vectors: int | None
    #: Largest live-vector count ever observed at an epoch boundary.
    peak_live_vectors: int | None
    #: First txid still inside the spend horizon (0 = no horizon drop yet).
    horizon_start: int
    #: Completed epochs (``n_placed // epoch_length``).
    epoch: int
    #: Transactions with unspent outputs currently tracked for
    #: validation (the engine-side analogue of the UTXO set size).
    tracked_unspent: int
    epoch_length: int
    horizon_epochs: int | None
    #: Support/saturation observability from the scorer (None for
    #: strategies without one): live-vector count, mean/max vector nnz,
    #: dropped-mass totals, and the support cap when bounded. This is
    #: how T2S saturation - the thing that erodes throughput at 64+
    #: shards - shows up in production instead of only in benchmarks.
    support: dict[str, Any] | None = None
    #: Canonical strategy-spec string (method, cap, backend -
    #: :class:`repro.core.spec.StrategySpec`); feeding it back to
    #: ``make_placer`` reproduces this engine's placer configuration.
    spec: str = ""
    #: Arena rows the numpy T2S store holds, live plus recycled (None
    #: for list-backed stores) - its exact k-wide memory. Layout, not
    #: state: :meth:`as_dict` is compared across backends, so this
    #: travels in the stats reply's ``obs`` sidecar instead.
    rows_resident: int | None = None

    def as_dict(self) -> dict[str, Any]:
        """JSON-friendly dump (the server's ``stats`` op)."""
        return {
            "strategy": self.strategy,
            "spec": self.spec,
            "n_shards": self.n_shards,
            "n_placed": self.n_placed,
            "live_vectors": self.live_vectors,
            "released_vectors": self.released_vectors,
            "peak_live_vectors": self.peak_live_vectors,
            "horizon_start": self.horizon_start,
            "epoch": self.epoch,
            "tracked_unspent": self.tracked_unspent,
            "epoch_length": self.epoch_length,
            "horizon_epochs": self.horizon_epochs,
            "support": self.support,
        }


class PlacementEngine:
    """Long-lived, checkpointable wrapper around a placement strategy.

    Parameters:

    - ``placer``: a fresh strategy (no placements yet); restored engines
      come from :meth:`restore` instead.
    - ``epoch_length``: placements per epoch; truncation sweeps run at
      epoch boundaries.
    - ``horizon_epochs``: if set, vectors older than this many epochs
      are dropped even when not fully spent (bounded memory, graceful
      signal loss - see the module docstring). ``None`` keeps the exact
      fully-spent-only policy, whose memory bound is the stream's
      unspent frontier.
    - ``truncate_spent``: release fully-spent vectors (exact). Disable
      only to measure the untruncated baseline.
    """

    def __init__(
        self,
        placer: PlacementStrategy,
        *,
        epoch_length: int = 25_000,
        horizon_epochs: int | None = None,
        truncate_spent: bool = True,
        _preplaced_ok: bool = False,
    ) -> None:
        if epoch_length < 1:
            raise ConfigurationError(
                f"epoch_length must be >= 1, got {epoch_length}"
            )
        if horizon_epochs is not None and horizon_epochs < 1:
            raise ConfigurationError(
                f"horizon_epochs must be >= 1 (or None), got "
                f"{horizon_epochs}"
            )
        if placer.n_placed and not _preplaced_ok:
            raise ConfigurationError(
                "PlacementEngine needs a fresh placer: it must observe "
                "every placement to track spendable outputs (restore a "
                "snapshot with PlacementEngine.restore instead)"
            )
        self._placer = placer
        self._epoch_length = epoch_length
        self._horizon_epochs = horizon_epochs
        self._truncate_spent = truncate_spent
        # Any scorer implementing the interface gets the serving
        # features (truncation sweeps, support stats) - including
        # custom injections via OptChainPlacer(scorer=...), not just
        # the built-in kinds.
        scorer = getattr(placer, "scorer", None)
        self._scorer: PlacementScorer | None = (
            scorer if isinstance(scorer, PlacementScorer) else None
        )
        self._collect_spent = self._scorer is not None and truncate_spent
        # txid -> bitmask of still-unspent output indexes, for every
        # in-horizon transaction that has any (bit i set = output i
        # spendable), so validation is per-outpoint: double-spending
        # output 0 while output 1 is unspent is caught, and so is a
        # fabricated output index. Entries are dropped the moment the
        # mask hits zero (which is also what flags the vector for
        # release) or when the horizon passes them.
        #
        # Placers whose compiled kernel is active provide a validation
        # driver; the store is then a MaskMap (dense int64 array the
        # kernel validates batches against directly) instead of a dict.
        # Both behave identically through the Mapping protocol, so
        # snapshots, deltas, and partition handoff never care which.
        factory = getattr(placer, "validation_driver", None)
        self._validator = factory() if factory is not None else None
        if self._validator is not None:
            from repro.core.backends.arrays import MaskMap

            self._remaining: "dict[int, int] | Any" = MaskMap()
        else:
            self._remaining = {}
        # A placer failure mid-batch (after validation committed) would
        # leave bookkeeping and placements out of step; the engine
        # poisons itself rather than serve from inconsistent state.
        self._poisoned = False
        # Fully-spent txids awaiting the next epoch-boundary release.
        self._pending_release: list[int] = []
        # Transiently-installed foreign txids the sweeps must not touch
        # (set by the partition layer around place_batch).
        self._sweep_exclude: "frozenset[int] | set[int] | None" = None
        # Delta-checkpoint bookkeeping (see service.state, format v3):
        # the last full snapshot this engine wrote, and the pre-base
        # parents touched since. None until a full checkpoint with
        # delta tracking enables it; cost is one set.update of the
        # spend journal's keys per batch.
        self._delta_base: "dict[str, Any] | None" = None
        self._dirty_parents: "set[int] | None" = None
        # Nonce of the on-disk full snapshot this engine's state is
        # anchored to (set on save and on restore). The per-partition
        # write-ahead journal (service.journal) binds to it so a WAL
        # tail is only ever replayed on top of the exact checkpoint it
        # was written against. None/"" means "fresh engine, no base".
        self.last_snapshot_nonce: "str | None" = None
        self._horizon_start = 0
        self._epoch = 0
        self._peak_live = 0
        # Optional placement-quality shadow (repro.obs.drift), attached
        # by the serving layer. Observes committed batches and mirrors
        # the truncation sweeps so its memory stays bounded by the same
        # policy as the production scorer. Purely observational: a
        # monitor failure detaches it instead of poisoning the engine.
        self.drift_monitor: "Any | None" = None

    # -- queries -----------------------------------------------------------

    @property
    def placer(self) -> PlacementStrategy:
        """The wrapped strategy (read-only use: assignments, sizes)."""
        return self._placer

    @property
    def n_placed(self) -> int:
        """Transactions placed so far."""
        return self._placer.n_placed

    @property
    def n_shards(self) -> int:
        """Number of shards served."""
        return self._placer.n_shards

    @property
    def horizon_start(self) -> int:
        """First txid whose vector the horizon policy still retains."""
        return self._horizon_start

    @property
    def kernel_validation(self) -> bool:
        """True when batch validation runs in the compiled kernel."""
        return self._validator is not None

    def stats(self) -> EngineStats:
        from repro.core.spec import StrategySpec

        scorer = self._scorer
        live = scorer.live_vector_count if scorer is not None else None
        if live is not None and live > self._peak_live:
            self._peak_live = live
        return EngineStats(
            strategy=type(self._placer).name or type(self._placer).__name__,
            spec=str(StrategySpec.of_placer(self._placer)),
            n_shards=self._placer.n_shards,
            n_placed=self._placer.n_placed,
            live_vectors=live,
            released_vectors=(
                scorer.released_count if scorer is not None else None
            ),
            peak_live_vectors=(
                self._peak_live if scorer is not None else None
            ),
            horizon_start=self._horizon_start,
            epoch=self._epoch,
            tracked_unspent=len(self._remaining),
            epoch_length=self._epoch_length,
            horizon_epochs=self._horizon_epochs,
            support=(
                scorer.support_stats() if scorer is not None else None
            ),
            rows_resident=getattr(scorer, "rows_resident", None),
        )

    # -- the serving hot path ----------------------------------------------

    def place_batch(
        self,
        txs: Iterable[Transaction],
        *,
        _exclude_release: "frozenset[int] | set[int] | None" = None,
    ) -> list[int]:
        """Validate and place one batch; returns its shard assignment.

        Validation is atomic: on :class:`~repro.errors.EngineError`
        nothing has changed and the engine keeps serving. After a batch
        commits, any epoch boundaries it crossed run the truncation
        sweeps.

        ``_exclude_release`` is the partition layer's hook
        (:mod:`repro.service.partition`): txids whose vectors this
        engine must *not* release even when the batch fully spends them
        - remotely-owned parents are released by their owning partition
        on writeback, and the local copies are transient installs.
        """
        if self._poisoned:
            raise EngineError(
                "engine is poisoned: a placement failure after batch "
                "validation left bookkeeping and placements out of "
                "step; restore the last checkpoint"
            )
        batch = txs if isinstance(txs, list) else list(txs)
        marshalled = None
        if self._validator is not None:
            marshalled = self._validator.marshal(
                batch, self._placer.n_placed
            )
        return self._place_validated(batch, marshalled, _exclude_release)

    def place_wire_batch(
        self,
        wire_batch: Any,
        *,
        _exclude_release: "frozenset[int] | set[int] | None" = None,
    ) -> list[int]:
        """Place one decoded binary ``place`` payload
        (:class:`repro.service.wire.WireBatch`) without materializing
        :class:`Transaction` objects - the frame's C-contiguous arrays
        feed the validation and placement kernels directly.

        Falls back to the object path (byte-identical replies, same
        errors) when kernel validation is off or a drift monitor needs
        the objects.
        """
        if self._validator is None or self.drift_monitor is not None:
            return self.place_batch(
                self._materialize(wire_batch),
                _exclude_release=_exclude_release,
            )
        if self._poisoned:
            raise EngineError(
                "engine is poisoned: a placement failure after batch "
                "validation left bookkeeping and placements out of "
                "step; restore the last checkpoint"
            )
        first = wire_batch.first_txid
        if first != self._placer.n_placed:
            raise EngineError(
                f"transactions must arrive in dense stream order: "
                f"got {first}, expected {self._placer.n_placed}"
            )
        return self._place_validated(None, wire_batch, _exclude_release)

    @staticmethod
    def _materialize(wire_batch: Any) -> list[Transaction]:
        from repro.service.wire import decode_place_payload

        batch: list[Transaction] = []
        for payload in wire_batch.payloads:
            batch.extend(decode_place_payload(payload))
        return batch

    def _place_validated(
        self,
        batch: "list[Transaction] | None",
        marshalled: Any,
        _exclude_release: "frozenset[int] | set[int] | None",
    ) -> list[int]:
        """Common tail of the two entry points: validate (kernel or
        python journal), filter the pending releases, place, sweep.
        ``batch`` is None only on the wire path, where Transactions are
        materialized lazily if the kernel punts the batch back."""
        if marshalled is not None:
            if not self._validate_kernel(marshalled):
                # The kernel rolled everything back: the batch touches
                # arbitrary-precision masks or >62-output transactions.
                # The python journal handles it exactly (rare, cold).
                if batch is None:
                    batch = self._materialize(marshalled)
                self._apply_inputs(batch)
        else:
            self._apply_inputs(batch)
        pending = self._pending_release
        if (
            _exclude_release
            and pending
            and not _exclude_release.isdisjoint(pending)
        ):
            pending[:] = [
                txid for txid in pending if txid not in _exclude_release
            ]
        try:
            if marshalled is not None:
                shards = self._placer.place_batch_raw(
                    marshalled.parents, marshalled.in_off, marshalled.n_txs
                )
            else:
                shards = self._placer.place_batch(batch)
        except Exception:
            # Validation passed, so this is a placer bug (or a placer
            # violating the snapshotable contract); the spent-output
            # journal was already committed and partial placements
            # cannot be unwound, so refuse further service instead of
            # serving from a desynced state.
            self._poisoned = True
            raise
        if self.drift_monitor is not None:
            self._observe_drift(batch, shards)
        if (
            self._placer.n_placed // self._epoch_length != self._epoch
        ):
            self._sweep_exclude = _exclude_release or None
            try:
                self._advance_epochs()
            finally:
                self._sweep_exclude = None
        return shards

    def _validate_kernel(self, marshalled: Any) -> bool:
        """Kernel-side :meth:`_apply_inputs`; True when it committed."""
        result = self._validator.validate(
            self._remaining, marshalled, horizon_start=self._horizon_start
        )
        if result is None:
            return False
        released, undo_txids = result
        if self._collect_spent and released:
            self._pending_release.extend(released)
        dirty = self._dirty_parents
        if dirty is not None and undo_txids is not None:
            dirty.update(undo_txids.tolist())
        return True

    # -- checkpointing -----------------------------------------------------

    def checkpoint(
        self,
        path: "str | pathlib.Path",
        compress: bool = False,
        delta: bool = False,
        track_delta: "bool | None" = None,
    ) -> int:
        """Write a snapshot to ``path``; returns the byte size written.

        The engine must be quiescent (between batches) - always true
        from the single-threaded server loop and from straight-line
        client code. ``compress`` writes the array payload as one zlib
        stream (see :func:`repro.service.state.save_engine_snapshot`);
        restore auto-detects either form.

        ``delta`` writes ``<path>.delta`` instead: only the arrays
        appended and the pre-base parents touched since the last *full*
        snapshot at ``path`` (format v3) - O(activity since base), not
        O(n_placed). Requires that full snapshot to have been written
        by this engine **with** ``track_delta=True`` (the dirty-parent
        journal is opt-in: a set update per batch plus memory for the
        touched-parent ids between full saves, pointless overhead for
        engines that only ever snapshot fully); once enabled, tracking
        stays on across later full saves unless explicitly turned off.
        :meth:`restore` applies the delta automatically. Each delta
        save replaces the previous one (cumulative since base); a full
        save compacts and invalidates it.
        """
        from repro.service.state import (
            save_engine_delta,
            save_engine_snapshot,
        )

        if delta:
            return save_engine_delta(self, path, compress=compress)
        if track_delta is None:
            track_delta = self._dirty_parents is not None
        return save_engine_snapshot(
            self, path, compress=compress, track_delta=track_delta
        )

    @classmethod
    def restore(cls, path: "str | pathlib.Path") -> "PlacementEngine":
        """Rebuild an engine from a snapshot; continuing the stream is
        bit-identical to never having stopped (the golden restore test
        pins this across processes)."""
        from repro.service.state import load_engine_snapshot

        return load_engine_snapshot(path)

    # -- snapshot plumbing (plain-data state, serialized by state.py) ------

    def export_config(self) -> dict[str, Any]:
        """Constructor arguments (placer excluded)."""
        return {
            "epoch_length": self._epoch_length,
            "horizon_epochs": self._horizon_epochs,
            "truncate_spent": self._truncate_spent,
        }

    def export_state(self) -> dict[str, Any]:
        """Mutable engine bookkeeping as plain data."""
        return {
            "remaining": dict(self._remaining.items()),
            "pending_release": list(self._pending_release),
            "horizon_start": self._horizon_start,
            "epoch": self._epoch,
            "peak_live": self._peak_live,
        }

    def restore_state(self, state: dict[str, Any]) -> None:
        """Load a dump produced by :meth:`export_state` (same config)."""
        if self._validator is not None:
            from repro.core.backends.arrays import MaskMap

            self._remaining = MaskMap(state["remaining"])
        else:
            self._remaining = dict(state["remaining"])
        self._pending_release = list(state["pending_release"])
        self._horizon_start = state["horizon_start"]
        self._epoch = state["epoch"]
        self._peak_live = state["peak_live"]

    # -- internals ---------------------------------------------------------

    def _apply_inputs(self, batch: Sequence[Transaction]) -> None:
        """Validate and advance the unspent-output bookkeeping.

        One journaled pass (this brackets the fused placement loop on
        the serving hot path, so it is written like one): mutations are
        applied eagerly while an undo log records each entry's previous
        value, and an :class:`~repro.errors.EngineError` rolls the log
        back before propagating - the caller observes atomic
        all-or-nothing batches either way.
        """
        first_txid = self._placer.n_placed
        next_txid = first_txid
        horizon_start = self._horizon_start
        remaining = self._remaining
        remaining_get = remaining.get
        collect = self._collect_spent
        pending = self._pending_release
        pending_mark = len(pending)
        # (txid, previous_mask) pairs for *spent* entries only. Entries
        # the batch itself created need no journal: their keys are
        # exactly [first_txid, failure point), so rollback pops that
        # range after restoring the spend journal (which may include
        # batch-created parents - restore order handles it).
        undo: list[tuple[int, int]] = []
        record = undo.append
        try:
            for tx in batch:
                txid = tx.txid
                if txid != next_txid:
                    raise EngineError(
                        f"transactions must arrive in dense stream "
                        f"order: got {txid}, expected {next_txid}"
                    )
                next_txid += 1
                for outpoint in tx.inputs:
                    parent = outpoint.txid
                    if parent >= txid:
                        raise EngineError(
                            f"transaction {txid} references a "
                            f"non-earlier transaction {parent}"
                        )
                    if parent < horizon_start:
                        # Beyond the spend horizon: accepted (zero
                        # ancestry mass), but no longer validatable -
                        # the horizon traded that bookkeeping away for
                        # bounded memory.
                        continue
                    mask = remaining_get(parent)
                    if mask is None:
                        raise EngineError(
                            f"transaction {txid} spends an unknown or "
                            f"fully-spent transaction {parent}"
                        )
                    bit = 1 << outpoint.index
                    if not mask & bit:
                        raise EngineError(
                            f"transaction {txid} spends output "
                            f"{outpoint.index} of transaction {parent}, "
                            f"which does not exist or is already spent"
                        )
                    record((parent, mask))
                    mask ^= bit
                    if mask:
                        remaining[parent] = mask
                    else:
                        del remaining[parent]
                        if collect:
                            pending.append(parent)
                n_outputs = len(tx.outputs)
                if n_outputs:
                    remaining[txid] = (1 << n_outputs) - 1
                elif collect:
                    # Zero outputs: nothing to spend, the vector can
                    # never be read - release at the next boundary like
                    # any fully-spent transaction.
                    pending.append(txid)
        except EngineError:
            del pending[pending_mark:]
            for key, previous in reversed(undo):
                remaining[key] = previous
            for key in range(first_txid, next_txid):
                remaining.pop(key, None)
            raise
        dirty = self._dirty_parents
        if dirty is not None and undo:
            # The spend journal's keys are exactly the parents this
            # batch mutated - free dirty tracking for delta
            # checkpoints (keys at or above the delta base are part of
            # the serialized tail anyway and filtered out at save).
            dirty.update(key for key, _ in undo)

    def _advance_epochs(self) -> None:
        """Run the truncation sweeps for every boundary just crossed."""
        self._epoch = epoch = self._placer.n_placed // self._epoch_length
        scorer = self._scorer
        if scorer is None:
            if self._horizon_epochs is not None:
                self._drop_horizon(epoch)
            return
        if self._collect_spent and self._pending_release:
            scorer.release_vectors(self._pending_release)
            if self.drift_monitor is not None:
                self._observe_release(self._pending_release)
            self._pending_release.clear()
        if self._horizon_epochs is not None:
            self._drop_horizon(epoch)
        live = scorer.live_vector_count
        if live > self._peak_live:
            self._peak_live = live

    def _drop_horizon(self, epoch: int) -> None:
        new_start = (epoch - self._horizon_epochs) * self._epoch_length
        if new_start <= self._horizon_start:
            return
        remaining = self._remaining
        scorer = self._scorer
        exclude = self._sweep_exclude
        span = range(self._horizon_start, new_start)
        if exclude:
            # Installed foreign slots are the owner's to release; here
            # they are transient copies the partition layer unwinds.
            span = [txid for txid in span if txid not in exclude]
        if scorer is not None:
            scorer.release_vectors(span)
            if self.drift_monitor is not None:
                self._observe_release(span)
        clear_range = getattr(remaining, "clear_range", None)
        if clear_range is not None:
            # MaskMap: one vectorized pass instead of a pop per txid.
            clear_range(self._horizon_start, new_start, exclude or ())
        else:
            for txid in span:
                remaining.pop(txid, None)
        self._horizon_start = new_start

    # -- drift shadow (observational; never poisons the engine) ------------

    def _observe_drift(self, batch, shards) -> None:
        monitor = self.drift_monitor
        try:
            monitor.observe_batch(batch, shards)
        except Exception as exc:  # pragma: no cover - defensive detach
            monitor.failed = repr(exc)
            self.drift_monitor = None

    def _observe_release(self, txids) -> None:
        monitor = self.drift_monitor
        try:
            monitor.release_vectors(txids)
        except Exception as exc:  # pragma: no cover - defensive detach
            monitor.failed = repr(exc)
            self.drift_monitor = None
