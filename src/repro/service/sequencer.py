"""The ``place`` sequencer both dispatchers share.

Clients replay disjoint chunks of one global txid stream (see
:mod:`repro.datasets.replay`); whichever order their requests arrive
in, only the contiguous run starting at the engine cursor is
dispatchable. This module owns that logic once, for the single-process
server (:mod:`repro.service.server`) and for every worker of the
sharded service (:mod:`repro.service.worker`): payload decode (zero-copy
:class:`~repro.service.wire.WireBatch` or ``Transaction`` list),
admission, the reorder buffer, coalescing, atomic-reject replay and
reply splitting. The owner supplies the cursor, the assignment record
and the ``place`` coroutine; the worker wraps its lease, engine-lock,
remote-parent and write-ahead-journal steps around these calls.
"""

from __future__ import annotations

import asyncio
from time import perf_counter
from typing import Any, Awaitable, Callable

from repro.errors import EngineError
from repro.obs.metrics import ServiceMetrics
from repro.service.wire import (
    WireBatch,
    concat_wire_batches,
    decode_place_arrays,
    decode_place_payload,
)
from repro.utxo.transaction import Transaction


def wire_path_active(engine: Any) -> bool:
    """True when ``place`` frames can stay numpy views end to end
    (wire -> kernel): the compiled validator is on and no drift monitor
    needs ``Transaction`` objects."""
    return engine.kernel_validation and engine.drift_monitor is None


def decode_place(
    payload: bytes, wire_arrays: bool
) -> "list[Transaction] | WireBatch":
    """One binary ``place`` payload, as the engine will consume it."""
    # None: the frame uses an encoding the array decoder does not cover
    # (full outputs) - the object decoder handles it with identical
    # validation.
    batch = decode_place_arrays(payload) if wire_arrays else None
    return decode_place_payload(payload) if batch is None else batch


def first_txid(txs: "list[Transaction] | WireBatch") -> int:
    return txs.first_txid if isinstance(txs, WireBatch) else txs[0].txid


def merge_members(
    members: "list[list[Transaction] | WireBatch]",
) -> "list[Transaction] | WireBatch":
    """Fuse a contiguous run of queued requests into one engine batch.

    All-array members concatenate without touching a Transaction
    object; a mixed run (an NDJSON request or a full-output frame
    coalesced with array frames) falls back to one object list, since
    the engine takes a batch of exactly one kind.
    """
    if len(members) == 1:
        return members[0]
    if all(isinstance(member, WireBatch) for member in members):
        return concat_wire_batches(members)
    batch: list[Transaction] = []
    for member in members:
        if isinstance(member, WireBatch):
            for payload in member.payloads:
                batch.extend(decode_place_payload(payload))
        else:
            batch.extend(member)
    return batch


class RunFailed(Exception):
    """Raised by a ``place`` coroutine to fail its requests with a
    reply other than an engine reject (``retry`` while a foreign owner
    recovers, a lost coordinator link): nothing was placed and replaying
    the members one by one would not help. ``args`` is
    ``(code, error)``."""


def failure(code: str, error: str) -> dict:
    """The reply dict of a refused or failed request."""
    return {"ok": False, "code": code, "error": error}


class PendingRequest:
    """One decoded ``place`` request waiting for the cursor.

    ``payload`` is the raw wire payload when the owner journals batches
    (the write-ahead journal records the exact post-routing frame
    without re-encoding), else None.
    """

    __slots__ = ("txs", "payload", "future")

    def __init__(
        self,
        txs: "list[Transaction] | WireBatch",
        payload: "bytes | None",
        future: "asyncio.Future[dict]",
    ) -> None:
        self.txs = txs
        self.payload = payload
        self.future = future

    def resolve(self, shards: list[int]) -> None:
        if not self.future.done():
            self.future.set_result({"ok": True, "shards": shards})

    def fail(self, code: str, error: str) -> None:
        if not self.future.done():
            self.future.set_result(failure(code, error))


def _already_placed(first: int, cursor: int) -> str:
    return (
        f"transactions from {first} were already placed "
        f"(next expected: {cursor})"
    )


class Sequencer:
    """Reorder buffer keyed by first txid, in front of one engine.

    ``cursor()`` is the next txid the engine expects;
    ``assignment_slice(first, count)`` reads the recorded shards of an
    already-placed range.
    """

    def __init__(
        self,
        cursor: Callable[[], int],
        assignment_slice: Callable[[int, int], list[int]],
        metrics: ServiceMetrics,
        *,
        max_batch_txs: int,
        max_reorder: int,
    ) -> None:
        self._cursor = cursor
        self._assignment_slice = assignment_slice
        self._metrics = metrics
        self._max_batch_txs = max_batch_txs
        self._max_reorder = max_reorder
        self.pending: dict[int, PendingRequest] = {}
        #: Set when a request is queued. The owner's dispatch loop waits
        #: on it, and the owner sets it for its own transitions too
        #: (shutdown, lease grant, resume).
        self.wakeup = asyncio.Event()

    async def submit(
        self,
        txs: "list[Transaction] | WireBatch",
        payload: "bytes | None" = None,
    ) -> dict:
        """The reply to one ``place`` request: at once when it is
        answerable from the record or must be refused, else when the
        dispatcher has placed (or failed) it."""
        first = first_txid(txs)
        count = len(txs)
        cursor = self._cursor()
        if first < cursor:
            # A range placed *in full* is answered from the recorded
            # assignments: a client resubmitting after a lost response
            # (timeout, connection reset) gets the identical shards
            # back instead of an error. Partial overlap stays an error
            # - it is a txid-accounting bug, not a retry.
            if first + count <= cursor:
                return {
                    "ok": True,
                    "shards": self._assignment_slice(first, count),
                }
            return failure("engine", _already_placed(first, cursor))
        if first in self.pending:
            # Likely the same client retrying while its original
            # request still waits for a txid gap: back off and resubmit
            # - by then the range is placed (answered from the record)
            # or failed.
            self._metrics.retry_replies += 1
            return failure(
                "retry",
                f"a request starting at txid {first} is already queued; "
                "retry later",
            )
        if len(self.pending) >= self._max_reorder:
            self._metrics.overload_replies += 1
            return failure(
                "overload",
                f"reorder buffer full ({self._max_reorder} requests "
                "waiting for earlier txids); retry later",
            )
        future: "asyncio.Future[dict]" = (
            asyncio.get_running_loop().create_future()
        )
        self.pending[first] = PendingRequest(txs, payload, future)
        self.wakeup.set()
        return await future

    def take_run(self) -> "list[PendingRequest] | None":
        """Pop the contiguous run at the cursor (at most
        ``max_batch_txs``, never splitting a request); None when the
        cursor's request has not arrived.

        Requests the cursor has passed can never dispatch: they are
        answered here instead of leaking reorder slots and hanging
        their clients until shutdown - from the record when the cursor
        passed all of the range (a duplicate whose original placed
        while this copy waited), as an engine error otherwise.
        """
        pending = self.pending
        cursor = self._cursor()
        for key in [key for key in pending if key < cursor]:
            stale = pending.pop(key)
            count = len(stale.txs)
            if key + count <= cursor:
                stale.resolve(self._assignment_slice(key, count))
            else:
                stale.fail("engine", _already_placed(key, cursor))
        entry = pending.pop(cursor, None)
        if entry is None:
            return None
        group = [entry]
        total = len(entry.txs)
        while total < self._max_batch_txs:
            follower = pending.pop(cursor + total, None)
            if follower is None:
                break
            group.append(follower)
            total += len(follower.txs)
        return group

    async def place_run(
        self,
        group: list[PendingRequest],
        place: Callable[
            ["list[Transaction] | WireBatch", "list[bytes | None]"],
            Awaitable[list[int]],
        ],
    ) -> None:
        """Place one run from :meth:`take_run` and answer its requests.

        ``place(batch, payloads)`` returns the batch's shards or raises
        :class:`~repro.errors.EngineError` with nothing changed.
        """
        if await self._place_once(group, place, len(group) == 1):
            # Atomic validation means nothing was placed; replay one
            # request at a time so only the offender fails (later
            # requests then fail on the txid gap it left, which is the
            # honest outcome).
            for member in group:
                await self._place_once([member], place, True)

    async def _place_once(self, members, place, answer_reject: bool) -> bool:
        """One engine call for ``members``, each answered with its
        slice of the shards or the failure - except after an engine
        reject without ``answer_reject``, which returns True instead."""
        metrics = self._metrics
        batch = merge_members([member.txs for member in members])
        try:
            started = perf_counter()
            shards = await place(
                batch, [member.payload for member in members]
            )
            metrics.record_batch(len(batch), perf_counter() - started)
        except RunFailed as exc:
            code, error = exc.args
        except EngineError as exc:
            metrics.error_replies += 1
            if not answer_reject:
                return True
            code, error = "engine", str(exc)
        except Exception as exc:  # noqa: BLE001 - a placer bug must
            # fail these requests, not kill the dispatcher: every later
            # request (and the shutdown drain) still needs it.
            code, error = "engine", f"internal error placing batch: {exc!r}"
        else:
            offset = 0
            for member in members:
                count = len(member.txs)
                member.resolve(shards[offset : offset + count])
                offset += count
            return False
        for member in members:
            member.fail(code, error)
        return False

    def fail_pending(self, code: str, error: str) -> None:
        """Answer everything still queued (shutdown: the txid gap in
        front of these requests can no longer be filled)."""
        for key in sorted(self.pending):
            self.pending.pop(key).fail(code, error)
