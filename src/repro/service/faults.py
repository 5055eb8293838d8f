"""Deterministic fault injection for the sharded placement service.

Chaos testing the crash-recovery path needs crashes that are (a) timed
against *logical* progress, not wall clocks, and (b) reproducible from
a seed/spec, so a failing run replays exactly. A :class:`FaultPlan`
travels to the victim worker inside its spawn spec; the worker arms a
:class:`FaultInjector` that counts write-ahead-journal batch appends
and SIGKILLs the process at a chosen point in the batch lifecycle:

- ``journal``: after the WAL record is on disk, *before* the engine
  places the batch - recovery must replay it.
- ``place``: after the engine placed the batch, before its writebacks
  were delivered - recovery must replay *and* re-deliver writebacks.
- ``writeback``: after the batch's writebacks joined the pending ones
  (they ride the next ``W_ACQUIRE`` or ``W_RELEASE``), before its
  reply - the same recovery as ``place``.
- ``carry``: after a run's replies went out while its writebacks are
  still pending - the client already holds placements whose effects
  on the owners exist only in the journal, so recovery must re-deliver
  the writebacks of every batch since the grant. Fires at the first
  such moment at or after the Nth append. The scenario pipelines its
  client for this point, so runs coalesce and queue behind each other
  when the kill fires.

``torn_wal_bytes`` additionally truncates the journal tail before
dying, simulating a host crash between ``write`` and ``fsync``; the
CRC framing must detect and discard the torn record.

The kill fires **once**: the injector drops a sentinel file in
``once_dir`` before dying, and the respawned process (same spec, same
plan) sees it and stays passive - otherwise the supervisor's bounded
respawn would loop through the same crash until it degrades.

:func:`run_chaos_scenario` is the whole experiment in one call - a
golden single-engine run, a sharded run with the injected crash and a
retrying client, and a bit-identity verdict - shared by the pytest
chaos suite and the ``repro chaos`` CLI lane.
"""

from __future__ import annotations

import asyncio
import os
import signal
import time
from dataclasses import dataclass
from typing import Any, Callable

KILL_POINTS = ("journal", "place", "writeback", "carry")


@dataclass(frozen=True)
class FaultPlan:
    """One deterministic crash, described as plain data."""

    #: Partition whose worker dies; None disables the plan entirely.
    kill_partition: "int | None" = None
    #: Die on the Nth WAL batch append of the process (1-based).
    kill_after: int = 1
    #: Where in the batch lifecycle to die (see module docstring).
    kill_point: str = "journal"
    #: Truncate this many bytes off the journal tail before dying
    #: (simulated torn write; 0 = clean SIGKILL).
    torn_wal_bytes: int = 0
    #: Directory for the once-only sentinel file. None means the kill
    #: re-fires on every respawn - only useful to test respawn bounds.
    once_dir: "str | None" = None

    def __post_init__(self) -> None:
        if self.kill_point not in KILL_POINTS:
            raise ValueError(
                f"kill_point must be one of {KILL_POINTS}, "
                f"got {self.kill_point!r}"
            )

    @classmethod
    def from_spec(cls, spec: dict[str, Any]) -> "FaultPlan":
        return cls(
            kill_partition=spec.get("kill_partition"),
            kill_after=spec.get("kill_after", 1),
            kill_point=spec.get("kill_point", "journal"),
            torn_wal_bytes=spec.get("torn_wal_bytes", 0),
            once_dir=spec.get("once_dir"),
        )

    def to_spec(self) -> dict[str, Any]:
        """JSON-safe dict for the worker spawn spec."""
        return {
            "kill_partition": self.kill_partition,
            "kill_after": self.kill_after,
            "kill_point": self.kill_point,
            "torn_wal_bytes": self.torn_wal_bytes,
            "once_dir": self.once_dir,
        }


class FaultInjector:
    """Arms one :class:`FaultPlan` inside a worker process.

    Wired up by the worker process: ``on_batch_append`` becomes the
    journal's append hook, ``maybe_kill`` is called by the worker at
    the ``place``, ``writeback`` and ``carry`` lifecycle points.
    """

    def __init__(self, plan: FaultPlan, partition_id: int) -> None:
        self.plan = plan
        self.partition_id = partition_id
        self._batches = 0
        self._armed = False
        self._journal: Any = None

    @property
    def _sentinel(self) -> "str | None":
        if self.plan.once_dir is None:
            return None
        return os.path.join(
            self.plan.once_dir, f"killed.p{self.partition_id}"
        )

    @property
    def active(self) -> bool:
        """Does this process die? False for non-victim partitions and
        for respawns after the sentinel was dropped."""
        if self.plan.kill_partition != self.partition_id:
            return False
        sentinel = self._sentinel
        return sentinel is None or not os.path.exists(sentinel)

    def on_batch_append(self, journal: Any) -> None:
        self._journal = journal
        self._batches += 1
        if self._batches >= self.plan.kill_after and not self._armed:
            if self.plan.kill_point == "journal":
                self._die()
            self._armed = True

    def maybe_kill(self, stage: str) -> None:
        if self._armed and stage == self.plan.kill_point:
            self._die()

    def _die(self) -> None:
        sentinel = self._sentinel
        if sentinel is not None:
            with open(sentinel, "w") as fh:
                fh.write(f"batches={self._batches}\n")
        if self.plan.torn_wal_bytes > 0 and self._journal is not None:
            # Simulate a torn write: the record made it into the file
            # (per-record flush) but the tail never hit the platter.
            size = self._journal.tell()
            with open(self._journal.path, "r+b") as fh:
                fh.truncate(
                    max(0, size - self.plan.torn_wal_bytes)
                )
                fh.flush()
                os.fsync(fh.fileno())
        os.kill(os.getpid(), signal.SIGKILL)


async def run_chaos_scenario(
    *,
    workdir: str,
    n_workers: int = 2,
    n_txs: int = 3_000,
    n_shards: int = 4,
    lease_length: int = 600,
    strategy: str = "optchain",
    epoch_length: int = 500,
    placer_kwargs: "dict[str, Any] | None" = None,
    seed: int = 7,
    chunk_size: int = 250,
    checkpoint_after_chunks: int = 3,
    kill_partition: int = 0,
    kill_after: int = 2,
    kill_point: str = "journal",
    torn_wal_bytes: int = 0,
    max_retries: int = 20,
    request_timeout: float = 60.0,
    log: "Callable[[str], None] | None" = None,
) -> dict[str, Any]:
    """Kill a non-idle worker mid-stream; verify bit-identical recovery.

    Runs the same seeded stream twice - once through a single
    in-process engine (the golden), once through a sharded service
    whose ``kill_partition`` worker SIGKILLs itself per the fault plan
    while a retrying client drives the load - and compares every shard
    assignment. A worker run takes at most two chunks; for the
    ``carry`` kill point the load is pipelined - four chunks in flight
    at once, each on its own retrying connection - so runs queue behind
    each other when the holder dies. Returns a verdict dict (``ok``,
    ``bit_identical``, ``degraded``, ``killed``, ``retries``,
    ``recovery_s``, ``events``); ``ok`` requires that the planned kill
    fired.
    """
    # Deferred imports: the injector half of this module must stay
    # import-light inside worker processes.
    from repro.datasets.synthetic import synthetic_stream
    from repro.errors import RetryLaterError
    from repro.service.client import AsyncBinaryPlacementClient
    from repro.service.coordinator import ShardedPlacementServer
    from repro.service.worker import build_partition

    os.makedirs(workdir, exist_ok=True)
    events: list[str] = []

    def emit(message: str) -> None:
        events.append(message)
        if log is not None:
            log(message)

    spec: dict[str, Any] = {
        "method": strategy,
        "n_shards": n_shards,
        "epoch_length": epoch_length,
    }
    if placer_kwargs:
        spec["placer_kwargs"] = placer_kwargs
    stream = synthetic_stream(n_txs, seed=seed)

    golden_partition = build_partition(
        0,
        {
            **spec,
            "n_partitions": 1,
            "lease_length": lease_length,
            "checkpoint": None,
        },
    )
    golden: list[int] = []
    for offset in range(0, len(stream), chunk_size):
        shards, _ = golden_partition.place_batch(
            stream[offset : offset + chunk_size]
        )
        golden.extend(shards)
    emit(f"golden run: {len(golden)} placements ({strategy})")

    plan = FaultPlan(
        kill_partition=kill_partition,
        kill_after=kill_after,
        kill_point=kill_point,
        torn_wal_bytes=torn_wal_bytes,
        once_dir=str(workdir),
    )
    server = ShardedPlacementServer(
        dict(spec),
        n_workers,
        port=0,
        lease_length=lease_length,
        max_batch_txs=2 * chunk_size,
        checkpoint_path=os.path.join(workdir, "chaos.snap"),
        respawn_backoff=0.05,
        heartbeat_interval=1.0,
        heartbeat_timeout=30.0,
        faults=plan.to_spec(),
    )
    await server.start()
    window = 4 if kill_point == "carry" else 1
    emit(
        f"sharded service up: {n_workers} workers, lease "
        f"{lease_length}, kill partition {kill_partition} after "
        f"{kill_after} journaled batches at '{kill_point}'"
        + (f", torn tail {torn_wal_bytes}B" if torn_wal_bytes else "")
        + (f", {window} chunks in flight" if window > 1 else "")
    )
    offsets = list(range(0, len(stream), chunk_size))
    placed: dict[int, list[int]] = {}
    degraded = None
    retries = 0
    recovery_s = 0.0

    async def place_chunks(clients, indexes) -> None:
        """Place ``indexes`` with one chunk in flight per client."""
        queue = iter(indexes)

        async def drive(client) -> None:
            nonlocal recovery_s
            for index in queue:
                offset = offsets[index]
                before = client.retries_used
                sent = time.perf_counter()
                placed[index] = await client.place(
                    stream[offset : offset + chunk_size]
                )
                if client.retries_used > before:
                    chunk_s = time.perf_counter() - sent
                    recovery_s = max(recovery_s, chunk_s)
                    emit(
                        f"chunk {index} rode out a fault: "
                        f"{client.retries_used - before} retries, "
                        f"{chunk_s:.2f}s to recover"
                    )

        await asyncio.gather(*(drive(client) for client in clients))

    try:
        clients = []
        try:
            for slot in range(window):
                clients.append(
                    await AsyncBinaryPlacementClient.connect(
                        port=server.port,
                        retries=max_retries,
                        request_timeout=request_timeout,
                        backoff_seed=seed + slot,
                    )
                )
            split = min(checkpoint_after_chunks, len(offsets))
            await place_chunks(clients, range(split))
            if 0 < checkpoint_after_chunks <= len(offsets):
                for _ in range(200):
                    try:
                        await clients[0].checkpoint()
                        break
                    except RetryLaterError:
                        await asyncio.sleep(0.05)
                emit(
                    f"checkpoint taken after chunk {split - 1} "
                    f"(cursor {min(split * chunk_size, len(stream))})"
                )
            await place_chunks(clients, range(split, len(offsets)))
            ping = await clients[0].ping()
            degraded = ping.get("degraded")
            retries = sum(client.retries_used for client in clients)
        finally:
            for client in clients:
                await client.close()
    finally:
        await server.stop()
    served = [shard for index in sorted(placed) for shard in placed[index]]
    killed = not FaultInjector(plan, kill_partition).active

    bit_identical = served == golden
    first_diff = next(
        (
            index
            for index, (a, b) in enumerate(zip(served, golden))
            if a != b
        ),
        None if len(served) == len(golden) else min(len(served), len(golden)),
    )
    emit(
        f"served {len(served)}/{len(golden)} placements; "
        f"bit_identical={bit_identical}"
        + (f" (first divergence at {first_diff})" if first_diff is not None else "")
        + f"; degraded={degraded!r}; killed={killed}; retries={retries}"
    )
    return {
        "ok": bit_identical and degraded is None and killed,
        "bit_identical": bit_identical,
        "first_divergence": first_diff,
        "degraded": degraded,
        "killed": killed,
        "n_txs": len(stream),
        "served": len(served),
        "retries": retries,
        "recovery_s": round(recovery_s, 3),
        "kill_partition": kill_partition,
        "kill_after": kill_after,
        "kill_point": kill_point,
        "torn_wal_bytes": torn_wal_bytes,
        "events": events,
    }
