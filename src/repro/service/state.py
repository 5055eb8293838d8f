"""Versioned snapshot/restore of the full placement-engine state.

Restoring a snapshot and continuing the stream is **bit-identical** to
an uninterrupted run (pinned across processes by
``tests/service/test_golden_restore.py``). Everything that decides a
future placement is captured exactly:

- the T2S store: every live sparse vector *in insertion order* (dict
  iteration order feeds the multi-parent accumulation order, so it is
  part of the arithmetic), spender counts, min-mass pruning bounds;
- the load proxy's lazy-decay clock (``step``/``offset``/``scale``) and
  both lazy heaps *verbatim* - heap layout (including stale entries)
  decides tie-traversal order and when sub-resolution shards demote;
- the strategy bookkeeping (assignment, shard sizes, min/max trackers,
  optional size-argmin heap) and the capped baselines' Mersenne state;
- the engine's truncation bookkeeping (unspent-output counts, pending
  releases, horizon cursor).

**One layout: a full snapshot is the delta against cursor 0.** Every
file holds the state *since a base cursor*: the tail of each per-txid
array from the base on (assignment, T2S vectors, spender counts,
min-mass bounds, output counts, unspent masks), the pre-base parents
the stream touched since the base (final spender count and unspent
mask; the engine journals them off the spend journal), and the
O(n_shards) hot state (shard sizes and trackers, argmin heap, proxy,
RNG, scorer scalars, pending releases). A full snapshot at ``<path>``
is that file at base 0, with no touched parents. A delta
``<path>.delta`` is the same against the last full save's cursor, so
its cost is the activity since the base instead of O(n_placed); each
delta save replaces the previous one, and a full save compacts and
deletes it. A random ``snapshot_nonce`` that the delta header must
echo enforces the pairing. One writer (:func:`_write_state`) produces
both files and one applier (:func:`_apply_state`) advances an engine
at the base cursor to a file's cursor, so loading is: a fresh engine
from the header's recipe, the full file at base 0, then a valid
sibling delta at its base.

Container::

    8 bytes   magic  b"OCSNAP" + version u16 (little-endian)
    4 bytes   header length u32 (little-endian)
    N bytes   header JSON (configs, scalars, section table)
    ...       array-section payload, concatenated in table order
              (optionally one zlib stream)

Numeric bulk state lives in typed array sections (``array`` module
native layout: 4-byte ids/counts, 8-byte doubles/sizes), which is what
makes the format compact - a 25k-transaction OptChain snapshot is a few
hundred KB where a pickled object graph is several MB. Doubles are
stored as raw IEEE-754 bytes, so floats round-trip exactly (including
``inf`` min-mass sentinels). The format records the host byte order
and refuses to load a foreign one: checkpoints are a service-restart
mechanism, not an interchange format.

Formats (full files write 2, deltas 3; all three load):

- **1**: uncompressed, exact scorer only.
- **2**: full file; optional zlib payload and ``t2s_scalars``.
- **3**: delta file; ``assignment_tail``, ``dirty_*`` and ``base``.
"""

from __future__ import annotations

import json
import os
import struct
import sys
import zlib
from array import array
from pathlib import Path
from typing import Any

from repro import __version__
from repro.core.baselines import (
    GreedyPlacer,
    OmniLedgerRandomPlacer,
    T2SOnlyPlacer,
    TopKT2SOnlyPlacer,
)
from repro.core.optchain import (
    USE_LOAD_PROXY,
    OptChainPlacer,
    TopKOptChainPlacer,
)
from repro.core.placement import PlacementStrategy
from repro.errors import CorruptCheckpointError, PlacementError, SnapshotError
from repro.service.engine import PlacementEngine

MAGIC = b"OCSNAP"
FORMAT_VERSION = 2

#: On-disk format of delta files (see module docstring, version 3).
DELTA_FORMAT_VERSION = 3

#: Formats this build can load (full writes use FORMAT_VERSION, delta
#: writes DELTA_FORMAT_VERSION).
SUPPORTED_VERSIONS = (1, 2, 3)

#: Section typecodes: ids/counts are 4-byte, sizes 8-byte (a shard can
#: outgrow 2^31 placements long before a txid list would), masses are
#: raw doubles.
_ALLOWED_TYPECODES = ("i", "q", "d", "I", "B")

#: Strategies :func:`_placer_spec` records a constructor recipe for.
_SNAPSHOTABLE = (
    "optchain",
    "optchain-topk",
    "t2s",
    "t2s-topk",
    "greedy",
    "omniledger",
)

#: Header keys of every snapshot file, with the JSON type each holds.
_REQUIRED_KEYS = {
    "placer": dict,
    "engine_config": dict,
    "n_placed": int,
    "sections": list,
    "placer_scalars": dict,
    "engine_scalars": dict,
    "has_scorer": bool,
    "has_proxy_state": bool,
    "has_rng": bool,
}

#: Header keys a file carries when the flag before them is set.
_FLAGGED_KEYS = (
    ("delta", "base", dict),
    ("has_scorer", "t2s_released", int),
    ("has_proxy_state", "proxy_scalars", dict),
    ("has_rng", "rng_scalars", dict),
)


# -- serialization helpers -------------------------------------------------


class _SectionWriter:
    """Accumulates named typed-array sections plus the header table."""

    def __init__(self) -> None:
        self.table: list[dict[str, Any]] = []
        self.blobs: list[bytes] = []

    def add(self, name: str, typecode: str, values) -> None:
        data = array(typecode, values)
        self.table.append(
            {"name": name, "typecode": typecode, "count": len(data)}
        )
        self.blobs.append(data.tobytes())


class _SectionReader:
    def __init__(self, table: list[dict[str, Any]], payload: bytes) -> None:
        self._sections: dict[str, array] = {}
        offset = 0
        for entry in table:
            typecode = entry["typecode"]
            if typecode not in _ALLOWED_TYPECODES:
                raise SnapshotError(
                    f"snapshot section {entry['name']!r} has unsupported "
                    f"typecode {typecode!r}"
                )
            data = array(typecode)
            nbytes = entry["count"] * data.itemsize
            chunk = payload[offset : offset + nbytes]
            if len(chunk) != nbytes:
                raise CorruptCheckpointError(
                    f"snapshot truncated in section {entry['name']!r}"
                )
            data.frombytes(chunk)
            self._sections[entry["name"]] = data
            offset += nbytes
        if offset != len(payload):
            raise SnapshotError(
                f"snapshot has {len(payload) - offset} trailing bytes"
            )

    def get(self, name: str) -> array:
        try:
            return self._sections[name]
        except KeyError:
            raise SnapshotError(f"snapshot is missing section {name!r}")

    def __contains__(self, name: str) -> bool:
        return name in self._sections


# -- placer spec (reconstruction recipe) -----------------------------------


def _support_spec(scorer) -> dict[str, Any]:
    """Support-cap constructor fields of a bounded-support scorer."""
    if scorer.kind == "topk-adaptive":
        return {
            "support_cap": f"auto:{scorer.target_rate!r}",
            "support_initial_cap": scorer.initial_cap,
            "support_window": scorer.window,
        }
    return {"support_cap": scorer.support_cap}


def _placer_spec(placer: PlacementStrategy) -> dict[str, Any]:
    """Constructor recipe for the supported strategies."""
    name = type(placer).name
    # Only the self-contained configurations are snapshotable: the
    # offline load proxy or no provider at all. A live latency observer
    # (the simulator's) reads external queues no snapshot could restore.
    if (
        isinstance(placer, OptChainPlacer)
        and placer._proxy is None
        and placer.latency_provider is not None
    ):
        raise PlacementError(
            "only the offline load proxy or no latency provider "
            "can be snapshotted; live observers hold external state"
        )
    if (
        isinstance(placer, TopKOptChainPlacer)
        and name == "optchain-topk"
        and placer.scorer.kind in ("topk", "topk-adaptive")
    ):
        return {
            "strategy": "optchain-topk",
            "n_shards": placer.n_shards,
            **_support_spec(placer.scorer),
            "alpha": placer.scorer.alpha,
            "latency_weight": placer.fitness.latency_weight,
            "l2s_mode": placer.l2s_mode,
            "outdeg_mode": placer.scorer.outdeg_mode,
            "has_proxy": placer._proxy is not None,
            "backend": placer.backend,
        }
    if (
        isinstance(placer, TopKT2SOnlyPlacer)
        and name == "t2s-topk"
        and placer.scorer.kind in ("topk", "topk-adaptive")
    ):
        return {
            "strategy": "t2s-topk",
            "n_shards": placer.n_shards,
            **_support_spec(placer.scorer),
            "epsilon": placer.epsilon,
            "expected_total": placer.expected_total,
            "tie_break": placer.tie_break,
            "alpha": placer.scorer.alpha,
            "outdeg_mode": placer.scorer.outdeg_mode,
        }
    if (
        isinstance(placer, OptChainPlacer)
        and name == "optchain"
        # A hand-injected scorer has no constructor recipe here: refuse
        # rather than restore silently as the exact scorer.
        and placer.scorer.kind == "exact"
    ):
        return {
            "strategy": "optchain",
            "n_shards": placer.n_shards,
            "alpha": placer.scorer.alpha,
            "latency_weight": placer.fitness.latency_weight,
            "l2s_mode": placer.l2s_mode,
            "outdeg_mode": placer.scorer.outdeg_mode,
            "has_proxy": placer._proxy is not None,
            "backend": placer.backend,
        }
    if isinstance(placer, T2SOnlyPlacer) and name == "t2s":
        return {
            "strategy": "t2s",
            "n_shards": placer.n_shards,
            "epsilon": placer.epsilon,
            "expected_total": placer.expected_total,
            "tie_break": placer.tie_break,
            "alpha": placer.scorer.alpha,
            "outdeg_mode": placer.scorer.outdeg_mode,
        }
    if isinstance(placer, GreedyPlacer) and name == "greedy":
        return {
            "strategy": "greedy",
            "n_shards": placer.n_shards,
            "epsilon": placer.epsilon,
            "expected_total": placer.expected_total,
            "tie_break": placer.tie_break,
        }
    if isinstance(placer, OmniLedgerRandomPlacer) and name == "omniledger":
        return {"strategy": "omniledger", "n_shards": placer.n_shards}
    raise SnapshotError(
        f"strategy {name or type(placer).__name__!r} is not snapshotable "
        f"(supported: {', '.join(_SNAPSHOTABLE)}; custom scorer "
        "injections have no reconstruction recipe)"
    )


def _snapshot_backend(spec: dict[str, Any]) -> str:
    """The execution backend a snapshot's placer restores on.

    Snapshots record the backend they were taken with (format-2 header,
    optional key - older files default to python) so a restore
    re-creates the same configuration. The scorer state itself is
    backend-agnostic, so a numpy-recorded snapshot restored where the
    numpy backend cannot run it (no numpy or kernel, or a configuration
    it no longer places) degrades to the python backend with a warning
    instead of failing: the continued stream stays bit-identical, just
    slower.
    """
    backend = spec.get("backend", "python")
    if backend == "numpy":
        from repro.core.spec import numpy_refusal

        reason = numpy_refusal(spec.get("strategy"), spec.get("support_cap"))
        if reason is not None:
            import warnings

            warnings.warn(
                f"snapshot was taken with the numpy backend, which is "
                f"unavailable here ({reason}); restoring on the python "
                f"backend (bit-identical state, slower)",
                RuntimeWarning,
                stacklevel=4,
            )
            return "python"
    return backend


def _build_placer(spec: dict[str, Any]) -> PlacementStrategy:
    """A fresh placer from the recipe :func:`_placer_spec` recorded."""
    from repro.core.spec import StrategySpec

    kwargs = dict(spec)
    strategy = kwargs.pop("strategy", None)
    n_shards = kwargs.pop("n_shards")
    kwargs.pop("backend", None)
    if strategy not in _SNAPSHOTABLE:
        raise SnapshotError(f"snapshot names unknown strategy {strategy!r}")
    if "has_proxy" in kwargs:
        kwargs["latency_provider"] = (
            USE_LOAD_PROXY if kwargs.pop("has_proxy") else None
        )
    backend = _snapshot_backend(spec)
    return StrategySpec(strategy, backend=backend).build(n_shards, **kwargs)


# -- state <-> sections ----------------------------------------------------


def _add_masks(writer: _SectionWriter, prefix: str, masks) -> None:
    """Unspent-output bitmasks, one bit per output, as length-prefixed
    big-endian byte strings (batch payouts can exceed 63 outputs)."""
    blobs = [
        mask.to_bytes((mask.bit_length() + 7) // 8, "big") for mask in masks
    ]
    writer.add(f"{prefix}_nbytes", "i", map(len, blobs))
    writer.add(f"{prefix}_masks", "B", b"".join(blobs))


def _read_masks(reader: _SectionReader, prefix: str) -> list[int]:
    blob = reader.get(f"{prefix}_masks").tobytes()
    masks = []
    cursor = 0
    for nbytes in reader.get(f"{prefix}_nbytes"):
        masks.append(int.from_bytes(blob[cursor : cursor + nbytes], "big"))
        cursor += nbytes
    if cursor != len(blob):
        raise SnapshotError(
            f"{prefix}_nbytes does not account for every mask byte"
        )
    return masks


def _write_state(
    engine: PlacementEngine,
    path: Path,
    header: dict[str, Any],
    base_n: int,
    dirty: "set[int] | None",
    compress: bool,
) -> int:
    """Write the engine's state since cursor ``base_n``; returns bytes.

    ``header`` brings the file's own keys (``format`` plus the nonce or
    the delta base). ``dirty`` holds the pre-base parents touched since
    the base, ``None`` for a full file (base 0).
    """
    placer = engine.placer
    scorer = engine._scorer
    if scorer is not None and scorer._pending is not None:
        raise PlacementError(
            f"cannot snapshot with transaction {scorer._pending} "
            "pending placement"
        )
    header.update(
        byteorder=sys.byteorder,
        repro_version=__version__,
        placer=_placer_spec(placer),
        engine_config=engine.export_config(),
        n_placed=placer.n_placed,
    )
    writer = _SectionWriter()
    writer.add(
        "assignment" if dirty is None else "assignment_tail",
        "i",
        placer._assignment[base_n:],
    )
    writer.add("shard_sizes", "q", placer._shard_sizes)
    header["placer_scalars"] = {
        "min_shard_size": placer._min_shard_size,
        "min_size_count": placer._min_size_count,
        "max_shard_size": placer._max_shard_size,
    }
    if placer._size_argmin is not None:
        heap = placer._size_argmin._heap
        writer.add("argmin_value", "q", (value for value, _ in heap))
        writer.add("argmin_index", "i", (index for _, index in heap))

    header["has_scorer"] = scorer is not None
    if scorer is not None:
        nnz = array("i")
        shards = array("i")
        mass = array("d")
        for vector in scorer._p_prime[base_n:]:
            if vector is None:
                nnz.append(-1)
            else:
                nnz.append(len(vector))
                for shard, value in vector.items():
                    shards.append(shard)
                    mass.append(value)
        writer.add("t2s_nnz", "i", nnz)
        writer.add("t2s_shards", "i", shards)
        writer.add("t2s_mass", "d", mass)
        writer.add("t2s_spenders", "i", scorer._spender_count[base_n:])
        writer.add("t2s_min_mass", "d", scorer._min_mass[base_n:])
        writer.add("t2s_shard_sizes", "q", scorer._shard_sizes)
        header["t2s_released"] = scorer.released_count
        if not scorer._spenders_divisor:
            writer.add("t2s_outputs", "i", scorer._output_count[base_n:])
        # Bounded-support/adaptive scorers carry scalar accounting.
        # JSON float repr round-trips doubles exactly, so e.g. the
        # dropped-mass total restores bit-identically.
        scalars = scorer.export_hot_scalars()
        if scalars:
            header["t2s_scalars"] = scalars

    remaining = engine._remaining
    if dirty is not None:
        # Final spender count and unspent mask (0 = fully spent or
        # horizon-dropped) of every pre-base parent touched since.
        touched = sorted(txid for txid in dirty if txid < base_n)
        writer.add("dirty_txid", "q", touched)
        if scorer is not None:
            writer.add(
                "dirty_spenders",
                "i",
                (scorer._spender_count[txid] for txid in touched),
            )
        _add_masks(
            writer, "dirty", (remaining.get(txid, 0) for txid in touched)
        )
    tail = [(txid, mask) for txid, mask in remaining.items() if txid >= base_n]
    writer.add("remaining_txid", "q", (txid for txid, _ in tail))
    _add_masks(writer, "remaining", (mask for _, mask in tail))
    writer.add("pending_release", "q", engine._pending_release)
    header["engine_scalars"] = {
        "horizon_start": engine._horizon_start,
        "epoch": engine._epoch,
        "peak_live": engine._peak_live,
    }

    proxy = getattr(placer, "_proxy", None)
    header["has_proxy_state"] = proxy is not None
    if proxy is not None:
        proxy_state = proxy.export_state()
        writer.add("proxy_scaled", "d", proxy_state["scaled"])
        writer.add(
            "proxy_heap_value",
            "d",
            (value for value, _ in proxy_state["heap"]),
        )
        writer.add(
            "proxy_heap_index",
            "i",
            (index for _, index in proxy_state["heap"]),
        )
        writer.add("proxy_zero_heap", "i", proxy_state["zero_heap"])
        header["proxy_scalars"] = {
            "step": proxy_state["step"],
            "offset": proxy_state["offset"],
            "scale": proxy_state["scale"],
        }

    rng = getattr(placer, "_rng", None)
    header["has_rng"] = rng is not None
    if rng is not None:
        version, words, gauss = rng.getstate()
        writer.add("rng_words", "I", words)
        header["rng_scalars"] = {"version": version, "gauss": gauss}

    header["sections"] = writer.table
    return _write_container(
        path, header["format"], header, writer.blobs, compress
    )


def _apply_state(
    engine: PlacementEngine,
    header: dict[str, Any],
    payload: bytes,
    base: dict[str, Any],
) -> None:
    """Advance ``engine``, at the cursor ``base["n_placed"]``, to the
    cursor of the file ``header`` and ``payload`` were read from."""
    placer = engine.placer
    scorer = engine._scorer
    proxy = getattr(placer, "_proxy", None)
    rng = getattr(placer, "_rng", None)
    base_n = base["n_placed"]
    if placer.n_placed != base_n:
        raise SnapshotError(
            f"engine holds {placer.n_placed} placements, the snapshot "
            f"expects its base at {base_n}"
        )
    for flag, held, what in (
        ("has_scorer", scorer, "a T2S scorer"),
        ("has_proxy_state", proxy, "a load proxy"),
        ("has_rng", rng, "an RNG"),
    ):
        if header[flag] != (held is not None):
            raise SnapshotError(
                "snapshot and its placer disagree on whether there is "
                f"{what}"
            )
    reader = _SectionReader(header["sections"], payload)

    def per_shard(name: str) -> list:
        values = reader.get(name).tolist()
        if len(values) != placer.n_shards:
            raise SnapshotError(
                f"snapshot section {name!r} has {len(values)} shards, "
                f"placer has {placer.n_shards}"
            )
        return values

    delta = bool(header.get("delta"))
    placer._assignment.extend(
        reader.get("assignment_tail" if delta else "assignment").tolist()
    )
    placer._shard_sizes[:] = per_shard("shard_sizes")
    placer_scalars = header["placer_scalars"]
    placer._min_shard_size = placer_scalars["min_shard_size"]
    placer._min_size_count = placer_scalars["min_size_count"]
    placer._max_shard_size = placer_scalars["max_shard_size"]
    if "argmin_value" in reader:
        placer.size_argmin()._heap[:] = list(
            zip(
                reader.get("argmin_value").tolist(),
                reader.get("argmin_index").tolist(),
            )
        )
    elif placer._size_argmin is not None:
        placer._size_argmin.rebuild()

    if scorer is not None:
        nnz = reader.get("t2s_nnz")
        shards = reader.get("t2s_shards").tolist()
        mass = reader.get("t2s_mass").tolist()
        append = scorer._p_prime.append
        cursor = 0
        for count in nnz:
            if count < 0:
                append(None)
            else:
                end = cursor + count
                append(dict(zip(shards[cursor:end], mass[cursor:end])))
                cursor = end
        if cursor != len(shards):
            raise SnapshotError(
                "t2s_nnz does not account for every stored entry"
            )
        # A None tail slot is a vector already released when the file
        # was written (fully spent and swept, or behind the horizon).
        scorer._released += nnz.count(-1)
        scorer._spender_count.extend(reader.get("t2s_spenders").tolist())
        scorer._min_mass.extend(reader.get("t2s_min_mass").tolist())
        scorer._shard_sizes[:] = per_shard("t2s_shard_sizes")
        if not scorer._spenders_divisor:
            scorer._output_count.extend(reader.get("t2s_outputs").tolist())
        scorer.import_hot_scalars(header.get("t2s_scalars", {}))

    # Unspent masks: base entries the horizon passed since the base,
    # then the touched pre-base parents, then the tail's entries.
    remaining = engine._remaining
    engine_scalars = header["engine_scalars"]
    horizon = engine_scalars["horizon_start"]
    swept = range(base.get("horizon_start", 0), min(horizon, base_n))
    for txid in swept:
        remaining.pop(txid, None)
    dirty_txids: list[int] = []
    dirty_masks: list[int] = []
    if delta:
        dirty_txids = reader.get("dirty_txid").tolist()
        dirty_masks = _read_masks(reader, "dirty")
        if scorer is not None:
            for txid, count in zip(
                dirty_txids, reader.get("dirty_spenders")
            ):
                scorer._spender_count[txid] = count
    for txid, mask in zip(dirty_txids, dirty_masks):
        if mask:
            remaining[txid] = mask
        else:
            remaining.pop(txid, None)
    tail_txids = reader.get("remaining_txid").tolist()
    remaining.update(zip(tail_txids, _read_masks(reader, "remaining")))

    pending = reader.get("pending_release").tolist()
    if scorer is not None:
        # Releases of base vectors since the base: the horizon sweep,
        # every touched parent that went fully spent and was already
        # drained from the pending list, and the base's own pending
        # entries an epoch sweep has drained since. Fully-spent
        # releases happen only on engines that collect them
        # (truncate_spent); the horizon sweep runs regardless,
        # mirroring _advance_epochs. A full file has no base vectors.
        scorer.release_vectors(swept)
        if engine._collect_spent:
            pending_set = set(pending)
            for txid, mask in zip(dirty_txids, dirty_masks):
                if mask == 0 and txid not in pending_set:
                    scorer.release_vector(txid)
            for txid in engine._pending_release:
                if txid not in pending_set:
                    scorer.release_vector(txid)
        if scorer.released_count != header["t2s_released"]:
            raise SnapshotError(
                f"snapshot application produced {scorer.released_count} "
                f"released vectors, expected {header['t2s_released']}"
            )
    engine._pending_release[:] = pending
    engine._horizon_start = horizon
    engine._epoch = engine_scalars["epoch"]
    engine._peak_live = engine_scalars["peak_live"]

    if proxy is not None:
        proxy_scalars = header["proxy_scalars"]
        proxy.restore_state(
            {
                "scaled": per_shard("proxy_scaled"),
                "heap": list(
                    zip(
                        reader.get("proxy_heap_value").tolist(),
                        reader.get("proxy_heap_index").tolist(),
                    )
                ),
                "zero_heap": reader.get("proxy_zero_heap").tolist(),
                "step": proxy_scalars["step"],
                "offset": proxy_scalars["offset"],
                "scale": proxy_scalars["scale"],
            }
        )
    if rng is not None:
        rng_scalars = header["rng_scalars"]
        rng.setstate(
            (
                rng_scalars["version"],
                tuple(reader.get("rng_words").tolist()),
                rng_scalars["gauss"],
            )
        )
    # The capped baselines' allowed set is a pure function of sizes +
    # cap: derived, not serialized.
    rebuild = getattr(placer, "_rebuild_allowed", None)
    if rebuild is not None:
        rebuild()
    if placer.n_placed != header["n_placed"]:
        raise SnapshotError(
            f"snapshot application reached cursor {placer.n_placed}, "
            f"header claims {header['n_placed']}"
        )


# -- container i/o ---------------------------------------------------------


def _write_container(
    path: Path,
    version: int,
    header: dict[str, Any],
    blobs: list[bytes],
    compress: bool,
) -> int:
    """Atomic write of one snapshot container (any format version)."""
    if compress:
        raw_payload = b"".join(blobs)
        header["compression"] = "zlib"
        header["payload_bytes"] = len(raw_payload)
        blobs = [zlib.compress(raw_payload, 6)]
    # Integrity footprint of the payload *as stored* (post-compression):
    # a torn or bit-flipped checkpoint fails fast with
    # CorruptCheckpointError instead of restoring garbage. Optional
    # header keys, so v1-v3 files without them stay readable.
    stored = b"".join(blobs)
    header["stored_payload_bytes"] = len(stored)
    header["payload_crc32"] = zlib.crc32(stored) & 0xFFFFFFFF
    header_bytes = json.dumps(header, separators=(",", ":")).encode("utf-8")
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<H", version))
        fh.write(struct.pack("<I", len(header_bytes)))
        fh.write(header_bytes)
        for blob in blobs:
            fh.write(blob)
        fh.flush()
        os.fsync(fh.fileno())
        size = fh.tell()
    os.replace(tmp, path)
    return size


def _check_header(path: "str | Path", header: Any) -> None:
    """Refuse a header that parses but lacks what the applier reads."""
    if not isinstance(header, dict):
        raise CorruptCheckpointError(f"{path} header is not a JSON object")
    required = dict(_REQUIRED_KEYS)
    for flag, key, kind in _FLAGGED_KEYS:
        if header.get(flag):
            required[key] = kind
    for key, kind in required.items():
        if key not in header:
            raise CorruptCheckpointError(f"{path} header lacks {key!r}")
        if not isinstance(header[key], kind):
            raise CorruptCheckpointError(
                f"{path} header key {key!r} is not a {kind.__name__}"
            )


def _read_container(path: "str | Path") -> tuple[int, dict, bytes]:
    """``(version, header, payload)`` of one snapshot container."""
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise SnapshotError(f"cannot read snapshot {path}: {exc}")
    if len(raw) < 14 or raw[:6] != MAGIC:
        raise SnapshotError(f"{path} is not an OptChain snapshot")
    (version,) = struct.unpack_from("<H", raw, 6)
    if version not in SUPPORTED_VERSIONS:
        supported = ", ".join(str(v) for v in SUPPORTED_VERSIONS)
        raise SnapshotError(
            f"snapshot format {version} is not supported (this build "
            f"reads formats {supported})"
        )
    (header_len,) = struct.unpack_from("<I", raw, 8)
    header_end = 12 + header_len
    if header_end > len(raw):
        raise CorruptCheckpointError(
            f"{path} is truncated inside the header"
        )
    try:
        header = json.loads(raw[12:header_end].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CorruptCheckpointError(f"{path} has a corrupt header: {exc}")
    _check_header(path, header)
    if header.get("byteorder") != sys.byteorder:
        raise SnapshotError(
            f"snapshot was written on a {header.get('byteorder')}-endian "
            f"host; this host is {sys.byteorder}-endian"
        )
    payload = raw[header_end:]
    stored_bytes = header.get("stored_payload_bytes")
    if stored_bytes is not None and len(payload) != stored_bytes:
        raise CorruptCheckpointError(
            f"{path} payload is {len(payload)} bytes, header claims "
            f"{stored_bytes} (torn write?)"
        )
    stored_crc = header.get("payload_crc32")
    if (
        stored_crc is not None
        and zlib.crc32(payload) & 0xFFFFFFFF != stored_crc
    ):
        raise CorruptCheckpointError(
            f"{path} payload fails its CRC32 check (corrupt checkpoint)"
        )
    compression = header.get("compression")
    if compression == "zlib":
        try:
            payload = zlib.decompress(payload)
        except zlib.error as exc:
            raise CorruptCheckpointError(
                f"{path} has a corrupt payload: {exc}"
            )
        expected = header.get("payload_bytes")
        if expected is not None and len(payload) != expected:
            raise CorruptCheckpointError(
                f"{path} payload decompressed to {len(payload)} bytes, "
                f"header claims {expected}"
            )
    elif compression is not None:
        raise SnapshotError(
            f"snapshot uses unknown compression {compression!r}"
        )
    return version, header, payload


# -- public API ------------------------------------------------------------


def save_engine_snapshot(
    engine: PlacementEngine,
    path: "str | Path",
    compress: bool = False,
    track_delta: bool = False,
) -> int:
    """Serialize ``engine`` to ``path``; returns bytes written.

    The write goes through a temporary sibling file and an atomic
    rename, so an interrupted checkpoint never corrupts the previous
    one. With ``compress`` the array-section payload is written as one
    zlib stream (the header stays plain JSON): typed-array state -
    txids, spender counts, near-repetitive masses - deflates to a
    fraction of its raw size, which is what trims the ~5 MB @ 50k-tx
    checkpoints to ~1-2 MB at a few tens of ms of CPU. Compression is
    a save-time choice, not engine state: either kind of snapshot
    restores identically.

    A full save is also a delta *compaction point*: it records the
    base (nonce + cursor) future :func:`save_engine_delta` calls diff
    against, deletes any stale sibling delta, and - with
    ``track_delta`` - starts the engine's dirty-parent journal.
    """
    nonce = os.urandom(8).hex()
    path = Path(path)
    size = _write_state(
        engine,
        path,
        {"format": FORMAT_VERSION, "snapshot_nonce": nonce},
        0,
        None,
        compress,
    )
    # Compaction point: future deltas diff against this snapshot, and
    # any previous delta is now stale.
    engine._delta_base = {
        "n_placed": engine.n_placed,
        "nonce": nonce,
        "horizon_start": engine.horizon_start,
        "path": str(path),
    }
    engine.last_snapshot_nonce = nonce
    if track_delta:
        if engine._dirty_parents is None:
            engine._dirty_parents = set()
        else:
            engine._dirty_parents.clear()
    else:
        # Opt-in only: without tracking the journal would grow with
        # every touched parent for nothing.
        engine._dirty_parents = None
    stale_delta = path.with_name(path.name + ".delta")
    try:
        stale_delta.unlink()
    except OSError:
        pass
    return size


def save_engine_delta(
    engine: PlacementEngine, base_path: "str | Path", compress: bool = False
) -> int:
    """Write ``<base_path>.delta``: state since the last full snapshot.

    The same layout as a full snapshot, against the base's cursor: the
    per-txid tails appended since, the pre-base parents touched since
    (release status is derived on load) and the O(n_shards) hot state.
    Cost is O(activity since base) where a full snapshot is
    O(n_placed). Cumulative: each call replaces the previous delta for
    this base.
    """
    base = engine._delta_base
    dirty = engine._dirty_parents
    if base is None or dirty is None:
        raise SnapshotError(
            "no delta base: write a full snapshot first (the engine "
            "journals touched parents only after one)"
        )
    base_n = base["n_placed"]
    if engine.n_placed < base_n:
        raise SnapshotError(
            f"engine cursor {engine.n_placed} is behind the delta "
            f"base {base_n}"
        )
    if base.get("path") != str(Path(base_path)):
        raise SnapshotError(
            f"the last full snapshot went to {base.get('path')!r}, "
            f"not {str(base_path)!r}; a delta must sit beside its base"
        )
    header = {
        "format": DELTA_FORMAT_VERSION,
        "delta": True,
        "base": {
            "n_placed": base_n,
            "nonce": base["nonce"],
            "horizon_start": base["horizon_start"],
        },
    }
    path = Path(base_path)
    return _write_state(
        engine,
        path.with_name(path.name + ".delta"),
        header,
        base_n,
        dirty,
        compress,
    )


def load_engine_snapshot(path: "str | Path") -> PlacementEngine:
    """Rebuild a :class:`PlacementEngine` from a snapshot file.

    When a sibling ``<path>.delta`` exists and its base nonce matches
    this snapshot, the delta is applied on top - the result is
    identical to a full snapshot taken at the delta's cursor.
    """
    version, header, payload = _read_container(path)
    if version == DELTA_FORMAT_VERSION or header.get("delta"):
        raise SnapshotError(
            f"{path} is a delta snapshot; load its base full snapshot "
            "(the delta is applied automatically)"
        )
    config = header["engine_config"]
    engine = PlacementEngine(
        _build_placer(header["placer"]),
        epoch_length=config["epoch_length"],
        horizon_epochs=config["horizon_epochs"],
        truncate_spent=config["truncate_spent"],
    )
    _apply_state(engine, header, payload, {"n_placed": 0, "horizon_start": 0})
    nonce = header.get("snapshot_nonce")
    delta_path = Path(path).with_name(Path(path).name + ".delta")
    if delta_path.exists():
        version, header, payload = _read_container(delta_path)
        if version != DELTA_FORMAT_VERSION or not header.get("delta"):
            raise SnapshotError(f"{delta_path} is not a delta snapshot")
        base = header["base"]
        if nonce is None or base.get("nonce") != nonce:
            raise SnapshotError(
                f"{delta_path} was taken against a different base "
                "snapshot (nonce mismatch); delete it or restore the "
                "matching full snapshot"
            )
        _apply_state(engine, header, payload, base)
    engine.last_snapshot_nonce = nonce
    return engine
