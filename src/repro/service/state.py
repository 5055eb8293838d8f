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

On-disk layout (version 2)::

    8 bytes   magic  b"OCSNAP" + version u16 (little-endian)
    4 bytes   header length u32 (little-endian)
    N bytes   header JSON (configs, scalars, section table)
    ...       array-section payload, concatenated in table order
              (optionally one zlib stream - see below)

Numeric bulk state lives in typed array sections (``array`` module
native layout: 4-byte ids/counts, 8-byte doubles/sizes), which is what
makes the format compact - a 25k-transaction OptChain snapshot is a few
hundred KB where a pickled object graph is several MB. Doubles are
stored as raw IEEE-754 bytes, so floats round-trip exactly (including
``inf`` min-mass sentinels). The format records the host byte order
and refuses to load a foreign one: checkpoints are a service-restart
mechanism, not an interchange format.

Version history:

- **1** (PR 3): the layout above, uncompressed, exact scorer only.
- **2** (PR 4): the section payload may be one zlib stream (header
  keys ``compression``/``payload_bytes``; ``repro serve
  --checkpoint-compress``), and the scorer section carries a
  ``t2s_scalars`` header dict for bounded-support scorers (kind,
  dropped-mass total, truncated-vector count) plus the
  ``optchain-topk`` placer spec. Version-1 files remain readable -
  both additions are strictly optional header keys.
- **3** (PR 5): *delta* snapshots. A full snapshot at ``<path>`` plus
  a cumulative ``<path>.delta`` holding only (a) the per-txid arrays
  appended since the base, (b) the pre-base parents the stream touched
  since (spender counts and unspent masks - the engine tracks them for
  free off the spend journal), and (c) the O(n_shards) hot scalars.
  This bounds checkpoint cost by *activity since the base* instead of
  O(n_placed). Each delta save replaces the previous (cumulative since
  base); a full save compacts and deletes the delta. The pairing is
  enforced by a random ``snapshot_nonce`` the delta header must echo.
  :func:`load_engine_snapshot` applies a valid sibling delta
  automatically. Full snapshots still write format 2 - v3 is the delta
  file's format, and v1/v2 files remain readable.
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
from repro.errors import CorruptCheckpointError, SnapshotError
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

#: Keys of a scorer dump that are per-txid arrays (serialized as
#: sections); everything else is a header scalar.
_SCORER_ARRAY_KEYS = (
    "p_prime",
    "spender_count",
    "min_mass",
    "shard_sizes",
    "released",
    "output_count",
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
        "(supported: optchain, optchain-topk, t2s, t2s-topk, greedy, "
        "omniledger; custom scorer injections have no reconstruction "
        "recipe)"
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
    strategy = spec.get("strategy")
    n_shards = spec["n_shards"]
    if strategy == "optchain":
        cls = OptChainPlacer
        if _snapshot_backend(spec) == "numpy":
            from repro.core.backends.numpy_backend import (
                NumpyOptChainPlacer,
            )

            cls = NumpyOptChainPlacer
        return cls(
            n_shards,
            alpha=spec["alpha"],
            latency_weight=spec["latency_weight"],
            latency_provider=(
                USE_LOAD_PROXY if spec["has_proxy"] else None
            ),
            l2s_mode=spec["l2s_mode"],
            outdeg_mode=spec["outdeg_mode"],
        )
    if strategy == "optchain-topk":
        cls = TopKOptChainPlacer
        if _snapshot_backend(spec) == "numpy":
            from repro.core.backends.numpy_backend import (
                NumpyTopKOptChainPlacer,
            )

            cls = NumpyTopKOptChainPlacer
        return cls(
            n_shards,
            support_cap=spec["support_cap"],
            alpha=spec["alpha"],
            latency_weight=spec["latency_weight"],
            latency_provider=(
                USE_LOAD_PROXY if spec["has_proxy"] else None
            ),
            l2s_mode=spec["l2s_mode"],
            outdeg_mode=spec["outdeg_mode"],
            support_initial_cap=spec.get("support_initial_cap"),
            support_window=spec.get("support_window"),
        )
    if strategy == "t2s-topk":
        return TopKT2SOnlyPlacer(
            n_shards,
            support_cap=spec["support_cap"],
            epsilon=spec["epsilon"],
            expected_total=spec["expected_total"],
            tie_break=spec["tie_break"],
            alpha=spec["alpha"],
            outdeg_mode=spec["outdeg_mode"],
            support_initial_cap=spec.get("support_initial_cap"),
            support_window=spec.get("support_window"),
        )
    if strategy == "t2s":
        return T2SOnlyPlacer(
            n_shards,
            epsilon=spec["epsilon"],
            expected_total=spec["expected_total"],
            tie_break=spec["tie_break"],
            alpha=spec["alpha"],
            outdeg_mode=spec["outdeg_mode"],
        )
    if strategy == "greedy":
        return GreedyPlacer(
            n_shards,
            epsilon=spec["epsilon"],
            expected_total=spec["expected_total"],
            tie_break=spec["tie_break"],
        )
    if strategy == "omniledger":
        return OmniLedgerRandomPlacer(n_shards)
    raise SnapshotError(f"snapshot names unknown strategy {strategy!r}")


# -- state <-> sections ----------------------------------------------------


def _write_placer_state(
    writer: _SectionWriter, state: dict[str, Any], header: dict[str, Any]
) -> None:
    writer.add("assignment", "i", state["assignment"])
    writer.add("shard_sizes", "q", state["shard_sizes"])
    header["placer_scalars"] = {
        "min_shard_size": state["min_shard_size"],
        "min_size_count": state["min_size_count"],
        "max_shard_size": state["max_shard_size"],
    }
    heap = state.get("size_argmin_heap")
    if heap is not None:
        writer.add("argmin_value", "q", (value for value, _ in heap))
        writer.add("argmin_index", "i", (index for _, index in heap))

    scorer = state.get("scorer")
    header["has_scorer"] = scorer is not None
    if scorer is not None:
        nnz = array("i")
        shards = array("i")
        mass = array("d")
        for vector in scorer["p_prime"]:
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
        writer.add("t2s_spenders", "i", scorer["spender_count"])
        writer.add("t2s_min_mass", "d", scorer["min_mass"])
        writer.add("t2s_shard_sizes", "q", scorer["shard_sizes"])
        header["t2s_released"] = scorer["released"]
        if "output_count" in scorer:
            writer.add("t2s_outputs", "i", scorer["output_count"])
        # Bounded-support/adaptive scorers carry scalar accounting
        # (format v2+): everything in the scorer dump that is not a
        # per-txid array travels in the header. JSON float repr
        # round-trips doubles exactly, so e.g. the dropped-mass total
        # restores bit-identically.
        scalars = {
            key: value
            for key, value in scorer.items()
            if key not in _SCORER_ARRAY_KEYS
        }
        if scalars:
            header["t2s_scalars"] = scalars

    proxy = state.get("proxy")
    header["has_proxy_state"] = proxy is not None
    if proxy is not None:
        writer.add("proxy_scaled", "d", proxy["scaled"])
        writer.add(
            "proxy_heap_value", "d", (value for value, _ in proxy["heap"])
        )
        writer.add(
            "proxy_heap_index", "i", (index for _, index in proxy["heap"])
        )
        writer.add("proxy_zero_heap", "i", proxy["zero_heap"])
        header["proxy_scalars"] = {
            "step": proxy["step"],
            "offset": proxy["offset"],
            "scale": proxy["scale"],
        }

    rng = state.get("rng_state")
    header["has_rng"] = rng is not None
    if rng is not None:
        version, words, gauss = rng
        writer.add("rng_words", "I", words)
        header["rng_scalars"] = {"version": version, "gauss": gauss}


def _read_placer_state(
    reader: _SectionReader, header: dict[str, Any]
) -> dict[str, Any]:
    scalars = header["placer_scalars"]
    state: dict[str, Any] = {
        "assignment": reader.get("assignment").tolist(),
        "shard_sizes": reader.get("shard_sizes").tolist(),
        "min_shard_size": scalars["min_shard_size"],
        "min_size_count": scalars["min_size_count"],
        "max_shard_size": scalars["max_shard_size"],
    }
    if "argmin_value" in reader:
        state["size_argmin_heap"] = list(
            zip(
                reader.get("argmin_value").tolist(),
                reader.get("argmin_index").tolist(),
            )
        )
    if header["has_scorer"]:
        nnz = reader.get("t2s_nnz")
        shards = reader.get("t2s_shards").tolist()
        mass = reader.get("t2s_mass").tolist()
        p_prime: list[dict[int, float] | None] = []
        cursor = 0
        for count in nnz:
            if count < 0:
                p_prime.append(None)
            else:
                end = cursor + count
                p_prime.append(
                    dict(zip(shards[cursor:end], mass[cursor:end]))
                )
                cursor = end
        if cursor != len(shards):
            raise SnapshotError(
                "t2s_nnz does not account for every stored entry"
            )
        scorer: dict[str, Any] = {
            "p_prime": p_prime,
            "spender_count": reader.get("t2s_spenders").tolist(),
            "min_mass": reader.get("t2s_min_mass").tolist(),
            "shard_sizes": reader.get("t2s_shard_sizes").tolist(),
            "released": header["t2s_released"],
        }
        if "t2s_outputs" in reader:
            scorer["output_count"] = reader.get("t2s_outputs").tolist()
        scorer.update(header.get("t2s_scalars", {}))
        state["scorer"] = scorer
    if header["has_proxy_state"]:
        proxy_scalars = header["proxy_scalars"]
        state["proxy"] = {
            "scaled": reader.get("proxy_scaled").tolist(),
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
    if header["has_rng"]:
        rng_scalars = header["rng_scalars"]
        state["rng_state"] = (
            rng_scalars["version"],
            tuple(reader.get("rng_words").tolist()),
            rng_scalars["gauss"],
        )
    return state


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
    placer = engine.placer
    nonce = os.urandom(8).hex()
    header: dict[str, Any] = {
        "format": FORMAT_VERSION,
        "byteorder": sys.byteorder,
        "repro_version": __version__,
        "placer": _placer_spec(placer),
        "engine_config": engine.export_config(),
        "n_placed": placer.n_placed,
        "snapshot_nonce": nonce,
    }
    writer = _SectionWriter()
    _write_placer_state(writer, placer.export_state(), header)

    engine_state = engine.export_state()
    remaining = engine_state["remaining"]
    # Values are unspent-output bitmasks of arbitrary width (one bit
    # per output; batch payouts can exceed 63 outputs), so they travel
    # as length-prefixed big-endian byte strings.
    mask_bytes = [
        mask.to_bytes((mask.bit_length() + 7) // 8, "big")
        for mask in remaining.values()
    ]
    writer.add("remaining_txid", "q", remaining.keys())
    writer.add("remaining_nbytes", "i", (len(b) for b in mask_bytes))
    writer.add("remaining_masks", "B", b"".join(mask_bytes))
    writer.add("pending_release", "q", engine_state["pending_release"])
    header["engine_scalars"] = {
        "horizon_start": engine_state["horizon_start"],
        "epoch": engine_state["epoch"],
        "peak_live": engine_state["peak_live"],
    }

    header["sections"] = writer.table
    path = Path(path)
    size = _write_container(
        path, FORMAT_VERSION, header, writer.blobs, compress
    )
    # Compaction point: future deltas diff against this snapshot, and
    # any previous delta is now stale.
    engine._delta_base = {
        "n_placed": placer.n_placed,
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
    reader = _SectionReader(header["sections"], payload)

    placer = _build_placer(header["placer"])
    placer.restore_state(_read_placer_state(reader, header))
    if placer.n_placed != header["n_placed"]:
        raise SnapshotError(
            f"snapshot claims {header['n_placed']} placements but "
            f"carries {placer.n_placed}"
        )

    config = header["engine_config"]
    engine = PlacementEngine(
        placer,
        epoch_length=config["epoch_length"],
        horizon_epochs=config["horizon_epochs"],
        truncate_spent=config["truncate_spent"],
        _preplaced_ok=True,
    )
    scalars = header["engine_scalars"]
    mask_blob = reader.get("remaining_masks").tobytes()
    masks = []
    cursor = 0
    for nbytes in reader.get("remaining_nbytes"):
        masks.append(
            int.from_bytes(mask_blob[cursor : cursor + nbytes], "big")
        )
        cursor += nbytes
    if cursor != len(mask_blob):
        raise SnapshotError(
            "remaining_nbytes does not account for every mask byte"
        )
    engine.restore_state(
        {
            "remaining": dict(
                zip(reader.get("remaining_txid").tolist(), masks)
            ),
            "pending_release": reader.get("pending_release").tolist(),
            "horizon_start": scalars["horizon_start"],
            "epoch": scalars["epoch"],
            "peak_live": scalars["peak_live"],
        }
    )
    delta_path = Path(path).with_name(Path(path).name + ".delta")
    if delta_path.exists():
        _apply_engine_delta(
            engine, delta_path, header.get("snapshot_nonce")
        )
    engine.last_snapshot_nonce = header.get("snapshot_nonce")
    return engine


# -- delta snapshots (format v3) -------------------------------------------


def save_engine_delta(
    engine: PlacementEngine, base_path: "str | Path", compress: bool = False
) -> int:
    """Write ``<base_path>.delta``: state since the last full snapshot.

    Serialized: the per-txid arrays appended since the base cursor
    (assignment, T2S vectors/spenders/min-mass, unspent masks), the
    pre-base parents the stream touched since (final spender count and
    mask; release status is derived on load), and the O(n_shards) hot
    scalars (shard sizes, trackers, proxy, RNG, truncation
    accounting). Cost is O(activity since base) - the point of the
    format - where a full snapshot is O(n_placed).

    Cumulative: each call replaces the previous delta for this base.
    """
    base = engine._delta_base
    dirty = engine._dirty_parents
    if base is None or dirty is None:
        raise SnapshotError(
            "no delta base: write a full snapshot first (the engine "
            "journals touched parents only after one)"
        )
    placer = engine.placer
    base_n = base["n_placed"]
    if placer.n_placed < base_n:
        raise SnapshotError(
            f"engine cursor {placer.n_placed} is behind the delta "
            f"base {base_n}"
        )
    if base.get("path") != str(Path(base_path)):
        raise SnapshotError(
            f"the last full snapshot went to {base.get('path')!r}, "
            f"not {str(base_path)!r}; a delta must sit beside its base"
        )
    scorer = engine._scorer
    header: dict[str, Any] = {
        "format": DELTA_FORMAT_VERSION,
        "delta": True,
        "byteorder": sys.byteorder,
        "repro_version": __version__,
        "placer": _placer_spec(placer),
        "engine_config": engine.export_config(),
        "n_placed": placer.n_placed,
        "base": {
            "n_placed": base_n,
            "nonce": base["nonce"],
            "horizon_start": base["horizon_start"],
        },
    }
    writer = _SectionWriter()

    # Appended tail of every per-txid array.
    writer.add("assignment_tail", "i", placer._assignment[base_n:])
    header["placer_scalars"] = {
        "min_shard_size": placer._min_shard_size,
        "min_size_count": placer._min_size_count,
        "max_shard_size": placer._max_shard_size,
    }
    writer.add("shard_sizes", "q", placer._shard_sizes)
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
        scalars = scorer.export_hot_scalars()
        if scalars:
            header["t2s_scalars"] = scalars

    # Pre-base parents touched since the base: final spender count and
    # unspent mask (0 = fully spent or horizon-dropped).
    remaining = engine._remaining
    touched = sorted(txid for txid in dirty if txid < base_n)
    writer.add("dirty_txid", "q", touched)
    if scorer is not None:
        writer.add(
            "dirty_spenders",
            "i",
            (scorer._spender_count[txid] for txid in touched),
        )
    dirty_masks = [
        (mask := remaining.get(txid, 0)).to_bytes(
            (mask.bit_length() + 7) // 8, "big"
        )
        for txid in touched
    ]
    writer.add("dirty_nbytes", "i", (len(b) for b in dirty_masks))
    writer.add("dirty_masks", "B", b"".join(dirty_masks))

    # Unspent masks created since the base.
    tail_entries = [
        (txid, mask) for txid, mask in remaining.items() if txid >= base_n
    ]
    tail_masks = [
        mask.to_bytes((mask.bit_length() + 7) // 8, "big")
        for _, mask in tail_entries
    ]
    writer.add("remaining_txid", "q", (txid for txid, _ in tail_entries))
    writer.add("remaining_nbytes", "i", (len(b) for b in tail_masks))
    writer.add("remaining_masks", "B", b"".join(tail_masks))

    engine_state = engine.export_state()
    writer.add("pending_release", "q", engine_state["pending_release"])
    header["engine_scalars"] = {
        "horizon_start": engine_state["horizon_start"],
        "epoch": engine_state["epoch"],
        "peak_live": engine_state["peak_live"],
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
    path = Path(base_path)
    return _write_container(
        path.with_name(path.name + ".delta"),
        DELTA_FORMAT_VERSION,
        header,
        writer.blobs,
        compress,
    )


def _apply_engine_delta(
    engine: PlacementEngine,
    delta_path: "str | Path",
    base_nonce: "str | None",
) -> None:
    """Advance a freshly-loaded base engine to the delta's cursor."""
    version, header, payload = _read_container(delta_path)
    if version != DELTA_FORMAT_VERSION or not header.get("delta"):
        raise SnapshotError(f"{delta_path} is not a delta snapshot")
    base = header.get("base", {})
    if base_nonce is None or base.get("nonce") != base_nonce:
        raise SnapshotError(
            f"{delta_path} was taken against a different base "
            "snapshot (nonce mismatch); delete it or restore the "
            "matching full snapshot"
        )
    placer = engine.placer
    base_n = base["n_placed"]
    if placer.n_placed != base_n:
        raise SnapshotError(
            f"base snapshot holds {placer.n_placed} placements, delta "
            f"expects {base_n}"
        )
    reader = _SectionReader(header["sections"], payload)

    placer._assignment.extend(reader.get("assignment_tail").tolist())
    placer._shard_sizes[:] = reader.get("shard_sizes").tolist()
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

    scorer = engine._scorer
    if header["has_scorer"] != (scorer is not None):
        raise SnapshotError(
            "delta and base disagree on whether the placer has a "
            "scorer"
        )
    if scorer is not None:
        nnz = reader.get("t2s_nnz")
        shards = reader.get("t2s_shards").tolist()
        mass = reader.get("t2s_mass").tolist()
        cursor = 0
        for count in nnz:
            if count < 0:
                scorer._p_prime.append(None)
            else:
                end = cursor + count
                scorer._p_prime.append(
                    dict(zip(shards[cursor:end], mass[cursor:end]))
                )
                cursor = end
        if cursor != len(shards):
            raise SnapshotError(
                "delta t2s_nnz does not account for every stored entry"
            )
        # A None tail slot is a vector that was already released when
        # the delta was taken (fully spent and swept, or behind the
        # horizon); count them so released/live accounting matches the
        # original engine exactly.
        scorer._released += sum(1 for count in nnz if count < 0)
        scorer._spender_count.extend(
            reader.get("t2s_spenders").tolist()
        )
        scorer._min_mass.extend(reader.get("t2s_min_mass").tolist())
        scorer._shard_sizes[:] = reader.get("t2s_shard_sizes").tolist()
        if "t2s_outputs" in reader:
            scorer._output_count.extend(
                reader.get("t2s_outputs").tolist()
            )
        scorer.import_hot_scalars(header.get("t2s_scalars", {}))

    remaining = engine._remaining

    def _masks_of(prefix: str) -> list[int]:
        blob = reader.get(f"{prefix}_masks").tobytes()
        masks = []
        cursor = 0
        for nbytes in reader.get(f"{prefix}_nbytes"):
            masks.append(
                int.from_bytes(blob[cursor : cursor + nbytes], "big")
            )
            cursor += nbytes
        if cursor != len(blob):
            raise SnapshotError(
                f"delta {prefix}_nbytes does not account for every "
                "mask byte"
            )
        return masks

    # Touched pre-base parents: final spender counts and masks.
    dirty_txids = reader.get("dirty_txid").tolist()
    if scorer is not None:
        for txid, count in zip(
            dirty_txids, reader.get("dirty_spenders")
        ):
            scorer._spender_count[txid] = count
    dirty_masks = _masks_of("dirty")
    for txid, mask in zip(dirty_txids, dirty_masks):
        if mask:
            remaining[txid] = mask
        else:
            remaining.pop(txid, None)
    for txid, mask in zip(
        reader.get("remaining_txid").tolist(), _masks_of("remaining")
    ):
        remaining[txid] = mask

    engine_scalars = header["engine_scalars"]
    pending = reader.get("pending_release").tolist()
    base_pending = list(engine._pending_release)
    engine._pending_release[:] = pending
    engine._epoch = engine_scalars["epoch"]
    engine._peak_live = engine_scalars["peak_live"]

    if scorer is not None:
        # Reconstruct the releases that happened since the base: the
        # horizon sweep over [base_horizon, horizon), every touched
        # parent that went fully spent and was already drained from
        # the pending list, and the base's own pending entries an
        # epoch sweep has drained since. The fully-spent releases only
        # happen on engines that collect them (truncate_spent); the
        # horizon sweep runs regardless, mirroring _advance_epochs.
        horizon = engine_scalars["horizon_start"]
        base_horizon = base.get("horizon_start", 0)
        if horizon > base_horizon:
            scorer.release_vectors(range(base_horizon, horizon))
            for txid in range(base_horizon, horizon):
                remaining.pop(txid, None)
        if engine._collect_spent:
            pending_set = set(pending)
            for txid, mask in zip(dirty_txids, dirty_masks):
                if mask == 0 and txid not in pending_set:
                    scorer.release_vector(txid)
            for txid in base_pending:
                if txid not in pending_set:
                    scorer.release_vector(txid)
        expected_released = header["t2s_released"]
        if scorer.released_count != expected_released:
            raise SnapshotError(
                f"delta application produced {scorer.released_count} "
                f"released vectors, expected {expected_released}"
            )
    engine._horizon_start = engine_scalars["horizon_start"]

    if header["has_proxy_state"]:
        proxy = getattr(placer, "_proxy", None)
        if proxy is None:
            raise SnapshotError(
                "delta carries load-proxy state but the base placer "
                "has no proxy"
            )
        proxy_scalars = header["proxy_scalars"]
        proxy.restore_state(
            {
                "scaled": reader.get("proxy_scaled").tolist(),
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
    if header["has_rng"]:
        rng = getattr(placer, "_rng", None)
        if rng is None:
            raise SnapshotError(
                "delta carries RNG state but the base placer has none"
            )
        rng_scalars = header["rng_scalars"]
        rng.setstate(
            (
                rng_scalars["version"],
                tuple(reader.get("rng_words").tolist()),
                rng_scalars["gauss"],
            )
        )
    rebuild = getattr(placer, "_rebuild_allowed", None)
    if rebuild is not None:
        rebuild()
    if placer.n_placed != header["n_placed"]:
        raise SnapshotError(
            f"delta application reached cursor {placer.n_placed}, "
            f"header claims {header['n_placed']}"
        )
