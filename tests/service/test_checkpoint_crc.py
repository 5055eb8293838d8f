"""Checkpoint integrity: corrupt snapshot and delta files must fail
fast with :class:`~repro.errors.CorruptCheckpointError`, never restore
garbage - and pre-CRC (v1-v3) containers without the integrity keys
must stay readable."""

from __future__ import annotations

import json
import struct
import zlib
from pathlib import Path

import pytest

from repro.core.placement import make_placer
from repro.datasets.synthetic import synthetic_stream
from repro.errors import CorruptCheckpointError, SnapshotError
from repro.service.engine import PlacementEngine

N_SHARDS = 4


def build_engine(n_txs: int = 800) -> PlacementEngine:
    engine = PlacementEngine(
        make_placer("optchain", N_SHARDS), epoch_length=250
    )
    stream = synthetic_stream(n_txs, seed=5)
    for offset in range(0, n_txs, 200):
        engine.place_batch(stream[offset : offset + 200])
    return engine


def corrupt(path: Path, *, flip_at: "int | None" = None,
            truncate_to: "int | None" = None) -> None:
    raw = bytearray(path.read_bytes())
    if truncate_to is not None:
        raw = raw[:truncate_to]
    if flip_at is not None:
        raw[flip_at] ^= 0xFF
    path.write_bytes(bytes(raw))


@pytest.mark.parametrize("compress", [False, True])
class TestSnapshotIntegrity:
    def test_payload_bit_flip_detected(self, tmp_path, compress):
        snap = tmp_path / "engine.snap"
        build_engine().checkpoint(snap, compress=compress)
        corrupt(snap, flip_at=-100)
        with pytest.raises(CorruptCheckpointError, match="CRC32"):
            PlacementEngine.restore(snap)

    def test_truncated_payload_detected(self, tmp_path, compress):
        snap = tmp_path / "engine.snap"
        size = build_engine().checkpoint(snap, compress=compress)
        corrupt(snap, truncate_to=size - 64)
        with pytest.raises(CorruptCheckpointError, match="torn"):
            PlacementEngine.restore(snap)

    def test_intact_snapshot_roundtrips(self, tmp_path, compress):
        snap = tmp_path / "engine.snap"
        engine = build_engine()
        engine.checkpoint(snap, compress=compress)
        restored = PlacementEngine.restore(snap)
        stream = synthetic_stream(1_000, seed=5)
        assert restored.place_batch(
            stream[800:1_000]
        ) == engine.place_batch(stream[800:1_000])


class TestDeltaIntegrity:
    def write_pair(self, tmp_path) -> tuple[PlacementEngine, Path, Path]:
        snap = tmp_path / "engine.snap"
        engine = build_engine()
        engine.checkpoint(snap, track_delta=True)
        stream = synthetic_stream(1_200, seed=5)
        for offset in range(800, 1_200, 200):
            engine.place_batch(stream[offset : offset + 200])
        engine.checkpoint(snap, delta=True)
        return engine, snap, Path(str(snap) + ".delta")

    def test_delta_bit_flip_detected(self, tmp_path):
        _, snap, delta = self.write_pair(tmp_path)
        corrupt(delta, flip_at=-30)
        with pytest.raises(CorruptCheckpointError, match="CRC32"):
            PlacementEngine.restore(snap)

    def test_delta_truncation_detected(self, tmp_path):
        _, snap, delta = self.write_pair(tmp_path)
        corrupt(delta, truncate_to=delta.stat().st_size - 40)
        with pytest.raises(CorruptCheckpointError, match="torn"):
            PlacementEngine.restore(snap)

    def test_intact_pair_roundtrips(self, tmp_path):
        engine, snap, _ = self.write_pair(tmp_path)
        restored = PlacementEngine.restore(snap)
        stream = synthetic_stream(1_400, seed=5)
        assert restored.place_batch(
            stream[1_200:1_400]
        ) == engine.place_batch(stream[1_200:1_400])


class TestLegacyHeaders:
    def strip_integrity_keys(self, path: Path) -> None:
        """Rewrite the container as a pre-CRC writer would have."""
        raw = path.read_bytes()
        (header_len,) = struct.unpack_from("<I", raw, 8)
        header = json.loads(raw[12 : 12 + header_len].decode("utf-8"))
        header.pop("stored_payload_bytes")
        header.pop("payload_crc32")
        header_bytes = json.dumps(
            header, separators=(",", ":")
        ).encode("utf-8")
        path.write_bytes(
            raw[:8]
            + struct.pack("<I", len(header_bytes))
            + header_bytes
            + raw[12 + header_len :]
        )

    def test_header_without_crc_keys_still_loads(self, tmp_path):
        snap = tmp_path / "engine.snap"
        engine = build_engine()
        engine.checkpoint(snap)
        self.strip_integrity_keys(snap)
        restored = PlacementEngine.restore(snap)
        stream = synthetic_stream(1_000, seed=5)
        assert restored.place_batch(
            stream[800:1_000]
        ) == engine.place_batch(stream[800:1_000])

    def test_corrupt_header_json_detected(self, tmp_path):
        snap = tmp_path / "engine.snap"
        build_engine().checkpoint(snap)
        corrupt(snap, flip_at=20)  # inside the JSON header
        with pytest.raises((CorruptCheckpointError, SnapshotError)):
            PlacementEngine.restore(snap)

    def test_zlib_garbage_detected(self, tmp_path):
        # A payload that passes its own CRC but is not valid zlib (the
        # corruption happened before the CRC was computed, e.g. in
        # memory): the decompress guard still refuses it.
        snap = tmp_path / "engine.snap"
        build_engine().checkpoint(snap, compress=True)
        raw = bytearray(snap.read_bytes())
        (header_len,) = struct.unpack_from("<I", raw, 8)
        header = json.loads(
            raw[12 : 12 + header_len].decode("utf-8")
        )
        payload = bytearray(raw[12 + header_len :])
        payload[10] ^= 0xFF
        header["payload_crc32"] = zlib.crc32(bytes(payload)) & 0xFFFFFFFF
        header_bytes = json.dumps(
            header, separators=(",", ":")
        ).encode("utf-8")
        snap.write_bytes(
            bytes(raw[:8])
            + struct.pack("<I", len(header_bytes))
            + header_bytes
            + bytes(payload)
        )
        with pytest.raises(CorruptCheckpointError, match="corrupt"):
            PlacementEngine.restore(snap)


def rewrite_header(path: Path, edit) -> None:
    """Replace the container's JSON header with ``edit(header)``."""
    raw = path.read_bytes()
    (header_len,) = struct.unpack_from("<I", raw, 8)
    header = json.loads(raw[12 : 12 + header_len].decode("utf-8"))
    header_bytes = json.dumps(edit(header)).encode("utf-8")
    path.write_bytes(
        raw[:8]
        + struct.pack("<I", len(header_bytes))
        + header_bytes
        + raw[12 + header_len :]
    )


def without(key):
    def edit(header):
        del header[key]
        return header

    return edit


class TestMalformedHeaders:
    """A header that parses as JSON but is not the snapshot's header
    object is a corrupt checkpoint, in a full file and a delta alike."""

    @pytest.fixture(scope="class")
    def pair(self, tmp_path_factory) -> Path:
        snap = tmp_path_factory.mktemp("pair") / "engine.snap"
        engine = build_engine()
        engine.checkpoint(snap, track_delta=True)
        stream = synthetic_stream(1_000, seed=5)
        engine.place_batch(stream[800:1_000])
        engine.checkpoint(snap, delta=True)
        return snap

    @pytest.mark.parametrize("target", ["full", "delta"])
    @pytest.mark.parametrize(
        "edit",
        [
            *(
                pytest.param(without(key), id=f"no-{key}")
                for key in (
                    "placer",
                    "engine_config",
                    "n_placed",
                    "sections",
                    "placer_scalars",
                    "engine_scalars",
                    "has_scorer",
                    "has_proxy_state",
                    "has_rng",
                )
            ),
            pytest.param(lambda header: list(header), id="list"),
        ],
    )
    def test_malformed_header_is_corrupt(self, tmp_path, pair, target, edit):
        snap = tmp_path / pair.name
        delta = Path(f"{snap}.delta")
        snap.write_bytes(pair.read_bytes())
        delta.write_bytes(Path(f"{pair}.delta").read_bytes())
        rewrite_header(snap if target == "full" else delta, edit)
        with pytest.raises(CorruptCheckpointError, match="header"):
            PlacementEngine.restore(snap)
