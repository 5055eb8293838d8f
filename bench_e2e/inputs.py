"""Benchmark inputs, made from ``--seed`` alone: stream, pre-encoded
PLACE frames, and the python golden placement every output is checked
against. The program under test receives only these."""

from __future__ import annotations

import time
from array import array
from dataclasses import dataclass

from repro.api import (
    balance_ratio,
    cross_shard_fraction,
    make_placer,
    synthetic_stream,
)
from repro.datasets.synthetic import GeneratorConfig
from repro.experiments.configs import get_scale
from repro.service.wire import FRAME_HEADER_BYTES, encode_place_request

from config import SPEC_PYTHON, Sizes, Workload, frame_txs, stream_txs

# Mean fan-in ~1.85 (default config: ~1.55): many-input sweeps are what
# the scoring kernel and the release sweeps pay for.
FANIN = GeneratorConfig(
    consolidation_prob=0.25,
    max_consolidation_inputs=30,
    max_inputs=12,
    input_exponent=1.4,
)


def generator_config(stream: str) -> "GeneratorConfig | None":
    if stream == "fanin":
        return FANIN
    if stream == "sim":
        return get_scale("default").generator
    return None


@dataclass
class Inputs:
    stream: list  # Transaction objects
    frames: list[bytes]  # complete PLACE frames, request id = index
    golden: array  # 'i': shard of every transaction, python backend
    replies: list[bytes]  # golden reply payload of each frame
    frame_txs: int
    n_shards: int
    gen_s: float
    encode_s: float
    golden_s: float

    @property
    def n_txs(self) -> int:
        return len(self.golden)

    def payload(self, index: int) -> bytes:
        return self.frames[index][FRAME_HEADER_BYTES:]

    @property
    def payloads(self) -> list[bytes]:
        return [frame[FRAME_HEADER_BYTES:] for frame in self.frames]

    def quality(self, placed: list[int]) -> tuple[float, float]:
        """``(cross_shard_frac, shard_balance_ratio)`` of the placements
        a workload returned for a prefix of the stream."""
        return (
            cross_shard_fraction(self.stream[: len(placed)], placed),
            balance_ratio(placed, self.n_shards),
        )


def build_inputs(workload: Workload, sizes: Sizes, seed: int) -> Inputs:
    n_txs = stream_txs(workload, sizes)
    per_frame = frame_txs(workload, sizes)
    started = time.perf_counter()
    stream = synthetic_stream(
        n_txs, seed=seed, config=generator_config(workload.stream)
    )
    gen_s = time.perf_counter() - started

    started = time.perf_counter()
    frames = [
        encode_place_request(index, stream[first : first + per_frame])
        for index, first in enumerate(range(0, n_txs, per_frame))
    ]
    encode_s = time.perf_counter() - started

    started = time.perf_counter()
    golden = array(
        "i", make_placer(SPEC_PYTHON, workload.shards).place_stream(stream)
    )
    golden_s = time.perf_counter() - started
    replies = [
        golden[first : first + per_frame].tobytes()
        for first in range(0, n_txs, per_frame)
    ]
    return Inputs(
        stream,
        frames,
        golden,
        replies,
        per_frame,
        workload.shards,
        gen_s,
        encode_s,
        golden_s,
    )
