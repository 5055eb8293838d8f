"""Workloads, sizes and rates of the benchmark: constants, identical on
every commit.

Nothing here is tuned per run. ``--seconds`` decides only how many
passes of a workload fit; ``--smoke`` swaps in :data:`SMOKE`, whose
numbers are not comparable with anything.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: Everything a run writes (kernel cache, server temp dirs, traces,
#: result files) goes here; the root .gitignore names it.
WORK_DIR = ROOT / ".bench_e2e"

# Explicit spec strings: bare ``optchain`` resolves ``backend=auto``,
# which silently degrades to python when numpy or cc is missing.
SPEC_NUMPY = "optchain:backend=numpy"
SPEC_PYTHON = "optchain:backend=python"

#: Held-out seed: never used while the benchmark was written.
HELD_OUT_SEED = 7
DEFAULT_SEED = 42


@dataclass(frozen=True)
class Sizes:
    """Every size, rate, window and pass floor of the benchmark."""

    serve_txs: int = 65_536  # stream replayed by each serving pass
    open_txs: int = 15_360  # open-phase prefix: 2.56 s at open_rate_tps
    # Requests sent and checked but not sampled: on a fresh sharded
    # server the first lease has no remote parents (2 ms against 8), and
    # a median over both regimes sits on the step between them.
    open_warmup_frames: int = 16
    frame_txs: int = 256  # transactions per PLACE request
    connections: int = 2  # = nproc of the reference host
    window: int = 8  # outstanding requests per connection (closed)
    # The paper's ledger rate. At 20,000 tx/s serve_w2 runs at 60% of its
    # capacity, where every lease hand-off starts a queue and the median
    # latency of ten runs spread over 40-50% of itself (12% here).
    open_rate_tps: int = 6_000
    latency_limit_ms: float = 50.0
    lease_length: int = 4_096  # serve_w2: 16 leases per pass
    engine_txs: int = 98_304  # 12 batches of engine_batch
    engine_batch: int = 8_192
    epoch_length: int = 25_000
    sim_txs: int = 30_720
    sim_rates: tuple[float, ...] = (200.0, 600.0)
    sim_methods: tuple[str, ...] = ("optchain", "omniledger")
    # Traced run: the simulator probe's prefix, and the frames kept
    # back for the client-library comparison.
    ladder_sim_txs: int = 6_000
    lib_tail_frames: int = 32
    min_closed_passes: int = 3
    max_closed_passes: int = 12
    min_inproc_passes: int = 4  # first one is discarded
    setup_probes: int = 5  # in-process workloads: fresh interpreters
    closed_share: float = 0.7  # of --seconds, launches included
    open_passes_per_s: float = 0.2  # of --seconds: 2 passes at 10
    pass_timeout_s: float = 60.0


FULL = Sizes()
SMOKE = Sizes(
    serve_txs=4_096,
    open_txs=2_560,
    open_warmup_frames=2,
    lease_length=512,
    engine_txs=8_192,
    engine_batch=1_024,
    epoch_length=2_000,
    sim_txs=1_536,
    ladder_sim_txs=600,
    lib_tail_frames=2,
    min_closed_passes=2,
    max_closed_passes=2,
    min_inproc_passes=2,
    setup_probes=2,
    pass_timeout_s=20.0,
)


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "serve" | "engine" | "sim"
    spec: str  # strategy spec of the system under test
    shards: int
    stream: str  # "base" | "fanin" | "sim"
    workers: int = 0
    wire: bool = True  # engine workloads: WireBatch path vs objects


WORKLOADS = {
    w.name: w
    for w in (
        Workload("serve_mono", "serve", SPEC_NUMPY, 16, "base"),
        Workload("serve_w1", "serve", SPEC_NUMPY, 16, "base", workers=1),
        Workload("serve_w2", "serve", SPEC_NUMPY, 16, "base", workers=2),
        Workload("engine_fanin_k64", "engine", SPEC_NUMPY, 64, "fanin"),
        Workload(
            "engine_py_k16", "engine", SPEC_PYTHON, 16, "base", wire=False
        ),
        Workload("sim_grid_k16", "sim", SPEC_PYTHON, 16, "sim"),
    )
}


def stream_txs(workload: Workload, sizes: Sizes) -> int:
    return {
        "serve": sizes.serve_txs,
        "engine": sizes.engine_txs,
        "sim": sizes.sim_txs,
    }[workload.kind]


def frame_txs(workload: Workload, sizes: Sizes) -> int:
    """Transactions per request as the workload's caller sends them."""
    return sizes.engine_batch if workload.kind == "engine" else sizes.frame_txs


def load_benchmark_json() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)
