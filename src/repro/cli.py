"""Command-line interface: ``optchain`` (or ``python -m repro``).

Subcommands:

- ``place``      - place a synthetic stream with a chosen strategy and
  print cross-shard/balance statistics.
- ``simulate``   - run one discrete-event simulation and print the §V
  metrics.
- ``experiment`` - regenerate a paper table/figure
  (``table1 table2 fig2 ... fig11`` or ``all``).
- ``generate``   - write a synthetic workload to JSONL or edge-list.
- ``stats``      - TaN statistics of a stream file.
- ``serve``      - run the long-lived placement service (binary +
  NDJSON codecs over TCP, checkpoint/restore, epoch-bounded T2S
  memory; ``--workers N`` shards it across partitioned worker
  processes behind a routing front-end).
- ``loadgen``    - replay a synthetic stream against a running service
  from many simulated users (open or closed loop, either codec).
"""

from __future__ import annotations

import argparse
import importlib
import sys
from typing import Any

from repro import __version__

_EXPERIMENTS = (
    "table1",
    "table2",
    "table3",
    "fig2",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
)


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument grammar."""
    from repro.service.faults import KILL_POINTS

    parser = argparse.ArgumentParser(
        prog="optchain",
        description="OptChain (ICDCS 2019) reproduction toolkit",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    commands = parser.add_subparsers(dest="command", required=True)

    place = commands.add_parser(
        "place", help="place a synthetic stream and print statistics"
    )
    place.add_argument(
        "--method",
        "--strategy",
        default="optchain",
        help="strategy name or full spec string, e.g. "
        "optchain-topk:cap=auto:0.01,backend=numpy",
    )
    place.add_argument("--shards", type=int, default=16)
    place.add_argument("--transactions", type=int, default=20_000)
    place.add_argument("--seed", type=int, default=1)
    place.add_argument(
        "--support-cap",
        type=str,
        default=None,
        help="retained T2S entries per vector, or auto:<rate> for the "
        "adaptive cap (optchain-topk / t2s-topk; default: the "
        "strategy's built-in cap); shorthand for the cap= spec option",
    )
    place.add_argument(
        "--backend",
        choices=("auto", "python", "numpy"),
        default=None,
        help="execution backend: python (the golden reference), numpy "
        "(typed-array state + compiled kernel, bit-identical), or auto "
        "(numpy when available); shorthand for the backend= spec option",
    )

    simulate = commands.add_parser(
        "simulate", help="run one discrete-event simulation"
    )
    simulate.add_argument(
        "--method",
        "--strategy",
        default="optchain",
        help="strategy name or full spec string (see place --method)",
    )
    simulate.add_argument("--shards", type=int, default=16)
    simulate.add_argument("--transactions", type=int, default=20_000)
    simulate.add_argument("--rate", type=float, default=300.0)
    simulate.add_argument("--block-capacity", type=int, default=200)
    simulate.add_argument(
        "--protocol", choices=("omniledger", "rapidchain"),
        default="omniledger",
    )
    simulate.add_argument(
        "--validate",
        action="store_true",
        help="full per-shard UTXO validation (dependency parking, "
        "natural double-spend rejection)",
    )
    simulate.add_argument("--seed", type=int, default=1)
    simulate.add_argument(
        "--support-cap",
        type=str,
        default=None,
        help="retained T2S entries per vector, or auto:<rate> "
        "(optchain-topk / t2s-topk)",
    )
    simulate.add_argument(
        "--backend",
        choices=("auto", "python", "numpy"),
        default=None,
        help="execution backend (see place --backend)",
    )

    experiment = commands.add_parser(
        "experiment", help="regenerate a paper table/figure"
    )
    experiment.add_argument(
        "name", choices=_EXPERIMENTS + ("all",)
    )
    experiment.add_argument(
        "--scale", default=None, help="tiny | default | paper"
    )

    generate = commands.add_parser(
        "generate", help="write a synthetic workload to disk"
    )
    generate.add_argument("path")
    generate.add_argument("--transactions", type=int, default=100_000)
    generate.add_argument("--seed", type=int, default=1)
    generate.add_argument(
        "--format", choices=("jsonl", "edges"), default="jsonl"
    )

    stats = commands.add_parser(
        "stats",
        help="TaN statistics of a stream file, or live stats of a "
        "running server (pass host:port)",
    )
    stats.add_argument(
        "path",
        help="stream file path, or host:port of a running server",
    )
    stats.add_argument(
        "--format", choices=("jsonl", "edges"), default="jsonl"
    )
    stats.add_argument(
        "--json",
        action="store_true",
        help="dump the raw stats reply as JSON (host:port mode)",
    )

    serve = commands.add_parser(
        "serve", help="run the long-lived placement service"
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=9171)
    serve.add_argument(
        "--method",
        "--strategy",
        default="optchain",
        help="strategy name or full spec string (see place --method)",
    )
    serve.add_argument("--shards", type=int, default=16)
    serve.add_argument(
        "--support-cap",
        type=str,
        default=None,
        help="retained T2S entries per vector, or auto:<rate> for the "
        "adaptive cap (optchain-topk / t2s-topk; bounded-support "
        "scoring for the 64+-shard regime)",
    )
    serve.add_argument(
        "--backend",
        choices=("auto", "python", "numpy"),
        default=None,
        help="execution backend (see place --backend)",
    )
    serve.add_argument(
        "--epoch-length",
        type=int,
        default=25_000,
        help="placements per truncation epoch",
    )
    serve.add_argument(
        "--horizon-epochs",
        type=int,
        default=None,
        help="drop T2S vectors older than this many epochs (bounded "
        "memory; omit for the exact fully-spent-only policy)",
    )
    serve.add_argument(
        "--no-truncate-spent",
        action="store_true",
        help="keep even fully-spent vectors (measurement baseline)",
    )
    serve.add_argument(
        "--checkpoint",
        default=None,
        metavar="PATH",
        help="snapshot file: restored on startup when it exists, "
        "written on shutdown (SIGTERM/SIGINT/shutdown op)",
    )
    serve.add_argument(
        "--checkpoint-compress",
        action="store_true",
        help="zlib-compress snapshot array sections (smaller "
        "checkpoints at a few tens of ms of CPU; restore "
        "auto-detects)",
    )
    serve.add_argument(
        "--checkpoint-delta",
        type=int,
        default=None,
        metavar="N",
        help="epoch-aligned delta checkpoints: between full snapshots, "
        "write only state touched since the base (format v3); every "
        "Nth checkpoint compacts to a full one (single-process serve "
        "only)",
    )
    serve.add_argument(
        "--max-batch", type=int, default=8192, dest="max_batch",
        help="micro-batch / request size ceiling in transactions",
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=0,
        help="run N partitioned worker processes behind a routing "
        "front-end (0 = classic single-process server); partitions "
        "own contiguous txid leases with ownership handoff",
    )
    serve.add_argument(
        "--lease-length",
        type=int,
        default=25_000,
        help="txids per ownership lease in --workers mode",
    )
    serve.add_argument(
        "--max-inflight",
        type=int,
        default=256,
        help="per-partition in-flight request window in --workers "
        "mode; beyond it requests are shed with an 'overload' reply",
    )
    serve.add_argument(
        "--heartbeat",
        type=float,
        default=5.0,
        help="worker liveness-probe interval in seconds in --workers "
        "mode (0 disables heartbeats)",
    )
    serve.add_argument(
        "--respawn-max",
        type=int,
        default=3,
        help="respawn attempts per crashed worker before the service "
        "degrades (--workers mode)",
    )
    serve.add_argument(
        "--no-wal",
        action="store_true",
        help="disable the per-partition write-ahead batch journal "
        "(crashed non-idle workers then cannot recover losslessly)",
    )
    serve.add_argument(
        "--metrics-port",
        type=int,
        default=None,
        metavar="N",
        help="expose GET /metrics (Prometheus text format) on this "
        "port: latency histograms, engine/WAL/lease gauges, drift "
        "(0 = ephemeral port, printed at startup)",
    )
    serve.add_argument(
        "--drift-sample",
        type=int,
        default=0,
        metavar="N",
        help="replay every Nth batch through the exact python scorer "
        "and export the placement-quality drift vs production "
        "(0 = off; optchain-family strategies only)",
    )
    serve.add_argument(
        "--drift-window",
        type=int,
        default=20_000,
        help="sampled transactions per rolling drift window",
    )
    serve.add_argument(
        "--drift-threshold",
        type=float,
        default=0.05,
        help="cross-shard-rate delta above which the drift breach "
        "counter increments",
    )
    serve.add_argument(
        "--drift-min-samples",
        type=int,
        default=500,
        help="window samples required before breaches are evaluated",
    )

    loadgen = commands.add_parser(
        "loadgen", help="replay a synthetic stream against a service"
    )
    loadgen.add_argument("--host", default="127.0.0.1")
    loadgen.add_argument("--port", type=int, default=9171)
    loadgen.add_argument("--transactions", type=int, default=20_000)
    loadgen.add_argument("--users", type=int, default=8)
    loadgen.add_argument("--chunk-size", type=int, default=256)
    loadgen.add_argument(
        "--mode", choices=("closed", "open"), default="closed"
    )
    loadgen.add_argument(
        "--rate",
        type=float,
        default=None,
        help="offered load in tx/s (open mode)",
    )
    loadgen.add_argument(
        "--proto",
        choices=("binary", "json"),
        default="binary",
        help="wire codec: binary frames (fast) or NDJSON (compat)",
    )
    loadgen.add_argument("--seed", type=int, default=1)
    loadgen.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="per-request timeout in seconds (default: wait forever)",
    )
    loadgen.add_argument(
        "--retries",
        type=int,
        default=0,
        help="transparent per-request retries on retryable failures "
        "(retry/overload replies, timeouts, connection resets)",
    )
    loadgen.add_argument(
        "--retry-backoff",
        type=float,
        default=0.05,
        help="base of the jittered exponential retry backoff (s)",
    )

    chaos = commands.add_parser(
        "chaos",
        help="deterministic crash-recovery check: kill a non-idle "
        "worker mid-stream, verify bit-identical recovery",
    )
    chaos.add_argument("--workers", type=int, default=2)
    chaos.add_argument("--transactions", type=int, default=3_000)
    chaos.add_argument("--shards", type=int, default=4)
    chaos.add_argument(
        "--method",
        "--strategy",
        default="optchain",
        help="strategy name or full spec string (see place --method)",
    )
    chaos.add_argument(
        "--backend",
        choices=("auto", "python", "numpy"),
        default=None,
        help="execution backend (see place --backend)",
    )
    chaos.add_argument("--lease-length", type=int, default=600)
    chaos.add_argument("--seed", type=int, default=7)
    chaos.add_argument(
        "--kill-partition",
        type=int,
        default=0,
        help="partition whose worker is SIGKILLed",
    )
    chaos.add_argument(
        "--kill-after",
        type=int,
        default=2,
        help="die on the Nth journaled batch",
    )
    chaos.add_argument(
        "--kill-point",
        choices=KILL_POINTS,
        default="journal",
        help="batch lifecycle point to die at",
    )
    chaos.add_argument(
        "--torn-wal-bytes",
        type=int,
        default=0,
        help="truncate this many bytes off the journal tail before "
        "dying (simulated torn write)",
    )
    chaos.add_argument(
        "--workdir",
        default=None,
        help="scratch directory for checkpoints + journals "
        "(default: a fresh temporary directory)",
    )
    chaos.add_argument(
        "--log",
        default=None,
        help="also append the chaos event log to this file",
    )

    soak = commands.add_parser(
        "soak",
        help="long-haul stability harness: sharded serve + loadgen "
        "waves + kill/respawn chaos, gated on RSS growth, live-vector "
        "bound, drift delta, and latency percentiles via /metrics",
    )
    soak.add_argument("--transactions", type=int, default=2_000_000)
    soak.add_argument("--waves", type=int, default=20)
    soak.add_argument("--workers", type=int, default=2)
    soak.add_argument("--shards", type=int, default=8)
    soak.add_argument(
        "--method",
        "--strategy",
        default="optchain-topk:cap=auto:0.01",
        help="strategy name or full spec string (see place --method)",
    )
    soak.add_argument("--lease-length", type=int, default=25_000)
    soak.add_argument("--epoch-length", type=int, default=25_000)
    soak.add_argument("--horizon-epochs", type=int, default=4)
    soak.add_argument("--seed", type=int, default=1)
    soak.add_argument("--users", type=int, default=4)
    soak.add_argument("--chunk-size", type=int, default=256)
    soak.add_argument(
        "--kills",
        type=int,
        default=1,
        help="lease-holding workers SIGKILLed across the run "
        "(0 disables chaos)",
    )
    soak.add_argument(
        "--drift-sample",
        type=int,
        default=8,
        help="replay every Nth batch through the exact shadow "
        "(0 disables the drift gate)",
    )
    soak.add_argument("--drift-window", type=int, default=20_000)
    soak.add_argument("--drift-threshold", type=float, default=0.05)
    soak.add_argument("--drift-min-samples", type=int, default=200)
    soak.add_argument(
        "--max-rss-growth",
        type=float,
        default=1.6,
        help="worker RSS growth factor allowed from the first to the "
        "last wave",
    )
    soak.add_argument(
        "--max-drift-delta",
        type=float,
        default=0.05,
        help="cross-shard-rate delta allowed vs the exact shadow",
    )
    soak.add_argument(
        "--max-p99-ms",
        type=float,
        default=5000.0,
        help="scrape-derived server-side p99 batch latency bound",
    )
    soak.add_argument(
        "--workdir",
        default=None,
        help="scratch directory for checkpoints + journals "
        "(default: a fresh temporary directory)",
    )
    soak.add_argument(
        "--report",
        default=None,
        metavar="PATH",
        help="also write the JSON soak report here",
    )
    return parser


def _build_spec(args):
    """One parsed :class:`StrategySpec` from the strategy flags.

    ``--method``/``--strategy`` accepts a full spec string
    (``optchain-topk:cap=auto:0.01,backend=numpy``); the loose
    ``--support-cap`` and ``--backend`` flags are kept as aliases that
    desugar into the same spec, so old invocations keep working. A cap
    given for a strategy that ignores it is flagged rather than
    silently dropped - same principle as the restored-checkpoint
    override warnings in ``serve``.
    """
    from repro.core.spec import TOPK_METHODS, StrategySpec
    from repro.errors import ConfigurationError

    try:
        spec = StrategySpec.parse(args.method)
    except ConfigurationError as exc:
        print(f"error: --method: {exc}", file=sys.stderr, flush=True)
        raise SystemExit(2)
    cap = getattr(args, "support_cap", None)
    if cap is not None:
        if spec.method not in TOPK_METHODS:
            print(
                f"warning: --support-cap={cap} ignored; only the topk "
                f"strategies bound vector support (got --method/"
                f"--strategy {spec.method})",
                file=sys.stderr,
                flush=True,
            )
        elif spec.cap is not None:
            print(
                f"error: --support-cap={cap} conflicts with "
                f"cap={spec.cap} inside --method {args.method!r}",
                file=sys.stderr,
                flush=True,
            )
            raise SystemExit(2)
        else:
            mode, value = _parse_cap_or_exit(cap)
            spec = spec.with_cap(cap if mode == "auto" else value)
    backend = getattr(args, "backend", None)
    if backend is not None:
        spec = spec.with_backend(backend)
    return spec


def _make_placer_or_exit(spec, n_shards: int, **kwargs):
    """Spec -> placer, with a clean CLI error (exit 2) on bad config
    (unknown strategy, explicit numpy backend without numpy, ...)."""
    from repro.core.placement import make_placer
    from repro.errors import ConfigurationError

    try:
        return make_placer(spec, n_shards, **kwargs)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr, flush=True)
        raise SystemExit(2)


def _resolve_backend_or_exit(spec):
    """Pin ``backend=auto`` to the concrete backend running here.

    Used where the spec crosses a process or persistence boundary
    (worker specs, chaos scenarios): the string handed over must name
    what actually runs, not re-resolve per consumer.
    """
    from repro.errors import ConfigurationError

    try:
        return spec.with_backend(spec.resolve_backend())
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr, flush=True)
        raise SystemExit(2)


def _parse_cap_or_exit(cap):
    """Validate a --support-cap value with a clean CLI error."""
    from repro.core.scorer import parse_support_cap
    from repro.errors import ConfigurationError

    try:
        return parse_support_cap(cap)
    except ConfigurationError as exc:
        print(f"error: --support-cap: {exc}", file=sys.stderr, flush=True)
        raise SystemExit(2)


def _cmd_place(args) -> int:
    from repro.datasets.synthetic import synthetic_stream
    from repro.partition.quality import balance_ratio, cross_shard_fraction

    spec = _build_spec(args)
    stream = synthetic_stream(args.transactions, seed=args.seed)
    kwargs = {}
    if spec.method in ("greedy", "t2s", "t2s-topk"):
        kwargs["expected_total"] = len(stream)
    if spec.method == "metis":
        from repro.partition.metis_like import partition_tan
        from repro.txgraph.tan import TaNGraph

        assignment = partition_tan(
            TaNGraph.from_transactions(stream), args.shards
        )
    else:
        placer = _make_placer_or_exit(spec, args.shards, **kwargs)
        assignment = placer.place_stream(stream)
        print(f"backend:      {placer.backend}")
    print(f"method:       {spec}")
    print(f"transactions: {len(stream)}")
    print(f"shards:       {args.shards}")
    print(
        f"cross-shard:  "
        f"{cross_shard_fraction(stream, assignment):.2%}"
    )
    print(
        f"balance:      {balance_ratio(assignment, args.shards):.3f}"
    )
    return 0


def _cmd_simulate(args) -> int:
    from repro.analysis.report import summarize_result
    from repro.datasets.synthetic import synthetic_stream
    from repro.simulator import SimulationConfig, run_simulation

    spec = _build_spec(args)
    # The simulator swaps in its live latency observer, which only the
    # python backend scores (numpy is the fused load-proxy kernel).
    if spec.backend == "numpy":
        print(
            "error: simulate needs backend=python (live latency observer)",
            file=sys.stderr,
            flush=True,
        )
        raise SystemExit(2)
    spec = spec.with_backend("python")
    stream = synthetic_stream(args.transactions, seed=args.seed)
    placer = _make_placer_or_exit(spec, args.shards)
    config = SimulationConfig(
        n_shards=args.shards,
        tx_rate=args.rate,
        block_capacity=args.block_capacity,
        block_size_bytes=args.block_capacity * 500,
        consensus_per_tx_s=min(0.01, 1.0 / args.block_capacity),
        max_sim_time_s=50_000.0,
        protocol=args.protocol,
        validate_ledger=args.validate,
        seed=args.seed,
    )
    result = run_simulation(stream, placer, config)
    print(summarize_result(result))
    return 0


def _cmd_experiment(args) -> int:
    names = _EXPERIMENTS if args.name == "all" else (args.name,)
    for name in names:
        module = importlib.import_module(f"repro.experiments.{name}")
        module.main(args.scale)
        print()
    return 0


def _cmd_generate(args) -> int:
    from repro.datasets.io import save_edge_list, save_stream_jsonl
    from repro.datasets.synthetic import synthetic_stream

    stream = synthetic_stream(args.transactions, seed=args.seed)
    if args.format == "jsonl":
        count = save_stream_jsonl(stream, args.path)
        print(f"wrote {count} transactions to {args.path}")
    else:
        count = save_edge_list(stream, args.path)
        print(f"wrote {count} TaN edges to {args.path}")
    return 0


def _parse_host_port(value: str) -> "tuple[str, int] | None":
    """``host:port`` when it looks like one and is not an existing file."""
    import os

    if ":" not in value or os.path.exists(value):
        return None
    host, _, port = value.rpartition(":")
    if not host or not port.isdigit():
        return None
    return host, int(port)


def _cmd_stats_server(args, host: str, port: int) -> int:
    """``repro stats host:port``: live stats of a running server."""
    import json as json_module

    from repro.errors import ServiceError
    from repro.obs.hist import LogHistogram
    from repro.service.client import PlacementClient

    try:
        with PlacementClient(host, port, timeout=10.0) as client:
            ping = client.ping()
            reply = client.request({"op": "stats"})
    except (ServiceError, ConnectionError, OSError) as exc:
        print(
            f"error: could not query {host}:{port}: {exc}",
            file=sys.stderr,
            flush=True,
        )
        return 1
    if args.json:
        print(json_module.dumps(reply, indent=2, sort_keys=True))
        return 0

    def row(label: str, value: Any) -> None:
        print(f"{label + ':':<18}{value}")

    def count(value: Any) -> str:
        return f"{value:,}" if isinstance(value, int) else str(value)

    stats = reply.get("stats") or {}
    obs = reply.get("obs") or {}
    row("server", f"{host}:{port} (protocol {ping.get('protocol')})")
    row(
        "strategy",
        f"{stats.get('strategy')} (k={stats.get('n_shards')})",
    )
    row("placed", count(stats.get("n_placed")))
    row(
        "live vectors",
        f"{count(stats.get('live_vectors'))} "
        f"(peak {count(stats.get('peak_live_vectors'))}, "
        f"released {count(stats.get('released_vectors'))})",
    )
    row("tracked unspent", count(stats.get("tracked_unspent")))
    row(
        "epoch",
        f"{stats.get('epoch')} "
        f"(horizon start {count(stats.get('horizon_start'))})",
    )
    support = stats.get("support")
    if support:
        row(
            "support",
            f"live {count(support.get('live_vectors'))}  "
            f"mean nnz {support.get('mean_nnz', 0.0):.2f}  "
            f"max nnz {support.get('max_nnz')}  "
            f"cap {support.get('support_cap')}",
        )
    if ping.get("workers"):
        recovering = ping.get("recovering") or []
        row(
            "workers",
            f"{ping['workers']} (lease holder {ping.get('granted')}, "
            "recovering "
            + (", ".join(map(str, recovering)) if recovering else "none")
            + ")",
        )
        row("degraded", stats.get("degraded") or "no")
    metrics = obs.get("metrics")
    if metrics:
        snap = metrics.get("batch_latency")
        if snap:
            hist = LogHistogram.from_snapshot(snap)
            if hist.count:
                p50, p99, p999 = hist.percentiles((0.5, 0.99, 0.999))
                row(
                    "batch latency",
                    f"p50 {p50 * 1e3:.2f}ms  p99 {p99 * 1e3:.2f}ms  "
                    f"p999 {p999 * 1e3:.2f}ms  "
                    f"({count(metrics.get('batches'))} batches, "
                    f"{count(metrics.get('placed'))} txs)",
                )
        row(
            "replies",
            f"retry {metrics.get('retry_replies', 0)}  "
            f"overload {metrics.get('overload_replies', 0)}  "
            f"error {metrics.get('error_replies', 0)}",
        )
        if ping.get("workers"):
            row(
                "supervision",
                f"respawns {metrics.get('respawns', 0)}  "
                f"heartbeat timeouts "
                f"{metrics.get('heartbeat_timeouts', 0)}",
            )
            refs = metrics.get("remote_parent_refs", 0)
            row(
                "remote parents",
                f"{count(refs)} refs in "
                f"{count(metrics.get('acquire_round_trips', 0))} acquires  "
                f"{metrics.get('parent_state_bytes', 0) / max(1, refs):.0f} "
                f"B/ref  writebacks "
                f"{metrics.get('writeback_bytes', 0) / 1024.0:.1f} KiB in "
                f"{count(metrics.get('writeback_round_trips', 0))} flushes",
            )
    wal = obs.get("wal")
    if wal:
        row(
            "wal",
            f"{wal.get('bytes_appended', 0) / 1024.0 / 1024.0:.2f} MiB "
            f"appended  {count(wal.get('records_appended', 0))} records  "
            f"{count(wal.get('fsyncs', 0))} fsyncs  "
            f"{wal.get('resets', 0)} resets",
        )
    drift = obs.get("drift")
    if drift:
        if "delta" not in drift:
            from repro.obs.drift import merge_drift_dicts

            drift = merge_drift_dicts([drift])
        row(
            "drift",
            f"delta {drift.get('delta', 0.0):+.4f} "
            f"(prod {drift.get('production_cross_rate', 0.0):.4f} vs "
            f"shadow {drift.get('shadow_cross_rate', 0.0):.4f})  "
            f"disagree {drift.get('disagreement_rate', 0.0):.2%}  "
            f"window {count(drift.get('window_sampled', 0))}  "
            f"breaches {drift.get('breaches_total', 0)}"
            + (f"  FAILED: {drift['failed']}" if drift.get("failed") else ""),
        )
    if obs.get("rss_kb") is not None:
        row("rss", f"{obs['rss_kb'] / 1024.0:.1f} MiB")
    if obs.get("rows_resident") is not None:
        row("t2s rows", count(obs["rows_resident"]))
    return 0


def _cmd_stats(args) -> int:
    from repro.datasets.io import load_edge_list, load_stream_jsonl
    from repro.txgraph.stats import graph_summary
    from repro.txgraph.tan import TaNGraph

    server = _parse_host_port(args.path)
    if server is not None:
        return _cmd_stats_server(args, *server)
    if args.format == "jsonl":
        stream = list(load_stream_jsonl(args.path))
    else:
        stream = load_edge_list(args.path)
    summary = graph_summary(TaNGraph.from_transactions(stream))
    print(f"nodes:            {summary.n_nodes}")
    print(f"edges:            {summary.n_edges}")
    print(f"average degree:   {summary.average_degree:.3f}")
    print(f"coinbase:         {summary.n_coinbase}")
    print(f"unspent frontier: {summary.n_unspent_frontier}")
    print(f"in-degree < 3:    {summary.fraction_in_degree_below_3:.1%}")
    print(f"out-degree < 10:  {summary.fraction_out_degree_below_10:.1%}")
    return 0


def _cmd_serve(args) -> int:
    import asyncio
    import os
    import signal

    from repro.service.engine import PlacementEngine
    from repro.service.server import PlacementServer

    spec = _build_spec(args)
    if args.workers:
        return _serve_sharded(args, spec)
    if args.checkpoint and os.path.exists(args.checkpoint):
        from repro.core.spec import StrategySpec

        engine = PlacementEngine.restore(args.checkpoint)
        print(
            f"restored {engine.n_placed} placements from "
            f"{args.checkpoint}",
            flush=True,
        )
        # The snapshot's configuration wins on restore (the placer's
        # identity is baked into its state); flag any CLI flags it
        # silently overrides so an operator expecting, say, a new
        # horizon policy finds out at startup, not from memory graphs.
        restored_spec = StrategySpec.of_placer(engine.placer)
        restored_config = dict(
            engine.export_config(),
            method=restored_spec.method,
            shards=engine.n_shards,
        )
        requested = {
            "method": spec.method,
            "shards": args.shards,
            "epoch_length": args.epoch_length,
            "horizon_epochs": args.horizon_epochs,
            "truncate_spent": not args.no_truncate_spent,
        }
        if spec.cap is not None:
            restored_config["support_cap"] = _restored_cap_setting(
                engine.placer
            )
            mode, value = _parse_cap_or_exit(spec.cap)
            requested["support_cap"] = (
                f"auto:{value!r}" if mode == "auto" else value
            )
        if spec.backend != "auto":
            # backend=auto means "whatever runs here", which the
            # restored configuration trivially satisfies; only an
            # explicit request can be overridden.
            restored_config["backend"] = restored_spec.backend
            requested["backend"] = spec.backend
        for key, wanted in requested.items():
            have = restored_config[key]
            if wanted != have:
                print(
                    f"warning: --{key.replace('_', '-')}={wanted} "
                    f"ignored; the checkpoint was taken with {have} "
                    "(delete the checkpoint to reconfigure)",
                    file=sys.stderr,
                    flush=True,
                )
    else:
        engine = PlacementEngine(
            _make_placer_or_exit(spec, args.shards),
            epoch_length=args.epoch_length,
            horizon_epochs=args.horizon_epochs,
            truncate_spent=not args.no_truncate_spent,
        )
    if args.drift_sample:
        _attach_drift_monitor(engine, args)

    async def _run() -> None:
        server = PlacementServer(
            engine,
            args.host,
            args.port,
            max_batch_txs=args.max_batch,
            checkpoint_path=args.checkpoint,
            checkpoint_compress=args.checkpoint_compress,
            checkpoint_delta_every=args.checkpoint_delta,
            metrics_port=args.metrics_port,
        )
        await server.start()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(
                signum, lambda: loop.create_task(server.stop())
            )
        print(
            f"serving {spec} (k={engine.n_shards}) on "
            f"{args.host}:{server.port}",
            flush=True,
        )
        if server.metrics_port is not None:
            print(
                f"metrics on http://{args.host}:{server.metrics_port}"
                "/metrics",
                flush=True,
            )
        await server.wait_stopped()
        stats = engine.stats()
        print(
            f"stopped after {stats.n_placed} placements"
            + (
                f"; checkpoint written to {args.checkpoint}"
                if args.checkpoint
                else ""
            ),
            flush=True,
        )

    asyncio.run(_run())
    return 0


def _attach_drift_monitor(engine, args) -> None:
    """Arm the single-process engine's drift monitor from the CLI flags
    (sharded workers build their own from the worker spec)."""
    from repro.core.spec import StrategySpec
    from repro.errors import ConfigurationError
    from repro.obs.drift import DriftMonitor

    try:
        monitor = DriftMonitor(
            engine.n_shards,
            method=StrategySpec.of_placer(engine.placer).method,
            sample_every=args.drift_sample,
            window=args.drift_window,
            threshold=args.drift_threshold,
            min_samples=args.drift_min_samples,
        )
    except ConfigurationError as exc:
        print(f"error: --drift-sample: {exc}", file=sys.stderr, flush=True)
        raise SystemExit(2)
    if engine.n_placed:
        # Restored mid-stream: the shadow starts empty at the cursor,
        # same graceful truncation as a sharded lease.
        monitor.rebase(engine.n_placed)
    engine.drift_monitor = monitor


def _restored_cap_setting(placer):
    """The restored placer's support-cap *configuration*, in the same
    canonical form as a parsed --support-cap argument - adaptive
    scorers compare by target rate (their current cap legitimately
    drifts), fixed ones by the cap itself."""
    scorer = getattr(placer, "scorer", None)
    if getattr(scorer, "kind", "") == "topk-adaptive":
        return f"auto:{scorer.target_rate!r}"
    return getattr(placer, "support_cap", None)


def _serve_sharded(args, strategy_spec) -> int:
    """``repro serve --workers N``: the partitioned service."""
    import asyncio
    import signal

    from repro.service.coordinator import ShardedPlacementServer

    if args.checkpoint_delta is not None:
        print(
            f"warning: --checkpoint-delta={args.checkpoint_delta} "
            "ignored; --workers mode writes full per-partition "
            "snapshots (delta checkpoints are single-process only)",
            file=sys.stderr,
            flush=True,
        )
    # The canonical spec string is the whole strategy configuration
    # (method, cap, backend): workers rebuild their placer from it via
    # make_placer, and the checkpoint-set manifest compares it against
    # later restores as one value. ``auto`` is resolved *here* so every
    # worker (including crash respawns) runs the same backend.
    strategy_spec = _resolve_backend_or_exit(strategy_spec)
    spec = {
        "method": str(strategy_spec),
        "n_shards": args.shards,
        "epoch_length": args.epoch_length,
        "horizon_epochs": args.horizon_epochs,
        "truncate_spent": not args.no_truncate_spent,
    }
    if args.drift_sample:
        # Fail here, not inside N spawned workers.
        from repro.errors import ConfigurationError
        from repro.obs.drift import shadow_method_for

        try:
            shadow_method_for(spec["method"])
        except ConfigurationError as exc:
            print(
                f"error: --drift-sample: {exc}", file=sys.stderr, flush=True
            )
            raise SystemExit(2)
        spec["drift_sample_every"] = args.drift_sample
        spec["drift_window"] = args.drift_window
        spec["drift_threshold"] = args.drift_threshold
        spec["drift_min_samples"] = args.drift_min_samples

    async def _run() -> None:
        server = ShardedPlacementServer(
            spec,
            args.workers,
            args.host,
            args.port,
            lease_length=args.lease_length,
            max_batch_txs=args.max_batch,
            checkpoint_path=args.checkpoint,
            checkpoint_compress=args.checkpoint_compress,
            max_inflight=args.max_inflight,
            heartbeat_interval=args.heartbeat,
            max_respawns=args.respawn_max,
            wal=not args.no_wal,
            metrics_port=args.metrics_port,
        )
        await server.start()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(
                signum, lambda: loop.create_task(server.stop())
            )
        print(
            f"serving {strategy_spec} (k={args.shards}) on "
            f"{args.host}:{server.port} with {args.workers} workers "
            f"(lease {args.lease_length})",
            flush=True,
        )
        if server.metrics_port is not None:
            print(
                f"metrics on http://{args.host}:{server.metrics_port}"
                "/metrics",
                flush=True,
            )
        await server.wait_stopped()
        print(
            f"stopped after {server._cursor} placements"
            + (
                f"; checkpoints written to {args.checkpoint}.p*"
                if args.checkpoint
                else ""
            ),
            flush=True,
        )

    asyncio.run(_run())
    return 0


def _cmd_loadgen(args) -> int:
    from repro.errors import ServiceError
    from repro.service.loadgen import run_loadgen

    try:
        report = run_loadgen(
            host=args.host,
            port=args.port,
            n_txs=args.transactions,
            n_users=args.users,
            chunk_size=args.chunk_size,
            mode=args.mode,
            rate=args.rate,
            seed=args.seed,
            proto=args.proto,
            request_timeout=args.timeout,
            max_retries=args.retries,
            retry_backoff=args.retry_backoff,
        )
    except (ServiceError, ConnectionError, OSError) as exc:
        print(
            f"error: loadgen could not drive {args.host}:{args.port}: "
            f"{exc}",
            file=sys.stderr,
            flush=True,
        )
        return 1
    print(report.summary())
    if report.errors:
        # A lossy run must not look like a clean one to CI or scripts:
        # the summary above already names the last error.
        print(
            f"error: {report.errors} of {report.n_chunks} requests "
            "failed"
            + (
                f" (last: {report.last_error})"
                if report.last_error
                else ""
            ),
            file=sys.stderr,
            flush=True,
        )
        return 1
    return 0


def _cmd_chaos(args) -> int:
    import asyncio
    import json as json_module
    import tempfile

    from repro.service.faults import run_chaos_scenario

    spec = _resolve_backend_or_exit(_build_spec(args))

    def run(workdir: str) -> dict:
        return asyncio.run(
            run_chaos_scenario(
                workdir=workdir,
                n_workers=args.workers,
                n_txs=args.transactions,
                n_shards=args.shards,
                strategy=str(spec),
                lease_length=args.lease_length,
                seed=args.seed,
                kill_partition=args.kill_partition,
                kill_after=args.kill_after,
                kill_point=args.kill_point,
                torn_wal_bytes=args.torn_wal_bytes,
                log=lambda message: print(message, flush=True),
            )
        )

    if args.workdir:
        result = run(args.workdir)
    else:
        with tempfile.TemporaryDirectory(prefix="repro-chaos-") as d:
            result = run(d)
    if args.log:
        with open(args.log, "a") as fh:
            fh.write(
                json_module.dumps(result, separators=(",", ":")) + "\n"
            )
    if not result["ok"]:
        print(
            "error: chaos scenario failed: "
            + (
                f"service degraded ({result['degraded']})"
                if result["degraded"]
                else "recovered placements diverged from the golden "
                f"run (first at {result['first_divergence']})"
                if not result["bit_identical"]
                else f"the '{result['kill_point']}' kill never fired"
            ),
            file=sys.stderr,
            flush=True,
        )
        return 1
    print(
        f"chaos ok: {result['served']} placements bit-identical "
        f"through a '{result['kill_point']}' crash "
        f"({result['retries']} client retries, "
        f"{result['recovery_s']}s recovery)",
        flush=True,
    )
    return 0


def _cmd_soak(args) -> int:
    import asyncio
    import json as json_module

    from repro.errors import ConfigurationError
    from repro.obs.soak import run_soak

    spec = _resolve_backend_or_exit(_build_spec(args))
    try:
        result = asyncio.run(
            run_soak(
                n_txs=args.transactions,
                waves=args.waves,
                workers=args.workers,
                shards=args.shards,
                method=str(spec),
                lease_length=args.lease_length,
                epoch_length=args.epoch_length,
                horizon_epochs=args.horizon_epochs,
                seed=args.seed,
                users=args.users,
                chunk_size=args.chunk_size,
                kills=args.kills,
                drift_sample=args.drift_sample,
                drift_window=args.drift_window,
                drift_threshold=args.drift_threshold,
                drift_min_samples=args.drift_min_samples,
                max_rss_growth=args.max_rss_growth,
                max_drift_delta=args.max_drift_delta,
                max_p99_s=args.max_p99_ms / 1e3,
                workdir=args.workdir,
                log=lambda message: print(message, flush=True),
            )
        )
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr, flush=True)
        return 2
    except RuntimeError as exc:
        print(f"error: soak aborted: {exc}", file=sys.stderr, flush=True)
        return 1
    if args.report:
        with open(args.report, "w") as fh:
            json_module.dump(result, fh, indent=2, sort_keys=True)
            fh.write("\n")
    if not result["ok"]:
        failed = [g["name"] for g in result["gates"] if not g["ok"]]
        print(
            f"error: soak gates failed: {', '.join(failed)}",
            file=sys.stderr,
            flush=True,
        )
        return 1
    print(
        f"soak ok: {result['n_txs']:,} placements in "
        f"{result['elapsed_s']}s "
        f"({result['placements_per_s']:,.0f} tx/s), "
        f"{len(result['gates'])} gates passed",
        flush=True,
    )
    return 0


_HANDLERS = {
    "place": _cmd_place,
    "simulate": _cmd_simulate,
    "experiment": _cmd_experiment,
    "generate": _cmd_generate,
    "stats": _cmd_stats,
    "serve": _cmd_serve,
    "loadgen": _cmd_loadgen,
    "chaos": _cmd_chaos,
    "soak": _cmd_soak,
}


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return _HANDLERS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
