"""The counter/histogram bundle a serving process maintains.

One :class:`ServiceMetrics` lives in the single-process server, one in
every partition worker, and one (for coordinator-side counters) in the
sharded front-end. The bundle is deliberately a plain-attribute struct:
the hot path does ``metrics.record_batch(n, dt)`` - one histogram
record and two integer bumps - and everything else happens at scrape
or stats time.

Worker bundles travel to the coordinator as JSON dicts inside the
W_STATS reply; :func:`merge_metric_dicts` folds any number of them
into one service-level view whose histogram percentiles are exactly
the percentiles of the union of all recorded batches (the
:class:`~repro.obs.hist.LogHistogram` merge guarantee).
"""

from __future__ import annotations

from typing import Any

from repro.obs.drift import merge_drift_dicts
from repro.obs.hist import LogHistogram
from repro.obs.prom import Family

__all__ = [
    "ServiceMetrics",
    "merge_metric_dicts",
    "rss_kb",
    "service_families",
    "t2s_rows_resident",
]

#: Plain additive counters carried by every bundle (wire dict keys).
COUNTER_FIELDS = (
    "batches",
    "placed",
    "retry_replies",
    "overload_replies",
    "error_replies",
    "respawns",
    "heartbeat_timeouts",
    # The price of cross-partition parents, counted by the write-lease
    # holder per placed run: W_ACQUIRE round trips, the distinct foreign
    # parents they fetched, and the frame bytes that crossed the link
    # each way. Exact functions of the stream and the run grouping.
    "acquire_round_trips",
    "remote_parent_refs",
    "parent_state_bytes",
    "writeback_bytes",
    # Standalone W_WRITEBACK flushes: writebacks still pending (not yet
    # carried by a W_ACQUIRE or W_RELEASE) when the holder answered a
    # stats, checkpoint or drain request.
    "writeback_round_trips",
)


class ServiceMetrics:
    """Live serving metrics owned by one process."""

    __slots__ = ("batch_latency",) + COUNTER_FIELDS

    def __init__(self, precision: int = 5) -> None:
        self.batch_latency = LogHistogram(precision)
        for field in COUNTER_FIELDS:
            setattr(self, field, 0)

    def record_batch(self, n_txs: int, seconds: float) -> None:
        """Record one placed batch (the dispatch hot-path call)."""
        self.batch_latency.record(seconds)
        self.batches += 1
        self.placed += n_txs

    def as_dict(self) -> dict[str, Any]:
        """JSON-safe wire form (rides the W_STATS / stats replies)."""
        data: dict[str, Any] = {
            field: getattr(self, field) for field in COUNTER_FIELDS
        }
        data["batch_latency"] = self.batch_latency.snapshot()
        return data


def merge_metric_dicts(
    dicts: "list[dict[str, Any]]", precision: int = 5
) -> dict[str, Any]:
    """Fold per-partition metric dicts into one service-level dict.

    Counters sum exactly; histograms merge element-wise. The result has
    the same shape as :meth:`ServiceMetrics.as_dict`, so it can itself
    be merged again (associativity is what makes windowed roll-ups
    cheap).
    """
    merged: dict[str, Any] = {field: 0 for field in COUNTER_FIELDS}
    snapshots = []
    for data in dicts:
        if not data:
            continue
        for field in COUNTER_FIELDS:
            merged[field] += int(data.get(field, 0))
        snap = data.get("batch_latency")
        if snap is not None:
            snapshots.append(snap)
    merged["batch_latency"] = LogHistogram.merged(
        snapshots, precision=precision
    ).snapshot()
    return merged


_QUANTILES = (0.5, 0.99, 0.999)

#: Engine-stats fields exported as per-partition gauges (None skipped).
_ENGINE_GAUGES = (
    ("n_placed", "repro_engine_placed", "transactions placed"),
    ("live_vectors", "repro_live_vectors", "sparse T2S vectors in memory"),
    (
        "peak_live_vectors",
        "repro_peak_live_vectors",
        "high-water mark of live vectors",
    ),
    (
        "tracked_unspent",
        "repro_tracked_unspent",
        "transactions with unspent outputs in the validation index",
    ),
    ("epoch", "repro_engine_epoch", "truncation epochs completed"),
    (
        "horizon_start",
        "repro_horizon_start",
        "first txid retained by the horizon policy",
    ),
)

_METRIC_COUNTERS = (
    ("batches", "repro_batches_total", "micro-batches placed"),
    ("placed", "repro_placed_total", "transactions placed"),
    ("retry_replies", "repro_retry_replies_total", "retry replies sent"),
    (
        "overload_replies",
        "repro_overload_replies_total",
        "overload replies sent",
    ),
    ("error_replies", "repro_error_replies_total", "error replies sent"),
    (
        "respawns",
        "repro_worker_respawns_total",
        "worker processes respawned",
    ),
    (
        "heartbeat_timeouts",
        "repro_heartbeat_timeouts_total",
        "worker heartbeat timeouts",
    ),
    (
        "acquire_round_trips",
        "repro_acquire_round_trips_total",
        "cross-partition parent acquires (one per placed run that needed any)",
    ),
    (
        "remote_parent_refs",
        "repro_remote_parent_refs_total",
        "distinct foreign parents fetched from their owners",
    ),
    (
        "parent_state_bytes",
        "repro_parent_state_bytes_total",
        "parent-state frame bytes received by the write-lease holder",
    ),
    (
        "writeback_bytes",
        "repro_writeback_bytes_total",
        "writeback frame bytes sent by the write-lease holder",
    ),
    (
        "writeback_round_trips",
        "repro_writeback_round_trips_total",
        "standalone writeback flushes (before stats, checkpoint or drain)",
    ),
)

_WAL_COUNTERS = (
    ("bytes_appended", "repro_wal_bytes_appended_total", "WAL bytes appended"),
    ("records_appended", "repro_wal_records_total", "WAL records appended"),
    ("fsyncs", "repro_wal_fsyncs_total", "WAL fsync calls"),
    ("resets", "repro_wal_resets_total", "WAL truncations at checkpoints"),
)

_DRIFT_GAUGES = (
    (
        "production_cross_rate",
        "repro_drift_production_cross_rate",
        "windowed cross-shard rate of production placements (sampled)",
    ),
    (
        "shadow_cross_rate",
        "repro_drift_shadow_cross_rate",
        "windowed cross-shard rate of the exact-path shadow choices",
    ),
    (
        "delta",
        "repro_drift_delta",
        "production minus shadow cross-shard rate (positive = worse)",
    ),
    (
        "disagreement_rate",
        "repro_drift_disagreement_rate",
        "fraction of sampled placements where the exact path disagrees",
    ),
    (
        "window_sampled",
        "repro_drift_window_sampled",
        "sampled transactions in the rolling window",
    ),
)

_DRIFT_COUNTERS = (
    (
        "sampled_txs_total",
        "repro_drift_sampled_txs_total",
        "transactions replayed through the exact path",
    ),
    (
        "breaches_total",
        "repro_drift_breaches_total",
        "window evaluations with delta above threshold",
    ),
    (
        "rebases_total",
        "repro_drift_rebases_total",
        "shadow restarts (grants, respawns, restores)",
    ),
)


def _drift_rates(data: dict[str, Any]) -> dict[str, Any]:
    """Fill derived rate fields for a raw per-partition drift dict."""
    if "production_cross_rate" in data:
        return data
    return merge_drift_dicts([data])


def service_families(
    info: dict[str, Any],
    partitions: "list[dict[str, Any]]",
    coordinator: "dict[str, Any] | None" = None,
) -> list[Family]:
    """Assemble the full scrape for one service.

    ``info`` labels the deployment (``spec``, ``mode``, ``workers``);
    ``partitions`` carries one dict per partition with optional
    ``engine`` (stats dict), ``metrics``, ``wal``, ``drift``,
    ``rss_kb`` and ``rows_resident`` entries; ``coordinator`` carries
    front-end counters and lease/health gauges in sharded mode.
    Single-process servers pass one partition and no coordinator.
    """
    latency = Family(
        "repro_batch_latency_seconds",
        "histogram",
        "server-side place_batch latency per micro-batch",
    )
    quantiles = Family(
        "repro_batch_latency_quantile_seconds",
        "gauge",
        "precomputed latency quantiles (bucket precision, not octave)",
    )
    families: list[Family] = [
        Family(
            "repro_service_info",
            "gauge",
            "deployment identity (value is always 1)",
        ).add(1, **{k: str(v) for k, v in info.items()}),
        latency,
        quantiles,
    ]
    counter_families = {
        name: Family(name, "counter", help)
        for _, name, help in (
            _METRIC_COUNTERS + _WAL_COUNTERS + _DRIFT_COUNTERS
        )
    }
    gauge_families: dict[str, Family] = {}

    def gauge(name: str, help: str, value: float, **labels: Any) -> None:
        family = gauge_families.get(name)
        if family is None:
            family = gauge_families[name] = Family(name, "gauge", help)
        family.add(value, **labels)

    def counters(
        table: tuple, data: "dict[str, Any] | None", **labels: Any
    ) -> None:
        if not data:
            return
        for key, name, _help in table:
            value = data.get(key)
            if value is not None:
                counter_families[name].add(value, **labels)

    latency_dicts = []
    drift_dicts = []
    for entry in partitions:
        label = str(entry.get("partition", "0"))
        metrics = entry.get("metrics")
        if metrics:
            counters(_METRIC_COUNTERS, metrics, partition=label)
            snap = metrics.get("batch_latency")
            if snap is not None:
                latency_dicts.append(snap)
                hist = LogHistogram.from_snapshot(snap)
                latency.add_histogram(hist, partition=label)
                for q in _QUANTILES:
                    quantiles.add(
                        hist.percentile(q), partition=label, quantile=q
                    )
        engine = entry.get("engine")
        if engine:
            for key, name, help in _ENGINE_GAUGES:
                value = engine.get(key)
                if value is not None:
                    gauge(name, help, value, partition=label)
            if engine.get("released_vectors") is not None:
                gauge(
                    "repro_released_vectors",
                    "T2S vectors released by truncation sweeps",
                    engine["released_vectors"],
                    partition=label,
                )
            support = engine.get("support")
            if isinstance(support, dict):
                for key, value in sorted(support.items()):
                    if isinstance(value, (int, float)) and not isinstance(
                        value, bool
                    ):
                        gauge(
                            f"repro_support_{key}",
                            f"support-strategy stat {key}",
                            value,
                            partition=label,
                        )
        counters(_WAL_COUNTERS, entry.get("wal"), partition=label)
        drift = entry.get("drift")
        if drift:
            drift = _drift_rates(drift)
            drift_dicts.append(drift)
            for key, name, help in _DRIFT_GAUGES:
                gauge(name, help, drift.get(key, 0.0), partition=label)
            counters(_DRIFT_COUNTERS, drift, partition=label)
        if entry.get("rss_kb") is not None:
            gauge(
                "repro_rss_kilobytes",
                "resident set size",
                entry["rss_kb"],
                process=f"worker-{label}",
            )
        if entry.get("rows_resident") is not None:
            gauge(
                "repro_t2s_rows_resident",
                "T2S arena rows resident (live plus recycled)",
                entry["rows_resident"],
                partition=label,
            )
    if len(latency_dicts) > 1:
        merged = LogHistogram.merged(latency_dicts)
        latency.add_histogram(merged, partition="all")
        for q in _QUANTILES:
            quantiles.add(merged.percentile(q), partition="all", quantile=q)
    if len(drift_dicts) > 1:
        merged_drift = merge_drift_dicts(drift_dicts)
        for key, name, help in _DRIFT_GAUGES:
            gauge(name, help, merged_drift.get(key, 0.0), partition="all")
    if coordinator is not None:
        counters(
            _METRIC_COUNTERS, coordinator.get("metrics"), partition="coordinator"
        )
        if coordinator.get("rss_kb") is not None:
            gauge(
                "repro_rss_kilobytes",
                "resident set size",
                coordinator["rss_kb"],
                process="coordinator",
            )
        for key, name, help in (
            ("granted", "repro_granted_partition", "partition holding the write lease (-1 none)"),
            ("cursor", "repro_lease_cursor", "global placement cursor"),
            ("degraded", "repro_degraded", "1 when the service refuses writes"),
            ("recovering", "repro_recovering_workers", "workers mid-respawn"),
        ):
            value = coordinator.get(key)
            if value is not None:
                gauge(name, help, value)
    families.extend(counter_families.values())
    families.extend(gauge_families.values())
    return families


def rss_kb() -> "int | None":
    """Resident set size of this process in kB (linux; None elsewhere).

    Reads ``/proc/self/status`` - no dependency and cheap enough to do
    per scrape; the soak harness gates growth of this number across a
    multi-million-transaction run.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1])
    except (OSError, ValueError, IndexError):
        return None
    return None


def t2s_rows_resident(engine) -> "int | None":
    """``engine.stats().rows_resident`` in O(1), for every scrape."""
    return getattr(getattr(engine.placer, "scorer", None), "rows_resident", None)
