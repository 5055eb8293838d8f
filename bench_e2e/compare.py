#!/usr/bin/env python3
"""Compare two sets of benchmark results against ``BENCHMARK.json``.

    python3 bench_e2e/compare.py A.json B.json
    python3 bench_e2e/compare.py A1.json,A2.json,A3.json B1.json,B2.json,B3.json

``A`` is the parent, ``B`` the change; each side is one result file of
``run.py --out`` or several, comma-separated (repeat runs, whose median
is compared and, from five runs a side, whose interquartile spread is
reported). One run a side is rarely enough on a shared host: two runs
of one commit have differed by 27% in ``tx_per_s``. For every
(end-to-end metric, workload) pair it prints how much worse ``B`` is
than ``A`` as a share of ``A`` and one verdict:

- ``ok``          not worse by more than the metric's bound;
- ``unresolved``  within the bound, but a side's own spread exceeds the
  bound, so "unchanged" cannot be claimed either;
- ``REGRESSION``  worse by more than the bound;
- ``CHANGED``     a placement-quality metric differs although both sides
  ran the same seed: placements are deterministic, so this is a
  behaviour change, whatever its size.

Exit status 1 on any ``REGRESSION`` or ``CHANGED``, or when a run on
either side was not correct.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from config import load_benchmark_json  # noqa: E402
from stats import spread  # noqa: E402

#: Functions of the input and the placement rule alone.
DETERMINISTIC = ("cross_shard_frac", "shard_balance_ratio")


def load_side(argument: str) -> list[dict]:
    records = []
    for path in argument.split(","):
        with open(path, encoding="utf-8") as fh:
            records.append(json.load(fh))
    return records


def worse_by(metric: dict, parent: float, change: float) -> float:
    """How much worse ``change`` is than ``parent``, as a share of
    ``parent`` (negative: better)."""
    delta = (change - parent) / parent
    return delta if metric["better"] == "lower" else -delta


def side_values(records: list[dict], workload: str, name: str) -> list[float]:
    return [
        record["workloads"][workload]["metrics"][name]["value"]
        for record in records
        if workload in record["workloads"]
    ]


def compare(parent: list[dict], change: list[dict]) -> tuple[list[tuple], bool]:
    """Rows ``(workload, metric, a, b, worse, bound, spread, verdict)``
    and whether everything passed."""
    declared = load_benchmark_json()
    same_seed = {r["seed"] for r in parent} == {r["seed"] for r in change}
    rows = []
    passed = True
    for record in parent + change:
        if not record.get("comparable", True):
            print("warning: a --smoke result is not comparable", file=sys.stderr)
        for name, result in record["workloads"].items():
            if not result["correct"]:
                print(f"error: {name} was not correct", file=sys.stderr)
                passed = False
    for workload in (w["name"] for w in declared["workloads"]):
        for metric in declared["end_to_end"]:
            a = side_values(parent, workload, metric["name"])
            b = side_values(change, workload, metric["name"])
            if not a or not b:
                continue
            a_mid, b_mid = statistics.median(a), statistics.median(b)
            worse = worse_by(metric, a_mid, b_mid)
            # Quartiles of fewer than five runs are extrapolations.
            repeated = min(len(a), len(b)) >= 5
            widest = max(spread(a), spread(b)) if repeated else 0.0
            if same_seed and metric["name"] in DETERMINISTIC and a_mid != b_mid:
                verdict = "CHANGED"
            elif worse > metric["bound"]:
                verdict = "REGRESSION"
            elif widest > metric["bound"]:
                verdict = "unresolved"
            else:
                verdict = "ok"
            passed = passed and verdict in ("ok", "unresolved")
            rows.append(
                (workload, metric["name"], a_mid, b_mid, worse,
                 metric["bound"], widest, verdict)
            )  # fmt: skip
    return rows, passed


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    rows, passed = compare(load_side(argv[0]), load_side(argv[1]))
    print(
        f"{'workload':18s} {'metric':20s} {'A':>12s} {'B':>12s} "
        f"{'worse':>8s} {'bound':>6s} {'spread':>7s}  verdict"
    )
    for workload, name, a, b, worse, bound, widest, verdict in rows:
        print(
            f"{workload:18s} {name:20s} {a:12.5g} {b:12.5g} "
            f"{worse:+8.1%} {bound:6.0%} {widest:7.1%}  {verdict}"
        )
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
