#!/usr/bin/env python3
"""The repo's one benchmark: the placement stack as its users run it.

    python3 bench_e2e/run.py --workload serve_w1 --seed 42 --seconds 10 --trace 0

measures one workload (``--workload all``: every one, in turn), checks
every output against the python golden placement, prints each metric by
name with its unit, and ends with one JSON line
``{"correct", "attempted", "failed", "metrics"}``. ``--trace 0`` reports
the end-to-end metrics of ``BENCHMARK.json``, ``--trace 1`` the per-layer
ones (and writes ``trace-<workload>.json`` next to ``--out``). See
``bench_e2e/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import sys
import time
from dataclasses import asdict
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import config  # noqa: E402


def _prepare_environment() -> None:
    """Point the package, the kernel cache and temp files at this
    checkout, and refuse to measure a degraded program."""
    if not (config.SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"error: no program to measure: {config.SRC}/repro is missing")
    sys.path.insert(0, str(config.SRC))
    from procs import child_env

    env = child_env()
    for key in ("REPRO_KERNEL_CACHE", "TMPDIR"):
        os.environ[key] = env[key]
    os.environ.pop("REPRO_KERNEL_DISABLE", None)
    try:
        import numpy  # noqa: F401
    except ImportError:
        sys.exit(
            "error: numpy is missing; every serving workload measures "
            f"{config.SPEC_NUMPY} and would silently run python instead"
        )
    from repro.api import backend_available, backend_unavailable_reason

    if not backend_available("numpy"):
        sys.exit(
            "error: the numpy backend cannot run here "
            f"({backend_unavailable_reason('numpy')}); a C compiler "
            "(cc/gcc/clang) is needed to build the placement kernel"
        )


def _git_commit() -> str:
    head = config.ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref = (config.ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"  # the driver's checkout is not a repository


def _host() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "loadavg_at_start": os.getloadavg(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": _git_commit(),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 sizes: config.Sizes, out_dir: Path) -> dict:
    """One workload, one mode; returns the result record."""
    import inproc
    import layers
    import serve
    from inputs import build_inputs

    workload = config.WORKLOADS[name]
    declared = config.load_benchmark_json()
    section = "per_layer" if trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in declared[section]}

    inputs = build_inputs(workload, sizes, seed)
    # This process holds a few hundred thousand input objects; keep
    # them out of every collection while it generates load.
    gc.collect()
    gc.freeze()
    if trace:
        values, counts, detail = layers.run(
            workload, sizes, inputs, out_dir / f"trace-{name}.json"
        )
    elif workload.kind == "serve":
        values, counts, detail = serve.run(workload, sizes, inputs, seconds)
    else:
        values, counts, detail = inproc.run(
            workload, sizes, inputs, seconds, sizes is config.SMOKE
        )
    if set(values) != set(units):
        raise RuntimeError(
            f"{name}: measured {sorted(set(values) ^ set(units))} "
            f"differ from BENCHMARK.json's {section}"
        )
    return {
        "correct": counts["failed"] == 0,
        "attempted": counts["attempted"],
        "failed": counts["failed"],
        "metrics": {
            key: {"value": values[key], "unit": units[key]} for key in units
        },
        "detail": detail,
    }


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", default="all", choices=[*config.WORKLOADS, "all"]
    )
    parser.add_argument(
        "--seed", type=int, default=config.DEFAULT_SEED,
        help=f"input seed (default {config.DEFAULT_SEED}; "
        f"{config.HELD_OUT_SEED} is the held-out seed)",
    )  # fmt: skip
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true",
        help="~20x smaller sizes: checks the harness, numbers mean nothing",
    )  # fmt: skip
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)

    _prepare_environment()
    sizes = config.SMOKE if args.smoke else config.FULL
    seconds = min(args.seconds, 1.0) if args.smoke else args.seconds
    names = list(config.WORKLOADS) if args.workload == "all" else [args.workload]
    out = args.out or (
        config.WORK_DIR / "out" / f"result-{args.workload}-trace{args.trace}.json"
    )
    out.parent.mkdir(parents=True, exist_ok=True)

    started = time.time()
    record = {
        "comparable": not args.smoke,
        "seed": args.seed,
        "seconds": seconds,
        "trace": args.trace,
        "sizes": asdict(sizes),
        "host": _host(),
        "workloads": {},
    }
    for name in names:
        result = run_workload(
            name, args.seed, seconds, bool(args.trace), sizes, out.parent
        )
        record["workloads"][name] = result
        for key, metric in result["metrics"].items():
            print(f"{name:18s} {key:34s} {metric['value']:>16.6g} {metric['unit']}")
        for error in result["detail"].get("errors", []):
            print(f"{name}: {error}", file=sys.stderr)
    record["wall_s"] = time.time() - started
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    if args.smoke:
        print("smoke run: these numbers are not comparable with anything")

    results = record["workloads"]
    if len(names) == 1:
        last = {k: v for k, v in results[names[0]].items() if k != "detail"}
    else:
        last = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}/{key}": metric
                for name, r in results.items()
                for key, metric in r["metrics"].items()
            },
        }
    print(json.dumps(last))
    return 0 if last["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
