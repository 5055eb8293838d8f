"""The one command, shrunk: every declared (metric, workload) pair is
emitted, nothing undeclared is, and the result feeds ``compare.py``."""

import json
import subprocess
import sys

import pytest

import config


def run_smoke(trace: int, out):
    done = subprocess.run(
        [
            sys.executable,
            str(config.BENCH_DIR / "run.py"),
            "--workload", "all", "--smoke",
            "--seed", str(config.HELD_OUT_SEED),
            "--trace", str(trace),
            "--out", str(out),
        ],  # fmt: skip
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    return json.loads(done.stdout.strip().splitlines()[-1]), json.loads(
        out.read_text()
    )


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_emits_exactly_the_declared_metrics(trace, section, tmp_path):
    declared = config.load_benchmark_json()
    last, record = run_smoke(trace, tmp_path / "result.json")
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0
    assert last["attempted"] >= 1
    units = {m["name"]: m["unit"] for m in declared[section]}
    assert set(last["metrics"]) == {
        f"{workload}/{name}" for workload in config.WORKLOADS for name in units
    }
    for key, metric in last["metrics"].items():
        assert set(metric) == {"value", "unit"}
        assert metric["unit"] == units[key.split("/", 1)[1]]
        assert isinstance(metric["value"], (int, float))
    assert record["comparable"] is False
    assert record["seed"] == config.HELD_OUT_SEED
    assert record["sizes"]["frame_txs"] == config.SMOKE.frame_txs
    assert {"nproc", "loadavg_at_start", "python", "numpy", "commit"} <= set(
        record["host"]
    )
    if trace:
        for workload in config.WORKLOADS:
            spans = json.loads((tmp_path / f"trace-{workload}.json").read_text())
            names = {span[0] for span in spans["spans"]}
            assert {
                "client.request", "inproc.request", "wire.decode",
                "engine.place", "core.place", "journal.append", "wire.reply",
                "simulator.run",
            } <= names  # fmt: skip
    else:
        # End-to-end metrics are never 0, and a file agrees with itself.
        assert all(m["value"] > 0 for m in last["metrics"].values())
        compared = subprocess.run(
            [
                sys.executable,
                str(config.BENCH_DIR / "compare.py"),
                str(tmp_path / "result.json"),
                str(tmp_path / "result.json"),
            ],
            capture_output=True,
            text=True,
        )
        assert compared.returncode == 0, compared.stdout + compared.stderr
        assert "REGRESSION" not in compared.stdout


def test_no_program_means_no_result(tmp_path):
    """In a directory holding only the benchmark, the command fails and
    prints no result line."""
    import shutil

    shutil.copytree(
        config.BENCH_DIR,
        tmp_path / "bench_e2e",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    shutil.copy(config.ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "bench_e2e/run.py", "--workload", "serve_mono",
         "--seed", "1", "--seconds", "1", "--trace", "0"],  # fmt: skip
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env={"PATH": "/usr/bin:/bin"},
    )
    assert done.returncode != 0
    assert done.stdout == ""
