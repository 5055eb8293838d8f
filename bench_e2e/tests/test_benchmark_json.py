"""``BENCHMARK.json`` stays inside the contract it was written to."""

import json
import re

import pytest

import config

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def doc():
    return config.load_benchmark_json()


def test_keys_and_size(doc):
    assert set(doc) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }  # fmt: skip
    raw = (config.ROOT / "BENCHMARK.json").read_bytes()
    assert len(raw) <= 64 * 1024
    assert json.loads(raw) == doc


def test_command_and_paths(doc):
    assert doc["paths"] == ["bench_e2e"]
    assert 1 <= len(doc["command"]) <= 32
    for part in doc["command"]:
        assert len(part) <= 200
        assert not part.startswith("/") and ".." not in part.split("/")
    assert doc["command"][-1] == "bench_e2e/run.py"
    assert isinstance(doc["run_seconds"], int) and 1 <= doc["run_seconds"] <= 60


def test_run_count_fits_the_time_cap(doc):
    # The driver makes 4 + 22 x workloads runs inside 3420 s; a run is
    # run_seconds of measuring plus inputs and launches (~8 s here).
    runs = 4 + 22 * len(doc["workloads"])
    assert runs * (doc["run_seconds"] + 8) <= 3420


def test_workloads(doc):
    assert 2 <= len(doc["workloads"]) <= 8
    assert [w["name"] for w in doc["workloads"]] == list(config.WORKLOADS)
    for workload in doc["workloads"]:
        assert set(workload) == {"name", "why"}
        assert NAME.match(workload["name"])
        why = workload["why"]
        assert 20 <= len(why) <= 200 and "\n" not in why


def test_end_to_end_metrics(doc):
    metrics = doc["end_to_end"]
    assert 1 <= len(metrics) <= 16
    for metric in metrics:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert NAME.match(metric["name"]) and UNIT.match(metric["unit"])
        assert metric["better"] in ("lower", "higher")
        assert 0 < metric["bound"] <= 0.25
    by_name = {m["name"]: m for m in metrics}
    setup = by_name["setup_s"]
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in metrics)


def test_per_layer_metrics(doc):
    metrics = doc["per_layer"]
    assert 1 <= len(metrics) <= 128
    for metric in metrics:
        assert set(metric) == {"name", "unit", "better"}
        assert NAME.match(metric["name"]) and UNIT.match(metric["unit"])
        assert metric["better"] in ("lower", "higher")
        layer = metric["name"].split(".")[0]
        assert layer in {
            "datasets", "wire", "core", "backends", "engine", "journal",
            "state", "server", "coordinator", "worker", "partition",
            "client", "obs", "simulator", "ladder", "trace",
        }  # fmt: skip


def test_names_are_used_once(doc):
    names = [
        entry["name"]
        for key in ("workloads", "end_to_end", "per_layer")
        for entry in doc[key]
    ]
    assert len(names) == len(set(names))
