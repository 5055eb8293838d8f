"""Tests for the strategy-spec language (repro.core.spec).

The spec is the single configuration surface every entry point shares
(CLI, experiments runner, snapshot headers, worker specs), so the
grammar, the canonical rendering, and the factory routing are pinned
here independently of any one consumer.
"""

from __future__ import annotations

import pytest

from repro.core.optchain import OptChainPlacer, TopKOptChainPlacer
from repro.core.placement import PlacementStrategy, make_placer
from repro.core.spec import (
    NUMPY_METHODS,
    TOPK_METHODS,
    StrategySpec,
    make_placer_from_spec,
)
from repro.errors import ConfigurationError


class TestParse:
    def test_plain_method(self):
        spec = StrategySpec.parse("optchain")
        assert spec.method == "optchain"
        assert spec.cap is None
        assert spec.backend == "auto"

    def test_cap_int(self):
        spec = StrategySpec.parse("optchain-topk:cap=4")
        assert spec.cap == 4

    def test_cap_auto_rate(self):
        spec = StrategySpec.parse("optchain-topk:cap=auto:0.01")
        assert spec.cap == "auto:0.01"

    def test_backend_and_cap(self):
        spec = StrategySpec.parse(
            "optchain-topk:cap=auto:0.01,backend=numpy"
        )
        assert spec.cap == "auto:0.01"
        assert spec.backend == "numpy"

    def test_whitespace_tolerated(self):
        spec = StrategySpec.parse("  optchain-topk:cap=4 ")
        assert spec.method == "optchain-topk"
        assert spec.cap == 4

    @pytest.mark.parametrize(
        "text",
        ["", "   ", ":cap=4"],
    )
    def test_empty_rejected(self, text):
        with pytest.raises(ConfigurationError):
            StrategySpec.parse(text)

    def test_unknown_option_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown spec option"):
            StrategySpec.parse("optchain:bogus=1")

    def test_malformed_option_rejected(self):
        with pytest.raises(ConfigurationError, match="key=value"):
            StrategySpec.parse("optchain:cap")
        with pytest.raises(ConfigurationError, match="key=value"):
            StrategySpec.parse("optchain-topk:cap=")

    def test_bad_cap_rejected(self):
        with pytest.raises(ConfigurationError, match="support cap"):
            StrategySpec.parse("optchain-topk:cap=x")
        with pytest.raises(ConfigurationError):
            StrategySpec.parse("optchain-topk:cap=0")
        with pytest.raises(ConfigurationError):
            StrategySpec.parse("optchain-topk:cap=auto:nope")

    def test_cap_on_uncapped_strategy_rejected(self):
        with pytest.raises(ConfigurationError, match="does not take"):
            StrategySpec.parse("optchain:cap=4")

    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown backend"):
            StrategySpec.parse("optchain:backend=rust")


class TestRoundTrip:
    @pytest.mark.parametrize(
        "text",
        [
            "optchain",
            "optchain-topk:cap=4",
            "optchain-topk:cap=auto:0.01",
            "optchain:backend=python",
            "optchain:backend=numpy",
            "optchain-topk:cap=16,backend=python",
            "t2s-topk:cap=8",
            "omniledger",
        ],
    )
    def test_str_parse_round_trip(self, text):
        spec = StrategySpec.parse(text)
        assert str(spec) == text
        assert StrategySpec.parse(str(spec)) == spec

    def test_auto_backend_omitted_from_canonical_form(self):
        assert str(StrategySpec.parse("optchain:backend=auto")) == "optchain"

    def test_with_cap_with_backend(self):
        spec = StrategySpec.parse("optchain-topk")
        assert spec.with_cap(4).cap == 4
        assert spec.with_backend("python").backend == "python"
        with pytest.raises(ConfigurationError):
            StrategySpec.parse("optchain").with_cap(4)
        with pytest.raises(ConfigurationError):
            spec.with_backend("rust")


class TestFactoryRouting:
    def test_plain_name_keeps_registry_path(self):
        placer = make_placer("optchain", 8)
        assert type(placer) is OptChainPlacer
        assert placer.backend == "python"

    def test_plain_name_with_kwargs(self):
        placer = make_placer("optchain-topk", 8, support_cap=3)
        assert type(placer) is TopKOptChainPlacer
        assert placer.support_cap == 3

    def test_spec_string_routes_through_spec(self):
        placer = make_placer("optchain-topk:cap=3,backend=python", 8)
        assert type(placer) is TopKOptChainPlacer
        assert placer.support_cap == 3

    def test_spec_instance_accepted(self):
        spec = StrategySpec.parse("optchain:backend=python")
        placer = make_placer(spec, 8)
        assert type(placer) is OptChainPlacer

    def test_backend_kwarg_desugars(self):
        placer = make_placer("optchain", 8, backend="python")
        assert type(placer) is OptChainPlacer

    def test_make_placer_from_spec(self):
        placer = make_placer_from_spec("optchain-topk:cap=2", 8)
        assert placer.support_cap == 2

    def test_cap_conflict_rejected(self):
        with pytest.raises(ConfigurationError, match="both"):
            make_placer("optchain-topk:cap=2", 8, support_cap=3)

    def test_unknown_method_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown placement"):
            make_placer("nope:backend=python", 8)

    def test_numpy_backend_on_unsupported_method_rejected(self):
        with pytest.raises(ConfigurationError, match="no numpy backend"):
            StrategySpec.parse("greedy:backend=numpy").resolve_backend()

    def test_backend_subclasses_never_displace_registry(self):
        # The registry must keep pointing at the canonical python
        # classes even after the numpy module (whose subclasses inherit
        # the registered names) has been imported.
        pytest.importorskip("numpy")
        import repro.core.backends.numpy_backend  # noqa: F401

        assert PlacementStrategy.registry["optchain"] is OptChainPlacer
        assert (
            PlacementStrategy.registry["optchain-topk"]
            is TopKOptChainPlacer
        )


class TestOfPlacer:
    def test_python_exact(self):
        spec = StrategySpec.of_placer(OptChainPlacer(8))
        assert spec.method == "optchain"
        assert spec.cap is None
        assert spec.backend == "python"

    def test_fixed_cap(self):
        spec = StrategySpec.of_placer(TopKOptChainPlacer(8, support_cap=5))
        assert spec == StrategySpec("optchain-topk", 5, "python")

    def test_adaptive_cap_reads_back_as_configured(self):
        placer = make_placer(
            "optchain-topk", 8, support_cap="auto:0.01"
        )
        spec = StrategySpec.of_placer(placer)
        assert spec.cap == "auto:0.01"

    def test_numpy_placer(self):
        from repro.core.backends import backend_unavailable_reason

        if backend_unavailable_reason("numpy") is not None:
            pytest.skip("numpy backend (compiled kernel) unavailable")
        placer = make_placer("optchain", 8, backend="numpy")
        spec = StrategySpec.of_placer(placer)
        assert spec == StrategySpec("optchain", None, "numpy")

    def test_resolution_consistency(self):
        # auto resolves to a concrete backend that of_placer reports.
        spec = StrategySpec.parse("optchain")
        resolved = spec.resolve_backend()
        placer = spec.build(8)
        assert placer.backend == resolved


class TestConstants:
    def test_method_sets(self):
        assert "optchain-topk" in TOPK_METHODS
        assert "t2s-topk" in TOPK_METHODS
        assert NUMPY_METHODS == frozenset({"optchain", "optchain-topk"})


def _modules_after(code: str) -> set[str]:
    """Top-level modules a fresh interpreter holds after running
    ``code`` (with this checkout's ``src`` first on the path)."""
    import json
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(__file__).resolve().parents[2] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    script = (
        code
        + "\nimport json, sys\n"
        + "print(json.dumps(sorted({m.split('.')[0] for m in sys.modules})))"
    )
    out = subprocess.run(
        [sys.executable, "-c", script],
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    ).stdout
    return set(json.loads(out.splitlines()[-1]))


class TestFootprint:
    """numpy is imported only by the modules that build arrays."""

    def test_python_golden_path_never_imports_numpy(self):
        modules = _modules_after(
            "import repro.api as api\n"
            "engine = api.PlacementEngine(\n"
            "    api.make_placer('optchain:backend=python', 4))\n"
            "engine.place_batch(api.synthetic_stream(500, seed=3))\n"
            "assert engine.placer.backend == 'python'\n"
        )
        assert "repro" in modules
        assert "numpy" not in modules

    def test_wire_batches_never_import_numpy(self):
        # Decode, coalesce and place PLACE payloads the way a python
        # worker does - through the engine and through a 2-partition
        # EnginePartition (lease hand-off, remote parents, writebacks).
        modules = _modules_after(
            "import repro.api as api\n"
            "from repro.service.partition import EnginePartition\n"
            "from repro.service.wire import (FRAME_HEADER_BYTES,\n"
            "    concat_wire_batches, decode_place_arrays,\n"
            "    encode_place_request)\n"
            "stream = api.synthetic_stream(1200, seed=3)\n"
            "def payload(lo, hi, full=False):\n"
            "    frame = encode_place_request(0, stream[lo:hi], full)\n"
            "    return frame[FRAME_HEADER_BYTES:]\n"
            "def engine():\n"
            "    return api.PlacementEngine(\n"
            "        api.make_placer('optchain:backend=python', 4))\n"
            "batch = concat_wire_batches([decode_place_arrays(payload(0, 300)),\n"
            "    decode_place_arrays(payload(300, 600, True))])\n"
            "expected = engine().place_batch(stream)\n"
            "assert engine().place_wire_batch(batch) == expected[:600]\n"
            "parts = [EnginePartition(engine(), p, 2, 300) for p in (0, 1)]\n"
            "shards = []\n"
            "for lo in range(0, 1200, 300):\n"
            "    owner, other = parts[lo // 300 % 2], parts[1 - lo // 300 % 2]\n"
            "    if lo:\n"
            "        owner.import_hot_state(other.export_hot_state())\n"
            "    wire = decode_place_arrays(payload(lo, lo + 300))\n"
            "    states = other.read_parents(owner.parents_needed(wire))\n"
            "    placed, writebacks = owner.place_batch(wire, states)\n"
            "    other.apply_writebacks(writebacks)\n"
            "    shards += placed\n"
            "assert shards == expected, 'partitioned placements differ'\n"
        )
        assert "repro" in modules
        assert "numpy" not in modules

    def test_resolving_auto_never_imports_numpy(self):
        # What the sharded coordinator does: pick the backend its
        # workers will run, without mapping numpy itself.
        modules = _modules_after(
            "from repro.core.spec import StrategySpec\n"
            "StrategySpec.parse('optchain').resolve_backend()\n"
            "StrategySpec.parse('optchain-topk:cap=4').resolve_backend()\n"
        )
        assert "numpy" not in modules
