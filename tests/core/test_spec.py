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
