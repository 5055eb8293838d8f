"""The strategy-spec language: one parsed description of a placer.

A spec names a strategy plus its strategy-level options in a single
string, e.g.::

    optchain
    optchain-topk:cap=4
    optchain-topk:cap=auto:0.01,backend=numpy
    optchain:backend=auto

Grammar: ``<method>[:<key>=<value>[,<key>=<value>...]]``. Known keys:

``cap``
    Bounded-support cap for the top-k strategies (``optchain-topk``,
    ``t2s-topk``): a positive integer or the adaptive form
    ``auto:<rate>`` (:func:`repro.core.scorer.parse_support_cap`).
``backend``
    Execution backend: ``python`` (the golden reference, default),
    ``numpy`` (typed-array state + compiled kernel,
    :mod:`repro.core.backends`), or ``auto`` (numpy when it can run the
    method and cap here, python otherwise).

Every surface that names a strategy - the CLI, the experiments runner,
snapshot headers, engine stats, the sharded service's worker specs -
goes through this one type, so a spec string observed anywhere can be
fed back to :func:`repro.core.placement.make_placer` and reproduce the
same configuration. ``str(spec)`` is canonical and round-trips through
:meth:`StrategySpec.parse`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any

from repro.errors import ConfigurationError

#: Strategies that accept a support cap.
TOPK_METHODS = frozenset({"optchain-topk", "t2s-topk"})

#: Strategies with a numpy backend implementation.
NUMPY_METHODS = frozenset({"optchain", "optchain-topk"})

BACKENDS = ("auto", "python", "numpy")

_KNOWN_KEYS = ("backend", "cap")


@dataclass(frozen=True)
class StrategySpec:
    """Parsed placement-strategy description (method, cap, backend)."""

    method: str
    cap: "int | str | None" = None
    backend: str = "auto"

    # -- construction ------------------------------------------------------

    @classmethod
    def parse(cls, text: str) -> "StrategySpec":
        """Parse a spec string; raises ``ConfigurationError`` on errors."""
        if not isinstance(text, str) or not text.strip():
            raise ConfigurationError(f"empty strategy spec {text!r}")
        method, _, opts = text.strip().partition(":")
        if not method:
            raise ConfigurationError(f"strategy spec {text!r} has no method")
        cap: "int | str | None" = None
        backend = "auto"
        if opts:
            for item in opts.split(","):
                key, sep, value = item.partition("=")
                key = key.strip()
                value = value.strip()
                if not sep or not value:
                    raise ConfigurationError(
                        f"malformed spec option {item!r} in {text!r} "
                        f"(expected key=value)"
                    )
                if key == "cap":
                    cap = cls._parse_cap(value)
                elif key == "backend":
                    backend = value
                else:
                    known = ", ".join(_KNOWN_KEYS)
                    raise ConfigurationError(
                        f"unknown spec option {key!r} in {text!r}; "
                        f"known: {known}"
                    )
        spec = cls(method=method, cap=cap, backend=backend)
        spec.validate()
        return spec

    @staticmethod
    def _parse_cap(value: str) -> "int | str":
        if value.startswith("auto:"):
            # Rate range-checked by parse_support_cap in validate().
            return value
        try:
            cap = int(value)
        except ValueError:
            raise ConfigurationError(
                f"support cap must be an integer or 'auto:<rate>', "
                f"got {value!r}"
            ) from None
        if cap < 1:
            raise ConfigurationError(
                f"support cap must be >= 1, got {cap}"
            )
        return cap

    def validate(self) -> None:
        """Check internal consistency; raises ``ConfigurationError``."""
        if self.backend not in BACKENDS:
            known = ", ".join(BACKENDS)
            raise ConfigurationError(
                f"unknown backend {self.backend!r}; known: {known}"
            )
        if self.cap is not None:
            if self.method not in TOPK_METHODS:
                supported = ", ".join(sorted(TOPK_METHODS))
                raise ConfigurationError(
                    f"strategy {self.method!r} does not take a support "
                    f"cap (only {supported} do)"
                )
            from repro.core.scorer import parse_support_cap

            mode, value = parse_support_cap(self.cap)
            if mode == "fixed" and value < 1:
                raise ConfigurationError(
                    f"support cap must be >= 1, got {value}"
                )

    # -- derivation --------------------------------------------------------

    def with_cap(self, cap: "int | str | None") -> "StrategySpec":
        """Copy with a different support cap."""
        spec = replace(self, cap=cap)
        spec.validate()
        return spec

    def with_backend(self, backend: str) -> "StrategySpec":
        """Copy with a different backend."""
        spec = replace(self, backend=backend)
        spec.validate()
        return spec

    @classmethod
    def of_placer(cls, placer) -> "StrategySpec":
        """Canonical spec of a live placer instance.

        The reconstruction preserves the *configured* form: an adaptive
        cap reads back as ``auto:<rate>`` (not the currently grown
        value), so restoring from the spec reproduces the same future
        behavior.
        """
        from repro.core.t2s import AdaptiveTopKT2SScorer

        method = type(placer).name or type(placer).__name__
        cap: "int | str | None" = None
        if method in TOPK_METHODS:
            scorer = getattr(placer, "scorer", None)
            if isinstance(scorer, AdaptiveTopKT2SScorer):
                rate = scorer.target_rate
                cap = f"auto:{rate:g}"
            else:
                cap = getattr(placer, "support_cap", None)
        backend = getattr(placer, "backend", "python")
        return cls(method=method, cap=cap, backend=backend)

    # -- rendering ---------------------------------------------------------

    def __str__(self) -> str:
        parts = []
        if self.cap is not None:
            parts.append(f"cap={self.cap}")
        if self.backend != "auto":
            parts.append(f"backend={self.backend}")
        if parts:
            return f"{self.method}:{','.join(parts)}"
        return self.method

    # -- resolution --------------------------------------------------------

    def resolve_backend(self) -> str:
        """The concrete backend this spec runs on here (never ``auto``).

        ``auto`` resolves to numpy when :func:`numpy_refusal` has no
        objection, else python. An explicit ``numpy`` raises when it
        cannot be honored - silently degrading an explicit request would
        make benchmarks lie.
        """
        if self.backend == "python":
            return "python"
        reason = numpy_refusal(self.method, self.cap)
        if reason is None:
            return "numpy"
        if self.backend == "numpy":
            raise ConfigurationError(reason)
        return "python"

    def build(self, n_shards: int, **kwargs: Any):
        """Construct the placer this spec describes.

        Extra keyword arguments pass through to the strategy
        constructor (``latency_provider``, ``support_window``, ...).
        """
        from repro.core.placement import PlacementStrategy

        if self.cap is not None:
            if "support_cap" in kwargs:
                raise ConfigurationError(
                    "support cap given both in the spec and as a keyword"
                )
            kwargs["support_cap"] = self.cap
        backend = self.resolve_backend()
        if backend == "numpy":
            from repro.core.backends.numpy_backend import (
                NumpyOptChainPlacer,
                NumpyTopKOptChainPlacer,
            )

            cls = {
                "optchain": NumpyOptChainPlacer,
                "optchain-topk": NumpyTopKOptChainPlacer,
            }[self.method]
            return cls(n_shards=n_shards, **kwargs)
        try:
            cls = PlacementStrategy.registry[self.method]
        except KeyError:
            known = ", ".join(sorted(PlacementStrategy.registry))
            raise ConfigurationError(
                f"unknown placement strategy {self.method!r}; "
                f"known: {known}"
            ) from None
        return cls(n_shards=n_shards, **kwargs)


def numpy_refusal(method: str, cap: "int | str | None" = None) -> "str | None":
    """Why ``method`` (with support ``cap``) cannot run on the numpy
    backend here, or ``None``. The backend is the compiled fused kernel,
    so it needs numpy and the kernel and places only fused
    configurations: the adaptive ``auto:<rate>`` cap is accounted per
    transaction and stays on python."""
    if method not in NUMPY_METHODS:
        supported = ", ".join(sorted(NUMPY_METHODS))
        return (
            f"strategy {method!r} has no numpy backend (only {supported} do)"
        )
    if str(cap).startswith("auto:"):
        return (
            f"backend 'numpy' has no adaptive support cap ({cap!r}); "
            "use backend=python"
        )
    from repro.core.backends import backend_unavailable_reason

    reason = backend_unavailable_reason("numpy")
    return None if reason is None else f"backend 'numpy' is unavailable: {reason}"


def make_placer_from_spec(spec, n_shards: int, **kwargs: Any):
    """Build a placer from a spec string or :class:`StrategySpec`."""
    if isinstance(spec, str):
        spec = StrategySpec.parse(spec)
    return spec.build(n_shards, **kwargs)


__all__ = [
    "StrategySpec",
    "make_placer_from_spec",
    "numpy_refusal",
    "TOPK_METHODS",
    "NUMPY_METHODS",
    "BACKENDS",
]
