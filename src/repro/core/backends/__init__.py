"""Optional accelerated placement backends.

The default backend is the pure-python fused hot path in
:mod:`repro.core.optchain` - always present, always the golden
reference. This package adds a ``numpy`` backend: typed-array scorer
state driven by a small compiled kernel for the fused batch loop,
bit-identical to the python path and selected per-strategy through
:class:`repro.core.spec.StrategySpec` (``backend=numpy``) or
``make_placer(..., backend="numpy")``.

The numpy backend *is* the compiled kernel: it needs numpy (an
optional dependency, ``pip install repro-optchain[fast]``) and a C
compiler on first use. When either is missing :func:`backend_available`
reports why and spec resolution either falls back (``backend=auto``)
or raises a configuration error (``backend=numpy``).
"""

from __future__ import annotations

_numpy_error: str | None = None
try:
    import numpy  # noqa: F401
except ImportError as exc:  # pragma: no cover - exercised on bare installs
    _numpy_error = f"numpy is not installed ({exc}); pip install '.[fast]'"


def backend_available(name: str) -> bool:
    """Whether a placement backend can be constructed here."""
    return backend_unavailable_reason(name) is None


def backend_unavailable_reason(name: str) -> str | None:
    """Why ``name`` cannot be used (``None`` when it can).

    ``python`` is always available. ``numpy`` needs the numpy package
    and the compiled kernel (built on first use; see
    :mod:`repro.core.backends.ckernel`).
    """
    if name == "python":
        return None
    if name == "numpy":
        if _numpy_error is not None:
            return _numpy_error
        from repro.core.backends.ckernel import kernel_unavailable_reason

        return kernel_unavailable_reason()
    return f"unknown backend {name!r} (expected 'python' or 'numpy')"


__all__ = ["backend_available", "backend_unavailable_reason"]
