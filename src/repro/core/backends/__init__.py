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

Probing imports nothing heavy: numpy is *found*, not imported, and the
kernel is loaded through ctypes alone, so a process that only resolves
specs (the sharded coordinator) never maps numpy. Only the modules
that build arrays import it.
"""

from __future__ import annotations

from importlib.util import find_spec


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
        if find_spec("numpy") is None:
            return "numpy is not installed; pip install '.[fast]'"
        from repro.core.backends.ckernel import kernel_unavailable_reason

        return kernel_unavailable_reason()
    return f"unknown backend {name!r} (expected 'python' or 'numpy')"


__all__ = ["backend_available", "backend_unavailable_reason"]
