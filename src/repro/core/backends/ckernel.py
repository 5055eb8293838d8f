"""On-demand compilation and ctypes binding of the fused C kernel.

The kernel ships as C source (``_kernel.c``) and is compiled with the
host ``cc`` the first time a numpy-backed placer needs it, cached under
``$REPRO_KERNEL_CACHE`` (default ``~/.cache/repro-kernels``) keyed by
the SHA-256 of the source plus the compile flags, so upgrades rebuild
and concurrent worker processes race benignly (build to a temp file,
``os.replace`` into place). Any failure - no compiler, sandboxed cache
dir, missing libm - is recorded and surfaced through
:func:`kernel_unavailable_reason`; the numpy backend is then
unavailable (an explicit ``backend=numpy`` refuses, ``auto`` resolves
to pure python) instead of crashing at import time.

Floating-point contract: the kernel must execute the exact double
operations the pure-python fused loop performs, so fused
multiply-adds and fast-math reassociation are disabled explicitly.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
from pathlib import Path

_SOURCE = Path(__file__).with_name("_kernel.c")

# -O2 without -ffast-math never reassociates floating point, but FMA
# contraction is a default on some targets; forbid it outright.
_CFLAGS = (
    "-O2",
    "-fPIC",
    "-shared",
    "-ffp-contract=off",
    "-fno-fast-math",
)

KERN_OK = 0
KERN_INVALID_INPUT = 1
KERN_CAPACITY = 2
KERN_INTERNAL = 3

# validate_batch return codes (VALID_* in _kernel.c)
VALID_OK = 0
VALID_UNKNOWN = 1
VALID_SPENT = 2
VALID_FUTURE = 3
VALID_FALLBACK = 4

# Pointer fields are declared ``c_void_p`` on this side (same layout as
# the typed C pointers): the drivers store plain buffer addresses, read
# once per buffer object.
_ptr = ctypes.c_void_p


class KState(ctypes.Structure):
    """Mirror of the ``KState`` struct in ``_kernel.c`` (same order).

    One instance lives as long as its placer's driver: configuration is
    written once, pointers when their buffer moves, the dynamic scalars
    (proxy clock, heap lengths, size extremes, ``n_placed``, the batch
    fields) before every call.
    """

    _fields_ = [
        # configuration (set once)
        ("n_shards", ctypes.c_int64),
        ("alpha", ctypes.c_double),
        ("one_minus_alpha", ctypes.c_double),
        ("epsilon", ctypes.c_double),
        ("weight", ctypes.c_double),
        ("support_cap", ctypes.c_int64),
        ("has_scale", ctypes.c_int32),
        ("has_eps", ctypes.c_int32),
        ("decay", ctypes.c_double),
        ("base_verify", ctypes.c_double),
        ("base_total", ctypes.c_double),
        ("comm_expected", ctypes.c_double),
        ("block", ctypes.c_double),
        ("renorm_span", ctypes.c_int64),
        ("compact_limit", ctypes.c_int64),
        # proxy state: driver scratch the python heaps and loads are
        # copied into before each batch and out of after it
        ("scaled", _ptr),
        ("heap_vals", _ptr),
        ("heap_idx", _ptr),
        ("heap_len", ctypes.c_int64),
        ("heap_cap", ctypes.c_int64),
        ("zero_heap", _ptr),
        ("zero_len", ctypes.c_int64),
        ("zero_cap", ctypes.c_int64),
        ("step", ctypes.c_int64),
        ("offset", ctypes.c_int64),
        ("pscale", ctypes.c_double),
        # strategy state (sizes copied in/out like the proxy)
        ("strat_sizes", _ptr),
        ("min_size_val", ctypes.c_int64),
        ("min_size_count", ctypes.c_int64),
        ("max_size_val", ctypes.c_int64),
        ("scorer_sizes", _ptr),
        # scorer per-txid state: the adapters' own buffers, written in
        # place. pmat is the RowMatrix arena; slot[txid] is the arena
        # row of txid's vector (-1 dead). Free rows are all-zero; the
        # kernel binds one per placed txid (free stack first, then the
        # never-used rows) inside the room the driver reserved.
        ("pmat", _ptr),
        ("slot", _ptr),
        ("free_rows", _ptr),
        ("rows_free", ctypes.c_int64),
        ("rows_resident", ctypes.c_int64),
        ("arena_rows", ctypes.c_int64),
        ("min_mass", _ptr),
        ("spender_count", _ptr),
        ("assignment", _ptr),
        ("n_placed", ctypes.c_int64),
        ("rows_cap", ctypes.c_int64),
        ("dropped_mass", ctypes.c_double),
        ("truncated_vectors", ctypes.c_int64),
        # batch input: raw outpoint txids in CSR (one form for the wire
        # and object paths); the kernel deduplicates per tx
        ("n_tx", ctypes.c_int64),
        ("parents", _ptr),
        ("par_off", _ptr),
        # scratch (driver-owned)
        ("raw", _ptr),
        ("touched", _ptr),
        ("shard_mark", _ptr),
        ("excl_mark", _ptr),
        ("sort_mass", _ptr),
        ("sort_shard", _ptr),
        ("pb_ids", _ptr),
        ("pb_vals", _ptr),
        ("pb_idx", _ptr),
        ("dedup", _ptr),
        ("dedup_cap", ctypes.c_int64),
        # progress (0 per batch; a KERN_CAPACITY call resumes at it)
        # and results
        ("n_done", ctypes.c_int64),
        ("dedup_need", ctypes.c_int64),
        ("error_txid", ctypes.c_int64),
        ("error_parent", ctypes.c_int64),
    ]


class VState(ctypes.Structure):
    """Mirror of the ``VState`` struct in ``_kernel.c`` (same order).

    One instance per validation driver; the batch columns and result
    arrays are the driver's own resident buffers.
    """

    _fields_ = [
        # batch (the wire columns, copied into driver buffers)
        ("n_tx", ctypes.c_int64),
        ("first_txid", ctypes.c_int64),
        ("horizon_start", ctypes.c_int64),
        ("parents", _ptr),
        ("indexes", _ptr),
        ("n_inputs", _ptr),
        ("n_outputs", _ptr),
        ("track_behind", ctypes.c_int64),
        # mask store (the engine's MaskMap buffer)
        ("masks", _ptr),
        # result buffers (in_off is built by the kernel)
        ("in_off", _ptr),
        ("undo_txid", _ptr),
        ("undo_mask", _ptr),
        ("released", _ptr),
        ("behind", _ptr),
        # results
        ("n_undo", ctypes.c_int64),
        ("n_released", ctypes.c_int64),
        ("n_behind", ctypes.c_int64),
        ("tracked_delta", ctypes.c_int64),
        ("error_txid", ctypes.c_int64),
        ("error_parent", ctypes.c_int64),
        ("error_index", ctypes.c_int64),
    ]


_lib: ctypes.CDLL | None = None
_load_attempted = False
_unavailable_reason: str | None = None


def _cache_dir() -> Path:
    override = os.environ.get("REPRO_KERNEL_CACHE")
    if override:
        return Path(override)
    return Path.home() / ".cache" / "repro-kernels"


def _find_compiler() -> str | None:
    for name in (os.environ.get("CC"), "cc", "gcc", "clang"):
        if name and shutil.which(name):
            return name
    return None


def _build(source: Path, cc: str, out_path: Path) -> None:
    out_path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        dir=out_path.parent, prefix=out_path.stem, suffix=".tmp.so"
    )
    os.close(fd)
    try:
        subprocess.run(
            [cc, *_CFLAGS, "-o", tmp_name, str(source), "-lm"],
            check=True,
            capture_output=True,
            text=True,
            timeout=120,
        )
        os.replace(tmp_name, out_path)
    finally:
        if os.path.exists(tmp_name):
            os.unlink(tmp_name)


def _load() -> ctypes.CDLL:
    if os.environ.get("REPRO_KERNEL_DISABLE"):
        raise RuntimeError("kernel disabled via REPRO_KERNEL_DISABLE")
    source_bytes = _SOURCE.read_bytes()
    digest = hashlib.sha256(
        source_bytes + "\x00".join(_CFLAGS).encode()
    ).hexdigest()[:24]
    out_path = _cache_dir() / f"placement-{digest}.so"
    if not out_path.exists():
        cc = _find_compiler()
        if cc is None:
            raise RuntimeError("no C compiler (cc/gcc/clang) on PATH")
        try:
            _build(_SOURCE, cc, out_path)
        except subprocess.CalledProcessError as exc:
            raise RuntimeError(
                f"kernel compilation failed: {exc.stderr.strip()[:500]}"
            ) from exc
    lib = ctypes.CDLL(str(out_path))
    lib.place_batch.argtypes = [ctypes.POINTER(KState)]
    lib.place_batch.restype = ctypes.c_int
    lib.validate_batch.argtypes = [ctypes.POINTER(VState)]
    lib.validate_batch.restype = ctypes.c_int
    return lib


def load_kernel() -> ctypes.CDLL | None:
    """The compiled kernel library, or ``None`` with a recorded reason."""
    global _lib, _load_attempted, _unavailable_reason
    if not _load_attempted:
        _load_attempted = True
        try:
            _lib = _load()
        except Exception as exc:  # noqa: BLE001 - reason is surfaced
            _unavailable_reason = str(exc)
            _lib = None
    return _lib


def kernel_unavailable_reason() -> str | None:
    """Why :func:`load_kernel` returned ``None`` (``None`` if loaded)."""
    load_kernel()
    return _unavailable_reason
