"""Tests of the benchmark harness itself.

    python -m pytest bench_e2e/tests -q

Not part of tier-1 (``pyproject.toml`` collects ``tests/`` only).
"""

import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
