"""Lists outside the code that mirror a table in it stay in step."""

from __future__ import annotations

import re
from pathlib import Path

from repro.service.faults import KILL_POINTS

CI_WORKFLOW = Path(__file__).resolve().parents[1] / ".github/workflows/ci.yml"


def job_block(workflow: str, job: str) -> str:
    """The text of one top-level job in a GitHub Actions workflow."""
    start = workflow.index(f"\n  {job}:\n") + 1
    following = re.compile(r"^  [\w-]+:$", re.M).search(workflow, start + 1)
    return workflow[start : following.start() if following else None]


def test_ci_chaos_loops_name_every_kill_point():
    block = job_block(CI_WORKFLOW.read_text(), "chaos-smoke")
    loops = re.findall(r"for point in ([^;]*); do", block)
    # One loop on the python backend, one on the kernel.
    assert len(loops) == 2
    for loop in loops:
        assert loop.split() == list(KILL_POINTS)

