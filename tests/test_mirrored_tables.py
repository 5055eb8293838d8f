"""Lists outside the code that mirror a table in it stay in step."""

from __future__ import annotations

import re
from pathlib import Path

from repro.service import channel
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



def channel_table_kinds(doc: str) -> list[str]:
    """Kind names in the first column of the docstring's message table."""
    rule = re.compile(r"^=+  =+$", re.M)
    top = rule.search(doc)
    bottom = rule.search(doc, top.end())
    return re.findall(r"^``(W_\w+)``", doc[top.end() : bottom.start()], re.M)


def test_channel_message_table_names_every_kind_in_order():
    table = channel_table_kinds(channel.__doc__)
    constants = [
        name
        for name, value in vars(channel).items()
        if name.startswith("W_") and isinstance(value, int)
    ]
    assert table == constants
    # The kinds are distinct wire codes in the reserved 0x10..0x1F range.
    codes = [getattr(channel, name) for name in constants]
    assert len(set(codes)) == len(codes)
    assert all(0x10 <= code <= 0x1F for code in codes)
