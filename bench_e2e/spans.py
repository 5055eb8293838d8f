"""In-memory spans recorded by the benchmark around its own calls into
each layer; written once, when the traced run ends."""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path
from time import perf_counter


class Tracer:
    """Spans are ``[name, start_s, end_s, parent, request_id]`` rows;
    ``parent`` is the row index of the span that caused this one
    (``-1`` for a root), and spans of one request share ``request_id``."""

    def __init__(self) -> None:
        self.spans: list[list] = []

    def begin(self, name: str, parent: int = -1, request: int = -1) -> int:
        self.spans.append([name, perf_counter(), 0.0, parent, request])
        return len(self.spans) - 1

    def end(self, index: int) -> None:
        self.spans[index][2] = perf_counter()

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: count, total time and self time (duration
        minus the part of it the span's children cover)."""
        child_time: dict[int, float] = defaultdict(float)
        for _name, start, end, parent, _request in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for index, (name, start, end, _parent, _request) in enumerate(
            self.spans
        ):
            row = out.setdefault(
                name, {"count": 0, "total_s": 0.0, "self_s": 0.0}
            )
            row["count"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child_time[index]
        return out

    def write(self, path: Path, counts: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "columns": [
                        "name", "start_s", "end_s", "parent", "request_id",
                    ],  # fmt: skip
                    "spans": self.spans,
                    "totals": self.totals(),
                    "counts": counts,
                },
                fh,
            )
