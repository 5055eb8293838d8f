"""One fresh interpreter's first unit of work, timed from outside.

``python setup_probe.py <workload> <epoch_length> <payload-file>``
imports the library, builds the workload's object, places (or simulates)
the PLACE payload in the file and writes the shard of every transaction
to stdout as packed int32 - the bytes of a golden reply.
"""

from __future__ import annotations

import sys
from array import array


def main(argv: list[str]) -> int:
    name, epoch_length, path = argv
    from repro.api import PlacementEngine, make_placer
    from repro.service.wire import decode_place_arrays, decode_place_payload

    from config import WORKLOADS

    workload = WORKLOADS[name]
    with open(path, "rb") as fh:
        payload = fh.read()
    if workload.kind == "sim":
        from repro.experiments.configs import get_scale
        from repro.experiments.runner import build_placer
        from repro.simulator.engine import run_simulation

        scale = get_scale("default")
        placer = build_placer("optchain", workload.shards, scale)
        result = run_simulation(
            decode_place_payload(payload),
            placer,
            scale.simulation(workload.shards, 600.0),
        )
        if not result.drained:
            return 1
        shards = placer.assignment()
    else:
        engine = PlacementEngine(
            make_placer(workload.spec, workload.shards),
            epoch_length=int(epoch_length),
        )
        if workload.wire:
            shards = engine.place_wire_batch(decode_place_arrays(payload))
        else:
            shards = engine.place_batch(decode_place_payload(payload))
    sys.stdout.buffer.write(array("i", shards).tobytes())
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
