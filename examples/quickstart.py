"""Quickstart: place a transaction stream with OptChain vs random.

Generates a Bitcoin-like workload, runs the OptChain placer and the
OmniLedger random-hash baseline over it, and prints the two numbers the
paper's abstract leads with: the cross-shard transaction fraction (up to
10x lower with OptChain) and the load balance across shards.

Strategies are named by spec strings (``repro.api.StrategySpec``):
``"optchain"`` picks the fastest available execution backend
(``backend=auto`` resolves to the vectorized backend - numpy plus the
compiled kernel, ``pip install .[fast]`` and a C compiler - and to the
pure-python golden path otherwise; placements are bit-identical either
way).

Run::

    python examples/quickstart.py
"""

from __future__ import annotations

from repro.api import (
    balance_ratio,
    cross_shard_fraction,
    make_placer,
    synthetic_stream,
)

N_TRANSACTIONS = 20_000
N_SHARDS = 16

#: Spec strings: method plus options, e.g. "optchain-topk:cap=auto:0.01"
#: or "optchain:backend=numpy" (see `repro.api.StrategySpec`).
SPECS = {
    "OptChain": "optchain",
    "OmniLedger (random hash)": "omniledger",
}


def main() -> None:
    print(f"generating {N_TRANSACTIONS} Bitcoin-like transactions...")
    stream = synthetic_stream(N_TRANSACTIONS, seed=7)

    print(f"placing into {N_SHARDS} shards:\n")
    for name, spec in SPECS.items():
        placer = make_placer(spec, N_SHARDS)
        assignment = placer.place_stream(stream)
        cross = cross_shard_fraction(stream, assignment)
        balance = balance_ratio(assignment, N_SHARDS)
        print(f"  {name} (spec {spec!r}, backend {placer.backend})")
        print(f"    cross-shard transactions: {cross:.1%}")
        print(f"    load balance (max shard / ideal): {balance:.2f}")
        print()
    print(
        "OptChain groups related transactions while keeping shards "
        "balanced;\nrandom placement balances but makes almost every "
        "transaction cross-shard."
    )


if __name__ == "__main__":
    main()
