"""Temporal Fitness - the combination rule of Algorithm 1.

OptChain places a transaction into the shard maximizing::

    fitness(j) = p(u)[j] - latency_weight * E(j)

where ``p(u)`` is the normalized T2S score and ``E(j)`` the L2S expected
latency. The paper fixes ``latency_weight = 0.01`` (Alg. 1 line 9); it is
a parameter here so the ablation bench can sweep it.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.errors import ConfigurationError

PAPER_LATENCY_WEIGHT = 0.01


class TemporalFitness:
    """Combines T2S and L2S scores and picks the best shard."""

    def __init__(self, latency_weight: float = PAPER_LATENCY_WEIGHT) -> None:
        if latency_weight < 0:
            raise ConfigurationError(
                f"latency_weight must be >= 0, got {latency_weight}"
            )
        self.latency_weight = latency_weight

    def combine(
        self,
        t2s_scores: Mapping[int, float],
        l2s_scores: Sequence[float],
    ) -> list[float]:
        """Fitness per shard. ``t2s_scores`` is sparse; missing = 0."""
        return [
            t2s_scores.get(shard, 0.0) - self.latency_weight * l2s
            for shard, l2s in enumerate(l2s_scores)
        ]

    def best_shard(
        self,
        t2s_scores: Mapping[int, float],
        l2s_scores: Sequence[float],
    ) -> int:
        """Argmax of the fitness; ties go to the lower expected latency,
        then to the lower shard id (deterministic)."""
        fitness = self.combine(t2s_scores, l2s_scores)
        best = 0
        for shard in range(1, len(fitness)):
            if fitness[shard] > fitness[best] or (
                fitness[shard] == fitness[best]
                and l2s_scores[shard] < l2s_scores[best]
            ):
                best = shard
        return best
