"""The n-body pattern (Section 3.2, Fig 5).

"The processors assigned to a job form a virtual ring.  For a job using p
processors, each processor sends a message to its successor in the ring in
each of floor(p/2) ring subphases and then sends a message to the processor
halfway across the ring during a single chordal subphase."

The pattern models a ring-based interparticle force computation: particle
copies migrate around the ring (ring subphases), then accumulated forces are
returned to each particle's owner via a single chord of length floor(p/2)
(chordal subphase).  One cycle is therefore ``floor(p/2) + 1`` subphases of
``p`` messages each (``p >= 2``).
"""

from __future__ import annotations

import numpy as np

from repro.patterns.base import Pattern, register_pattern

__all__ = ["NBody"]


@register_pattern
class NBody(Pattern):
    """Ring subphases plus one chordal subphase per cycle."""

    name = "n-body"
    deterministic_cycle = True

    def cycle(self, p: int, rng: np.random.Generator | None = None) -> np.ndarray:
        self._check_size(p)
        if p == 1:
            return self.empty()
        # floor(p/2) ring subphases tiled in one shot, then the chord.
        src = np.arange(p, dtype=np.int64)
        ring = np.stack([src, (src + 1) % p], axis=1)
        chord = np.stack([src, (src + p // 2) % p], axis=1)
        return np.concatenate([np.tile(ring, (p // 2, 1)), chord], axis=0)

    def weighted_cycle(self, p: int) -> tuple[np.ndarray, np.ndarray]:
        """The ``p`` ring pairs sent ``floor(p/2)`` times, then the ``p``
        chord pairs sent once: ``2p`` rows for a ``p * (p//2 + 1)``-message
        cycle."""
        self._check_size(p)
        if p == 1:
            return self.empty(), np.empty(0, dtype=np.int64)
        src = np.arange(p, dtype=np.int64)
        pairs = np.stack(
            [np.tile(src, 2), np.concatenate([src + 1, src + p // 2]) % p],
            axis=1,
        )
        counts = np.repeat(np.array([p // 2, 1], dtype=np.int64), p)
        return pairs, counts

    def rounds(
        self, p: int, rng: np.random.Generator | None = None
    ) -> list[np.ndarray]:
        self._check_size(p)
        if p == 1:
            return []
        return list(self.cycle(p).reshape(p // 2 + 1, p, 2))

    def messages_per_cycle(self, p: int) -> int:
        return (p // 2 + 1) * p if p > 1 else 0

    @staticmethod
    def n_ring_subphases(p: int) -> int:
        """Number of ring subphases in a cycle (floor(p/2))."""
        return p // 2
