"""Pattern interface and registry.

Rank-level pairs are integers in ``[0, p)``; the simulator maps rank ``r``
to the ``r``-th processor of the job's allocation (allocation order defines
the job's virtual topology, e.g. the n-body ring), which mirrors how MPI
ranks land on an allocated node list.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

__all__ = ["Pattern", "register_pattern", "get_pattern", "pattern_names"]

_EMPTY = np.empty((0, 2), dtype=np.int64)


class Pattern(ABC):
    """A communication pattern parameterised only by job size.

    Deterministic patterns ignore the ``rng`` argument; stochastic ones
    (``random``) use it so experiments stay reproducible.

    Besides the message-by-message :meth:`cycle`, a deterministic pattern
    has a *weighted cycle* (:meth:`weighted_cycle`): rank pairs with the
    integer number of times each is sent per cycle.  Routing cost then
    scales with the pattern's distinct pairs -- ``2p`` rows for n-body
    instead of ``p * (p // 2 + 1)`` messages -- while the crossing counts,
    and so every load vector, stay the same exact integers.
    """

    #: Registry key and display name, set by subclasses.
    name: str = "abstract"

    #: True when ``cycle(p)`` depends on ``p`` alone (no rng).  The
    #: simulator skips per-job rng construction for such patterns and
    #: reuses one cached weighted cycle per size via :meth:`cached_cycle`.
    deterministic_cycle: bool = False

    #: True when one cycle is exactly the set of all ordered rank pairs
    #: (all-to-all and its broadcast grouping).  The fluid engine then
    #: builds the per-link load profile in closed form without
    #: materialising the ``p * (p - 1)`` pair array at all.
    uniform_all_pairs: bool = False

    @abstractmethod
    def cycle(self, p: int, rng: np.random.Generator | None = None) -> np.ndarray:
        """One full cycle of rank-level (src, dst) pairs, shape ``(m, 2)``.

        Single-processor jobs (``p == 1``) yield an empty cycle: they
        communicate with nobody, and the simulator runs them at the nominal
        issue rate.
        """

    def rounds(
        self, p: int, rng: np.random.Generator | None = None
    ) -> list[np.ndarray]:
        """Cycle messages grouped into bulk-synchronous rounds.

        The default implementation puts the whole cycle in one round;
        subclasses with phase structure (n-body, ping-pong, ...) override.
        """
        pairs = self.cycle(p, rng)
        return [pairs] if len(pairs) else []

    def messages_per_cycle(self, p: int) -> int:
        """Cycle length for deterministic patterns (used for quota math)."""
        return len(self.cycle(p))

    def weighted_cycle(self, p: int) -> tuple[np.ndarray, np.ndarray]:
        """``cycle(p)`` folded to rank pairs with integer message counts.

        Returns ``(pairs, counts)``: ``pairs`` has shape ``(k, 2)`` and
        ``counts`` shape ``(k,)``; pair ``i`` is sent ``counts[i]`` times
        per cycle, so ``counts.sum() == len(cycle(p))``.  Link loads and
        hop totals only depend on how often each pair is sent, so the
        traffic layer routes ``k`` rows instead of the whole cycle.  The
        default is the cycle itself with every count 1; a pattern whose
        cycle repeats pairs (n-body) overrides this with a closed form.
        A pair may appear in more than one row.
        """
        pairs = self.cycle(p)
        return pairs, np.ones(len(pairs), dtype=np.int64)

    def cached_cycle(self, p: int) -> tuple[np.ndarray, np.ndarray]:
        """Memoised, read-only :meth:`weighted_cycle` for deterministic patterns.

        One job-size form is shared across every job of that size, so its
        arrays are marked non-writeable, and its ranks are checked against
        ``[0, p)`` once here rather than on every job start.  Stochastic
        patterns must keep going through :meth:`cycle`.
        """
        if not self.deterministic_cycle:
            raise ValueError(
                f"pattern {self.name!r} is stochastic; cycles cannot be cached"
            )
        cache = self.__dict__.setdefault("_cycle_cache", {})
        form = cache.get(p)
        if form is None:
            pairs, counts = self.weighted_cycle(p)
            pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
            counts = np.asarray(counts, dtype=np.int64)
            if counts.shape != (len(pairs),) or np.any(counts < 1):
                raise ValueError("weighted cycle needs one positive count per pair")
            if pairs.size and (pairs.min() < 0 or pairs.max() >= p):
                raise ValueError("pair rank out of range for job size")
            pairs.setflags(write=False)
            counts.setflags(write=False)
            form = cache[p] = (pairs, counts)
        return form

    @staticmethod
    def _check_size(p: int) -> None:
        if p < 1:
            raise ValueError(f"job size must be >= 1, got {p}")

    @staticmethod
    def empty() -> np.ndarray:
        """The canonical empty pair array."""
        return _EMPTY

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


_REGISTRY: dict[str, type[Pattern]] = {}


def register_pattern(cls: type[Pattern]) -> type[Pattern]:
    """Class decorator adding a pattern to the by-name registry."""
    if not cls.name or cls.name == "abstract":
        raise ValueError("pattern classes must define a unique name")
    if cls.name in _REGISTRY:
        raise ValueError(f"duplicate pattern name {cls.name!r}")
    _REGISTRY[cls.name] = cls
    return cls


def get_pattern(name: str, **kwargs) -> Pattern:
    """Instantiate a registered pattern by name (e.g. ``"all-to-all"``)."""
    try:
        cls = _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown pattern {name!r}; known: {sorted(_REGISTRY)}"
        ) from None
    return cls(**kwargs)


def pattern_names() -> list[str]:
    """Names of all registered patterns."""
    return sorted(_REGISTRY)
