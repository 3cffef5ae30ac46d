"""Seeded random-number streams.

Each component that needs randomness (network jitter, workload generation,
execution-time sampling) pulls a *named stream* from :class:`RandomSource`.
Streams derived from the same master seed and name are identical across runs,
so adding randomness to one component never perturbs another — a requirement
for the sweep-style experiments of the paper.
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict, Sequence, TypeVar

T = TypeVar("T")


class RandomStream:
    """A thin wrapper around :class:`random.Random` with distribution helpers."""

    def __init__(self, seed: int, name: str) -> None:
        self.name = name
        self._rng = random.Random(f"{seed}/{name}")

    def uniform(self, low: float, high: float) -> float:
        """Draw from a uniform distribution on ``[low, high]``."""
        return self._rng.uniform(low, high)

    def exponential(self, mean: float) -> float:
        """Draw from an exponential distribution with the given mean."""
        if mean <= 0.0:
            return 0.0
        return self._rng.expovariate(1.0 / mean)

    def truncated_normal(self, mean: float, stddev: float) -> float:
        """Draw from a normal distribution truncated below at zero."""
        return max(0.0, self._rng.gauss(mean, stddev))

    def randint(self, low: int, high: int) -> int:
        """Draw an integer uniformly from ``[low, high]`` inclusive."""
        return self._rng.randint(low, high)

    def random(self) -> float:
        """Draw a float uniformly from ``[0, 1)``."""
        return self._rng.random()

    def chance(self, probability: float) -> bool:
        """Return ``True`` with the given probability."""
        return self._rng.random() < probability

    def choice(self, items: Sequence[T]) -> T:
        """Pick one item uniformly at random."""
        return self._rng.choice(items)

    def weighted_choice(self, items: Sequence[T], weights: Sequence[float]) -> T:
        """Pick one item with the given relative weights."""
        return self._rng.choices(list(items), weights=list(weights), k=1)[0]

    def shuffle(self, items: list) -> None:
        """Shuffle ``items`` in place."""
        self._rng.shuffle(items)

    def sample(self, items: Sequence[T], count: int) -> list:
        """Sample ``count`` distinct items."""
        return self._rng.sample(list(items), count)

    def zipf_index(self, size: int, skew: float) -> int:
        """Draw an index in ``[0, size)`` following a Zipf-like distribution.

        ``skew == 0`` degenerates to a uniform choice.  Used by the workload
        generator to produce hot conflict classes.  A negative or NaN skew is
        rejected: NaN weights would send every draw to the last index.
        """
        if size <= 0:
            raise ValueError("size must be positive")
        if not skew >= 0.0:
            raise ValueError(f"skew must be >= 0, not {skew!r}")
        if skew == 0.0:
            return self._rng.randrange(size)
        weights = [1.0 / ((rank + 1) ** skew) for rank in range(size)]
        total = sum(weights)
        target = self._rng.random() * total
        cumulative = 0.0
        for index, weight in enumerate(weights):
            cumulative += weight
            if target <= cumulative:
                return index
        return size - 1


class RandomSource:
    """A factory of named, reproducible :class:`RandomStream` objects."""

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self._streams: Dict[str, RandomStream] = {}

    def stream(self, name: str) -> RandomStream:
        """Return the stream for ``name``, creating it on first use."""
        if name not in self._streams:
            self._streams[name] = RandomStream(self.seed, name)
        return self._streams[name]

    def fork(self, salt: str) -> "RandomSource":
        """Return a new source whose seed is derived from this one and ``salt``.

        Used when an experiment runs several independent repetitions.  The
        derivation is a content hash, not the builtin ``hash`` — string
        hashing is randomised per process (``PYTHONHASHSEED``), so a builtin
        hash would give every *invocation* different forked seeds and
        silently break cross-run reproducibility.
        """
        digest = hashlib.sha256(f"{self.seed}/{salt}".encode("utf-8")).digest()
        derived = int.from_bytes(digest[:4], "big") & 0x7FFFFFFF
        return RandomSource(derived)
