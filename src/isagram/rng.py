"""Self-contained 64-bit PRNG (splitmix64) used for every seeded decision.

Splits, synthetic corpus generation, and classifier shuffles all draw from
this generator rather than numpy's random module so that results are
bit-reproducible across numpy versions and platforms.  SplitMix64 is
counter-based: draw k from state s is ``scramble(s + k * golden)``, so
``shuffle`` computes all its draws at once in numpy ``uint64`` arithmetic,
which wraps modulo 2**64 as the masked scalar code does, and keeps only the
swaps in Python.
"""

from __future__ import annotations

from bisect import bisect_right

import numpy as np

_MASK = 0xFFFFFFFFFFFFFFFF
_GOLDEN = 0x9E3779B97F4A7C15


def _scramble(z):
    """SplitMix64's output mix, of a Python int or of a uint64 array (elementwise)."""
    z &= _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def derive_seed(seed: int, *keys: int) -> int:
    """Mix integer keys (repeat index, class index, ...) into a base seed."""
    h = seed & _MASK
    for k in keys:
        h = _scramble(h ^ ((k * _GOLDEN) & _MASK))
    return h


class SplitMix64:
    """Tiny deterministic RNG; adequate for shuffles and sampling."""

    def __init__(self, seed: int):
        self._state = seed & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK
        return _scramble(self._state)

    def uniform(self) -> float:
        """Float in [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * (2.0 ** -53)

    def randbelow(self, n: int) -> int:
        # modulo bias is irrelevant here: n is tiny relative to 2**64
        return self.next_u64() % n

    def randbyte(self) -> int:
        return self.next_u64() >> 56

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates: swap i with ``randbelow(i + 1)`` for i = n-1 down to 1."""
        n = len(items)
        k = np.arange(1, max(n, 1), dtype=np.uint64)  # draw k swaps i = n - k
        js = _scramble(self._state + k * _GOLDEN) % (n + 1 - k)
        self._state = (self._state + k.size * _GOLDEN) & _MASK
        for i, j in zip(range(n - 1, 0, -1), js.tolist()):
            items[i], items[j] = items[j], items[i]

    def choice_weighted(self, cumulative: list[float]) -> int:
        """Index drawn from a distribution given as cumulative probabilities."""
        return min(bisect_right(cumulative, self.uniform()), len(cumulative) - 1)
