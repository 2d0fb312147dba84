"""Deterministic pseudo-random streams shared by data generation and training.

The generator family is fixed on purpose: splitmix64 for seeding and for
counter-style key streams, xoshiro256** for sequential draws, and Box-Muller
for normals. All state updates are plain 64-bit integer arithmetic, so any
implementation that follows the same recipe reproduces identical datasets
and shuffles bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_INV_2_53 = 2.0 ** -53


def check_seed(seed: int, name: str) -> None:
    """Reject a seed outside [0, 2**64); masking it to 64 bits would replay another seed."""
    if not (0 <= seed <= _MASK64):
        raise ValueError(f"{name} must lie in [0, 2**64), got {seed}")


def _mix64(z: int) -> int:
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def splitmix64_at(seed: int, index: int) -> int:
    """Output number `index` (0-based) of the splitmix64 stream seeded with `seed`.

    The closed counter form mix(seed + (index+1)*golden) needs no state, so it
    both seeds xoshiro256** and derives decorrelated child seeds.
    """
    check_seed(seed, "seed")
    if index < 0:
        raise ValueError("index must be nonnegative")
    return _mix64((seed + (index + 1) * _GOLDEN) & _MASK64)


def _rotl(x: int, k: int) -> int:
    return ((x << k) | (x >> (64 - k))) & _MASK64


class Xoshiro256StarStar:
    """xoshiro256** with its state filled from four successive splitmix64 outputs."""

    def __init__(self, seed: int):
        self._s = [splitmix64_at(seed, i) for i in range(4)]
        self._spare_normal: float | None = None

    def next_u64(self) -> int:
        s0, s1, s2, s3 = self._s
        result = (_rotl((s1 * 5) & _MASK64, 7) * 9) & _MASK64
        t = (s1 << 17) & _MASK64
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        s3 = _rotl(s3, 45)
        self._s = [s0, s1, s2, s3]
        return result

    def uniform(self) -> float:
        """Uniform double in [0, 1), from the top 53 bits of one draw."""
        return (self.next_u64() >> 11) * _INV_2_53

    def normal(self) -> float:
        """Standard normal via Box-Muller; the sine mate is cached for the next call."""
        if self._spare_normal is not None:
            z = self._spare_normal
            self._spare_normal = None
            return z
        # u1 is shifted into (0, 1] so the log stays finite.
        u1 = ((self.next_u64() >> 11) + 1) * _INV_2_53
        u2 = (self.next_u64() >> 11) * _INV_2_53
        radius = math.sqrt(-2.0 * math.log(u1))
        theta = 2.0 * math.pi * u2
        self._spare_normal = radius * math.sin(theta)
        return radius * math.cos(theta)

    def randbelow(self, n: int) -> int:
        """Integer in [0, n) as next_u64() % n; the modulo bias is < n / 2**64."""
        if n <= 0:
            raise ValueError("n must be positive")
        return self.next_u64() % n


def permutation_keys(seed: int, n: int) -> np.ndarray:
    """splitmix64_at(seed, i) for i in range(n) as a uint64 array, computed in one shot."""
    check_seed(seed, "seed")
    idx = np.arange(1, n + 1, dtype=np.uint64)
    z = np.uint64(seed) + idx * np.uint64(_GOLDEN)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def permutation(seed: int, n: int) -> np.ndarray:
    """Deterministic permutation of range(n): argsort of the splitmix64 key stream.

    The keys never tie: seed + i*golden is distinct for every i < 2**64 (golden
    is odd) and the mixer is a bijection. Any correct sort therefore yields the
    same order, so the unstable default sort is used for speed.
    """
    return np.argsort(permutation_keys(seed, n))
