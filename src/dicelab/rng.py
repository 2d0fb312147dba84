"""Deterministic pseudo-random streams shared by data generation and training.

The generator family is fixed on purpose: splitmix64 for seeding and for
counter-style key streams, xoshiro256** for sequential draws, and Box-Muller
for normals. All state updates are plain 64-bit integer arithmetic, so any
implementation that follows the same recipe reproduces identical datasets
and shuffles bit for bit.

Bulk draws (`next_u64_array`, `normals`) return exactly the sequential
stream. xoshiro256** is linear over GF(2), so the state _LANE_STEPS draws
ahead is a fixed 256x256 bit matrix times the current state. Lanes started at
successive jumps step together in numpy and, read one after another, are the
sequential stream.
"""

from __future__ import annotations

import functools
import math

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_INV_2_53 = 2.0 ** -53
_LANE_STEPS = 256  # draws per lane of next_u64_array
_LANES_FROM = 16  # fewer lanes than this draw sequentially: stepping lanes has a fixed numpy cost
_BLOCK_PAIRS = 2048  # Box-Muller pairs per libm block


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


def _step_lanes(s: np.ndarray, out: np.ndarray) -> None:
    """Step lane k (column k of the (4, K) uint64 state s) once per entry of row k of out, writing each output."""
    s0, s1, s2, s3 = s
    t = np.empty_like(s0)
    u = np.empty_like(s0)
    for step in range(out.shape[1]):
        np.multiply(s1, np.uint64(5), out=t)
        np.left_shift(t, np.uint64(7), out=u)
        np.right_shift(t, np.uint64(57), out=t)
        np.bitwise_or(t, u, out=t)
        np.multiply(t, np.uint64(9), out=out[:, step])
        np.left_shift(s1, np.uint64(17), out=t)
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        np.left_shift(s3, np.uint64(45), out=t)
        s3 >>= np.uint64(19)
        s3 |= t


@functools.cache
def _jump_tables() -> list[tuple[list[int], list[int]]]:
    """Nibble tables of the GF(2) matrix that advances a state by _LANE_STEPS draws.

    A state is the 256-bit int s0 | s1 << 64 | s2 << 128 | s3 << 192. Column b
    of the matrix is the state _LANE_STEPS draws after the basis state e_b.
    For byte p of a state, the pair of tables maps its low and its high
    nibble v to the XOR of the columns 8p + i (low) or 8p + 4 + i (high) over
    the set bits i of v, so a jump is 64 lookups into 1,024 ints.
    """
    bit = np.arange(256)
    s = np.zeros((4, 256), dtype=np.uint64)
    s[bit // 64, bit] = np.uint64(1) << (bit % 64).astype(np.uint64)
    _step_lanes(s, np.empty((256, _LANE_STEPS), dtype=np.uint64, order="F"))
    columns = [_pack(words) for words in s.T.tolist()]
    tables = []
    for first in range(0, 256, 4):
        table = [0] * 16
        for v in range(1, 16):
            low = v & -v
            table[v] = table[v ^ low] ^ columns[first + low.bit_length() - 1]
        tables.append(table)
    return list(zip(tables[0::2], tables[1::2]))


def _pack(words) -> int:
    """The 256-bit int of a state's four 64-bit words."""
    return words[0] | words[1] << 64 | words[2] << 128 | words[3] << 192


def _jump(state: int) -> int:
    """The 256-bit state _LANE_STEPS draws after `state`."""
    out = 0
    for (low, high), byte in zip(_jump_tables(), state.to_bytes(32, "little")):
        out ^= low[byte & 15] ^ high[byte >> 4]
    return out


def box_muller(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Normals (cos, sin, cos, sin, ...) from the u64 pairs (a[i], b[i]).

    u1, u2, sqrt and the products are exact or correctly rounded, so numpy
    gives the scalar recipe's bits; log, cos and sin stay libm, mapped over
    blocks of at most _BLOCK_PAIRS pairs.
    """
    out = np.empty((a.shape[0], 2), dtype=np.float64)
    for start in range(0, a.shape[0], _BLOCK_PAIRS):
        block = slice(start, start + _BLOCK_PAIRS)
        # u1 is shifted into (0, 1] so the log stays finite.
        u1 = ((a[block] >> np.uint64(11)) + np.uint64(1)).astype(np.float64) * _INV_2_53
        u2 = (b[block] >> np.uint64(11)).astype(np.float64) * _INV_2_53
        radius = np.sqrt(-2.0 * np.fromiter(map(math.log, u1.tolist()), np.float64, u1.shape[0]))
        theta = (2.0 * math.pi * u2).tolist()
        out[block, 0] = radius * np.fromiter(map(math.cos, theta), np.float64, len(theta))
        out[block, 1] = radius * np.fromiter(map(math.sin, theta), np.float64, len(theta))
    return out.reshape(-1)


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

    def next_u64_array(self, n: int) -> np.ndarray:
        """The next n draws of next_u64() as a uint64 array, leaving the same state behind."""
        out = np.empty(n, dtype=np.uint64)
        lanes = n // _LANE_STEPS if n >= _LANES_FROM * _LANE_STEPS else 0
        if lanes:
            starts = [_pack(self._s)]
            for _ in range(lanes - 1):
                starts.append(_jump(starts[-1]))
            state = np.frombuffer(b"".join(x.to_bytes(32, "little") for x in starts), dtype="<u8")
            state = state.reshape(lanes, 4).T.astype(np.uint64, order="C")  # (4, lanes), one row per word
            steps = np.empty((lanes, _LANE_STEPS), dtype=np.uint64, order="F")  # each step's column is contiguous
            _step_lanes(state, steps)
            out[: lanes * _LANE_STEPS].reshape(lanes, _LANE_STEPS)[...] = steps
            self._s = [int(w) for w in state[:, -1]]
        for i in range(lanes * _LANE_STEPS, n):
            out[i] = self.next_u64()
        return out

    def uniform(self) -> float:
        """Uniform double in [0, 1), from the top 53 bits of one draw."""
        return (self.next_u64() >> 11) * _INV_2_53

    def normals(self, n: int) -> np.ndarray:
        """The next n standard normals: Box-Muller over pairs of draws, cosine then sine.

        A pending spare normal comes first; when n leaves a pair's sine unused
        it becomes the spare for the next call.
        """
        spare = [] if self._spare_normal is None else [self._spare_normal]
        draws = self.next_u64_array(2 * ((n - len(spare) + 1) // 2))
        z = box_muller(draws[0::2], draws[1::2])
        if spare:
            z = np.concatenate([spare, z])
        self._spare_normal = float(z[n]) if z.shape[0] > n else None
        return z[:n]

    def normal(self) -> float:
        """One standard normal; see `normals`."""
        return float(self.normals(1)[0])

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
