"""Deterministic PRNG stack: splitmix64 seeding, xoshiro256** streams, doubles.

The reference implementations in this file are independent transcriptions of
the published splitmix64 / xoshiro256** reference code, kept separate from the
package so the tests cannot inherit a transcription mistake from it.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dicelab.rng import (
    Xoshiro256StarStar,
    permutation,
    permutation_keys,
    splitmix64_at,
)

_MASK = (1 << 64) - 1


def _ref_splitmix_step(state: int) -> tuple[int, int]:
    state = (state + 0x9E3779B97F4A7C15) & _MASK
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return state, z ^ (z >> 31)


def _ref_rotl(x: int, k: int) -> int:
    return ((x << k) | (x >> (64 - k))) & _MASK


class _RefXoshiro:
    def __init__(self, seed: int):
        self.s = []
        state = seed
        for _ in range(4):
            state, out = _ref_splitmix_step(state)
            self.s.append(out)

    def next_u64(self) -> int:
        s = self.s
        result = (_ref_rotl((s[1] * 5) & _MASK, 7) * 9) & _MASK
        t = (s[1] << 17) & _MASK
        s[2] ^= s[0]
        s[3] ^= s[1]
        s[1] ^= s[2]
        s[0] ^= s[3]
        s[2] ^= t
        s[3] = _ref_rotl(s[3], 45)
        return result


# --- splitmix64 -----------------------------------------------------------


def test_splitmix_seed0_matches_published_vector():
    assert [splitmix64_at(0, i) for i in range(4)] == [
        0xE220A8397B1DCDAF,
        0x6E789E6AA1B965F4,
        0x06C45D188009454F,
        0xF88BB8A8724C81EC,
    ]


def test_splitmix_seed42_frozen_outputs():
    assert [splitmix64_at(42, i) for i in range(4)] == [
        0xBDD732262FEB6E95,
        0x28EFE333B266F103,
        0x47526757130F9F52,
        0x581CE1FF0E4AE394,
    ]


@given(seed=st.integers(min_value=0, max_value=_MASK))
@settings(max_examples=50, deadline=None)
def test_splitmix_matches_reference_transcription(seed):
    state = seed
    for i in range(8):
        state, expected = _ref_splitmix_step(state)
        assert splitmix64_at(seed, i) == expected


@pytest.mark.parametrize("seed", [0, 1, 42, 123, 2**63])
def test_splitmix_at_equals_sequential_stream(seed):
    state = seed
    sequential = []
    for _ in range(10):
        state, out = _ref_splitmix_step(state)
        sequential.append(out)
    assert [splitmix64_at(seed, i) for i in range(10)] == sequential


def test_splitmix_rejects_negative_seed():
    for seed in (-1, -3, 2**64):
        with pytest.raises(ValueError, match=rf"seed must lie in \[0, 2\*\*64\), got {seed}$"):
            splitmix64_at(seed, 0)
    assert splitmix64_at(2**64 - 1, 0) == _ref_splitmix_step(2**64 - 1)[1]


@pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 3])
def test_every_generator_rejects_a_seed_outside_64_bits(seed):
    # Masking would alias seed 2**64 + 3 to seed 3 and replay its stream.
    with pytest.raises(ValueError, match=str(seed)):
        Xoshiro256StarStar(seed)
    with pytest.raises(ValueError, match=str(seed)):
        permutation(seed, 5)


# --- xoshiro256** ---------------------------------------------------------


def test_xoshiro_seed7_frozen_u64():
    gen = Xoshiro256StarStar(7)
    assert [gen.next_u64() for _ in range(5)] == [
        0xB358FAF74EF9765A,
        0x475C3D964F482CD2,
        0xD6F1D349952C7996,
        0xFB2938731E807240,
        0xFDA904EC7E540318,
    ]


@given(seed=st.integers(min_value=0, max_value=_MASK))
@settings(max_examples=50, deadline=None)
def test_xoshiro_matches_reference_transcription(seed):
    gen = Xoshiro256StarStar(seed)
    ref = _RefXoshiro(seed)
    for _ in range(12):
        assert gen.next_u64() == ref.next_u64()


def test_uniform_uses_top_53_bits_of_one_draw():
    bits = Xoshiro256StarStar(99)
    doubles = Xoshiro256StarStar(99)
    for _ in range(200):
        u64 = bits.next_u64()
        u = doubles.uniform()
        assert u == (u64 >> 11) * 2.0**-53
        assert 0.0 <= u < 1.0


def test_uniform_seed7_frozen_values():
    gen = Xoshiro256StarStar(7)
    got = [gen.uniform() for _ in range(3)]
    assert got == [
        0.7005764821796896,
        0.2787512294737843,
        0.8396274618764198,
    ]


def test_normal_is_box_muller_over_consecutive_draws():
    bits = Xoshiro256StarStar(7)
    normals = Xoshiro256StarStar(7)
    for _ in range(3):  # three pairs, exercising the cached sine mate
        a = bits.next_u64()
        b = bits.next_u64()
        u1 = ((a >> 11) + 1) * 2.0**-53
        u2 = (b >> 11) * 2.0**-53
        radius = math.sqrt(-2.0 * math.log(u1))
        theta = 2.0 * math.pi * u2
        assert normals.normal() == radius * math.cos(theta)
        assert normals.normal() == radius * math.sin(theta)


def test_normal_seed7_frozen_pair():
    gen = Xoshiro256StarStar(7)
    assert gen.normal() == -0.15157274547711355
    assert gen.normal() == 0.8298970879692569


def test_normal_sample_moments_are_plausible():
    gen = Xoshiro256StarStar(2024)
    draws = np.array([gen.normal() for _ in range(4000)])
    assert abs(draws.mean()) < 0.05
    assert abs(draws.std() - 1.0) < 0.05


def test_randbelow_range_and_errors():
    gen = Xoshiro256StarStar(3)
    draws = [gen.randbelow(7) for _ in range(300)]
    assert all(0 <= d < 7 for d in draws)
    assert set(draws) == set(range(7))
    assert all(Xoshiro256StarStar(5).randbelow(1) == 0 for _ in range(3))
    with pytest.raises(ValueError):
        gen.randbelow(0)
    with pytest.raises(ValueError):
        gen.randbelow(-2)


# --- permutations ---------------------------------------------------------


def test_permutation_keys_equal_counter_mode_splitmix():
    keys = permutation_keys(11, 50)
    assert keys.dtype == np.uint64
    assert [int(k) for k in keys] == [splitmix64_at(11, i) for i in range(50)]


def test_permutation_is_stable_argsort_of_keys():
    n = 64
    perm = permutation(9, n)
    assert np.array_equal(np.sort(perm), np.arange(n))
    expected = np.argsort(permutation_keys(9, n), kind="stable")
    assert np.array_equal(perm, expected)


@given(seed=st.integers(0, 2**64 - 1), n=st.integers(1, 3000))
@settings(max_examples=60, deadline=None)
def test_permutation_keys_never_tie_so_any_sort_gives_the_stable_order(seed, n):
    keys = permutation_keys(seed, n)
    assert np.unique(keys).size == n
    assert np.array_equal(permutation(seed, n), np.argsort(keys, kind="stable"))


def test_permutation_deterministic_and_seed_sensitive():
    assert np.array_equal(permutation(1, 100), permutation(1, 100))
    assert not np.array_equal(permutation(1, 100), permutation(2, 100))
