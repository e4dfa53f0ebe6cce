"""Deterministic random numbers, pinned to xorshift64* so that any
implementation of it in any language reproduces the exact same
permutations and streams for a given seed. `outputs` is the one definition
of the generator and `gaussians` of its normal draws; all draws here and
in the stream generators go through them. Seeding: state = (seed +
0x9E3779B97F4A7C15) mod 2^64, re-scrambled once if zero. Uniform doubles
use the top 53 bits of an output."""

from __future__ import annotations

from math import cos, log, sin, sqrt, tau

_MASK64 = (1 << 64) - 1
_MULT = 2685821657736338717  # xorshift64* output multiplier (Vigna)
_SEED_SCRAMBLE = 0x9E3779B97F4A7C15  # golden-ratio increment, avoids state 0


def outputs(seed: int):
    """The endless xorshift64* outputs of `seed`: state update x^=x>>12;
    x^=x<<25; x^=x>>27, output = state * 2685821657736338717 mod 2^64."""
    mask, mult = _MASK64, _MULT
    x = (int(seed) + _SEED_SCRAMBLE) & mask or _SEED_SCRAMBLE
    while True:
        x ^= x >> 12
        x ^= x << 25 & mask
        x ^= x >> 27
        yield x * mult & mask


def gaussians(outs):
    """Endless standard normals by Box-Muller over the outputs `outs`: a
    pair's first value draws u1 (as 1 - u, so log() is finite) and u2, and
    the next call serves its second."""
    for a, b in zip(outs, outs):
        u1 = 1.0 - (a >> 11) * 2.0 ** -53
        u2 = (b >> 11) * 2.0 ** -53
        r = sqrt(-2.0 * log(u1))
        yield r * cos(tau * u2)   # tau == 2.0 * pi exactly
        yield r * sin(tau * u2)


class Xorshift64Star:
    """The draws of `outputs(seed)`. Bounded integers use plain modulo
    reduction (reproducible; its bias is < 2^-50 for the ranges used)."""

    __slots__ = ("next_u64", "_normal")

    def __init__(self, seed: int):
        outs = outputs(seed)
        self.next_u64 = outs.__next__
        self._normal = gaussians(outs).__next__

    def uniform(self) -> float:
        """Uniform double in [0, 1)."""
        return (self.next_u64() >> 11) * 2.0 ** -53

    def below(self, n: int) -> int:
        """Integer in [0, n) by modulo reduction."""
        return self.next_u64() % n

    def normal(self, mean: float = 0.0, std: float = 1.0) -> float:
        """Gaussian draw from `gaussians`."""
        return mean + std * self._normal()


def permutation(n: int, seed: int) -> list[int]:
    """Fisher-Yates permutation of range(n), driven by `outputs(seed)`."""
    return permute(list(range(n)), seed)


def permute(items, seed: int):
    """Shuffle the mutable sequence `items` in place as `permutation`
    shuffles range(len(items)); returns it."""
    for i, out in zip(range(len(items) - 1, 0, -1), outputs(seed)):
        j = out % (i + 1)
        items[i], items[j] = items[j], items[i]
    return items
