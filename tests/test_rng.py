"""Pinned generator behavior: determinism, ranges, distribution sanity."""

import statistics

from fabboo import Xorshift64Star, generate, permutation, preset
from fabboo.generators import with_overrides


def test_same_seed_same_stream():
    a = Xorshift64Star(123)
    b = Xorshift64Star(123)
    assert [a.next_u64() for _ in range(50)] == [b.next_u64() for _ in range(50)]


def test_zero_seed_is_valid():
    rng = Xorshift64Star(0)
    assert rng.next_u64() != rng.next_u64()


def test_uniform_range_and_mean():
    rng = Xorshift64Star(5)
    xs = [rng.uniform() for _ in range(20_000)]
    assert all(0.0 <= x < 1.0 for x in xs)
    assert abs(statistics.fmean(xs) - 0.5) < 0.01


def test_below_bounds():
    rng = Xorshift64Star(9)
    assert all(0 <= rng.below(7) < 7 for _ in range(1000))


def test_normal_moments():
    rng = Xorshift64Star(31)
    xs = [rng.normal(2.0, 3.0) for _ in range(40_000)]
    assert abs(statistics.fmean(xs) - 2.0) < 0.06
    assert abs(statistics.stdev(xs) - 3.0) < 0.06


def test_permutation_contains_all_indices():
    perm = permutation(100, 4)
    assert sorted(perm) == list(range(100))


# Known-answer vectors, recorded from the documented algorithm: they pin
# the bits apart from the golden trace digests.
KNOWN_U64 = {
    0: [0x0d83b3e29a21487a, 0x54c44c79f1fe9d67, 0xa845f342007a0e78,
        0x7d6e0b878a794779, 0x90d8d6e5a10dd485, 0x9de6cf0f6d5a586e,
        0xd566404840a2ab9d, 0x674bfece098c4828],
    1: [0x806132229cb46b5d, 0x060f1487c439fe10, 0xbfff144d8a4f7aec,
        0x6d2eea448b0a2533, 0x8b58c7f9a2af4ba2, 0x38d265b6aa6cc4ea,
        0x426b6c0c24fe1c26, 0xb4aeb1ab8f88a8fb],
    123: [0xf1cd433959deef0e, 0xe60be99d4fd694e3, 0x1f515af62fbbc6cb,
          0x6e880a41cd2091e8, 0x8a76439be8295039, 0xbf0c8de4a359dd11,
          0x786c6ddd49452c85, 0x65d79856f1a26e43],
}


def test_known_next_u64():
    for seed, expected in KNOWN_U64.items():
        rng = Xorshift64Star(seed)
        assert [rng.next_u64() for _ in range(8)] == expected


def test_seed_scrambled_to_zero_is_rescrambled():
    # (seed + 0x9E3779B97F4A7C15) mod 2^64 == 0 restarts from seed 0's state
    rng = Xorshift64Star(-0x9E3779B97F4A7C15)
    assert [rng.next_u64() for _ in range(8)] == KNOWN_U64[0]


def test_known_uniform_normal_below_permutation():
    rng = Xorshift64Star(7)
    assert [rng.uniform() for _ in range(5)] == [float.fromhex(h) for h in (
        "0x1.b5af789f7836ap-1", "0x1.f16f83a60f1f6p-1", "0x1.a0d940ea2e81cp-3",
        "0x1.af4e1c2aa542cp-2", "0x1.b2427f84280b5p-1")]
    rng = Xorshift64Star(7)
    # an odd count: the fifth value starts a pair whose second is cached
    assert [rng.normal(2.0, 3.0) for _ in range(5)] == [float.fromhex(h) for h in (
        "0x1.f33672fcf17d2p+2", "0x1.e77e797f1b0f0p-1", "0x1.c0bf2ca9b2d10p-3",
        "0x1.7b18983ac0f44p+1", "0x1.c899791fdd89ap+2")]
    rng = Xorshift64Star(7)
    assert [rng.below(7) for _ in range(8)] == [4, 6, 5, 4, 4, 2, 3, 4]
    assert permutation(10, 4) == [3, 8, 5, 6, 0, 2, 9, 7, 4, 1]


def test_known_paper_synth_prefix():
    expected = [
        (("-0x1.1ecd3affa9918p+1", "0x1.c48bcc83d5b9bp-2", "0x1.43850332a2928p-6",
          "0x1.1598e96d2a663p+0", "-0x1.4009a302491c8p-2", "-0x1.9739022055a6ap-1",
          "A"), True, -1, 1),
        (("-0x1.d55669aad26c8p+0", "-0x1.a52c667d921dep+0", "0x1.61df8408a5c7ep-1",
          "0x1.e09f5bcd84cecp+0", "-0x1.1391f50798ec8p-6", "0x1.d605b2934c0aep-1",
          "B"), False, -1, 2),
        (("0x1.8c365e660fcc0p-6", "0x1.0ad3cec1a2f98p+0", "-0x1.e43a1eedda186p-3",
          "0x1.a6c20def38adcp-2", "0x1.1675249527d00p-3", "0x1.291992aefc798p+0",
          "B"), False, 1, 3),
    ]
    stream = generate(with_overrides(preset("paper_synth"), length=3))
    got = [(tuple(f.hex() if isinstance(f, float) else f for f in inst.features),
            inst.group, inst.label, inst.seq) for inst in stream]
    assert got == expected
