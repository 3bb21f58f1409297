"""Determinism and range contracts of the seeded PRNG."""

import pytest

from mrlrc.rng import Xoshiro256


def test_same_seed_same_stream():
    a = Xoshiro256(12345)
    b = Xoshiro256(12345)
    assert [a.next_u64() for _ in range(64)] == [b.next_u64() for _ in range(64)]


def test_different_seeds_differ():
    a = Xoshiro256(1)
    b = Xoshiro256(2)
    assert [a.next_u64() for _ in range(8)] != [b.next_u64() for _ in range(8)]


def test_outputs_are_64_bit():
    rng = Xoshiro256(7)
    for _ in range(200):
        assert 0 <= rng.next_u64() < 1 << 64


def test_randrange_bounds_and_coverage():
    rng = Xoshiro256(3)
    seen = set()
    for _ in range(500):
        v = rng.randrange(7)
        assert 0 <= v < 7
        seen.add(v)
    assert seen == set(range(7))
    with pytest.raises(ValueError):
        rng.randrange(0)


def test_sample_distinct():
    rng = Xoshiro256(11)
    for _ in range(100):
        got = rng.sample(range(10), 4)
        assert len(set(got)) == 4
        assert all(0 <= v < 10 for v in got)
    with pytest.raises(ValueError):
        rng.sample(range(3), 4)


def test_seeds_outside_64_bits_are_refused():
    # a seed is recorded in reports as given, so one reduced mod 2^64
    # would record a number that differs from the stream's
    top = Xoshiro256((1 << 64) - 1)
    assert top.seed == (1 << 64) - 1 and any(top.next_u64() for _ in range(4))
    for seed in (-1, 1 << 64, -(1 << 64) - 5, (1 << 64) + 7):
        with pytest.raises(ValueError, match=r"seed must be in \[0, 2\^64\)"):
            Xoshiro256(seed)


def test_zero_seed_is_valid():
    rng = Xoshiro256(0)
    vals = [rng.next_u64() for _ in range(16)]
    assert any(vals)


def test_splitmix64_reference_vector():
    # published outputs for seed 0; anchors cross-language reproducibility
    from mrlrc.rng import _splitmix64_stream

    sm = _splitmix64_stream(0)
    assert [next(sm) for _ in range(3)] == [
        0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]


def test_xoshiro_permutation_reference():
    # with state (1, 2, 3, 4): rotl(2*5, 7)*9 = 11520, then s1 becomes 0
    rng = Xoshiro256(0)
    rng._s = [1, 2, 3, 4]
    assert rng.next_u64() == 11520
    assert rng.next_u64() == 0


# known answers, recorded from the generator as first written (two _rotl
# calls and a fresh state list per step), so that any rewrite of the step
# or of the rejection loop has to reproduce the same stream
FIRST_EIGHT = {
    0: [0x99EC5F36CB75F2B4, 0xBF6E1F784956452A, 0x1A5F849D4933E6E0, 0x6AA594F1262D2D2C,
        0xBBA5AD4A1F842E59, 0xFFEF8375D9EBCACA, 0x6C160DEED2F54C98, 0x8920AD648FC30A3F],
    1: [0xB3F2AF6D0FC710C5, 0x853B559647364CEA, 0x92F89756082A4514, 0x642E1C7BC266A3A7,
        0xB27A48E29A233673, 0x24C123126FFDA722, 0x123004EF8DF510E6, 0x61954DCC47B1E89D],
    (1 << 64) - 1: [
        0x8F5520D52A7EAD08, 0xC476A018CAA1802D, 0x81DE31C0D260469E, 0xBF658D7E065F3C2F,
        0x913593FDA1BCA32A, 0xBB535E93941BA525, 0x5ECDA415C3C6DFDE, 0xC487398FC9DE9AE2],
}


@pytest.mark.parametrize("seed", sorted(FIRST_EIGHT))
def test_next_u64_known_answers(seed):
    rng = Xoshiro256(seed)
    assert [rng.next_u64() for _ in range(8)] == FIRST_EIGHT[seed]


# eight draws at seed 5, then the next raw output, which shows how many
# outputs the draws consumed: one each, except at 2^63 + 1, where about
# half of all outputs fall at or above the rejection limit
RANDRANGE = {
    1: ([0] * 8, 0x5CCF3D5B1CE60FF9),
    2: ([1, 0, 0, 1, 1, 1, 1, 0], 0x5CCF3D5B1CE60FF9),
    7: ([0, 0, 5, 0, 5, 6, 1, 5], 0x5CCF3D5B1CE60FF9),
    (1 << 32) + 1: ([2155838961, 3003388803, 1249053154, 205659557,
                     449938776, 2140215740, 157662757, 2497906505], 0x5CCF3D5B1CE60FF9),
    (1 << 63) + 1: ([5320248114040590185, 6687631433204633593, 7027157868610831474,
                     4622560863889807043, 6528556697125506022, 8869274928096002144,
                     6168390302123206759, 8199482292381025070], 0xEA13174673E62C5),
    1 << 64: ([5320248114040590185, 11106458710588138716, 11982022302389484462,
               15154927347600407493, 9531689329179025993, 14471912560152521095,
               9295126279674440255, 14917173486637513096], 0x5CCF3D5B1CE60FF9),
}


@pytest.mark.parametrize("n", sorted(RANDRANGE))
def test_randrange_known_answers(n):
    rng = Xoshiro256(5)
    draws, after = RANDRANGE[n]
    assert [rng.randrange(n) for _ in range(8)] == draws
    assert rng.next_u64() == after


def test_randrange_refuses_more_than_two_to_the_64():
    # above 2^64 the rejection limit would be 0 and the loop would never end
    rng = Xoshiro256(5)
    for n in ((1 << 64) + 1, 1 << 65):
        with pytest.raises(ValueError, match=r"randrange needs 1 <= n <= 2\^64"):
            rng.randrange(n)
    # a refused call draws nothing
    assert rng.next_u64() == Xoshiro256(5).next_u64()


def test_sample_and_choice_known_answers():
    rng = Xoshiro256(9)
    assert rng.sample(range(20), 6) == [0, 15, 19, 18, 9, 8]
    assert rng.sample("abcdefg", 7) == ["f", "c", "a", "e", "b", "g", "d"]
    assert rng.sample([], 0) == []
    rng = Xoshiro256(9)
    assert [rng.choice("abcdefghij") for _ in range(10)] == list("afhghidhdh")
