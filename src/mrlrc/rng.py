"""Seeded, cross-language-reproducible PRNG for sampling and simulation.

All randomness in this package flows through xoshiro256** seeded from a
single 64-bit value via splitmix64.  Both algorithms are fully specified
public designs, so a report that records (algorithm, seed) can be
reproduced bit-for-bit by any implementation in any language.  A seed
outside [0, 2^64) is refused with ValueError rather than reduced mod
2^64, so two different recorded seeds never name one stream.  Integer
draws use rejection sampling, never floating point, over ranges of at
most 2^64 values; a larger range is refused with ValueError.
"""

from __future__ import annotations

MASK64 = (1 << 64) - 1
TWO64 = 1 << 64

ALGORITHM = "xoshiro256** (seeded via splitmix64)"


def _splitmix64_stream(seed: int):
    state = seed & MASK64
    while True:
        state = (state + 0x9E3779B97F4A7C15) & MASK64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        yield z ^ (z >> 31)


class Xoshiro256:
    """xoshiro256** with deterministic splitmix64 state initialization."""

    __slots__ = ("seed", "_s")

    def __init__(self, seed: int):
        if not 0 <= seed <= MASK64:
            raise ValueError(f"seed must be in [0, 2^64), got {seed}")
        self.seed = seed
        sm = _splitmix64_stream(self.seed)
        self._s = [next(sm) for _ in range(4)]
        if not any(self._s):  # all-zero state is invalid for xoshiro
            self._s[0] = 1

    def next_u64(self) -> int:
        """One xoshiro256** step: the output is rotl(s1 * 5, 7) * 9 and the
        state list moves on in place, both rotations written out.  A
        rotation or product is reduced to 64 bits once, at its end, which
        gives the same value mod 2^64."""
        s = self._s
        s0, s1, s2, s3 = s
        s2 ^= s0
        s3 ^= s1
        s[0] = s0 ^ s3
        s[1] = s1 ^ s2
        s[2] = s2 ^ ((s1 << 17) & MASK64)
        s[3] = ((s3 << 45) | (s3 >> 19)) & MASK64
        x = (s1 * 5) & MASK64
        return ((x << 7) | (x >> 57)) * 9 & MASK64

    def randrange(self, n: int) -> int:
        """Uniform integer in [0, n) by rejection sampling, for
        1 <= n <= 2^64: an output at or above 2^64 - (2^64 mod n), the
        largest multiple of n up to 2^64, is drawn again."""
        if not 1 <= n <= TWO64:
            raise ValueError(f"randrange needs 1 <= n <= 2^64, got {n}")
        limit = TWO64 - TWO64 % n
        step = self.next_u64
        x = step()
        while x >= limit:
            x = step()
        return x % n

    def choice(self, seq):
        return seq[self.randrange(len(seq))]

    def sample(self, seq, k: int) -> list:
        """k distinct items via a partial Fisher-Yates shuffle."""
        pool = list(seq)
        if k > len(pool):
            raise ValueError("sample size exceeds population")
        randrange = self.randrange
        for i in range(k):
            j = i + randrange(len(pool) - i)
            pool[i], pool[j] = pool[j], pool[i]
        return pool[:k]
