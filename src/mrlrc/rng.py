"""Seeded, cross-language-reproducible PRNG for sampling and simulation.

All randomness in this package flows through xoshiro256** seeded from a
single 64-bit value via splitmix64.  Both algorithms are fully specified
public designs, so a report that records (algorithm, seed) can be
reproduced bit-for-bit by any implementation in any language.  A seed
outside [0, 2^64) is refused with ValueError rather than reduced mod
2^64, so two different recorded seeds never name one stream.  Integer
draws use rejection sampling, never floating point.
"""

from __future__ import annotations

MASK64 = (1 << 64) - 1

ALGORITHM = "xoshiro256** (seeded via splitmix64)"


def _splitmix64_stream(seed: int):
    state = seed & MASK64
    while True:
        state = (state + 0x9E3779B97F4A7C15) & MASK64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        yield z ^ (z >> 31)


def _rotl(x: int, k: int) -> int:
    return ((x << k) | (x >> (64 - k))) & MASK64


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
        s0, s1, s2, s3 = self._s
        result = (_rotl((s1 * 5) & MASK64, 7) * 9) & MASK64
        t = (s1 << 17) & MASK64
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        s3 = _rotl(s3, 45)
        self._s = [s0, s1, s2, s3]
        return result

    def randrange(self, n: int) -> int:
        """Uniform integer in [0, n) by rejection sampling."""
        if n <= 0:
            raise ValueError("randrange needs n >= 1")
        limit = MASK64 + 1 - (MASK64 + 1) % n
        while True:
            x = self.next_u64()
            if x < limit:
                return x % n

    def choice(self, seq):
        return seq[self.randrange(len(seq))]

    def sample(self, seq, k: int) -> list:
        """k distinct items via a partial Fisher-Yates shuffle."""
        pool = list(seq)
        if k > len(pool):
            raise ValueError("sample size exceeds population")
        for i in range(k):
            j = i + self.randrange(len(pool) - i)
            pool[i], pool[j] = pool[j], pool[i]
        return pool[:k]
