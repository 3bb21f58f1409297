"""Exact arithmetic in prime fields and two-level towers GF(p) <= GF(q) <= GF(q^m).

Field elements are canonical integers: the polynomial
c_0 + c_1 X + ... + c_{e-1} X^{e-1} over GF(p) is encoded as the base-p
value c_0 + c_1 p + ... + c_{e-1} p^{e-1}.  The same encoding is used in
every file format, so matrices are diffable and round-trip bit-exactly.

Every choice is deterministic, so two runs (or two machines) build
identical fields and identical matrices:

  * modulus: the monic irreducible polynomial of the required degree
    whose coefficient vector, read as a base-p integer, is smallest;
  * primitive element: the smallest element (in integer encoding) of
    multiplicative order p^e - 1;
  * subfield embedding: the base-field generator X goes to the smallest
    root of the base modulus among the q elements {0} u <w> of the
    subfield, w = gamma^((q^m-1)/(q-1)) for the top primitive gamma; one
    search serves every tower, s = 1 (root 0) and m = 1 (root X) included.

In a tower, embed, its inverse and the coordinates over 1, X, ...,
X^(m-1) all read one GF(p)-linear bijection GF(q)^m -> GF(q^m) and its
inverse, two GF(p) matrices computed once per tower.

Fields of order at most 2^16 get exp/log tables, and Zech tables for odd
p, built with the generic mul and add, which is what makes the exhaustive
verification sweeps fast.  The scalar add, which only set-up calls (the
tower's subfield-root search), has one path per characteristic, table
field or not: XOR for p = 2, and digit by digit mod p for odd p.  The
sums of elimination, matrix products and syndromes, and the last two
levels of every prefix-tree walk, run through three vector kernels,
which carry the bulk of the arithmetic:

  * axpy(y, xs, ws) = [x + y w for x, w in zip(xs, ws)], the row update
    of every elimination;
  * dots(xs, cols) = [the sum of x w over zip(xs, ws) for ws in cols],
    every row of a matrix product, every codeword of encode and every
    syndrome; it reads xs once per call, not once per column;
  * child_keys(rows, xs), for a three-row node of a walk and each pick x
    in xs, the keys of the columns after x in the two-row child that
    adding x makes (elim argues the rule), without building the child.

On a table field all three read the exp/log lists themselves instead of
calling mul and add once per entry: axpy and dots add by XOR for p = 2
and through the Zech table for odd p, and child_keys scales each column
once per node and takes each key as a log difference, of XORed values
for p = 2 and of Zech logs for odd p.  On a generic field child_keys is
the elimination itself, elim.node_step and elim.pair_keys per pick.
Larger fields, up to order 2^40, compute on the integer encoding itself
and keep no per-element state:

  * p = 2: the encoding packs one coefficient per bit.  add is XOR, mul a
    carry-less shift/XOR product whose bits at X^e and above are folded
    down through the modulus, inv extended Euclid on the packed ints.
    The fold is GF(2)-linear, so dots XORs the unreduced products and
    folds once per sum;
  * odd p: mul lifts both operands' digits into bit slots and forms every
    coefficient of the product polynomial with one integer product
    (Kronecker substitution); folding the slots at X^e and above into
    the modulus's taps and taking each slot mod p reduces it.  Both steps
    are linear, so dots adds the lifted products as plain integers and
    reduces once per sum, and axpy reduces x + y w once per entry, its
    add included.  One slot width serves every product: a slot holds
    the coefficient of DOT_BLOCK summed products plus one element, at
    most (DOT_BLOCK + 1) e (p - 1)^2, times 1 + the sum of the taps for
    each fold round, so no carry ever crosses a slot; a longer sum
    reduces once per DOT_BLOCK products.  A lift reads k digits at a
    time from a table of lifted chunks, for the largest k with
    p^k <= LIFT_TABLE_LIMIT, a table sized by p alone.  inv runs
    Euclid's long divisions on whole slot-packed ints, reducing mod p
    only at the end.

Irreducibility is Ben-Or's test, gcd(X^(p^i) - X, f) = 1 for i <= e/2, on
coefficient tuples for every p; the least modulus of any field up to
ORDER_LIMIT is found in well under a second.
"""

from __future__ import annotations

import functools
import itertools

from .elim import inverse, node_step, pair_keys

ORDER_LIMIT = 1 << 40
LOG_TABLE_LIMIT = 1 << 16
LIFT_TABLE_LIMIT = 1 << 8  # entries of an odd-p field's table of lifted digit chunks
DOT_BLOCK = 64  # products a generic odd-p sum in dots adds between two reductions


class NotPrime(ValueError):
    """Raised when a composite number is passed as a field characteristic."""


class DegreeOverflow(ValueError):
    """Raised when the requested field order exceeds ORDER_LIMIT."""


class DivisionByZero(ZeroDivisionError):
    """Raised on inversion of the zero element."""


class ZeroNorm(ValueError):
    """Raised when the relative norm of zero is requested."""


class TooManyBlocks(ValueError):
    """Raised when more norm-distinct units are requested than exist (q - 1)."""


# ---------------------------------------------------------------------------
# integer helpers


def is_prime(n: int) -> bool:
    """Primality by trial division; FieldCtx only asks it for p <= 2^40."""
    return n >= 2 and prime_factors(n) == [n]


def prime_factors(n: int) -> list[int]:
    """Distinct prime factors by trial division (n <= 2^40, so sqrt(n) <= 2^20)."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return out


def is_prime_power(n: int) -> tuple[int, int] | None:
    """Return (p, e) with p prime and p^e == n, or None."""
    if n < 2:
        return None
    fs = prime_factors(n)
    if len(fs) != 1:
        return None
    p = fs[0]
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return (p, e) if n == 1 else None


def next_prime_power(n: int) -> int:
    """Smallest prime power >= n."""
    v = max(n, 2)
    while is_prime_power(v) is None:
        v += 1
    return v


# ---------------------------------------------------------------------------
# polynomials over GF(p): tuples of ints in [0, p), low degree first, trimmed


def _trim(c: tuple[int, ...]) -> tuple[int, ...]:
    i = len(c)
    while i > 0 and c[i - 1] == 0:
        i -= 1
    return c[:i]


def _poly_mod(a: tuple[int, ...], mod: tuple[int, ...], p: int) -> tuple[int, ...]:
    # mod is monic
    a = list(a)
    dm = len(mod) - 1
    for i in range(len(a) - 1, dm - 1, -1):
        c = a[i]
        if c:
            a[i] = 0
            for j in range(dm):
                a[i - dm + j] = (a[i - dm + j] - c * mod[j]) % p
    return _trim(tuple(a))


def _monic_polys(p: int, deg: int):
    """All monic polynomials of the given degree, in canonical integer order."""
    for lower in itertools.product(range(p), repeat=deg):
        yield tuple(reversed(lower)) + (1,)


def _poly_mulmod(a: tuple[int, ...], b: tuple[int, ...], mod: tuple[int, ...],
                 p: int) -> tuple[int, ...]:
    """a b mod the monic `mod` over GF(p)."""
    prod = [0] * (len(a) + len(b))
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                prod[i + j] += x * y
    return _poly_mod(tuple(v % p for v in prod), mod, p)


def _poly_gcd(a: tuple[int, ...], b: tuple[int, ...], p: int) -> tuple[int, ...]:
    """A gcd of a and b over GF(p), up to a unit factor."""
    while b:
        lead = pow(b[-1], p - 2, p)
        a, b = b, _poly_mod(a, tuple(c * lead % p for c in b), p)
    return a


def is_irreducible(cofs: tuple[int, ...], p: int) -> bool:
    """Ben-Or's test: a monic f of degree e >= 1 is irreducible iff
    gcd(X^(p^i) - X, f) = 1 for i = 1 .. e/2.

    X^(p^i) - X is the product of the monic irreducibles whose degree
    divides i, so the gcds find a factor of degree <= e/2 whenever f has
    one.  Each step raises the previous power to the p-th mod f, which is
    polynomial in e; most reducible candidates fail at a small i.
    """
    deg = len(cofs) - 1
    if deg < 1 or cofs[-1] != 1:
        return False
    f = tuple(cofs)
    power = _poly_mod((0, 1), f, p)
    for _ in range(deg // 2):
        # power = power^p mod f, by squaring and multiplying
        acc, base, k = (1,), power, p
        while k:
            if k & 1:
                acc = _poly_mulmod(acc, base, f, p)
            k >>= 1
            if k:
                base = _poly_mulmod(base, base, f, p)
        power = acc
        diff = list(power) + [0] * (2 - len(power))
        diff[1] = (diff[1] - 1) % p
        if len(_poly_gcd(f, _trim(tuple(diff)), p)) > 1:
            return False
    return True


@functools.lru_cache(maxsize=None)
def least_irreducible(p: int, e: int) -> tuple[int, ...]:
    """The monic irreducible of degree e with the smallest integer encoding."""
    for cand in _monic_polys(p, e):
        if is_irreducible(cand, p):
            return cand
    raise AssertionError(f"no irreducible of degree {e} over GF({p})")


def _clmul(a: int, b: int) -> int:
    """The carry-less product of two packed GF(2) polynomials, unreduced."""
    r = 0
    while b:
        low = b & -b
        r ^= a * low  # a shifted up to b's lowest set bit
        b ^= low
    return r


# ---------------------------------------------------------------------------
# single field context


class FieldCtx:
    """The field GF(p^e) with the canonical (lexicographically least) modulus.

    Elements are ints in [0, p^e).  All operations are pure; instances are
    immutable after construction and safe to share across threads.
    """

    __slots__ = (
        "p", "e", "order", "modulus",
        "_taps", "_slot", "_inv_slot", "_inv_modulus",
        "_lift_chunk", "_lift_step", "_lifts",
        "_exp", "_log", "_zech", "_neg", "_primitive",
    )

    def __init__(self, p: int, e: int):
        if e < 1:
            raise ValueError(f"extension degree must be positive, got {e}")
        # p^41 > 2^40 for every p >= 2, so the exponent is cut at 41 before
        # any work that p or e sizes: a huge e never builds p^e
        if p ** min(e, 41) > ORDER_LIMIT:
            raise DegreeOverflow(f"p^e = {p}^{e} exceeds the {ORDER_LIMIT} limit")
        if not is_prime(p):
            raise NotPrime(f"{p} is not prime")
        self.p = p
        self.e = e
        self.order = p ** e
        self.modulus = least_irreducible(p, e)
        self._init_generic()
        self._exp = self._log = self._zech = self._neg = None
        self._primitive = None
        if self.order <= LOG_TABLE_LIMIT:
            self._build_tables()

    def _init_generic(self):
        """Constants of the generic arithmetic; none is sized by the order."""
        p, e = self.p, self.e
        # X^e = sum of m X^j over the taps (j, m), the modulus's nonzero
        # lower terms negated
        self._taps = tuple((j, -c % p) for j, c in enumerate(self.modulus[:-1]) if c)
        # odd p multiplies in slots of _slot bits, wide enough for a
        # coefficient of DOT_BLOCK products plus one element (at most
        # (DOT_BLOCK + 1) e (p - 1)^2) through every fold of the terms at
        # X^e and above into the taps
        bound, excess = (DOT_BLOCK + 1) * e * (p - 1) ** 2, e - 1
        top_tap = max((j for j, _ in self._taps), default=0)
        while excess > 0:
            bound *= 1 + sum(m for _, m in self._taps)
            excess -= e - top_tap
        self._slot = bound.bit_length()
        # inv runs Euclid from the modulus spread into _inv_slot-bit slots,
        # wide enough for odd p (see _g_inv); for p = 2 a slot is one bit,
        # and the spread modulus is the packed one
        self._inv_slot = 1 if p == 2 else (p ** (2 * e + 1)).bit_length()
        self._inv_modulus = self._spread(self.from_coeffs(self.modulus), self._inv_slot)
        # odd p above the table limit lifts _lift_chunk = p^k at a time:
        # _lifts[x] is the k-digit chunk x spread into _slot-bit slots, for
        # the largest k with p^k <= LIFT_TABLE_LIMIT; a p above the limit
        # gets no table and lifts digit by digit
        self._lift_chunk, self._lift_step, self._lifts = p, self._slot, None
        if 2 < p <= LIFT_TABLE_LIMIT and self.order > LOG_TABLE_LIMIT:
            while self._lift_chunk * p <= LIFT_TABLE_LIMIT:
                self._lift_chunk *= p
                self._lift_step += self._slot
            self._lifts = [self._spread(x, self._slot)
                           for x in range(self._lift_chunk)]

    # -- representation helpers

    def coeffs(self, a: int) -> tuple[int, ...]:
        """Base-p digits of a, low degree first, padded to length e."""
        p = self.p
        out = []
        for _ in range(self.e):
            a, c = divmod(a, p)
            out.append(c)
        return tuple(out)

    def from_coeffs(self, cofs) -> int:
        v = 0
        for c in reversed(tuple(cofs)):
            v = v * self.p + c % self.p
        return v

    def elements(self) -> range:
        return range(self.order)

    def is_element(self, a) -> bool:
        return isinstance(a, int) and 0 <= a < self.order

    # -- generic arithmetic (any order up to ORDER_LIMIT, on the encoding)

    def _g_add(self, a: int, b: int) -> int:
        p = self.p
        out, shift = 0, 1
        while a or b:
            a, x = divmod(a, p)
            b, y = divmod(b, p)
            out += (x + y) % p * shift
            shift *= p
        return out

    def _g_neg(self, a: int) -> int:
        p = self.p
        out, shift = 0, 1
        while a:
            a, c = divmod(a, p)
            out += (-c % p) * shift
            shift *= p
        return out

    def _spread(self, a: int, w: int) -> int:
        """An int holding a's base-p digits in w-bit slots, low degree first."""
        p = self.p
        out = shift = 0
        while a:
            a, c = divmod(a, p)
            out |= c << shift
            shift += w
        return out

    def _unspread(self, v: int, w: int, scale: int) -> int:
        """The element whose digits are scale times the first e w-bit
        slots of v, reduced mod p."""
        p, mask = self.p, (1 << w) - 1
        out = 0
        for shift in range((self.e - 1) * w, -1, -w):
            out = out * p + (v >> shift & mask) * scale % p
        return out

    def _lift(self, a: int) -> int:
        """a spread into _slot-bit slots (odd p), a chunk of digits at a
        time through _lifts when the field has that table."""
        lifts = self._lifts
        if lifts is None:
            return self._spread(a, self._slot)
        size, step = self._lift_chunk, self._lift_step
        out = shift = 0
        while a:
            a, x = divmod(a, size)
            out |= lifts[x] << shift
            shift += step
        return out

    def _reduce(self, v: int) -> int:
        """The element whose polynomial is v's _slot-bit slots (odd p):
        the slots at X^e and above fold into the taps, then every slot is
        taken mod p.  v may be a sum of up to DOT_BLOCK lifted products
        plus one lifted element; no slot ever overflows."""
        w, taps = self._slot, self._taps
        ew = self.e * w
        while high := v >> ew:
            v ^= high << ew
            for j, m in taps:
                v += high * m << j * w
        return self._unspread(v, w, 1)

    def _fold(self, r: int) -> int:
        """A carry-less packed polynomial (p = 2) reduced mod the modulus:
        the bits at X^e and above fold down into the taps."""
        e, taps = self.e, self._taps
        while high := r >> e:
            r ^= high << e
            for j, _ in taps:
                r ^= high << j
        return r

    def _g_mul(self, a: int, b: int) -> int:
        if self.p == 2:
            return self._fold(_clmul(a, b))
        # Kronecker substitution: one integer product holds every
        # coefficient of the product polynomial
        return self._reduce(self._lift(a) * self._lift(b))

    def _g_inv(self, a: int) -> int:
        # extended Euclid on a and the modulus
        if self.p == 2:
            # step the higher-degree of u and v down by the other, keeping
            # g a = u and h a = v modulo the modulus
            u, v, g, h = a, self._inv_modulus, 1, 0
            while u != 1:
                j = u.bit_length() - v.bit_length()
                if j < 0:
                    u, v, g, h = v, u, h, g
                    j = -j
                u ^= v << j
                g ^= h << j
            return g
        # One long division r0 = q r1 + r per round, with s0 - q s1 formed
        # alongside, so that s a = r modulo the modulus for each pair; r
        # and s are spread into w-bit slots.  A quotient term c adds
        # (p - c) times a shifted divisor, and no slot is reduced mod p
        # until the end: a round with t quotient terms multiplies the
        # largest slot by at most 1 + t (p - 1) <= p^t, the t of all rounds
        # sum to at most 2e, so every slot stays below p^(2e + 1) < 2^w.
        p, w = self.p, self._inv_slot
        mask = (1 << w) - 1
        r0, d0 = self._inv_modulus, self.e
        r1 = self._spread(a, w)
        d1 = (r1.bit_length() - 1) // w
        s0, s1 = 0, 1
        while d1:
            lead = pow(r1 >> d1 * w, -1, p)
            r, s = r0, s0
            for i in range(d0, d1 - 1, -1):
                c = (r >> i * w & mask) * lead % p
                if c:
                    shift = (i - d1) * w
                    r += (p - c) * r1 << shift
                    s += (p - c) * s1 << shift
            # r now lies below degree d1: find its degree and drop the
            # slots above it, which hold multiples of p
            d = d1 - 1
            while not (r >> d * w & mask) % p:
                d -= 1
            r0, d0, r1, d1 = r1, d1, r & ((1 << (d + 1) * w) - 1), d
            s0, s1 = s1, s
        return self._unspread(s1, w, pow(r1, -1, p))

    # -- public arithmetic

    def add(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        return self._g_add(a, b)

    def neg(self, a: int) -> int:
        if self.p == 2:
            return a
        if self._neg is not None:
            return self._neg[a]
        return self._g_neg(a)

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        if self._exp is not None:
            return self._exp[self._log[a] + self._log[b]]
        return self._g_mul(a, b)

    def axpy(self, y: int, xs, ws) -> list[int]:
        """[x + y w for x, w in zip(xs, ws)], the row update of elimination.

        y = 0 returns a copy of xs, and a zero w leaves its x as it is.
        Table fields work on the exp/log lists directly: p = 2 adds by XOR,
        odd p through the Zech table.  Generic p = 2 adds by XOR too;
        generic odd p lifts y once and reduces x + y w once per entry, so
        the add costs no digit loop of its own.
        """
        if not y:
            return list(xs)
        exp = self._exp
        if exp is None:
            if self.p == 2:
                mul = self._g_mul
                return [x ^ mul(y, w) if w else x for x, w in zip(xs, ws)]
            lift, reduce = self._lift, self._reduce
            ly = lift(y)
            return [reduce(lift(x) + ly * lift(w)) if w else x
                    for x, w in zip(xs, ws)]
        log = self._log
        ly = log[y]
        if self.p == 2:
            return [x ^ exp[ly + log[w]] if w else x for x, w in zip(xs, ws)]
        zech, om1 = self._zech, self.order - 1
        # x + y w = gamma^lx (1 + gamma^(log(y w) - lx)) for x = gamma^lx
        return [(exp[lx + z] if (z := zech[(ly + log[w] - lx) % om1]) >= 0 else 0)
                if x and w else exp[ly + log[w]] if w else x
                for x, w in zip(xs, ws) for lx in (log[x],)]

    def dots(self, xs, cols) -> list[int]:
        """[the sum of x w over zip(xs, ws) for ws in cols], for a sequence
        xs and an iterable cols of sequences at least as long as xs: a row
        of a matrix product, a codeword or a syndrome.

        xs is read once per call, not once per column: the nonzero xs are
        kept with their positions, and each column reads only the w at
        those.  Table fields keep the logs of the xs: p = 2 XORs the
        products, odd p adds each to the running sum's log through the
        Zech table.  Generic fields reduce once per sum, not once per
        product: p = 2 XORs the unreduced carry-less products and folds
        the sum once; odd p keeps the xs lifted, adds the lifted products
        as plain integers and reduces once per DOT_BLOCK of them, each
        block starting from the lifted sum of the blocks before it.
        """
        exp = self._exp
        if exp is not None:
            log = self._log
            nz = [(i, log[x]) for i, x in enumerate(xs) if x]
            out = []
            if self.p == 2:
                for ws in cols:
                    acc = 0
                    for i, lx in nz:
                        if w := ws[i]:
                            acc ^= exp[lx + log[w]]
                    out.append(acc)
                return out
            zech, om1 = self._zech, self.order - 1
            for ws in cols:
                la = -1  # the log of the running sum, -1 while it is 0
                for i, lx in nz:
                    if w := ws[i]:
                        lp = lx + log[w]
                        if la < 0:
                            la = lp
                        elif (z := zech[(lp - la) % om1]) < 0:
                            la = -1
                        else:
                            la = (la + z) % om1
                out.append(exp[la] if la >= 0 else 0)
            return out
        out = []
        if self.p == 2:
            fold = self._fold
            nz = [(i, x) for i, x in enumerate(xs) if x]
            for ws in cols:
                acc = 0
                for i, x in nz:
                    if w := ws[i]:
                        acc ^= _clmul(x, w)
                out.append(fold(acc))
            return out
        lift, reduce = self._lift, self._reduce
        nz = [(i, lift(x)) for i, x in enumerate(xs) if x]
        blocks = [nz[b:b + DOT_BLOCK] for b in range(0, len(nz), DOT_BLOCK)]
        for ws in cols:
            acc = 0
            for block in blocks:
                v = lift(acc)
                for i, lx in block:
                    if w := ws[i]:
                        v += lx * lift(w)
                acc = reduce(v)
            out.append(acc)
        return out

    def child_keys(self, rows, xs):
        """For each position x in xs, the keys of the columns after x in
        the two-row child that elim.node_step(rows, x) builds from the
        three-row node rows, or None when the column at x is zero there.
        Keys are only compared (elim.key_masks): two nonzero residuals
        share one iff they are proportional, and -2 keys the zero residual.
        Yields them one x at a time, so a walk that stops early computes no
        more; rows are not modified.

        Table fields build no child (elim's docstring has the rule): x
        pivots on its first row r nonzero at x, and _chart scales the
        columns once per node and r.  A later column's key is the slope
        (z - z_x)/(y - y_x) as an element, -1 when only y = y_x, 0 when
        only z = z_x and -2 when both, or z/y, fixed, for a column that
        is zero in r.  p = 2 subtracts by XOR and divides by log
        difference.  Odd p keeps the scaled entries as logs and reads
        log(y - y_x) off the Zech table.  Generic fields, and rows that are
        not three, run node_step and elim.pair_keys per pick.
        """
        exp = self._exp
        if exp is None or len(rows) != 3:
            mul, neg, inv, axpy = self.mul, self.neg, self.inv, self.axpy
            for x in xs:
                child = node_step(rows, x, mul, neg, inv, axpy)
                yield None if child is None else pair_keys(child, mul, inv)
            return
        log, zech, om1 = self._log, self._zech, self.order - 1
        half = om1 // 2  # -1 = gamma^half for odd p
        charts = [None, None, None]
        for x in xs:
            r = 0 if rows[0][x] else 1 if rows[1][x] else 2 if rows[2][x] else -1
            if r < 0:
                yield None
                continue
            chart = charts[r]
            if chart is None:
                chart = charts[r] = self._chart(rows[r], *rows[:r], *rows[r + 1:])
            yx, zx, _ = chart[x]
            if zech is None:
                yield [f if f is not None
                       else (exp[om1 + log[dz] - log[dy]] if (dz := z ^ zx) else 0)
                       if (dy := y ^ yx) else -1 if z != zx else -2
                       for y, z, f in chart[x + 1:]]
                continue
            # y and z are logs, -1 for 0, and ny = log(-y_x): dy = log(y -
            # y_x) = y + zech[ny - y], -1 when y = y_x; ny when y = 0; y
            # when y_x = 0 (ny = -1).  dz alike
            ny = (yx + half) % om1 if yx >= 0 else -1
            nz = (zx + half) % om1 if zx >= 0 else -1
            yield [f if f is not None
                   else (exp[(dz - dy) % om1] if (dy := (
                       (y + t if (t := zech[ny - y]) >= 0 else -1) if y >= 0 <= ny
                       else ny if y < 0 else y)) >= 0 else -1)
                   if (dz := ((z + t if (t := zech[nz - z]) >= 0 else -1) if z >= 0 <= nz
                              else nz if z < 0 else z)) >= 0
                   else 0 if y != yx else -2
                   for y, z, f in chart[x + 1:]]

    def _chart(self, es, ys, zs):
        """child_keys' chart of a three-row node pivoting on the row es,
        with ys and zs its other two rows: per column, (y / e, z / e, None)
        when its entry e in es is nonzero, as values for p = 2 and as logs,
        -1 for 0, for odd p; and (0, 0, the key of z / y) when e = 0."""
        exp, log, om1 = self._exp, self._log, self.order - 1
        if self.p == 2:
            return [(exp[le + log[y]] if y else 0, exp[le + log[z]] if z else 0, None) if e
                    else (0, 0, (exp[om1 + log[z] - log[y]] if z else 0) if y
                          else -1 if z else -2)
                    for e, y, z in zip(es, ys, zs) for le in (om1 - log[e],)]
        return [((log[y] - le) % om1 if y else -1, (log[z] - le) % om1 if z else -1, None) if e
                else (0, 0, (exp[om1 + log[z] - log[y]] if z else 0) if y else -1 if z else -2)
                for e, y, z in zip(es, ys, zs) for le in (log[e],)]

    def inv(self, a: int) -> int:
        if a == 0:
            raise DivisionByZero("inverse of zero")
        if self._exp is not None:
            return self._exp[self.order - 1 - self._log[a]]
        return self._g_inv(a)

    def pow(self, a: int, n: int) -> int:
        """a^n by square-and-multiply; n must be a non-negative integer."""
        if n < 0:
            raise ValueError("exponent must be non-negative")
        if a == 0:
            return 1 if n == 0 else 0
        if self._exp is not None:
            return self._exp[self._log[a] * n % (self.order - 1)]
        result, base = 1, a
        while n:
            if n & 1:
                result = self._g_mul(result, base)
            base = self._g_mul(base, base)
            n >>= 1
        return result

    # -- multiplicative structure

    def mult_order(self, a: int) -> int:
        if a == 0:
            raise DivisionByZero("zero has no multiplicative order")
        n = self.order - 1
        for f in prime_factors(n) if n > 1 else []:
            while n % f == 0 and self.pow(a, n // f) == 1:
                n //= f
        return n

    @property
    def primitive(self) -> int:
        """Smallest element (integer encoding) of multiplicative order p^e - 1."""
        if self._primitive is None:
            target = self.order - 1
            for a in range(1, self.order):
                if self.mult_order(a) == target:
                    self._primitive = a
                    break
        return self._primitive

    def _build_tables(self):
        # exp is doubled so mul needs no modular reduction of log sums
        om1 = self.order - 1
        gamma = self.primitive
        exp = [1] * (2 * om1)
        log = [0] * self.order
        x = 1
        for i in range(om1):
            exp[i] = exp[i + om1] = x
            log[x] = i
            x = self._g_mul(x, gamma)
        if x != 1:
            raise AssertionError("primitive element has wrong order")
        self._exp, self._log = exp, log
        if self.p != 2:
            # Zech logarithms: zech[i] = log(1 + gamma^i), -1 when
            # 1 + gamma^i = 0; p = 2 adds by XOR
            zech = [0] * om1
            for i in range(om1):
                y = self._g_add(1, exp[i])
                zech[i] = log[y] if y else -1
            self._zech = zech
            self._neg = [self._g_neg(a) for a in range(self.order)]

    # -- identity

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FieldCtx)
            and self.p == other.p
            and self.e == other.e
            and self.modulus == other.modulus
        )

    def __hash__(self) -> int:
        return hash((self.p, self.e, self.modulus))

    def __repr__(self) -> str:
        return f"GF({self.p}^{self.e})" if self.e > 1 else f"GF({self.p})"


@functools.lru_cache(maxsize=None)
def field_ctx(p: int, e: int = 1) -> FieldCtx:
    """Shared, cached context for GF(p^e) with the canonical modulus."""
    return FieldCtx(p, e)


# ---------------------------------------------------------------------------
# tower GF(p) <= GF(q) <= GF(q^m)


def _apply(cols, vec, p: int) -> list[int]:
    """The GF(p) product of the matrix with the given columns and vec,
    vec read as if zero-padded (or cut) to the number of columns; a zero
    entry of vec costs nothing."""
    out = [0] * len(cols[0])
    for v, col in zip(vec, cols):
        if v:
            out = [o + v * c for o, c in zip(out, col)]
    return [o % p for o in out]


class FieldTower:
    """The pair GF(q) <= GF(q^m), q = p^s, both realized over GF(p).

    The top field is GF(p)[X]/(M) for the canonical modulus M of degree s*m.
    The base field GF(q) has its own canonical modulus of degree s and is
    embedded by sending its generator B to the smallest (in integer
    encoding) root of that modulus among the q elements of the subfield
    {0} u <w>, w = gamma^((q^m-1)/(q-1)) for the top primitive gamma.

    Every map between the two fields reads one GF(p)-linear bijection
    GF(q)^m -> GF(q^m), (c_0, ..., c_{m-1}) -> sum embed(c_j) X^j, and its
    inverse: `_to_top` lists the columns of its matrix on the GF(p)-bases
    (B^u) of GF(q) and (X^i) of GF(q^m), column (j, u) holding the digits
    of embed(B)^u X^j, and `_from_top` those of the inverse matrix.
    `from_base_coords` and `embed` apply the first, `base_coords` and
    `embed_inv` the second.
    `polynomial_basis` is the GF(q)-basis 1, X, ..., X^(m-1).  Immutable,
    and safe to share across threads.
    """

    __slots__ = (
        "base", "top", "s", "m", "q", "polynomial_basis",
        "_to_top", "_from_top",
    )

    def __init__(self, p: int, s: int, m: int):
        if s < 1 or m < 1:
            raise ValueError("extension degrees must be positive")
        self.base = field_ctx(p, s)
        self.top = top = field_ctx(p, s * m)
        self.s = s
        self.m = m
        self.q = self.base.order
        basis = [1]
        for _ in range(m - 1):
            basis.append(top.mul(basis[-1], p))
        self.polynomial_basis = tuple(basis)
        root = self._least_subfield_root()
        root_powers = [1]
        for _ in range(s - 1):
            root_powers.append(top.mul(root_powers[-1], root))
        self._to_top = [top.coeffs(top.mul(rp, x))
                        for x in basis for rp in root_powers]
        rows = [list(row) for row in zip(*self._to_top)]
        self._from_top = list(zip(*inverse(rows, field_ctx(p))))

    # -- the coordinate map

    def _least_subfield_root(self) -> int:
        """Smallest root of the base modulus among the subfield's q elements."""
        top = self.top
        w = top.pow(top.primitive, (top.order - 1) // (self.q - 1))
        sub = [0, 1]
        for _ in range(self.q - 2):
            sub.append(top.mul(sub[-1], w))
        for x in sorted(sub):
            # Horner; base-modulus coefficients are GF(p) scalars, which
            # encode identically in the top field.
            acc = 0
            for c in reversed(self.base.modulus):
                acc = top.add(top.mul(acc, x), c)
            if acc == 0:
                return x
        raise AssertionError("base modulus has no root in the subfield")

    def from_base_coords(self, cofs) -> int:
        """sum embed(c_j) X^j: the element with the given GF(q) coordinates."""
        digits = [d for c in cofs for d in self.base.coeffs(c)]
        return self.top.from_coeffs(_apply(self._to_top, digits, self.top.p))

    def base_coords(self, y: int) -> tuple[int, ...]:
        """Coordinates of y over the canonical GF(q)-basis, as base-field elements."""
        s = self.s
        sol = _apply(self._from_top, self.top.coeffs(y), self.top.p)
        return tuple(self.base.from_coeffs(sol[j * s:(j + 1) * s])
                     for j in range(self.m))

    def embed(self, a: int) -> int:
        """Field homomorphism GF(q) -> GF(q^m)."""
        return self.from_base_coords((a,))

    def embed_inv(self, x: int) -> int:
        """Inverse of embed; raises ValueError if x is not in the subfield."""
        if not self.top.is_element(x):
            raise ValueError(f"{x} is not an element of {self.top!r}")
        a, *rest = self.base_coords(x)
        if any(rest):
            raise ValueError(f"{x} is not in the embedded subfield")
        return a

    # -- tower operations

    def frobenius(self, x: int) -> int:
        """x^q, the relative Frobenius."""
        return self.top.pow(x, self.q)

    def rel_norm(self, x: int) -> int:
        """Norm from GF(q^m) to GF(q): x^((q^m-1)/(q-1)), as a base-field element."""
        if x == 0:
            raise ZeroNorm("norm of zero is excluded")
        exp = (self.top.order - 1) // (self.q - 1) if self.q > 1 else 1
        return self.embed_inv(self.top.pow(x, exp))

    def distinct_norm_elements(self, g: int) -> tuple[int, ...]:
        """g top-field units with pairwise distinct relative norms: 1, y, ..., y^(g-1)."""
        if g < 1:
            raise ValueError("need at least one block")
        if g > self.q - 1:
            raise TooManyBlocks(f"g = {g} exceeds q - 1 = {self.q - 1} norm values")
        gamma = self.top.primitive
        out = [1]
        for _ in range(g - 1):
            out.append(self.top.mul(out[-1], gamma))
        norms = {self.rel_norm(a) for a in out}
        if len(norms) != g:
            raise AssertionError("norms of primitive powers collided")
        return tuple(out)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FieldTower)
            and self.base == other.base
            and self.top == other.top
        )

    def __hash__(self) -> int:
        return hash((self.base, self.top))

    def __repr__(self) -> str:
        return f"Tower({self.base!r} <= {self.top!r})"


@functools.lru_cache(maxsize=None)
def make_tower(p: int, s: int, m: int) -> FieldTower:
    """Cached tower GF(p^s) <= GF(p^(s*m)) with all canonical choices."""
    return FieldTower(p, s, m)
