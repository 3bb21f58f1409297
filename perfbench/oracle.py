"""Reference arithmetic and combinatorics the benchmark checks mrlrc against.

Nothing here imports mrlrc.  The field is GF(p)[X]/(modulus) with elements
in the same base-p integer encoding that MRLRC bundles use, so bundle
entries can be fed in unchanged.  Polynomial multiplication is carry-less
on ints for p = 2 and on digit lists for odd p; fields of order up to
2^16 then tabulate the powers of the first generator found, so that
checking many encoded words stays cheap.  Elimination is plain Gauss-Jordan with no shared code.
The pattern count follows the definition of a maximal locally correctable
pattern directly, by brute force over one group's subsets.
"""

from __future__ import annotations

import itertools

TABLE_LIMIT = 1 << 16


class GF:
    """GF(p^e) defined by a monic modulus given low coefficient first."""

    def __init__(self, p: int, modulus, tables: bool = True):
        modulus = [int(c) % p for c in modulus]
        if len(modulus) < 2 or modulus[-1] != 1:
            raise ValueError("modulus must be monic of degree >= 1")
        self.p = p
        self.e = len(modulus) - 1
        self.order = p ** self.e
        self.modulus = modulus
        # bitmask of the modulus, used by the p = 2 path
        self._mod_bits = sum(1 << i for i, c in enumerate(modulus) if c)
        self._exp = self._log = None
        if tables and self.order <= TABLE_LIMIT:
            self._tabulate()

    def _tabulate(self):
        """exp/log tables from the first element whose powers fill the
        unit group; left out if there is none (a reducible modulus)."""
        units = self.order - 1
        for g in range(1, self.order):
            exp, x = [], 1
            for _ in range(units):
                exp.append(x)
                x = self.poly_mul(x, g)
                if x == 1:
                    break
            if len(exp) == units and x == 1:
                log = [0] * self.order
                for i, v in enumerate(exp):
                    log[v] = i
                self._exp, self._log = exp + exp, log
                return

    def digits(self, a: int) -> list[int]:
        p, out = self.p, []
        for _ in range(self.e):
            a, d = divmod(a, p)
            out.append(d)
        return out

    def undigits(self, ds) -> int:
        v = 0
        for d in reversed(ds):
            v = v * self.p + d
        return v

    def add(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        p = self.p
        return self.undigits([(x + y) % p
                              for x, y in zip(self.digits(a), self.digits(b))])

    def neg(self, a: int) -> int:
        if self.p == 2:
            return a
        p = self.p
        return self.undigits([-x % p for x in self.digits(a)])

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        if self._exp is not None:
            return self._exp[self._log[a] + self._log[b]]
        return self.poly_mul(a, b)

    def poly_mul(self, a: int, b: int) -> int:
        """The product by polynomial multiplication modulo the modulus."""
        if a == 0 or b == 0:
            return 0
        e = self.e
        if self.p == 2:
            prod = 0
            while b:
                if b & 1:
                    prod ^= a
                a <<= 1
                b >>= 1
            mod = self._mod_bits
            for shift in range(prod.bit_length() - 1 - e, -1, -1):
                if prod >> (shift + e) & 1:
                    prod ^= mod << shift
            return prod
        p, mod = self.p, self.modulus
        da, db = self.digits(a), self.digits(b)
        prod = [0] * (2 * e - 1)
        for i, x in enumerate(da):
            if x:
                for j, y in enumerate(db):
                    prod[i + j] += x * y
        # reduce with X^e = -(m_0 + ... + m_{e-1} X^{e-1}), top degree first
        for deg in range(2 * e - 2, e - 1, -1):
            c = prod[deg] % p
            if c:
                base = deg - e
                for j in range(e):
                    prod[base + j] -= c * mod[j]
        return self.undigits([c % p for c in prod[:e]])

    def pow(self, a: int, n: int) -> int:
        out = 1
        while n:
            if n & 1:
                out = self.mul(out, a)
            a = self.mul(a, a)
            n >>= 1
        return out

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        if self._exp is not None:
            return self._exp[(self.order - 1 - self._log[a]) % (self.order - 1)]
        return self.pow(a, self.order - 2)


def rank(field: GF, rows) -> int:
    """Rank by Gauss-Jordan elimination over the given field."""
    m = [list(r) for r in rows]
    if not m:
        return 0
    ncols = len(m[0])
    rk = 0
    for c in range(ncols):
        piv = next((i for i in range(rk, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[rk], m[piv] = m[piv], m[rk]
        f = field.inv(m[rk][c])
        m[rk] = [field.mul(f, v) for v in m[rk]]
        for i in range(len(m)):
            if i != rk and m[i][c]:
                g = m[i][c]
                m[i] = [field.sub(v, field.mul(g, w)) for v, w in zip(m[i], m[rk])]
        rk += 1
        if rk == len(m):
            break
    return rk


def det(field: GF, rows) -> int:
    """Determinant of a square matrix by forward elimination."""
    m = [list(r) for r in rows]
    n = len(m)
    out = 1
    for c in range(n):
        piv = next((i for i in range(c, n) if m[i][c]), None)
        if piv is None:
            return 0
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            out = field.neg(out)
        out = field.mul(out, m[c][c])
        f = field.inv(m[c][c])
        for i in range(c + 1, n):
            if m[i][c]:
                g = field.mul(f, m[i][c])
                m[i] = [field.sub(v, field.mul(g, w)) for v, w in zip(m[i], m[c])]
    return out


def columns(rows, cols_1based) -> list[list[int]]:
    """The submatrix on the given 1-based columns."""
    return [[r[c - 1] for c in cols_1based] for r in rows]


def mat_vec(field: GF, rows, vec) -> list[int]:
    """rows . vec over the field."""
    out = []
    for r in rows:
        acc = 0
        for a, b in zip(r, vec):
            if a and b:
                acc = field.add(acc, field.mul(a, b))
        out.append(acc)
    return out


def group_maximal_sets(r: int, delta: int, t: int, N: int) -> list[tuple]:
    """Every maximal locally correctable pattern of one group, 1-based.

    The group is the core T = [1, t] plus N segments of w = r+delta-1-t
    coordinates; repair set j is T plus segment j.  A set E of N(delta-1)
    coordinates is maximal when some witness j has |E n R_j| = delta-1 and
    every other repair set has exactly delta-1 of E outside the core.
    """
    w = r + delta - 1 - t
    width = t + N * w
    core = set(range(1, t + 1))
    repair = [core | set(range(t + j * w + 1, t + (j + 1) * w + 1))
              for j in range(N)]
    d1 = delta - 1
    out = []
    for sel in itertools.combinations(range(1, width + 1), N * d1):
        e = set(sel)
        if any(len(e & repair[j]) == d1 and
               all(len(e & (repair[l] - core)) == d1
                   for l in range(N) if l != j)
               for j in range(N)):
            out.append(sel)
    return out
